#ifndef MVG_GRAPH_GRAPH_H_
#define MVG_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mvg {

class GraphBuilder;

/// Immutable undirected simple graph in CSR (compressed sparse row) form:
/// one `offsets` array of size |V|+1 and one flat `neighbors` array of size
/// 2|E|, with each vertex's neighbors sorted ascending and deduplicated.
///
/// Vertices are dense integers [0, num_vertices). Graphs are constructed
/// through GraphBuilder (or the FromEdges convenience); once built they
/// never change, so queries need no finalization step and the storage is
/// two cache-friendly flat arrays instead of a vector per vertex.
class Graph {
 public:
  using VertexId = uint32_t;

  /// Non-owning view of one vertex's sorted neighbor list (a contiguous
  /// slice of the CSR neighbors array).
  class NeighborSpan {
   public:
    NeighborSpan(const VertexId* data, size_t size)
        : data_(data), size_(size) {}
    const VertexId* begin() const { return data_; }
    const VertexId* end() const { return data_ + size_; }
    const VertexId* data() const { return data_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    VertexId operator[](size_t i) const { return data_[i]; }

   private:
    const VertexId* data_;
    size_t size_;
  };

  /// Edgeless graph on `num_vertices` vertices (0 by default).
  Graph() : Graph(0) {}
  explicit Graph(size_t num_vertices) : offsets_(num_vertices + 1, 0) {}

  size_t num_vertices() const { return offsets_.size() - 1; }
  size_t num_edges() const { return neighbors_.size() / 2; }

  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted, deduplicated neighbor list of `v`.
  NeighborSpan Neighbors(VertexId v) const {
    return NeighborSpan(neighbors_.data() + offsets_[v], Degree(v));
  }

  /// Flat CSR offset array, size num_vertices()+1 — the vectorized degree
  /// kernels in graph_stats read all degrees as one adjacent-difference
  /// sweep instead of |V| Degree() calls.
  const size_t* offset_data() const { return offsets_.data(); }

  /// Binary search on the shorter of the two adjacency lists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// All edges with u < v, ordered by (u, v).
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Builds a graph directly from an edge list (duplicates and self loops
  /// are dropped, order is irrelevant).
  static Graph FromEdges(
      size_t num_vertices,
      const std::vector<std::pair<VertexId, VertexId>>& edges);

 private:
  friend class GraphBuilder;

  std::vector<size_t> offsets_;      ///< size |V|+1; offsets_[v]..offsets_[v+1]
  std::vector<VertexId> neighbors_;  ///< flat sorted adjacency, size 2|E|
};

/// Accumulates edges and finalizes them into a CSR Graph with a two-pass
/// counting sort (stable radix on neighbor id, then on owner id), so the
/// adjacency comes out sorted without any per-vertex sort or allocation.
///
/// All scratch buffers are retained across Reset()/Build() cycles: a
/// builder that is reused for a batch of similar-sized graphs reaches a
/// steady state where constructing a graph allocates nothing (the pooled
/// construction path VgWorkspace relies on).
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(size_t num_vertices) { Reset(num_vertices); }

  /// Discards pending edges and retargets the builder at a graph on
  /// `num_vertices` vertices. Keeps all buffer capacity.
  void Reset(size_t num_vertices);

  /// Grows the pending-edge capacity (optional; AddEdge amortizes anyway).
  void Reserve(size_t num_edges);

  /// Records the undirected edge {u, v}. Self loops are ignored; duplicate
  /// edges are deduplicated by Build()/BuildInto(). Throws
  /// std::out_of_range for vertex ids >= num_vertices().
  void AddEdge(Graph::VertexId u, Graph::VertexId v);

  size_t num_vertices() const { return num_vertices_; }

  /// Number of AddEdge calls recorded since the last Reset (self loops
  /// excluded, duplicates still included).
  size_t num_pending_edges() const { return edge_u_.size(); }

  /// Finalizes the pending edges into a fresh Graph. Non-destructive:
  /// calling Build() twice yields two identical graphs.
  Graph Build();

  /// Finalizes into `*g`, reusing its existing CSR storage. With a
  /// recycled target graph and a warm builder this performs zero
  /// allocations in the steady state.
  void BuildInto(Graph* g);

  /// The counting sort's two arc arrays, 2 * num_pending_edges() ids each
  /// after a build and dead once it returns. A pass over the graph just
  /// built may borrow them as edge-sized scratch instead of allocating its
  /// own (the motif counter does); the next build overwrites whatever the
  /// borrower leaves there.
  struct ArcBuffers {
    std::vector<Graph::VertexId>* a;
    std::vector<Graph::VertexId>* b;
  };
  ArcBuffers BorrowArcBuffers() { return {&arc_owner_, &arc_nbr_}; }

 private:
  size_t num_vertices_ = 0;
  // Pending edges as parallel arrays (struct-of-arrays keeps the counting
  // sort passes sequential over one array at a time).
  std::vector<Graph::VertexId> edge_u_;
  std::vector<Graph::VertexId> edge_v_;
  // Counting-sort scratch, reused across builds.
  std::vector<size_t> count_;
  std::vector<Graph::VertexId> arc_owner_;
  std::vector<Graph::VertexId> arc_nbr_;
};

}  // namespace mvg

#endif  // MVG_GRAPH_GRAPH_H_
