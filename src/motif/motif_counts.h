#ifndef MVG_MOTIF_MOTIF_COUNTS_H_
#define MVG_MOTIF_MOTIF_COUNTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_stats.h"

namespace mvg {

/// Number of motif classes tracked (paper Table 1): 2 two-node, 4 three-
/// node and 11 four-node induced subgraph types.
inline constexpr size_t kNumMotifs = 17;

/// Induced counts of every 2-, 3- and 4-node motif (paper Table 1).
///
/// Naming follows the paper: M21 = edge, M22 = independent pair;
/// M31 = triangle, M32 = 2-edge path, M33 = edge + isolated vertex,
/// M34 = 3 isolated vertices; M41 = 4-clique, M42 = chordal cycle
/// (diamond), M43 = tailed triangle, M44 = 4-cycle, M45 = 3-star,
/// M46 = 4-path, M47 = triangle + isolated vertex, M48 = 2-edge path +
/// isolated vertex (the paper's Table 1 prints "4-node-star" for this row;
/// the fifth disconnected type on 4 nodes is the wedge), M49 = two
/// independent edges, M410 = edge + 2 isolated vertices, M411 = 4 isolated
/// vertices.
struct MotifCounts {
  int64_t m21 = 0, m22 = 0;
  int64_t m31 = 0, m32 = 0, m33 = 0, m34 = 0;
  int64_t m41 = 0, m42 = 0, m43 = 0, m44 = 0, m45 = 0, m46 = 0;
  int64_t m47 = 0, m48 = 0, m49 = 0, m410 = 0, m411 = 0;

  /// Counts in canonical order M21..M411.
  std::array<int64_t, kNumMotifs> ToArray() const;
};

/// Canonical motif names ("M21", ..., "M411") in ToArray() order.
const std::array<std::string, kNumMotifs>& MotifNames();

/// O(|V|) scratch of the pooled motif counter: the core peel plus the
/// rank-space CSR offsets. Once the CSR is built the peel's per-vertex
/// arrays are reused as the counting passes' marks, so after a count only
/// `peel.max_core` still describes the graph. Every array is 32-bit and
/// keeps its capacity across calls.
struct MotifScratch {
  CorePeel peel;
  std::vector<uint32_t> offsets;  ///< rank-space CSR offsets, |V| + 1
  std::vector<uint32_t> up;       ///< first higher-ranked arc of each rank
};

/// Counts all induced motifs up to size 4 with PGD's combinatorial
/// equations (Ahmed et al., "Efficient Graphlet Counting for Large
/// Networks", ICDM 2015): per-edge triangle counts, K4s and non-induced
/// 4-cycles are enumerated; everything else follows from degree sums and
/// the non-induced -> induced conversion — no 4-subset enumeration.
///
/// The enumeration is one pass oriented by the degeneracy order of a core
/// peel (Chiba & Nishizeki, "Arboricity and subgraph listing algorithms",
/// SIAM J. Comput. 1985): every vertex has at most alpha neighbours
/// ranked above it, alpha the degeneracy (max core), so the pass runs in
/// O(m * alpha) and a hub no longer costs the square of its degree.
///
/// Counts are exact whenever the closed forms fit in int64. Feature
/// extraction caps series at MvgFeatureExtractor::kMaxSeriesLength
/// (32,768) samples, where every intermediate keeps at least 8x headroom
/// even on a complete graph. Throws std::length_error for 2^31 or more
/// edges (the pass indexes arcs with 32 bits).
MotifCounts CountMotifs(const Graph& g);

/// Pooled variant, same counts. Only O(|V|) arrays live in `scratch`. The
/// edge-sized buffers — the rank-space adjacency (2|E| ids) and the
/// per-edge triangle counts — are borrowed from `lender`'s arc arrays
/// (GraphBuilder::BorrowArcBuffers), which are free between builds: pass
/// the builder that built `g`, and a warm call allocates nothing. Either
/// way the next build through `lender` overwrites them. Afterwards
/// scratch->peel.max_core is g's max core (degeneracy).
MotifCounts CountMotifs(const Graph& g, GraphBuilder* lender,
                        MotifScratch* scratch);

/// O(n^4) brute-force enumerator used by the property tests (n <= ~40).
MotifCounts CountMotifsBruteForce(const Graph& g);

/// Motif probability distribution (paper Def. 3.4 + §3.1): the 17 counts
/// normalised within the five connectivity groups {M21,M22}, {M31,M32},
/// {M33,M34}, {M41..M46}, {M47..M411}. Groups with zero total map to all
/// zeros.
std::array<double, kNumMotifs> MotifProbabilityDistribution(
    const MotifCounts& counts);

}  // namespace mvg

#endif  // MVG_MOTIF_MOTIF_COUNTS_H_
