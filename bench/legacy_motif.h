#ifndef MVG_BENCH_LEGACY_MOTIF_H_
#define MVG_BENCH_LEGACY_MOTIF_H_

// The vertex-ordered motif counter that preceded the degeneracy-ordered
// pass in src/motif, frozen with only its names changed (Legacy* prefix):
// per-edge sorted-list intersection for triangles, a K4 pair scan inside
// each common-neighbour list, and 2-walk 4-cycle counting from every
// vertex, all of which scale with the sum of squared degrees. It is the
// exact-parity reference of tests/motif_test.cc and the baseline of the
// motif_count_speedup gate (see bench/legacy_kernels.h for the
// convention: bench-only frozen copies, so the reference keeps meaning as
// src/ evolves). Its Choose4 overflows int64 for n >= 55,109; the callers
// stay far below that.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_kernels.h"
#include "motif/motif_counts.h"

namespace mvg::bench {

inline int64_t LegacyChoose2(int64_t n) { return n < 2 ? 0 : n * (n - 1) / 2; }
inline int64_t LegacyChoose3(int64_t n) {
  return n < 3 ? 0 : n * (n - 1) * (n - 2) / 6;
}
inline int64_t LegacyChoose4(int64_t n) {
  return n < 4 ? 0 : n * (n - 1) * (n - 2) * (n - 3) / 24;
}

/// Sorted-list intersection of two CSR adjacency slices.
inline void LegacyCommonNeighbors(Graph::NeighborSpan a, Graph::NeighborSpan b,
                                  std::vector<Graph::VertexId>* out) {
  out->clear();
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

inline MotifCounts LegacyCountMotifs(const Graph& g) {
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const int64_t m = static_cast<int64_t>(g.num_edges());
  MotifCounts out;

  // ---- size 2 ----
  out.m21 = m;
  out.m22 = LegacyChoose2(n) - m;

  // ---- size 3 ----
  // W = number of wedges (2-walk centers), counts each triangle 3 times.
  int64_t wedges = 0;
  for (Graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    wedges += LegacyChoose2(static_cast<int64_t>(g.Degree(v)));
  }

  // Triangle counts per edge (sorted-adjacency intersection) plus the
  // accumulators that feed the 4-node equations.
  int64_t triangles = 0;          // T
  int64_t sum_tri_choose2 = 0;    // sum_e C(T_e, 2)  -> diamonds
  int64_t cliques4_times6 = 0;    // 6 * #K4
  int64_t tailed_raw = 0;         // sum_Delta (d_u + d_v + d_w - 6)
  int64_t path3_walks = 0;        // sum_e (d_u - 1)(d_v - 1)
  std::vector<Graph::VertexId> common;
  for (Graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto& nu = g.Neighbors(u);
    const int64_t du = static_cast<int64_t>(nu.size());
    for (Graph::VertexId v : nu) {
      if (v <= u) continue;
      const auto& nv = g.Neighbors(v);
      const int64_t dv = static_cast<int64_t>(nv.size());
      path3_walks += (du - 1) * (dv - 1);
      LegacyCommonNeighbors(nu, nv, &common);
      const int64_t te = static_cast<int64_t>(common.size());
      sum_tri_choose2 += LegacyChoose2(te);
      // Enumerate each triangle exactly once with w > v > u (the suffix of
      // the sorted common list past v).
      const size_t wstart = FirstGreater(common.data(), common.size(), v);
      triangles += static_cast<int64_t>(common.size() - wstart);
      for (size_t wi = wstart; wi < common.size(); ++wi) {
        tailed_raw +=
            du + dv + static_cast<int64_t>(g.Degree(common[wi])) - 6;
      }
      // K4: adjacent pairs inside the common neighborhood; counted once
      // per edge of the K4 (6 times total). The vectorized sorted-
      // intersection replaces per-pair binary searches: pairs with the
      // later element adjacent to the earlier are exactly the elements of
      // common[i+1..] found in N(common[i]).
      for (size_t i = 0; i + 1 < common.size(); ++i) {
        const auto& nw = g.Neighbors(common[i]);
        const size_t start = FirstGreater(nw.data(), nw.size(), common[i]);
        cliques4_times6 +=
            CountSortedIntersection(common.data() + i + 1, common.size() - i - 1,
                                    nw.data() + start, nw.size() - start);
      }
    }
  }

  out.m31 = triangles;
  out.m32 = wedges - 3 * triangles;
  out.m33 = m * (n - 2) - 2 * out.m32 - 3 * out.m31;
  out.m34 = LegacyChoose3(n) - out.m31 - out.m32 - out.m33;

  // ---- size 4, connected ----
  // Non-induced 4-cycles: for every vertex u, count 2-walks u -> x -> w per
  // far endpoint w; C(cnt,2) picks two parallel walks. Every cycle is seen
  // from each of its 4 vertices once.
  // Walk counts live in a flat array indexed by far endpoint (zeroed via a
  // touched list, so each source costs O(walks), not O(n)) instead of a
  // hash map: no rehashing in the inner loop, and the Choose2 sum is over
  // integers, so the changed visit order cannot change the total.
  int64_t cycle_walks = 0;
  {
    std::vector<int64_t> cnt(g.num_vertices(), 0);
    std::vector<Graph::VertexId> touched;
    for (Graph::VertexId u = 0; u < g.num_vertices(); ++u) {
      touched.clear();
      for (Graph::VertexId x : g.Neighbors(u)) {
        for (Graph::VertexId w : g.Neighbors(x)) {
          if (w != u) {
            if (cnt[w]++ == 0) touched.push_back(w);
          }
        }
      }
      for (const Graph::VertexId w : touched) {
        cycle_walks += LegacyChoose2(cnt[w]);
        cnt[w] = 0;
      }
    }
  }
  const int64_t noninduced_c4 = cycle_walks / 4;

  int64_t star_raw = 0;  // sum_v C(d_v, 3)
  for (Graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    star_raw += LegacyChoose3(static_cast<int64_t>(g.Degree(v)));
  }
  const int64_t noninduced_p4 = path3_walks - 3 * triangles;

  const int64_t k4 = cliques4_times6 / 6;
  const int64_t diamond = sum_tri_choose2 - 6 * k4;
  const int64_t tailed = tailed_raw - 4 * diamond - 12 * k4;
  const int64_t cycle4 = noninduced_c4 - diamond - 3 * k4;
  const int64_t star = star_raw - tailed - 2 * diamond - 4 * k4;
  const int64_t path4 =
      noninduced_p4 - 2 * tailed - 4 * cycle4 - 6 * diamond - 12 * k4;

  out.m41 = k4;
  out.m42 = diamond;
  out.m43 = tailed;
  out.m44 = cycle4;
  out.m45 = star;
  out.m46 = path4;

  // ---- size 4, disconnected ----
  // Triangle + far vertex: (T, v) pairs minus those where v attaches.
  out.m47 = triangles * (n - 3) - tailed - 2 * diamond - 4 * k4;
  // Induced wedge + far vertex.
  out.m48 = out.m32 * (n - 3) -
            (2 * tailed + 2 * diamond + 4 * cycle4 + 3 * star + 2 * path4);
  // Two disjoint edges: every unordered pair of distinct edges sharing a
  // vertex corresponds to exactly one wedge, so disjoint pairs are
  // C(m,2) - wedges; subtract the pairs lying inside connected shapes that
  // contain a perfect matching on their 4 vertices.
  const int64_t disjoint = LegacyChoose2(m) - wedges;
  out.m49 = disjoint - (3 * k4 + 2 * diamond + 2 * cycle4 + tailed + path4);
  // Edge + 2 isolated vertices: edge-in-4-set incidences.
  out.m410 = m * LegacyChoose2(n - 2) -
             (6 * k4 + 5 * diamond + 4 * tailed + 4 * cycle4 + 3 * star +
              3 * path4 + 3 * out.m47 + 2 * out.m48 + 2 * out.m49);
  out.m411 = LegacyChoose4(n) - (k4 + diamond + tailed + cycle4 + star + path4 +
                           out.m47 + out.m48 + out.m49 + out.m410);
  return out;
}

}  // namespace mvg::bench

#endif  // MVG_BENCH_LEGACY_MOTIF_H_
