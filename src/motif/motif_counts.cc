#include "motif/motif_counts.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mvg {

namespace {

int64_t Choose2(int64_t n) { return n < 2 ? 0 : n * (n - 1) / 2; }
int64_t Choose3(int64_t n) { return n < 3 ? 0 : n * (n - 1) * (n - 2) / 6; }
// C(n,2) * C(n-2,2) is exactly 6 * C(n,4) and stays inside int64 long
// after the four-factor product n(n-1)(n-2)(n-3) overflows (n >= 55,109).
int64_t Choose4(int64_t n) {
  return n < 4 ? 0 : Choose2(n) * Choose2(n - 2) / 6;
}

/// Grows `v` to at least `size` entries, never shrinking it.
void EnsureSize(std::vector<uint32_t>* v, size_t size) {
  if (v->size() < size) v->resize(size);
}

}  // namespace

std::array<int64_t, kNumMotifs> MotifCounts::ToArray() const {
  return {m21, m22, m31, m32, m33, m34, m41, m42,  m43,
          m44, m45, m46, m47, m48, m49, m410, m411};
}

const std::array<std::string, kNumMotifs>& MotifNames() {
  static const std::array<std::string, kNumMotifs> kNames = {
      "M21", "M22", "M31", "M32", "M33", "M34", "M41", "M42", "M43",
      "M44", "M45", "M46", "M47", "M48", "M49", "M410", "M411"};
  return kNames;
}

MotifCounts CountMotifs(const Graph& g) {
  GraphBuilder lender;
  MotifScratch scratch;
  return CountMotifs(g, &lender, &scratch);
}

MotifCounts CountMotifs(const Graph& g, GraphBuilder* lender,
                        MotifScratch* scratch) {
  const size_t num_arcs = 2 * g.num_edges();
  if (num_arcs >= std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("CountMotifs: 2^31 or more edges");
  }
  const uint32_t nv = static_cast<uint32_t>(g.num_vertices());
  const int64_t n = nv;
  const int64_t m = static_cast<int64_t>(g.num_edges());
  MotifCounts out;

  // ---- Degeneracy order and the rank-space CSR ----
  // Vertex v becomes rank[v], its position in the peel order. Each rank's
  // list holds its neighbours' ranks ascending, so the neighbours peeled
  // after it are the sorted suffix [up[r], off[r + 1]) and at most
  // max_core long. Filling the lists source by source in rank order writes
  // every list already sorted; when source r starts, exactly its
  // lower-ranked neighbours have written into its list.
  CorePeel& peel = scratch->peel;
  PeelCores(g, &peel);
  const GraphBuilder::ArcBuffers arcs = lender->BorrowArcBuffers();
  EnsureSize(arcs.a, num_arcs);
  EnsureSize(arcs.b, num_arcs);
  uint32_t* adj = arcs.a->data();
  uint32_t* tri = arcs.b->data();  // triangles per arc; up arcs only
  scratch->offsets.resize(nv + 1);
  scratch->up.resize(nv);
  uint32_t* off = scratch->offsets.data();
  uint32_t* up = scratch->up.data();
  off[0] = 0;
  for (uint32_t r = 0; r < nv; ++r) {
    off[r + 1] = off[r] + static_cast<uint32_t>(g.Degree(peel.order[r]));
  }
  // The build's write cursors go in `core`: only max_core is still needed.
  uint32_t* cursor = peel.core.data();
  std::copy(off, off + nv, cursor);
  for (uint32_t r = 0; r < nv; ++r) {
    up[r] = cursor[r];
    for (Graph::VertexId t : g.Neighbors(peel.order[r])) {
      adj[cursor[peel.rank[t]]++] = r;
    }
  }
  // The peel's per-vertex arrays are dead from here on; the counting
  // passes reuse them instead of holding arrays of their own.
  uint32_t* mark = peel.core.data();
  uint32_t* stamp = peel.order.data();
  uint32_t* list = peel.rank.data();
  uint32_t* walks = peel.order.data();  // once the K4 pass is done
  const auto degree = [off](uint32_t r) -> int64_t {
    return off[r + 1] - off[r];
  };

  // ---- size 2 ----
  out.m21 = m;
  out.m22 = Choose2(n) - m;

  // ---- size 3 ----
  // W = number of wedges (2-walk centers), counts each triangle 3 times.
  int64_t wedges = 0;
  int64_t star_raw = 0;  // sum_v C(d_v, 3)
  for (uint32_t r = 0; r < nv; ++r) {
    wedges += Choose2(degree(r));
    star_raw += Choose3(degree(r));
  }

  // Triangles, per-edge triangle counts and K4s, plus the accumulators
  // that feed the 4-node equations. Every triangle u < v < w (by rank) is
  // found once, from its lowest edge (u, v): w is above v and above u,
  // which mark[] answers — while u is the source, mark[w] is the arc
  // (u, w). Marks left by earlier sources lie outside u's arc range and
  // read as absent, so they are never cleared. The scan of v's upper list
  // only collects the hits (one compare each, no branch); a second loop
  // credits each triangle to its three edges. The K4 u < v < w < x is
  // then counted once, at (u, v): x is above w and stamped as common to u
  // and v (the stamp is the arc (u, v) + 1, unique to the pair).
  int64_t triangles = 0;        // T
  int64_t k4 = 0;               // #K4
  int64_t tailed_raw = 0;       // sum_Delta (d_u + d_v + d_w - 6)
  int64_t path3_walks = 0;      // sum_e (d_u - 1)(d_v - 1)
  std::fill(mark, mark + nv, std::numeric_limits<uint32_t>::max());
  std::fill(stamp, stamp + nv, 0u);
  std::fill(tri, tri + num_arcs, 0u);
  for (uint32_t u = 0; u < nv; ++u) {
    const uint32_t u_lo = up[u];
    const uint32_t u_hi = off[u + 1];
    const int64_t du = degree(u);
    for (uint32_t a = u_lo; a < u_hi; ++a) mark[adj[a]] = a;
    // Lists are sorted, so scans stop past the last candidate.
    const uint32_t u_top = u_lo < u_hi ? adj[u_hi - 1] : 0;
    for (uint32_t a = u_lo; a < u_hi; ++a) {
      const uint32_t v = adj[a];
      const int64_t dv = degree(v);
      path3_walks += (du - 1) * (dv - 1);
      uint32_t common = 0;
      for (uint32_t b = up[v]; b < off[v + 1] && adj[b] <= u_top; ++b) {
        list[common] = b;
        common += mark[adj[b]] - u_lo < u_hi - u_lo;  // w above u too
      }
      triangles += common;
      tri[a] += common;
      for (uint32_t i = 0; i < common; ++i) {
        const uint32_t b = list[i];
        const uint32_t w = adj[b];
        ++tri[b];
        ++tri[mark[w]];
        tailed_raw += du + dv + degree(w) - 6;
        stamp[w] = a + 1;
        list[i] = w;
      }
      const uint32_t c_top = common > 0 ? list[common - 1] : 0;
      for (uint32_t i = 0; i + 1 < common; ++i) {
        const uint32_t w = list[i];
        for (uint32_t b = up[w]; b < off[w + 1] && adj[b] <= c_top; ++b) {
          k4 += stamp[adj[b]] == a + 1;
        }
      }
    }
  }
  int64_t sum_tri_choose2 = 0;  // sum_e C(T_e, 2)  -> diamonds
  for (uint32_t u = 0; u < nv; ++u) {
    for (uint32_t a = up[u]; a < off[u + 1]; ++a) {
      sum_tri_choose2 += Choose2(tri[a]);
    }
  }

  // Non-induced 4-cycles, each counted once from its top-ranked vertex u:
  // the 2-walks u -> x -> w through lower-ranked x and w meet in pairs at
  // the opposite vertex w, C(walks[w], 2) of them, summed as they arrive
  // (the k-th walk to reach w adds k - 1 pairs). x's neighbours below u
  // are the prefix of its sorted list that ends at u itself. A second
  // walk over the same paths zeroes the counts, so each u costs O(walks).
  int64_t noninduced_c4 = 0;
  std::fill(walks, walks + nv, 0u);
  for (uint32_t u = 0; u < nv; ++u) {
    for (uint32_t a = off[u]; a < up[u]; ++a) {
      const uint32_t x = adj[a];
      for (uint32_t b = off[x]; adj[b] != u; ++b) {
        noninduced_c4 += walks[adj[b]]++;
      }
    }
    for (uint32_t a = off[u]; a < up[u]; ++a) {
      const uint32_t x = adj[a];
      for (uint32_t b = off[x]; adj[b] != u; ++b) walks[adj[b]] = 0;
    }
  }

  out.m31 = triangles;
  out.m32 = wedges - 3 * triangles;
  out.m33 = m * (n - 2) - 2 * out.m32 - 3 * out.m31;
  out.m34 = Choose3(n) - out.m31 - out.m32 - out.m33;

  // ---- size 4, connected ----
  const int64_t noninduced_p4 = path3_walks - 3 * triangles;

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
  const int64_t disjoint = Choose2(m) - wedges;
  out.m49 = disjoint - (3 * k4 + 2 * diamond + 2 * cycle4 + tailed + path4);
  // Edge + 2 isolated vertices: edge-in-4-set incidences.
  out.m410 = m * Choose2(n - 2) -
             (6 * k4 + 5 * diamond + 4 * tailed + 4 * cycle4 + 3 * star +
              3 * path4 + 3 * out.m47 + 2 * out.m48 + 2 * out.m49);
  out.m411 = Choose4(n) - (k4 + diamond + tailed + cycle4 + star + path4 +
                           out.m47 + out.m48 + out.m49 + out.m410);
  return out;
}

MotifCounts CountMotifsBruteForce(const Graph& g) {
  const size_t n = g.num_vertices();
  MotifCounts out;
  // Size 2.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      g.HasEdge(a, b) ? ++out.m21 : ++out.m22;
    }
  }
  // Size 3.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      for (Graph::VertexId c = b + 1; c < n; ++c) {
        const int e = static_cast<int>(g.HasEdge(a, b)) +
                      static_cast<int>(g.HasEdge(a, c)) +
                      static_cast<int>(g.HasEdge(b, c));
        switch (e) {
          case 3: ++out.m31; break;
          case 2: ++out.m32; break;
          case 1: ++out.m33; break;
          default: ++out.m34; break;
        }
      }
    }
  }
  // Size 4: classify by edge count and degree multiset.
  for (Graph::VertexId a = 0; a < n; ++a) {
    for (Graph::VertexId b = a + 1; b < n; ++b) {
      for (Graph::VertexId c = b + 1; c < n; ++c) {
        for (Graph::VertexId d = c + 1; d < n; ++d) {
          const Graph::VertexId vs[4] = {a, b, c, d};
          int deg[4] = {0, 0, 0, 0};
          int e = 0;
          for (int i = 0; i < 4; ++i) {
            for (int j = i + 1; j < 4; ++j) {
              if (g.HasEdge(vs[i], vs[j])) {
                ++e;
                ++deg[i];
                ++deg[j];
              }
            }
          }
          std::sort(deg, deg + 4);
          switch (e) {
            case 6: ++out.m41; break;
            case 5: ++out.m42; break;
            case 4:
              (deg[0] == 2) ? ++out.m44 : ++out.m43;
              break;
            case 3:
              if (deg[3] == 3) {
                ++out.m45;          // star: degrees 1,1,1,3
              } else if (deg[0] == 1) {
                ++out.m46;          // path: degrees 1,1,2,2
              } else {
                ++out.m47;          // triangle + isolated: 0,2,2,2
              }
              break;
            case 2:
              (deg[0] == 0) ? ++out.m48 : ++out.m49;
              break;
            case 1: ++out.m410; break;
            default: ++out.m411; break;
          }
        }
      }
    }
  }
  return out;
}

std::array<double, kNumMotifs> MotifProbabilityDistribution(
    const MotifCounts& counts) {
  const std::array<int64_t, kNumMotifs> c = counts.ToArray();
  // Normalisation groups per paper §3.1, as index ranges into c.
  constexpr std::pair<size_t, size_t> kGroups[] = {
      {0, 2}, {2, 4}, {4, 6}, {6, 12}, {12, 17}};
  std::array<double, kNumMotifs> p{};
  for (const auto& [lo, hi] : kGroups) {
    int64_t total = 0;
    for (size_t i = lo; i < hi; ++i) total += c[i];
    if (total <= 0) continue;
    for (size_t i = lo; i < hi; ++i) {
      p[i] = static_cast<double>(c[i]) / static_cast<double>(total);
    }
  }
  return p;
}

}  // namespace mvg
