#include "graph/graph_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "graph/graph_kernels.h"
#include "util/simd.h"

namespace mvg {

double Density(const Graph& g) {
  const double n = static_cast<double>(g.num_vertices());
  if (n < 2.0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) / (n * (n - 1.0));
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  // Degrees are adjacent differences of the CSR offset array; one 4-lane
  // sweep folds min and max (the degree sum is 2|E| by the handshake
  // lemma). Integer min/max folds are order-insensitive, so the vector
  // pass is exactly the scalar scan.
  DegreeStats st;
  const size_t n = g.num_vertices();
  if (n == 0) return st;
  const size_t* off = g.offset_data();
  int64_t mn = static_cast<int64_t>(g.Degree(0));
  int64_t mx = mn;
  size_t v = 0;
  if (n >= 4) {
    simd::I64x4 vmn = simd::I64x4::Broadcast(mn);
    simd::I64x4 vmx = vmn;
    for (; v + 4 <= n; v += 4) {
      const simd::I64x4 d =
          simd::I64x4::Load(off + v + 1) - simd::I64x4::Load(off + v);
      vmn = MinI64(vmn, d);
      vmx = MaxI64(vmx, d);
    }
    mn = ReduceMinI64(vmn);
    mx = ReduceMaxI64(vmx);
  }
  for (; v < n; ++v) {
    const int64_t d = static_cast<int64_t>(off[v + 1] - off[v]);
    mn = std::min(mn, d);
    mx = std::max(mx, d);
  }
  st.min = static_cast<double>(mn);
  st.max = static_cast<double>(mx);
  st.mean = 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return st;
}

void PeelCores(const Graph& g, CorePeel* peel) {
  // Batagelj & Zaversnik (2003): bucket sort vertices by degree, then
  // repeatedly remove a minimum-degree vertex, decrementing neighbors.
  // Degrees are lowered in place; a removed vertex's entry never changes
  // again, so `core` ends up holding the core numbers.
  const uint32_t n = static_cast<uint32_t>(g.num_vertices());
  std::vector<uint32_t>& degree = peel->core;
  std::vector<uint32_t>& order = peel->order;
  std::vector<uint32_t>& pos = peel->rank;
  std::vector<uint32_t>& bin = peel->bin;
  degree.resize(n);
  order.resize(n);
  pos.resize(n);
  uint32_t max_degree = 0;
  for (uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(g.Degree(v));
    max_degree = std::max(max_degree, degree[v]);
  }
  // bin[d] = start offset of vertices with degree d in `order`.
  bin.assign(max_degree + 2, 0);
  for (uint32_t v = 0; v < n; ++v) ++bin[degree[v]];
  uint32_t start = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    const uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  for (uint32_t v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]];
    order[pos[v]] = v;
    ++bin[degree[v]];
  }
  // Restore bin starts.
  for (uint32_t d = max_degree; d >= 1; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t v = order[i];
    for (Graph::VertexId u : g.Neighbors(v)) {
      if (degree[u] > degree[v]) {
        // Move u to the front of its bucket and decrement its degree.
        const uint32_t du = degree[u];
        const uint32_t pu = pos[u];
        const uint32_t pw = bin[du];
        const uint32_t w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  // Vertices leave in nondecreasing core order: the last one has the max.
  peel->max_core = n == 0 ? 0 : degree[order[n - 1]];
}

std::vector<size_t> CoreNumbers(const Graph& g) {
  CorePeel peel;
  PeelCores(g, &peel);
  return std::vector<size_t>(peel.core.begin(), peel.core.end());
}

size_t MaxCore(const Graph& g) {
  CorePeel peel;
  PeelCores(g, &peel);
  return peel.max_core;
}

double DegreeAssortativity(const Graph& g) {
  // Newman's formula over edges: r = (M^-1 S_jk - [M^-1 S_half]^2) /
  //                                  (M^-1 S_sq  - [M^-1 S_half]^2)
  // with S_jk = sum j*k, S_half = sum (j+k)/2, S_sq = sum (j^2+k^2)/2
  // over all edges, j/k being endpoint degrees.
  const size_t m = g.num_edges();
  if (m == 0) return 0.0;
  const size_t n = g.num_vertices();
  // One pass materializes the degrees (the inner loop reads them per
  // neighbor); the edge scan then accumulates the three Newman sums in
  // 4-lane blocks. Every term is an integer or half-integer represented
  // exactly in a double (degrees <= n < 2^26 for any graph that fits in
  // memory), so the sums are exact and the lane split cannot change them.
  std::vector<double> deg(n);
  for (size_t v = 0; v < n; ++v) deg[v] = static_cast<double>(g.Degree(v));
  simd::F64x4 v_jk = simd::F64x4::Zero();
  simd::F64x4 v_sum = simd::F64x4::Zero();   // sum of dj + dk (halved below)
  simd::F64x4 v_sq2 = simd::F64x4::Zero();   // sum of dj^2 + dk^2
  double s_jk = 0.0, s_sum = 0.0, s_sq2 = 0.0;
  for (Graph::VertexId u = 0; u < n; ++u) {
    const Graph::NeighborSpan nb = g.Neighbors(u);
    const double dj = deg[u];
    // Neighbors are sorted: the v > u suffix starts after the first
    // neighbor greater than u.
    size_t i = FirstGreater(nb.data(), nb.size(), u);
    const simd::F64x4 djv = simd::F64x4::Broadcast(dj);
    const simd::F64x4 dj2v = simd::F64x4::Broadcast(dj * dj);
    for (; i + 4 <= nb.size(); i += 4) {
      const simd::F64x4 dk =
          simd::F64x4::Set(deg[nb[i]], deg[nb[i + 1]], deg[nb[i + 2]],
                           deg[nb[i + 3]]);
      v_jk = v_jk + djv * dk;
      v_sum = v_sum + (djv + dk);
      v_sq2 = v_sq2 + (dj2v + dk * dk);
    }
    for (; i < nb.size(); ++i) {
      const double dk = deg[nb[i]];
      s_jk += dj * dk;
      s_sum += dj + dk;
      s_sq2 += dj * dj + dk * dk;
    }
  }
  const double s_half = 0.5 * (s_sum + ReduceAddOrdered(v_sum));
  s_jk += ReduceAddOrdered(v_jk);
  const double s_sq = 0.5 * (s_sq2 + ReduceAddOrdered(v_sq2));
  const double inv_m = 1.0 / static_cast<double>(m);
  const double num = inv_m * s_jk - (inv_m * s_half) * (inv_m * s_half);
  const double den = inv_m * s_sq - (inv_m * s_half) * (inv_m * s_half);
  if (std::abs(den) < 1e-12) return 0.0;
  return num / den;
}

bool IsConnected(const Graph& g) {
  const size_t n = g.num_vertices();
  if (n <= 1) return true;
  std::vector<char> seen(n, 0);
  std::queue<Graph::VertexId> q;
  q.push(0);
  seen[0] = 1;
  size_t count = 1;
  while (!q.empty()) {
    const Graph::VertexId u = q.front();
    q.pop();
    for (Graph::VertexId v : g.Neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == n;
}

size_t Diameter(const Graph& g) {
  const size_t n = g.num_vertices();
  if (n < 2) return 0;
  size_t diameter = 0;
  std::vector<int64_t> dist(n);
  for (Graph::VertexId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::queue<Graph::VertexId> q;
    q.push(s);
    dist[s] = 0;
    while (!q.empty()) {
      const Graph::VertexId u = q.front();
      q.pop();
      for (Graph::VertexId v : g.Neighbors(u)) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          diameter = std::max(diameter, static_cast<size_t>(dist[v]));
          q.push(v);
        }
      }
    }
  }
  return diameter;
}

std::vector<double> BetweennessCentrality(const Graph& g) {
  // Brandes (2001): one BFS per source with dependency accumulation.
  const size_t n = g.num_vertices();
  std::vector<double> centrality(n, 0.0);
  std::vector<int64_t> dist(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<std::vector<Graph::VertexId>> preds(n);
  std::vector<Graph::VertexId> order;
  order.reserve(n);
  for (Graph::VertexId s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (auto& p : preds) p.clear();
    order.clear();
    std::queue<Graph::VertexId> q;
    dist[s] = 0;
    sigma[s] = 1.0;
    q.push(s);
    while (!q.empty()) {
      const Graph::VertexId v = q.front();
      q.pop();
      order.push_back(v);
      for (Graph::VertexId w : g.Neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[w].push_back(v);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Graph::VertexId w = *it;
      for (Graph::VertexId v : preds[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) centrality[w] += delta[w];
    }
  }
  // Each shortest path counted from both endpoints in an undirected graph.
  for (double& c : centrality) c /= 2.0;
  return centrality;
}

std::vector<double> NormalizeBetweenness(std::vector<double> centrality,
                                         size_t num_vertices) {
  if (num_vertices < 3) return centrality;
  const double scale = 2.0 / (static_cast<double>(num_vertices - 1) *
                              static_cast<double>(num_vertices - 2));
  for (double& c : centrality) c *= scale;
  return centrality;
}

double DegreeDistributionEntropy(const Graph& g) {
  // Counting buckets indexed by degree replace the ordered map (one flat
  // array, no node allocations); iterating the buckets ascending visits
  // the same (degree, count) pairs in the same order, so the entropy sum
  // is bit-identical to the map version.
  const size_t n = g.num_vertices();
  if (n == 0) return 0.0;
  size_t max_degree = 0;
  for (Graph::VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.Degree(v));
  }
  std::vector<int64_t> hist(max_degree + 1, 0);
  for (Graph::VertexId v = 0; v < n; ++v) ++hist[g.Degree(v)];
  double h = 0.0;
  for (size_t d = 0; d <= max_degree; ++d) {
    if (hist[d] == 0) continue;
    const double p = static_cast<double>(hist[d]) / static_cast<double>(n);
    h -= p * std::log(p);
  }
  return h;
}

double AverageClustering(const Graph& g) {
  // links(v) = edges among N(v) = sum over u in N(v) of
  // |{w in N(v) : w > u} ∩ N(u)| — each adjacent pair counted at its
  // smaller endpoint. The sorted-intersection kernel replaces the
  // O(d^2 log d) per-pair HasEdge probes; the link count is an integer
  // either way, so every per-vertex coefficient (and their sum, taken in
  // the same v order) is unchanged bit for bit.
  const size_t n = g.num_vertices();
  if (n == 0) return 0.0;
  double acc = 0.0;
  for (Graph::VertexId v = 0; v < n; ++v) {
    const Graph::NeighborSpan nb = g.Neighbors(v);
    const size_t d = nb.size();
    if (d < 2) continue;
    int64_t links = 0;
    for (size_t i = 0; i + 1 < d; ++i) {
      const Graph::NeighborSpan nu = g.Neighbors(nb[i]);
      const size_t start = FirstGreater(nu.data(), nu.size(), nb[i]);
      links += CountSortedIntersection(nb.data() + i + 1, d - i - 1,
                                       nu.data() + start, nu.size() - start);
    }
    acc += 2.0 * static_cast<double>(links) /
           (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return acc / static_cast<double>(n);
}

}  // namespace mvg
