#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/legacy_motif.h"
#include "graph/graph_stats.h"
#include "motif/motif_counts.h"
#include "ts/generators.h"
#include "util/random.h"
#include "vg/visibility_graph.h"

namespace mvg {
namespace {

Graph MakeRandom(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    for (Graph::VertexId j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(p)) b.AddEdge(i, j);
    }
  }
  return b.Build();
}

void ExpectSameCounts(const MotifCounts& a, const MotifCounts& b,
                      const std::string& context) {
  const auto aa = a.ToArray();
  const auto bb = b.ToArray();
  for (size_t i = 0; i < kNumMotifs; ++i) {
    EXPECT_EQ(aa[i], bb[i]) << context << " motif " << MotifNames()[i];
  }
}

TEST(MotifCounts, TriangleGraph) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  const MotifCounts c = CountMotifs(g);
  EXPECT_EQ(c.m21, 3);
  EXPECT_EQ(c.m22, 0);
  EXPECT_EQ(c.m31, 1);
  EXPECT_EQ(c.m32, 0);
}

TEST(MotifCounts, CliqueK4) {
  GraphBuilder b(4);
  for (Graph::VertexId i = 0; i < 4; ++i) {
    for (Graph::VertexId j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  const MotifCounts c = CountMotifs(b.Build());
  EXPECT_EQ(c.m41, 1);
  EXPECT_EQ(c.m42, 0);
  EXPECT_EQ(c.m31, 4);  // 4 triangles inside K4
}

TEST(MotifCounts, CycleC4) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const MotifCounts c = CountMotifs(g);
  EXPECT_EQ(c.m44, 1);
  EXPECT_EQ(c.m41, 0);
  EXPECT_EQ(c.m42, 0);
  EXPECT_EQ(c.m43, 0);
  EXPECT_EQ(c.m32, 4);
}

TEST(MotifCounts, DiamondAndStarAndPath) {
  // Diamond: chord (0,1), outer 2,3.
  Graph diamond =
      Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(CountMotifs(diamond).m42, 1);
  // Star.
  Graph star = Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(CountMotifs(star).m45, 1);
  // Path.
  Graph path = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(CountMotifs(path).m46, 1);
  // Tailed triangle.
  Graph tailed = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(CountMotifs(tailed).m43, 1);
}

TEST(MotifCounts, DisconnectedShapes) {
  // Triangle + isolated vertex.
  Graph tri_k1 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(CountMotifs(tri_k1).m47, 1);
  // Wedge + isolated vertex.
  Graph wedge_k1 = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(CountMotifs(wedge_k1).m48, 1);
  // Two independent edges.
  Graph two_edges = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(CountMotifs(two_edges).m49, 1);
  // One edge + two isolated vertices.
  Graph one_edge = Graph::FromEdges(4, {{0, 1}});
  EXPECT_EQ(CountMotifs(one_edge).m410, 1);
  // Empty graph on 4 vertices.
  EXPECT_EQ(CountMotifs(Graph(4)).m411, 1);
}

TEST(MotifCounts, TotalsAreSubsetCounts) {
  // Counts within each size must sum to C(n,k).
  const Graph g = MakeRandom(18, 0.3, 5);
  const MotifCounts c = CountMotifs(g);
  const int64_t n = 18;
  EXPECT_EQ(c.m21 + c.m22, n * (n - 1) / 2);
  EXPECT_EQ(c.m31 + c.m32 + c.m33 + c.m34, n * (n - 1) * (n - 2) / 6);
  EXPECT_EQ(c.m41 + c.m42 + c.m43 + c.m44 + c.m45 + c.m46 + c.m47 + c.m48 +
                c.m49 + c.m410 + c.m411,
            n * (n - 1) * (n - 2) * (n - 3) / 24);
}

struct RandomGraphCase {
  size_t n;
  double p;
  uint64_t seed;
};

class MotifPropertyTest : public ::testing::TestWithParam<RandomGraphCase> {};

TEST_P(MotifPropertyTest, FastCounterMatchesBruteForce) {
  const auto& pc = GetParam();
  const Graph g = MakeRandom(pc.n, pc.p, pc.seed);
  ExpectSameCounts(CountMotifs(g), CountMotifsBruteForce(g),
                   "n=" + std::to_string(pc.n) +
                       " p=" + std::to_string(pc.p) +
                       " seed=" + std::to_string(pc.seed));
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, MotifPropertyTest,
    ::testing::Values(
        RandomGraphCase{8, 0.1, 1}, RandomGraphCase{8, 0.5, 2},
        RandomGraphCase{8, 0.9, 3}, RandomGraphCase{12, 0.2, 4},
        RandomGraphCase{12, 0.4, 5}, RandomGraphCase{12, 0.7, 6},
        RandomGraphCase{16, 0.1, 7}, RandomGraphCase{16, 0.3, 8},
        RandomGraphCase{16, 0.6, 9}, RandomGraphCase{20, 0.15, 10},
        RandomGraphCase{20, 0.35, 11}, RandomGraphCase{24, 0.1, 12},
        RandomGraphCase{24, 0.25, 13}, RandomGraphCase{28, 0.2, 14},
        RandomGraphCase{32, 0.12, 15}));

/// The series shapes of the parity corpus: smooth inputs give dense VGs
/// with hubs, noise the sparse best case.
Series Shape(const std::string& kind, size_t n, uint64_t seed) {
  const double period = static_cast<double>(n) / 16.0;
  if (kind == "walk") return RandomWalk(n, seed);
  if (kind == "sine") return Sine(n, period, 1.0, 0.1 * seed);
  Series s = GaussianNoise(n, seed, kind == "noisy_sine" ? 0.2 : 1.0);
  if (kind == "noisy_sine") {
    const Series base = Sine(n, period);
    for (size_t i = 0; i < n; ++i) s[i] += base[i];
  }
  return s;
}

const char* const kShapes[] = {"walk", "sine", "noisy_sine", "noise"};

Graph MakeStar(size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (Graph::VertexId i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  return b.Build();
}

/// Hub 0 joined to every vertex of the cycle 1..rim.
Graph MakeWheel(size_t rim) {
  GraphBuilder b(rim + 1);
  for (Graph::VertexId i = 1; i <= rim; ++i) {
    b.AddEdge(0, i);
    b.AddEdge(i, i == rim ? 1 : i + 1);
  }
  return b.Build();
}

Graph MakeComplete(size_t n) { return MakeRandom(n, 1.0, 0); }

Graph MakeCompleteBipartite(size_t a, size_t b) {
  GraphBuilder gb(a + b);
  for (Graph::VertexId i = 0; i < a; ++i) {
    for (Graph::VertexId j = 0; j < b; ++j) {
      gb.AddEdge(i, static_cast<Graph::VertexId>(a + j));
    }
  }
  return gb.Build();
}

TEST(MotifCounts, MatchesBruteForceOnStructuredGraphs) {
  // Hubs, dense cores and triangle-free graphs stress the degeneracy
  // orientation from every side.
  const std::vector<std::pair<std::string, Graph>> cases = {
      {"star5", MakeStar(5)},          {"star30", MakeStar(30)},
      {"wheel4", MakeWheel(4)},        {"wheel12", MakeWheel(12)},
      {"wheel35", MakeWheel(35)},      {"K1", MakeComplete(1)},
      {"K4", MakeComplete(4)},         {"K7", MakeComplete(7)},
      {"K16", MakeComplete(16)},       {"K1,9", MakeCompleteBipartite(1, 9)},
      {"K3,4", MakeCompleteBipartite(3, 4)},
      {"K6,9", MakeCompleteBipartite(6, 9)},
      {"K12,12", MakeCompleteBipartite(12, 12)}};
  for (const auto& [name, g] : cases) {
    ExpectSameCounts(CountMotifs(g), CountMotifsBruteForce(g), name);
  }
}

TEST(MotifCounts, MatchesBruteForceOnVisibilityGraphs) {
  // The real use case: VGs/HVGs of small series, smooth ones included.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Series s = GaussianNoise(24, seed * 7 + 1);
    const Graph vg = BuildVisibilityGraph(s);
    const Graph hvg = BuildHorizontalVisibilityGraph(s);
    ExpectSameCounts(CountMotifs(vg), CountMotifsBruteForce(vg), "vg");
    const MotifCounts hc = CountMotifs(hvg);
    ExpectSameCounts(hc, CountMotifsBruteForce(hvg), "hvg");
    EXPECT_EQ(hc.m41, 0) << "HVGs are outerplanar";
  }
  for (const char* kind : {"walk", "sine", "noisy_sine"}) {
    for (size_t n : {size_t{24}, size_t{31}, size_t{40}}) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        const Series s = Shape(kind, n, seed);
        const Graph vg = BuildVisibilityGraph(s);
        const Graph hvg = BuildHorizontalVisibilityGraph(s);
        const std::string ctx = std::string(kind) + " n=" +
                                std::to_string(n) +
                                " seed=" + std::to_string(seed);
        ExpectSameCounts(CountMotifs(vg), CountMotifsBruteForce(vg),
                         "vg " + ctx);
        const MotifCounts hc = CountMotifs(hvg);
        ExpectSameCounts(hc, CountMotifsBruteForce(hvg), "hvg " + ctx);
        EXPECT_EQ(hc.m41, 0) << "HVGs are outerplanar: " << ctx;
      }
    }
  }
}

TEST(MotifCounts, MatchesLegacyCounterOnVisibilityGraphs) {
  // Exact parity with the counter the degeneracy-ordered pass replaced,
  // at the lengths the pipeline sees.
  for (const char* kind : kShapes) {
    for (size_t n : {size_t{256}, size_t{1024}, size_t{2048}}) {
      const Series s = Shape(kind, n, 3);
      const Graph vg = BuildVisibilityGraph(s);
      const Graph hvg = BuildHorizontalVisibilityGraph(s);
      const std::string ctx = std::string(kind) + " n=" + std::to_string(n);
      ExpectSameCounts(CountMotifs(vg), bench::LegacyCountMotifs(vg),
                       "vg " + ctx);
      const MotifCounts hc = CountMotifs(hvg);
      ExpectSameCounts(hc, bench::LegacyCountMotifs(hvg), "hvg " + ctx);
      EXPECT_EQ(hc.m41, 0) << "HVGs are outerplanar: " << ctx;
    }
  }
}

TEST(MotifCounts, ReusedWorkspaceMatchesFreshCounts) {
  // One workspace across growing and shrinking graphs: the pooled pass
  // borrows the builder's arc arrays and reuses its O(n) scratch, and
  // must count every graph exactly like a fresh call.
  VgWorkspace ws;
  const size_t sizes[] = {64, 512, 2048, 128, 1024, 16, 700};
  uint64_t seed = 40;
  for (size_t n : sizes) {
    for (const char* kind : kShapes) {
      const Series s = Shape(kind, n, ++seed);
      const Graph& vg = BuildVisibilityGraph(s, &ws);
      const Graph vg_copy = vg;
      const MotifCounts pooled = CountMotifs(vg, &ws.builder, &ws.motif);
      ExpectSameCounts(pooled, CountMotifs(vg_copy),
                       std::string("vg ") + kind + " n=" + std::to_string(n));
      EXPECT_EQ(ws.motif.peel.max_core, MaxCore(vg_copy));
      const Graph& hvg = BuildHorizontalVisibilityGraph(s, &ws);
      const Graph hvg_copy = hvg;
      const MotifCounts hpooled = CountMotifs(hvg, &ws.builder, &ws.motif);
      ExpectSameCounts(hpooled, CountMotifs(hvg_copy),
                       std::string("hvg ") + kind + " n=" + std::to_string(n));
      EXPECT_EQ(ws.motif.peel.max_core, MaxCore(hvg_copy));
      EXPECT_EQ(hpooled.m41, 0);
    }
  }
}

/// C(n, 4) in 128 bits, and the 4-node counts summed in 128 bits, so
/// neither side can wrap.
unsigned __int128 Choose4Wide(uint64_t n) {
  const unsigned __int128 w = n;
  return w * (w - 1) * (w - 2) * (w - 3) / 24;
}
unsigned __int128 SumSize4(const MotifCounts& c) {
  unsigned __int128 sum = 0;
  const auto a = c.ToArray();
  for (size_t i = 6; i < kNumMotifs; ++i) {
    EXPECT_GE(a[i], 0) << MotifNames()[i];
    sum += static_cast<unsigned __int128>(a[i]);
  }
  return sum;
}

TEST(MotifCounts, SizeFourCountsExactAtTheSeriesLengthCap) {
  // At 32,768 vertices (the longest series Extract accepts) the 4-node
  // counts still partition all C(n, 4) vertex subsets; n(n-1)(n-2)(n-3)
  // alone would overflow int64 from n = 55,109, so Choose4 must not form
  // it. The sanitizer lane runs this under UBSan.
  const uint64_t n = 32768;
  const MotifCounts empty = CountMotifs(Graph(n));
  EXPECT_TRUE(SumSize4(empty) == Choose4Wide(n));
  EXPECT_TRUE(static_cast<unsigned __int128>(empty.m411) == Choose4Wide(n));
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  const MotifCounts path = CountMotifs(b.Build());
  EXPECT_TRUE(SumSize4(path) == Choose4Wide(n));
  EXPECT_EQ(path.m46, static_cast<int64_t>(n - 3));
  // Past the old overflow point the edgeless count is still exact.
  const uint64_t big = 70000;
  EXPECT_TRUE(static_cast<unsigned __int128>(CountMotifs(Graph(big)).m411) ==
              Choose4Wide(big));
}

TEST(MotifProbability, GroupsSumToOne) {
  const Graph g = MakeRandom(20, 0.3, 77);
  const auto p = MotifProbabilityDistribution(CountMotifs(g));
  const double g1 = p[0] + p[1];
  const double g2 = p[2] + p[3];
  const double g3 = p[4] + p[5];
  const double g4 = p[6] + p[7] + p[8] + p[9] + p[10] + p[11];
  const double g5 = p[12] + p[13] + p[14] + p[15] + p[16];
  EXPECT_NEAR(g1, 1.0, 1e-12);
  EXPECT_NEAR(g2, 1.0, 1e-12);
  EXPECT_NEAR(g3, 1.0, 1e-12);
  EXPECT_NEAR(g4, 1.0, 1e-12);
  EXPECT_NEAR(g5, 1.0, 1e-12);
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(MotifProbability, EmptyGroupsAreZero) {
  // Path graph on 3 vertices has no 4-node connected motifs beyond those
  // possible; use an edgeless graph so connected groups are empty.
  const auto p = MotifProbabilityDistribution(CountMotifs(Graph(5)));
  EXPECT_EQ(p[0], 0.0);  // M21 group has mass only on M22
  EXPECT_EQ(p[1], 1.0);
  EXPECT_EQ(p[6], 0.0);  // no connected 4-motifs at all
}

TEST(MotifNamesTest, OrderAndSize) {
  const auto& names = MotifNames();
  EXPECT_EQ(names.size(), kNumMotifs);
  EXPECT_EQ(names[0], "M21");
  EXPECT_EQ(names[6], "M41");
  EXPECT_EQ(names[16], "M411");
}

}  // namespace
}  // namespace mvg
