#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_stats.h"
#include "motif/motif_counts.h"
#include "util/random.h"
#include "util/statistics.h"

namespace mvg {
namespace {

Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

Graph MakeComplete(size_t n) {
  GraphBuilder b(n);
  for (Graph::VertexId i = 0; i < n; ++i) {
    for (Graph::VertexId j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

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

TEST(Graph, BasicConstruction) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 2);  // duplicate
  b.AddEdge(3, 3);  // self loop ignored
  const Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 3));
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(Graph, EdgesListSorted) {
  Graph g = Graph::FromEdges(3, {{2, 1}, {0, 2}, {1, 0}});
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, AddEdgeOutOfRangeThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 5), std::out_of_range);
}

TEST(GraphStats, DensityCompleteAndEmpty) {
  EXPECT_DOUBLE_EQ(Density(MakeComplete(5)), 1.0);
  EXPECT_DOUBLE_EQ(Density(Graph(5)), 0.0);
  EXPECT_DOUBLE_EQ(Density(Graph(1)), 0.0);
}

TEST(GraphStats, DensityPath) {
  // Path on 4 vertices: 3 edges / 6 possible.
  EXPECT_DOUBLE_EQ(Density(MakePath(4)), 0.5);
}

TEST(GraphStats, DegreeStats) {
  const Graph g = MakePath(4);
  const DegreeStats st = ComputeDegreeStats(g);
  EXPECT_EQ(st.min, 1.0);
  EXPECT_EQ(st.max, 2.0);
  EXPECT_DOUBLE_EQ(st.mean, 1.5);
}

TEST(GraphStats, CoreNumbersOfClique) {
  const auto core = CoreNumbers(MakeComplete(5));
  for (size_t c : core) EXPECT_EQ(c, 4u);
  EXPECT_EQ(MaxCore(MakeComplete(5)), 4u);
}

TEST(GraphStats, CoreNumbersOfPath) {
  const auto core = CoreNumbers(MakePath(6));
  for (size_t c : core) EXPECT_EQ(c, 1u);
}

TEST(GraphStats, CoreNumbersTriangleWithTail) {
  // Triangle 0-1-2 plus tail 2-3: triangle vertices 2-core, tail 1-core.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
}

/// Brute-force k-core by repeated peeling, for cross-validation.
size_t BruteForceMaxCore(const Graph& g) {
  const size_t n = g.num_vertices();
  for (size_t k = n; k >= 1; --k) {
    std::vector<char> alive(n, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (Graph::VertexId v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        size_t d = 0;
        for (Graph::VertexId u : g.Neighbors(v)) d += alive[u];
        if (d < k) {
          alive[v] = 0;
          changed = true;
        }
      }
    }
    for (char a : alive) {
      if (a) return k;
    }
  }
  return 0;
}

TEST(GraphStats, MaxCoreMatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Graph g = MakeRandom(24, 0.15 + 0.02 * static_cast<double>(seed), seed);
    EXPECT_EQ(MaxCore(g), BruteForceMaxCore(g)) << "seed=" << seed;
  }
}

TEST(GraphStats, PeelOrderIsADegeneracyOrder) {
  // Every vertex has at most max_core neighbours peeled after it — the
  // bound the motif counter's orientation relies on — and no vertex's
  // core number exceeds the max.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Graph g = MakeRandom(30, 0.1 + 0.03 * static_cast<double>(seed), seed);
    CorePeel peel;
    PeelCores(g, &peel);
    EXPECT_EQ(peel.max_core, BruteForceMaxCore(g)) << "seed=" << seed;
    for (Graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(peel.order[peel.rank[v]], v);
      EXPECT_LE(peel.core[v], peel.max_core);
      uint32_t later = 0;
      for (Graph::VertexId u : g.Neighbors(v)) later += peel.rank[u] > peel.rank[v];
      EXPECT_LE(later, peel.core[v]) << "seed=" << seed << " v=" << v;
    }
  }
}

TEST(GraphStats, MotifCounterPeelMatchesBruteForceMaxCore) {
  // Feature extraction takes the max core from the motif counter's peel,
  // reused across graphs of different sizes.
  GraphBuilder lender;
  MotifScratch scratch;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const size_t n = 12 + 3 * (seed % 7);
    const Graph g = MakeRandom(n, 0.15 + 0.02 * static_cast<double>(seed), seed);
    CountMotifs(g, &lender, &scratch);
    EXPECT_EQ(scratch.peel.max_core, BruteForceMaxCore(g)) << "seed=" << seed;
  }
}

TEST(GraphStats, AssortativityStarIsNegative) {
  // Star: hub degree n-1 connects to leaves of degree 1 -> maximally
  // disassortative.
  GraphBuilder b(6);
  for (Graph::VertexId i = 1; i < 6; ++i) b.AddEdge(0, i);
  EXPECT_NEAR(DegreeAssortativity(b.Build()), -1.0, 1e-9);
}

TEST(GraphStats, AssortativityRegularGraphDegenerate) {
  // Cycle: all degrees equal -> zero denominator -> defined as 0.
  GraphBuilder b(5);
  for (Graph::VertexId i = 0; i < 5; ++i) b.AddEdge(i, (i + 1) % 5);
  EXPECT_EQ(DegreeAssortativity(b.Build()), 0.0);
}

TEST(GraphStats, AssortativityMatchesPearsonOverEdgeEndpoints) {
  // Cross-check against an explicit Pearson correlation over the edge list
  // with both orientations (the standard definition).
  const Graph g = MakeRandom(30, 0.12, 99);
  std::vector<double> x, y;
  for (const auto& [u, v] : g.Edges()) {
    x.push_back(static_cast<double>(g.Degree(u)));
    y.push_back(static_cast<double>(g.Degree(v)));
    x.push_back(static_cast<double>(g.Degree(v)));
    y.push_back(static_cast<double>(g.Degree(u)));
  }
  const double expected = PearsonCorrelation(x, y);
  EXPECT_NEAR(DegreeAssortativity(g), expected, 1e-9);
}

TEST(GraphStats, Connectivity) {
  EXPECT_TRUE(IsConnected(MakePath(5)));
  EXPECT_FALSE(IsConnected(Graph::FromEdges(4, {{0, 1}, {2, 3}})));
  EXPECT_TRUE(IsConnected(Graph(0)));
}

TEST(GraphStats, DiameterOfPathAndClique) {
  EXPECT_EQ(Diameter(MakePath(7)), 6u);
  EXPECT_EQ(Diameter(MakeComplete(7)), 1u);
}

TEST(GraphStats, ClusteringCliqueIsOne) {
  EXPECT_NEAR(AverageClustering(MakeComplete(6)), 1.0, 1e-12);
  EXPECT_NEAR(AverageClustering(MakePath(6)), 0.0, 1e-12);
}

}  // namespace
}  // namespace mvg
