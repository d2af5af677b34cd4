#include <gtest/gtest.h>

#include <queue>

#include "src/graph/edge_index.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace dstress::graph {
namespace {

TEST(GraphTest, AddAndQueryEdges) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(2), 2);
  EXPECT_EQ(g.MaxDegree(), 2);
}

TEST(GraphTest, DuplicateEdgesIgnored) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, EdgesAreDeterministicallyOrdered) {
  Graph g(4);
  g.AddEdge(2, 0);
  g.AddEdge(0, 3);
  g.AddEdge(0, 1);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0, 3));
  EXPECT_EQ(edges[1], std::make_pair(0, 1));
  EXPECT_EQ(edges[2], std::make_pair(2, 0));
}

TEST(GraphTest, DegreeBuckets) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 0);
  auto buckets = DegreeBuckets(g, {1, 2});
  EXPECT_EQ(buckets[0], 2);  // degree 3 -> unbounded bucket
  EXPECT_EQ(buckets[1], 0);  // degree 1
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 0);
}

bool IsWeaklyConnected(const Graph& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::queue<int> frontier;
  frontier.push(0);
  seen[0] = true;
  int count = 1;
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop();
    auto visit = [&](int u) {
      if (!seen[u]) {
        seen[u] = true;
        count++;
        frontier.push(u);
      }
    };
    for (int u : g.OutNeighbors(v)) {
      visit(u);
    }
    for (int u : g.InNeighbors(v)) {
      visit(u);
    }
  }
  return count == g.num_vertices();
}

TEST(GeneratorsTest, CorePeripheryStructure) {
  Rng rng(1);
  CorePeripheryParams params;
  params.num_vertices = 50;
  params.core_size = 10;
  Graph g = GenerateCorePeriphery(params, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  // Edges are symmetric.
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(g.HasEdge(v, u)) << u << "->" << v;
  }
  // Core banks have higher average degree than peripheral banks.
  double core_degree = 0, periphery_degree = 0;
  for (int v = 0; v < params.core_size; v++) {
    core_degree += g.OutDegree(v);
  }
  for (int v = params.core_size; v < params.num_vertices; v++) {
    periphery_degree += g.OutDegree(v);
  }
  core_degree /= params.core_size;
  periphery_degree /= (params.num_vertices - params.core_size);
  EXPECT_GT(core_degree, 2 * periphery_degree);
  // Peripheral banks link only to the core.
  for (int v = params.core_size; v < params.num_vertices; v++) {
    for (int u : g.OutNeighbors(v)) {
      EXPECT_LT(u, params.core_size) << "peripheral " << v << " linked to peripheral " << u;
    }
    EXPECT_LE(g.OutDegree(v), params.max_core_links);
  }
}

TEST(GeneratorsTest, ScaleFreeHasHubs) {
  Rng rng(2);
  Graph g = GenerateScaleFree(200, 2, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  int max_degree = g.MaxDegree();
  double avg_degree = 2.0 * g.num_edges() / (2 * g.num_vertices());
  // Preferential attachment produces hubs far above the mean degree.
  EXPECT_GT(max_degree, 4 * avg_degree);
}

TEST(GeneratorsTest, ErdosRenyiDensityMatchesProbability) {
  Rng rng(3);
  constexpr int kN = 100;
  constexpr double kP = 0.1;
  Graph g = GenerateErdosRenyi(kN, kP, rng);
  double pairs = kN * (kN - 1) / 2.0;
  double selected = g.num_edges() / 2.0;  // both directions added
  EXPECT_NEAR(selected / pairs, kP, 0.03);
}

TEST(GeneratorsTest, GeneratorsAreDeterministicPerSeed) {
  Rng a(7), b(7);
  CorePeripheryParams params;
  Graph g1 = GenerateCorePeriphery(params, a);
  Graph g2 = GenerateCorePeriphery(params, b);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

TEST(GeneratorsTest, CapDegreeEnforcesBound) {
  Rng rng(4);
  Graph g = GenerateScaleFree(100, 3, rng);
  ASSERT_GT(g.MaxDegree(), 8);
  Graph capped = CapDegree(g, 8);
  EXPECT_LE(capped.MaxDegree(), 8);
  EXPECT_LT(capped.num_edges(), g.num_edges());
  // Capping only removes edges, never adds.
  for (auto [u, v] : capped.Edges()) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

// The index's CSR order is Edges() order, and every edge's mirror slot
// points back at its source: InNeighbors(dst(e))[in_slot(e)] == src(e).
void ExpectIndexMirrorsGraph(const Graph& g) {
  EdgeIndex index(g);
  ASSERT_EQ(index.num_vertices(), g.num_vertices());
  ASSERT_EQ(index.num_edges(), static_cast<size_t>(g.num_edges()));
  const std::vector<std::pair<int, int>> edges = g.Edges();
  size_t in_slots = 0;
  for (int v = 0; v < g.num_vertices(); v++) {
    EXPECT_EQ(index.out_degree(v), g.OutDegree(v)) << "vertex " << v;
    EXPECT_EQ(index.in_degree(v), g.InDegree(v)) << "vertex " << v;
    EXPECT_EQ(index.in_start(v), in_slots) << "vertex " << v;
    in_slots += static_cast<size_t>(g.InDegree(v));
    for (size_t e = index.out_start(v); e < index.out_start(v + 1); e++) {
      ASSERT_LT(e, edges.size());
      EXPECT_EQ(edges[e].first, v) << "edge " << e;
      EXPECT_EQ(edges[e].second, index.dst(e)) << "edge " << e;
      const std::vector<int>& in = g.InNeighbors(index.dst(e));
      ASSERT_GE(index.in_slot(e), 0) << "edge " << e;
      ASSERT_LT(static_cast<size_t>(index.in_slot(e)), in.size()) << "edge " << e;
      EXPECT_EQ(in[static_cast<size_t>(index.in_slot(e))], v) << "edge " << e;
      EXPECT_EQ(index.in_flat(e), index.in_start(index.dst(e)) +
                                      static_cast<size_t>(index.in_slot(e)));
    }
  }
  EXPECT_EQ(index.out_start(g.num_vertices()), edges.size());
  EXPECT_EQ(index.in_start(g.num_vertices()), in_slots);
  // Every flat in-slot is written by exactly one edge.
  std::vector<int> writers(in_slots, 0);
  for (size_t e = 0; e < index.num_edges(); e++) {
    writers[index.in_flat(e)]++;
  }
  for (size_t k = 0; k < in_slots; k++) {
    EXPECT_EQ(writers[k], 1) << "flat in-slot " << k;
  }
}

TEST(EdgeIndexTest, MirrorsGeneratedGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    SCOPED_TRACE(seed);
    ExpectIndexMirrorsGraph(GenerateScaleFree(300, 3, rng));
    ExpectIndexMirrorsGraph(CapDegree(GenerateScaleFree(300, 3, rng), 8));
    CorePeripheryParams params;
    params.num_vertices = 120;
    params.core_size = 15;
    ExpectIndexMirrorsGraph(GenerateCorePeriphery(params, rng));
    ExpectIndexMirrorsGraph(GenerateErdosRenyi(80, 0.1, rng));
  }
}

TEST(EdgeIndexTest, InsertionOrderIsNotSourceOrder) {
  // In-lists follow AddEdge order, so a vertex's in-slots need not be
  // sorted by source: 3 hears from 2, then 0, then 1.
  Graph g(4);
  g.AddEdge(2, 3);
  g.AddEdge(0, 3);
  g.AddEdge(1, 3);
  g.AddEdge(3, 0);
  g.AddEdge(0, 1);
  ExpectIndexMirrorsGraph(g);
  EdgeIndex index(g);
  // Edges() order: (0,3) (0,1) (1,3) (2,3) (3,0).
  EXPECT_EQ(index.in_slot(0), 1);
  EXPECT_EQ(index.in_slot(2), 2);
  EXPECT_EQ(index.in_slot(3), 0);
}

TEST(EdgeIndexTest, SingleVertexAndIsolatedVertices) {
  ExpectIndexMirrorsGraph(Graph(1));
  EdgeIndex single{Graph(1)};
  EXPECT_EQ(single.num_edges(), 0u);
  EXPECT_EQ(single.out_degree(0), 0);
  EXPECT_EQ(single.in_degree(0), 0);

  // Vertices 0, 2 and 5 have no edges at all.
  Graph g(6);
  g.AddEdge(4, 1);
  g.AddEdge(1, 3);
  g.AddEdge(3, 4);
  g.AddEdge(1, 4);
  ExpectIndexMirrorsGraph(g);
}

class CorePeripherySizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CorePeripherySizeTest, AllSizesConnectedAndSymmetric) {
  int n = GetParam();
  Rng rng(n);
  CorePeripheryParams params;
  params.num_vertices = n;
  params.core_size = std::max(2, n / 5);
  Graph g = GenerateCorePeriphery(params, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(g.HasEdge(v, u));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CorePeripherySizeTest, ::testing::Values(10, 20, 50, 100, 200));

}  // namespace
}  // namespace dstress::graph
