#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "src/common/check.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace dstress::graph {
namespace {

bool HasEdge(const Graph& g, int u, int v) {
  const VertexRange out = g.OutNeighbors(u);
  return std::find(out.begin(), out.end(), v) != out.end();
}

std::vector<int> ToVector(const VertexRange& range) {
  return std::vector<int>(range.begin(), range.end());
}

Graph BuildFrom(int n, const std::vector<std::pair<int, int>>& edges) {
  GraphBuilder builder(n);
  for (auto [u, v] : edges) {
    builder.AddEdge(u, v);
  }
  return builder.Build();
}

TEST(GraphTest, AddAndQueryEdges) {
  Graph g = BuildFrom(4, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_TRUE(HasEdge(g, 0, 1));
  EXPECT_FALSE(HasEdge(g, 1, 0));
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(2), 2);
  EXPECT_EQ(g.MaxDegree(), 2);
}

TEST(GraphTest, DuplicateEdgesIgnored) {
  Graph g = BuildFrom(3, {{0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, EdgesAreDeterministicallyOrdered) {
  Graph g = BuildFrom(4, {{2, 0}, {0, 3}, {0, 1}});
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0, 3));
  EXPECT_EQ(edges[1], std::make_pair(0, 1));
  EXPECT_EQ(edges[2], std::make_pair(2, 0));
}

TEST(GraphTest, DegreeBuckets) {
  Graph g = BuildFrom(4, {{0, 1}, {0, 2}, {0, 3}, {1, 0}});
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
    EXPECT_TRUE(HasEdge(g, v, u)) << u << "->" << v;
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
    EXPECT_TRUE(HasEdge(g, u, v));
  }
}

// The CSR order is Edges() order, and every edge's mirror slot points back
// at its source: InNeighbors(dst(e))[in_slot(e)] == src(e).
void ExpectMirrorSlots(const Graph& g) {
  const std::vector<std::pair<int, int>> edges = g.Edges();
  ASSERT_EQ(edges.size(), static_cast<size_t>(g.num_edges()));
  size_t in_slots = 0;
  for (int v = 0; v < g.num_vertices(); v++) {
    EXPECT_EQ(g.OutNeighbors(v).size(), static_cast<size_t>(g.OutDegree(v))) << "vertex " << v;
    EXPECT_EQ(g.InNeighbors(v).size(), static_cast<size_t>(g.InDegree(v))) << "vertex " << v;
    EXPECT_EQ(g.in_start(v), in_slots) << "vertex " << v;
    in_slots += static_cast<size_t>(g.InDegree(v));
    for (size_t e = g.out_start(v); e < g.out_start(v + 1); e++) {
      ASSERT_LT(e, edges.size());
      EXPECT_EQ(edges[e].first, v) << "edge " << e;
      EXPECT_EQ(g.src(e), v) << "edge " << e;
      EXPECT_EQ(edges[e].second, g.dst(e)) << "edge " << e;
      const VertexRange in = g.InNeighbors(g.dst(e));
      ASSERT_GE(g.in_slot(e), 0) << "edge " << e;
      ASSERT_LT(static_cast<size_t>(g.in_slot(e)), in.size()) << "edge " << e;
      EXPECT_EQ(in[static_cast<size_t>(g.in_slot(e))], v) << "edge " << e;
      EXPECT_EQ(g.in_flat(e), g.in_start(g.dst(e)) + static_cast<size_t>(g.in_slot(e)));
    }
  }
  EXPECT_EQ(g.out_start(g.num_vertices()), edges.size());
  EXPECT_EQ(g.in_start(g.num_vertices()), in_slots);
  // Every flat in-slot is written by exactly one edge.
  std::vector<int> writers(in_slots, 0);
  for (size_t e = 0; e < static_cast<size_t>(g.num_edges()); e++) {
    writers[g.in_flat(e)]++;
  }
  for (size_t k = 0; k < in_slots; k++) {
    EXPECT_EQ(writers[k], 1) << "flat in-slot " << k;
  }
}

TEST(GraphTest, MirrorsGeneratedGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    SCOPED_TRACE(seed);
    ExpectMirrorSlots(GenerateScaleFree(300, 3, rng));
    ExpectMirrorSlots(CapDegree(GenerateScaleFree(300, 3, rng), 8));
    CorePeripheryParams params;
    params.num_vertices = 120;
    params.core_size = 15;
    ExpectMirrorSlots(GenerateCorePeriphery(params, rng));
    ExpectMirrorSlots(GenerateErdosRenyi(80, 0.1, rng));
  }
}

TEST(GraphTest, InsertionOrderIsNotSourceOrder) {
  // In-lists follow AddEdge order, so a vertex's in-slots need not be
  // sorted by source: 3 hears from 2, then 0, then 1.
  Graph g = BuildFrom(4, {{2, 3}, {0, 3}, {1, 3}, {3, 0}, {0, 1}});
  ExpectMirrorSlots(g);
  // Edges() order: (0,3) (0,1) (1,3) (2,3) (3,0).
  EXPECT_EQ(g.in_slot(0), 1);
  EXPECT_EQ(g.in_slot(2), 2);
  EXPECT_EQ(g.in_slot(3), 0);
}

TEST(GraphTest, SingleVertexAndIsolatedVertices) {
  Graph single = GraphBuilder(1).Build();
  ExpectMirrorSlots(single);
  EXPECT_EQ(single.num_edges(), 0);
  EXPECT_EQ(single.OutDegree(0), 0);
  EXPECT_EQ(single.InDegree(0), 0);

  // Vertices 0, 2 and 5 have no edges at all.
  ExpectMirrorSlots(BuildFrom(6, {{4, 1}, {1, 3}, {3, 4}, {1, 4}}));
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
    EXPECT_TRUE(HasEdge(g, v, u));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CorePeripherySizeTest, ::testing::Values(10, 20, 50, 100, 200));

// --- GraphBuilder vs the vector-of-vectors graph it replaced --------------
//
// RefGraph::AddEdge and RefCapDegree are verbatim copies of the per-vertex
// list Graph::AddEdge (duplicate scan, then push onto both lists) and of
// CapDegree from before graphs were built as one CSR; the Ref generators
// are the generators of that time, on RefGraph. Every in-slot, session id
// and golden digest rests on the two graphs agreeing edge for edge.

class RefGraph {
 public:
  explicit RefGraph(int num_vertices) : n_(num_vertices), out_(num_vertices), in_(num_vertices) {}

  int num_vertices() const { return n_; }
  int num_edges() const { return num_edges_; }

  void AddEdge(int u, int v) {
    DSTRESS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
    DSTRESS_CHECK(u != v);
    if (HasEdge(u, v)) {
      return;
    }
    out_[u].push_back(v);
    in_[v].push_back(u);
    num_edges_++;
  }
  bool HasEdge(int u, int v) const {
    return std::find(out_[u].begin(), out_[u].end(), v) != out_[u].end();
  }

  const std::vector<int>& OutNeighbors(int v) const { return out_[v]; }
  const std::vector<int>& InNeighbors(int v) const { return in_[v]; }
  int OutDegree(int v) const { return static_cast<int>(out_[v].size()); }
  int InDegree(int v) const { return static_cast<int>(in_[v].size()); }

  std::vector<std::pair<int, int>> Edges() const {
    std::vector<std::pair<int, int>> edges;
    edges.reserve(num_edges_);
    for (int u = 0; u < n_; u++) {
      for (int v : out_[u]) {
        edges.emplace_back(u, v);
      }
    }
    return edges;
  }

 private:
  int n_;
  int num_edges_ = 0;
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
};

RefGraph RefCapDegree(const RefGraph& g, int max_degree) {
  RefGraph capped(g.num_vertices());
  for (auto [u, v] : g.Edges()) {
    if (capped.OutDegree(u) < max_degree && capped.InDegree(v) < max_degree) {
      capped.AddEdge(u, v);
    }
  }
  return capped;
}

RefGraph RefCorePeriphery(const CorePeripheryParams& params, Rng& rng) {
  RefGraph g(params.num_vertices);
  for (int u = 0; u < params.core_size; u++) {
    for (int v = u + 1; v < params.core_size; v++) {
      if (rng.Uniform() < params.core_density) {
        g.AddEdge(u, v);
        g.AddEdge(v, u);
      }
    }
  }
  for (int u = 0; u + 1 < params.core_size; u++) {
    g.AddEdge(u, u + 1);
    g.AddEdge(u + 1, u);
  }
  for (int v = params.core_size; v < params.num_vertices; v++) {
    int links = static_cast<int>(rng.Range(1, params.max_core_links));
    for (int l = 0; l < links; l++) {
      int core = static_cast<int>(rng.Below(static_cast<uint64_t>(params.core_size)));
      g.AddEdge(v, core);
      g.AddEdge(core, v);
    }
  }
  return g;
}

RefGraph RefScaleFree(int num_vertices, int links_per_vertex, Rng& rng) {
  RefGraph g(num_vertices);
  std::vector<int> endpoints;
  int seed = links_per_vertex + 1;
  for (int u = 0; u < seed; u++) {
    for (int v = u + 1; v < seed; v++) {
      g.AddEdge(u, v);
      g.AddEdge(v, u);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (int v = seed; v < num_vertices; v++) {
    int added = 0;
    while (added < links_per_vertex) {
      int target = endpoints[rng.Below(endpoints.size())];
      if (target == v || g.HasEdge(v, target)) {
        continue;
      }
      g.AddEdge(v, target);
      g.AddEdge(target, v);
      endpoints.push_back(v);
      endpoints.push_back(target);
      added++;
    }
  }
  return g;
}

RefGraph RefErdosRenyi(int num_vertices, double edge_probability, Rng& rng) {
  RefGraph g(num_vertices);
  for (int u = 0; u < num_vertices; u++) {
    for (int v = u + 1; v < num_vertices; v++) {
      if (rng.Uniform() < edge_probability) {
        g.AddEdge(u, v);
        g.AddEdge(v, u);
      }
    }
  }
  return g;
}

void ExpectSameGraph(const Graph& g, const RefGraph& ref) {
  ASSERT_EQ(g.num_vertices(), ref.num_vertices());
  EXPECT_EQ(g.num_edges(), ref.num_edges());
  EXPECT_EQ(g.Edges(), ref.Edges());
  for (int v = 0; v < g.num_vertices(); v++) {
    EXPECT_EQ(ToVector(g.OutNeighbors(v)), ref.OutNeighbors(v)) << "vertex " << v;
    EXPECT_EQ(ToVector(g.InNeighbors(v)), ref.InNeighbors(v)) << "vertex " << v;
  }
  ExpectMirrorSlots(g);
}

// Caps at and around the graph's degrees, so some edges are always cut.
void ExpectSameCaps(const Graph& g, const RefGraph& ref) {
  for (int cap : {1, 2, 3, 8}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ExpectSameGraph(CapDegree(g, cap), RefCapDegree(ref, cap));
  }
}

TEST(GraphBuilderTest, MatchesVectorOfVectorsOnRandomEdgeLists) {
  constexpr int kCases = 200;
  for (int c = 0; c < kCases; c++) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(5000 + c);
    // N=1 (no edges possible) every tenth case; otherwise up to 40 vertices
    // with every fifth one isolated, edges added in random order with
    // repeats, and every third case adding each edge with its mirror.
    const int n = c % 10 == 0 ? 1 : 2 + static_cast<int>(rng.Below(39));
    const bool symmetric = c % 3 == 0;
    GraphBuilder builder(n);
    RefGraph ref(n);
    const int adds = static_cast<int>(rng.Below(static_cast<uint64_t>(4 * n + 1)));
    for (int k = 0; n > 1 && k < adds; k++) {
      int u = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      int v = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
      // Repeats: a third of the adds re-draw from a small hot set.
      if (rng.Below(3) == 0) {
        u = static_cast<int>(rng.Below(static_cast<uint64_t>(std::min(n, 4))));
        v = static_cast<int>(rng.Below(static_cast<uint64_t>(std::min(n, 4))));
      }
      if (u == v || u % 5 == 4 || v % 5 == 4) {
        continue;
      }
      builder.AddEdge(u, v);
      ref.AddEdge(u, v);
      if (symmetric) {
        builder.AddEdge(v, u);
        ref.AddEdge(v, u);
      }
    }
    const Graph g = builder.Build();
    ExpectSameGraph(g, ref);
    ExpectSameCaps(g, ref);
  }
}

TEST(GraphBuilderTest, GeneratorsMatchVectorOfVectors) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    {
      Rng a(seed), b(seed);
      CorePeripheryParams params;
      params.num_vertices = 90;
      params.core_size = 12;
      params.core_density = 0.5;
      params.max_core_links = 3;
      const Graph g = GenerateCorePeriphery(params, a);
      const RefGraph ref = RefCorePeriphery(params, b);
      ExpectSameGraph(g, ref);
      ExpectSameCaps(g, ref);
      EXPECT_EQ(a.Next(), b.Next());  // same number of draws
    }
    {
      Rng a(seed), b(seed);
      const Graph g = GenerateScaleFree(250, 2, a);
      const RefGraph ref = RefScaleFree(250, 2, b);
      ExpectSameGraph(g, ref);
      ExpectSameCaps(g, ref);
      EXPECT_EQ(a.Next(), b.Next());
    }
    {
      Rng a(seed), b(seed);
      const Graph g = GenerateErdosRenyi(60, 0.15, a);
      const RefGraph ref = RefErdosRenyi(60, 0.15, b);
      ExpectSameGraph(g, ref);
      ExpectSameCaps(g, ref);
      EXPECT_EQ(a.Next(), b.Next());
    }
  }
}

}  // namespace
}  // namespace dstress::graph
