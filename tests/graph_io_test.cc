#include "src/graph/io.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"

namespace dstress::graph {
namespace {

TEST(EdgeListTest, RoundTripsGeneratedGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Graph g = GenerateScaleFree(20, 2, rng);
    std::string text = WriteEdgeList(g);
    std::string error;
    auto parsed = ParseEdgeList(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
    EXPECT_EQ(parsed->Edges(), g.Edges());
  }
}

TEST(EdgeListTest, CommentsAndBlanksIgnored) {
  std::string error;
  auto g = ParseEdgeList("# topology\n\ngraph 3\n0 1   # first\n1 2\n", &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->Edges(), (std::vector<std::pair<int, int>>{{0, 1}, {1, 2}}));
}

TEST(EdgeListTest, EmptyGraphAllowed) {
  std::string error;
  auto g = ParseEdgeList("graph 5\n", &error);
  ASSERT_TRUE(g.has_value()) << error;
  EXPECT_EQ(g->num_vertices(), 5);
  EXPECT_EQ(g->num_edges(), 0);
}

TEST(EdgeListTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* fragment;
  };
  const Case cases[] = {
      {"", "missing 'graph"},
      {"digraph 3\n", "line 1"},
      {"graph 0\n", "line 1"},
      {"graph 3 extra\n", "trailing tokens"},
      {"graph 3\n0\n", "line 2"},
      {"graph 3\n0 1 2\n", "expected '<u> <v>'"},
      {"graph 3\n0 3\n", "out of range"},
      {"graph 3\n-1 2\n", "out of range"},
      {"graph 3\n1 1\n", "self-loops"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto g = ParseEdgeList(c.text, &error);
    EXPECT_FALSE(g.has_value()) << c.text;
    EXPECT_NE(error.find(c.fragment), std::string::npos)
        << "input <" << c.text << "> error <" << error << ">";
  }
}

TEST(DotTest, ContainsAllNodesAndEdges) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 0);
  const Graph g = builder.Build();
  std::string dot = WriteDot(g, /*core_size=*/1);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 [style=filled"), std::string::npos);
  EXPECT_EQ(dot.find("n1 [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n0;"), std::string::npos);
}

}  // namespace
}  // namespace dstress::graph
