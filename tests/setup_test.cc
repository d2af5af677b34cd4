#include "src/core/setup.h"

#include <gtest/gtest.h>

#include <set>

#include "src/graph/generators.h"

namespace dstress::core {
namespace {

graph::Graph Ring(int n) {
  graph::GraphBuilder g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g.Build();
}

SetupConfig Config(int n, int block_size, uint64_t seed = 1) {
  SetupConfig config;
  config.num_nodes = n;
  config.block_size = block_size;
  config.message_bits = 4;
  config.seed = seed;
  return config;
}

TEST(TrustedSetupTest, BlocksContainSelfAndDistinctMembers) {
  graph::Graph g = Ring(12);
  TrustedSetup setup = RunTrustedSetup(Config(12, 5), g);
  ASSERT_EQ(setup.blocks.size(), 12u);
  for (int v = 0; v < 12; v++) {
    const auto& block = setup.blocks[v];
    ASSERT_EQ(block.size(), 5u);
    EXPECT_EQ(block[0], v) << "anchor must coordinate its own block";
    std::set<int> distinct(block.begin(), block.end());
    EXPECT_EQ(distinct.size(), block.size()) << "duplicate member in B_" << v;
    for (int m : block) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, 12);
    }
  }
}

TEST(TrustedSetupTest, EveryNodeHasLKeyPairs) {
  graph::Graph g = Ring(6);
  TrustedSetup setup = RunTrustedSetup(Config(6, 3), g);
  ASSERT_EQ(setup.node_keys.size(), 6u);
  std::set<std::string> all_points;
  for (const auto& member : setup.node_keys) {
    ASSERT_EQ(member.keys.size(), 4u);  // message_bits
    for (const auto& kp : member.keys) {
      auto compressed = kp.pub.point.Compress();
      all_points.insert(std::string(compressed.begin(), compressed.end()));
    }
  }
  EXPECT_EQ(all_points.size(), 6u * 4u) << "key pairs must be unique";
}

TEST(TrustedSetupTest, CertificatesExistExactlyForEdges) {
  Rng rng(4);
  graph::Graph g = graph::GenerateScaleFree(15, 2, rng);
  TrustedSetup setup = RunTrustedSetup(Config(15, 4), g);
  size_t expected = 0;
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(setup.edge_certificates.count({u, v})) << u << "->" << v;
    expected++;
  }
  EXPECT_EQ(setup.edge_certificates.size(), expected);
}

TEST(TrustedSetupTest, CertificateKeysAreBlindedPerEdge) {
  // Two in-edges of the same node carry certificates for the same block but
  // blinded with different neighbor keys: no shared points, and none equal
  // to the original public keys.
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);  // keep every vertex connected
  const graph::Graph g = builder.Build();
  TrustedSetup setup = RunTrustedSetup(Config(4, 2), g);

  const auto& cert_a = setup.edge_certificates.at({0, 2});
  const auto& cert_b = setup.edge_certificates.at({1, 2});
  ASSERT_EQ(cert_a.keys.size(), cert_b.keys.size());
  for (size_t m = 0; m < cert_a.keys.size(); m++) {
    int member = setup.blocks[2][m];
    for (size_t b = 0; b < cert_a.keys[m].size(); b++) {
      EXPECT_NE(cert_a.keys[m][b].point, cert_b.keys[m][b].point);
      EXPECT_NE(cert_a.keys[m][b].point, setup.node_keys[member].keys[b].pub.point);
    }
  }
}

TEST(TrustedSetupTest, NeighborKeyCountMatchesInDegree) {
  Rng rng(9);
  graph::Graph g = graph::GenerateErdosRenyi(10, 0.3, rng);
  TrustedSetup setup = RunTrustedSetup(Config(10, 3), g);
  for (int v = 0; v < 10; v++) {
    EXPECT_EQ(setup.neighbor_keys[v].size(), static_cast<size_t>(g.InDegree(v)));
  }
}

TEST(TrustedSetupTest, DeterministicForSeedAndDifferentAcrossSeeds) {
  graph::Graph g = Ring(8);
  TrustedSetup a = RunTrustedSetup(Config(8, 3, 7), g);
  TrustedSetup b = RunTrustedSetup(Config(8, 3, 7), g);
  TrustedSetup c = RunTrustedSetup(Config(8, 3, 8), g);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.aggregation_block, b.aggregation_block);
  EXPECT_NE(a.blocks, c.blocks);
}

TEST(TrustedSetupTest, ExtraBlocksAreValid) {
  graph::Graph g = Ring(10);
  TrustedSetup setup = RunTrustedSetup(Config(10, 4), g);
  auto prg = crypto::ChaCha20Prg::FromSeed(3);
  for (int trial = 0; trial < 5; trial++) {
    auto block = setup.MakeExtraBlock(prg);
    ASSERT_EQ(block.size(), 4u);
    std::set<int> distinct(block.begin(), block.end());
    EXPECT_EQ(distinct.size(), block.size());
  }
}

TEST(TrustedSetupTest, BlockMembershipIsSpreadAcrossNodes) {
  // Random membership: over 40 blocks of size 4 on 40 nodes, no node may
  // monopolize membership (Sybil-resistance sanity, not a strict bound).
  graph::Graph g = Ring(40);
  TrustedSetup setup = RunTrustedSetup(Config(40, 4), g);
  std::vector<int> load(40, 0);
  for (const auto& block : setup.blocks) {
    for (int m : block) {
      load[m]++;
    }
  }
  for (int v = 0; v < 40; v++) {
    EXPECT_GE(load[v], 1);   // everyone anchors its own block
    EXPECT_LE(load[v], 16);  // expectation is 4; 16 would be wildly skewed
  }
}

}  // namespace
}  // namespace dstress::core
