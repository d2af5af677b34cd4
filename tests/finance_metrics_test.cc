#include "src/finance/metrics.h"

#include <gtest/gtest.h>

#include "src/finance/workload.h"
#include "src/graph/generators.h"

namespace dstress::finance {
namespace {

// Two banks, bank 0 owes bank 1 more than it can pay.
graph::Graph TwoBanks() {
  graph::GraphBuilder g(2);
  g.AddEdge(0, 1);
  return g.Build();
}

EnInstance TwoBankEn(const graph::Graph* g) {
  EnInstance instance;
  instance.graph = g;
  instance.cash = {10, 50};
  instance.debts = {{30}, {}};  // bank 0 owes 30, has 10
  return instance;
}

TEST(EnBreakdownTest, InsolventBankIsFlagged) {
  const graph::Graph g = TwoBanks();
  EnInstance instance = TwoBankEn(&g);
  EnProgramParams params;
  params.degree_bound = 1;
  params.iterations = 3;
  RiskBreakdown breakdown = EnBreakdown(instance, params);
  EXPECT_EQ(breakdown.failed_banks, 1);
  EXPECT_TRUE(breakdown.banks[0].failed);
  EXPECT_FALSE(breakdown.banks[1].failed);
  // Bank 0 can pay 10 of 30: shortfall 20 (fixed-point rounding <= 1 unit).
  EXPECT_NEAR(static_cast<double>(breakdown.banks[0].shortfall), 20.0, 1.0);
  EXPECT_EQ(breakdown.banks[1].shortfall, 0u);
}

TEST(EnBreakdownTest, TotalMatchesPerBankSum) {
  Rng rng(3);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 20;
  topo.core_size = 4;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  finance::WorkloadParams wp;
  wp.core_size = 4;
  ShockParams shock;
  shock.shocked_banks = {0, 1};
  EnInstance instance = MakeEnWorkload(g, wp, shock);
  EnProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 6;
  RiskBreakdown breakdown = EnBreakdown(instance, params);
  uint64_t sum = 0;
  for (const auto& outcome : breakdown.banks) {
    sum += outcome.shortfall;
  }
  // The aggregate TDS is computed by the same formula per bank; allow one
  // rounding unit per bank for the division order.
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(breakdown.total_shortfall),
              static_cast<double>(breakdown.banks.size()));
  EXPECT_GT(breakdown.failed_banks, 0);
}

TEST(EnBreakdownTest, NoShockNoFailures) {
  Rng rng(5);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 15;
  topo.core_size = 3;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  finance::WorkloadParams wp;
  wp.core_size = 3;
  EnInstance instance = MakeEnWorkload(g, wp, ShockParams{});
  EnProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 6;
  RiskBreakdown breakdown = EnBreakdown(instance, params);
  EXPECT_EQ(breakdown.failed_banks, 0);
  EXPECT_EQ(breakdown.total_shortfall, 0u);
}

TEST(EgjBreakdownTest, ShockedBanksFailFirst) {
  Rng rng(8);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 20;
  topo.core_size = 4;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  finance::WorkloadParams wp;
  wp.core_size = 4;
  wp.cross_holding = 0.3;
  wp.threshold_ratio = 0.8;
  wp.penalty_ratio = 0.4;
  ShockParams shock;
  shock.shocked_banks = {0};
  EgjInstance instance = MakeEgjWorkload(g, wp, shock);
  EgjProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 6;
  RiskBreakdown breakdown = EgjBreakdown(instance, params);
  EXPECT_TRUE(breakdown.banks[0].failed) << "the shocked core bank must fail";
  EXPECT_GT(breakdown.total_shortfall, 0u);
  // Shortfalls are only attributed to failed banks.
  for (const auto& outcome : breakdown.banks) {
    if (!outcome.failed) {
      EXPECT_EQ(outcome.shortfall, 0u) << "bank " << outcome.bank;
    }
  }
}

TEST(BreakdownComparisonTest, FailedCountCoarserThanTds) {
  // §4.1's point: two shocks with very different dollar impact can fail the
  // same number of banks, but the TDS separates them.
  const graph::Graph g1 = TwoBanks();
  EnInstance small = TwoBankEn(&g1);
  const graph::Graph g2 = TwoBanks();
  EnInstance large = TwoBankEn(&g2);
  large.debts = {{3000}, {}};
  large.cash = {10, 50};

  EnProgramParams params;
  params.degree_bound = 1;
  params.iterations = 3;
  RiskBreakdown small_b = EnBreakdown(small, params);
  RiskBreakdown large_b = EnBreakdown(large, params);
  EXPECT_EQ(small_b.failed_banks, large_b.failed_banks);
  EXPECT_GT(large_b.total_shortfall, 10 * small_b.total_shortfall);
}

}  // namespace
}  // namespace dstress::finance
