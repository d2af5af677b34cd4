// Parameterized end-to-end sweep of the full stack through the engine API
// (setup -> sharing -> GMW updates -> encrypted transfers -> tree/flat
// aggregation -> in-MPC noising disabled) across block sizes and
// topologies, using the private-sum and reachability programs whose outputs
// are exactly predictable. Every cell exercises a distinct (k, topology)
// combination of the protocol — and runs once per execution mode, so the
// cleartext fast path is held to the same exact-output bar as the secure
// stack.
#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/graph/generators.h"
#include "src/programs/private_sum.h"
#include "src/programs/reachability.h"

namespace dstress::engine {
namespace {

enum class Topo { kRing, kStar, kScaleFree };

struct SweepCase {
  int block_size;
  Topo topo;
  int num_vertices;
  ExecutionMode mode;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* names[] = {"Ring", "Star", "ScaleFree"};
  return std::string(names[static_cast<int>(info.param.topo)]) + "N" +
         std::to_string(info.param.num_vertices) + "B" + std::to_string(info.param.block_size) +
         (info.param.mode == ExecutionMode::kSecure ? "Secure" : "Cleartext");
}

graph::Graph MakeTopo(Topo topo, int n) {
  switch (topo) {
    case Topo::kRing: {
      graph::GraphBuilder g(n);
      for (int v = 0; v < n; v++) {
        g.AddEdge(v, (v + 1) % n);
      }
      return g.Build();
    }
    case Topo::kStar: {
      graph::GraphBuilder g(n);
      for (int v = 1; v < n; v++) {
        g.AddEdge(0, v);  // hub broadcasts; max out-degree n-1
      }
      return g.Build();
    }
    case Topo::kScaleFree: {
      Rng rng(static_cast<uint64_t>(n) * 31);
      return graph::GenerateScaleFree(n, 2, rng);
    }
  }
  DSTRESS_CHECK(false);
}

class RuntimeSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RuntimeSweepTest, PrivateSumExact) {
  auto [block_size, topo, n, mode] = GetParam();
  graph::Graph g = MakeTopo(topo, n);

  programs::PrivateSumParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;

  std::vector<uint32_t> values;
  for (int v = 0; v < n; v++) {
    values.push_back(static_cast<uint32_t>(100 + 7 * v));
  }
  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kCustom;
  spec.custom_program = programs::BuildPrivateSumProgram(params);
  spec.custom_states = programs::MakePrivateSumStates(values, params.value_bits);
  spec.block_size = block_size;
  spec.seed = static_cast<uint64_t>(block_size) * 1000 + n;
  spec.mode = mode;
  RunReport report = Engine(spec).Run();
  EXPECT_EQ(report.released, programs::PlaintextSum(values, params.aggregate_bits));
  EXPECT_GT(report.metrics.total_bytes, 0u);
}

TEST_P(RuntimeSweepTest, ReachabilityExact) {
  auto [block_size, topo, n, mode] = GetParam();
  graph::Graph g = MakeTopo(topo, n);

  programs::ReachabilityParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.hops = 2;
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;

  std::vector<int> sources = {0};
  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kCustom;
  spec.custom_program = programs::BuildReachabilityProgram(params);
  spec.custom_states = programs::MakeReachabilityStates(n, sources);
  spec.block_size = block_size;
  spec.seed = static_cast<uint64_t>(block_size) * 2000 + n;
  spec.mode = mode;
  RunReport report = Engine(spec).Run();
  EXPECT_EQ(report.released, programs::PlaintextReachableCount(g, sources, params.hops));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuntimeSweepTest,
    ::testing::Values(SweepCase{2, Topo::kRing, 6, ExecutionMode::kSecure},
                      SweepCase{3, Topo::kRing, 8, ExecutionMode::kSecure},
                      SweepCase{4, Topo::kRing, 6, ExecutionMode::kSecure},
                      SweepCase{3, Topo::kStar, 7, ExecutionMode::kSecure},
                      SweepCase{4, Topo::kStar, 9, ExecutionMode::kSecure},
                      SweepCase{3, Topo::kScaleFree, 10, ExecutionMode::kSecure},
                      SweepCase{4, Topo::kScaleFree, 12, ExecutionMode::kSecure},
                      SweepCase{2, Topo::kRing, 6, ExecutionMode::kCleartextFast},
                      SweepCase{3, Topo::kStar, 7, ExecutionMode::kCleartextFast},
                      SweepCase{4, Topo::kScaleFree, 12, ExecutionMode::kCleartextFast},
                      // Far beyond secure-mode test scale: the fast path
                      // covers a three-digit vertex count in milliseconds.
                      SweepCase{4, Topo::kScaleFree, 400, ExecutionMode::kCleartextFast}),
    CaseName);

}  // namespace
}  // namespace dstress::engine
