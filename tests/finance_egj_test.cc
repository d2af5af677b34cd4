#include "src/finance/elliott_golub_jackson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"
#include "tests/lane_util.h"

namespace dstress::finance {
namespace {

EgjProgramParams DefaultParams(const graph::Graph& g, int iterations) {
  EgjProgramParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.iterations = iterations;
  return params;
}

TEST(EgjModelTest, IsolatedBankKeepsBaseValue) {
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1);  // bank 1 holds a (zero) share of bank 0
  const graph::Graph g = builder.Build();
  EgjInstance instance;
  instance.graph = &g;
  instance.base = {100, 80};
  instance.orig_val = {100, 80};
  instance.threshold = {10, 10};
  instance.penalty = {5, 5};
  instance.insh = {{}, {0}};
  EgjProgramParams params = DefaultParams(g, 3);
  std::vector<uint64_t> values;
  uint64_t tds = EgjSolveFixed(instance, params, &values);
  EXPECT_EQ(values[0], 100u);
  EXPECT_EQ(values[1], 80u);
  EXPECT_EQ(tds, 0u);
}

TEST(EgjModelTest, CrossHoldingPropagatesValue) {
  // Bank 1 holds 50% of bank 0 (orig val 100): its valuation includes 50.
  FixedPointFormat fmt;
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const graph::Graph g = builder.Build();
  EgjInstance instance;
  instance.graph = &g;
  instance.base = {100, 40};
  instance.orig_val = {100, 90};
  instance.threshold = {0, 0};
  instance.penalty = {0, 0};
  instance.insh = {{}, {fmt.FracFromDouble(0.5)}};
  EgjProgramParams params = DefaultParams(g, 3);
  std::vector<uint64_t> values;
  EgjSolveFixed(instance, params, &values);
  EXPECT_EQ(values[0], 100u);
  EXPECT_EQ(values[1], 90u);  // 40 + 0.5*100
}

TEST(EgjModelTest, PenaltyAppliesBelowThreshold) {
  FixedPointFormat fmt;
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const graph::Graph g = builder.Build();
  EgjInstance instance;
  instance.graph = &g;
  instance.base = {20, 40};  // bank 0 shocked below its threshold
  instance.orig_val = {100, 90};
  instance.threshold = {50, 30};
  instance.penalty = {15, 10};
  instance.insh = {{}, {fmt.FracFromDouble(0.5)}};
  EgjProgramParams params = DefaultParams(g, 4);
  std::vector<uint64_t> values;
  uint64_t tds = EgjSolveFixed(instance, params, &values);
  // Bank 0: value 20 < 50 -> 20 - 15 = 5.
  EXPECT_EQ(values[0], 5u);
  // Bank 1: 40 + 0.5 * (value0/orig0)*orig0; discount = 1 - 5/100 = 0.95 ->
  // holding ~ 0.5*5 = 2 (fixed point rounding), value ~42 > threshold 30.
  EXPECT_GE(values[1], 41u);
  EXPECT_LE(values[1], 43u);
  // TDS counts only bank 0's gap: 50 - 5 = 45.
  EXPECT_EQ(tds, 45u);
}

TEST(EgjModelTest, FixedTracksExactSolver) {
  Rng rng(11);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 30;
  topo.core_size = 6;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 6;
  ShockParams shock;
  shock.shocked_banks = {0, 1};
  EgjInstance instance = MakeEgjWorkload(g, wp, shock);
  EgjProgramParams params = DefaultParams(g, 6);
  uint64_t fixed_tds = EgjSolveFixed(instance, params);
  double exact_tds = EgjSolveExact(instance, 6, params.format);
  double tolerance = 0.10 * std::max(exact_tds, 50.0) + 40;
  EXPECT_NEAR(static_cast<double>(fixed_tds), exact_tds, tolerance);
}

TEST(EgjModelTest, NoShockNoFailuresOnGeneratedWorkload) {
  // The workload calibrates orig_val as the no-shock fixpoint, so without a
  // shock every bank stays at its threshold-clearing valuation.
  Rng rng(12);
  graph::Graph g = graph::GenerateErdosRenyi(20, 0.15, rng);
  WorkloadParams wp;
  EgjInstance instance = MakeEgjWorkload(g, wp, ShockParams{});
  EgjProgramParams params = DefaultParams(g, 6);
  EXPECT_EQ(EgjSolveFixed(instance, params), 0u);
}

TEST(EgjModelTest, CascadeScenario) {
  // Appendix C's second scenario: shocking several core banks produces a
  // much larger TDS than shocking peripheral banks, because core failures
  // cascade.
  Rng rng(13);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 50;
  topo.core_size = 10;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 10;
  wp.cross_holding = 0.3;
  wp.threshold_ratio = 0.8;
  wp.penalty_ratio = 0.4;

  ShockParams periphery_shock;
  periphery_shock.shocked_banks = {45, 46, 47};
  ShockParams core_shock;
  core_shock.shocked_banks = {0, 1, 2};

  EgjProgramParams params = DefaultParams(g, 6);
  uint64_t periphery_tds = EgjSolveFixed(MakeEgjWorkload(g, wp, periphery_shock), params);
  uint64_t core_tds = EgjSolveFixed(MakeEgjWorkload(g, wp, core_shock), params);
  EXPECT_GT(core_tds, 2 * periphery_tds);
}

TEST(EgjModelTest, ValuesDecreaseMonotonicallyOverIterations) {
  // Hemenway–Khanna: the iteration converges monotonically from above.
  Rng rng(14);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 25;
  topo.core_size = 5;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 5;
  wp.threshold_ratio = 0.8;
  ShockParams shock;
  shock.shocked_banks = {0, 1};
  EgjInstance instance = MakeEgjWorkload(g, wp, shock);

  std::vector<uint64_t> prev;
  for (int iters = 0; iters <= 6; iters++) {
    EgjProgramParams params = DefaultParams(g, iters);
    std::vector<uint64_t> values;
    EgjSolveFixed(instance, params, &values);
    if (!prev.empty()) {
      for (size_t v = 0; v < values.size(); v++) {
        EXPECT_LE(values[v], prev[v] + 1) << "vertex " << v << " at iter " << iters;
      }
    }
    prev = values;
  }
}

TEST(EgjCircuitTest, UpdateCircuitMatchesFixedSolverOneStep) {
  FixedPointFormat fmt;
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const graph::Graph g = builder.Build();
  EgjInstance instance;
  instance.graph = &g;
  instance.base = {20, 40};
  instance.orig_val = {100, 90};
  instance.threshold = {50, 30};
  instance.penalty = {15, 10};
  instance.insh = {{}, {fmt.FracFromDouble(0.5)}};
  EgjProgramParams params = DefaultParams(g, 1);
  core::VertexProgram program = MakeEgjProgram(params);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  auto states = MakeEgjInitialStates(instance, params);

  const int w = params.format.value_bits;
  // Bank 0's first update with ⊥ (=0 discount) messages.
  mpc::BitVector input = states.Instance(0);
  for (int d = 0; d < params.degree_bound; d++) {
    mpc::AppendBits(&input, mpc::WordToBits(0, program.message_bits));
  }
  auto out = update.Eval(input);
  uint64_t value = mpc::BitsToWord(out, 2 * static_cast<size_t>(w), w);
  EXPECT_EQ(value, 5u);  // 20 < 50 -> 20 - 15
  // Outgoing discount: 1 - 5/100 in Q0.8 = 256 - floor(5*256/100) = 256-12.
  uint64_t msg = mpc::BitsToWord(out, static_cast<size_t>(program.state_bits), w);
  EXPECT_EQ(msg, 256u - (5u << 8) / 100u);
}

TEST(EgjWorkloadTest, OrigValIsSelfConsistentFixpoint) {
  Rng rng(15);
  graph::Graph g = graph::GenerateErdosRenyi(15, 0.2, rng);
  WorkloadParams wp;
  EgjInstance instance = MakeEgjWorkload(g, wp, ShockParams{});
  // orig_val ~ base + sum of insh * orig_val of in-neighbors.
  for (int v = 0; v < g.num_vertices(); v++) {
    double expected = static_cast<double>(instance.base[v]);
    for (int d = 0; d < g.InDegree(v); d++) {
      expected += wp.format.FracToDouble(instance.insh[v][d]) *
                  static_cast<double>(instance.orig_val[g.InNeighbors(v)[d]]);
    }
    EXPECT_NEAR(static_cast<double>(instance.orig_val[v]), expected,
                0.02 * expected + 2.0)
        << v;
  }
}

TEST(EgjWorkloadTest, IssuedSharesAreCapped) {
  Rng rng(16);
  graph::Graph g = graph::GenerateScaleFree(40, 3, rng);
  WorkloadParams wp;
  wp.cross_holding = 0.5;  // aggressive: forces the cap to engage
  EgjInstance instance = MakeEgjWorkload(g, wp, ShockParams{});
  std::vector<double> issued(g.num_vertices(), 0.0);
  for (int v = 0; v < g.num_vertices(); v++) {
    for (int d = 0; d < g.InDegree(v); d++) {
      issued[g.InNeighbors(v)[d]] += wp.format.FracToDouble(instance.insh[v][d]);
    }
  }
  for (int v = 0; v < g.num_vertices(); v++) {
    EXPECT_LE(issued[v], 0.85) << v;  // cap 0.8 plus rounding slack
  }
}

// --- Flat kernels vs the per-word / neighbor-scan loops they replaced -----
//
// ScanEgjInitialStates / ScanEgjSolveFixed are verbatim copies of
// MakeEgjInitialStates (per-word WordToBits/AppendBits temporaries) and
// EgjSolveFixed (mirror-slot scan per discount notice) from before they
// moved onto flat arrays and the CSR graph's mirror slots.

std::vector<mpc::BitVector> ScanEgjInitialStates(const EgjInstance& instance,
                                                 const EgjProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < g.num_vertices(); v++) {
    mpc::BitVector state;
    auto append = [&](uint64_t value) {
      mpc::AppendBits(&state, mpc::WordToBits(params.format.SaturateValue(value), w));
    };
    append(instance.base[v]);
    append(instance.orig_val[v]);
    append(instance.orig_val[v]);
    append(instance.threshold[v]);
    append(instance.penalty[v]);
    for (int d = 0; d < d_bound; d++) {
      append(d < g.InDegree(v) ? instance.insh[v][d] : 0);
    }
    for (int d = 0; d < d_bound; d++) {
      append(d < g.InDegree(v) ? instance.orig_val[g.InNeighbors(v)[d]] : 0);
    }
    states.push_back(std::move(state));
  }
  return states;
}

uint64_t ScanEgjSolveFixed(const EgjInstance& instance, const EgjProgramParams& params,
                           std::vector<uint64_t>* values_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int f = params.format.frac_bits;
  const uint64_t one = params.format.One();
  const uint64_t max_value = params.format.MaxValue();
  auto sat = [&](uint64_t v) { return params.format.SaturateValue(v); };
  std::vector<std::vector<uint64_t>> discount_in(n);
  for (int v = 0; v < n; v++) {
    discount_in[v].assign(g.InDegree(v), 0);
  }
  std::vector<uint64_t> value(n);
  for (int v = 0; v < n; v++) {
    value[v] = sat(instance.orig_val[v]);
  }
  for (int step = 0; step <= params.iterations; step++) {
    for (int v = 0; v < n; v++) {
      uint64_t acc = sat(instance.base[v]);
      for (int d = 0; d < g.InDegree(v); d++) {
        uint64_t discount = std::min(discount_in[v][d], one);
        uint64_t remain = one - discount;
        uint64_t nbr_orig = sat(instance.orig_val[g.InNeighbors(v)[d]]);
        uint64_t nbr_value = (nbr_orig * remain) >> f;
        uint64_t holding = (sat(instance.insh[v][d]) * nbr_value) >> f;
        acc += holding;
      }
      acc = std::min(acc, max_value);
      if (acc < sat(instance.threshold[v])) {
        uint64_t pen = sat(instance.penalty[v]);
        acc = acc < pen ? 0 : acc - pen;
      }
      value[v] = acc;
    }
    if (step == params.iterations) {
      break;
    }
    for (int v = 0; v < n; v++) {
      uint64_t orig = sat(instance.orig_val[v]);
      uint64_t ratio = orig == 0 ? one : std::min(one, (value[v] << f) / orig);
      uint64_t discount = one - ratio;
      for (int s = 0; s < g.OutDegree(v); s++) {
        int holder = g.OutNeighbors(v)[s];
        const auto& in = g.InNeighbors(holder);
        for (size_t slot = 0; slot < in.size(); slot++) {
          if (in[slot] == v) {
            discount_in[holder][slot] = discount;
            break;
          }
        }
      }
    }
  }
  *values_out = value;
  uint64_t tds = 0;
  for (int v = 0; v < n; v++) {
    uint64_t thr = sat(instance.threshold[v]);
    if (value[v] < thr) {
      tds += thr - value[v];
    }
  }
  return tds;
}

// A directed graph whose edges are inserted in random order, so in-lists
// are not sorted by source; every fourth vertex is left isolated.
graph::Graph RandomDirectedGraph(int n, int edges, Rng& rng) {
  graph::GraphBuilder g(n);
  if (n < 2) {
    return g.Build();
  }
  for (int k = 0; k < edges; k++) {
    int u = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
    if (u != v && u % 4 != 3 && v % 4 != 3) {
      g.AddEdge(u, v);
    }
  }
  return g.Build();
}

TEST(EgjFlatKernelTest, MatchesNeighborScanLoops) {
  constexpr int kCases = 64;
  for (int c = 0; c < kCases; c++) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(2000 + c);
    graph::Graph g = graph::GraphBuilder(1).Build();
    switch (c % 4) {
      case 0:
        g = RandomDirectedGraph(1 + static_cast<int>(rng.Below(40)), 120, rng);
        break;
      case 1:
        g = graph::GenerateScaleFree(3 + static_cast<int>(rng.Below(60)), 2, rng);
        break;
      case 2: {
        graph::CorePeripheryParams cp;
        cp.num_vertices = 10 + static_cast<int>(rng.Below(40));
        cp.core_size = 3 + static_cast<int>(rng.Below(5));
        g = graph::GenerateCorePeriphery(cp, rng);
        break;
      }
      default:
        g = graph::GenerateErdosRenyi(2 + static_cast<int>(rng.Below(30)), 0.2, rng);
        break;
    }
    const int n = g.num_vertices();
    EgjProgramParams params;
    params.format.value_bits = 10 + static_cast<int>(rng.Below(10));
    params.format.frac_bits = 4 + static_cast<int>(rng.Below(5));
    // Padding: the bound is often above the graph's max degree.
    params.degree_bound = std::max(1, g.MaxDegree()) + static_cast<int>(rng.Below(3));
    params.iterations = static_cast<int>(rng.Below(9));

    EgjInstance instance;
    if (c % 3 == 0) {
      WorkloadParams wp;
      wp.format = params.format;
      wp.seed = 77 + c;
      ShockParams shock;
      shock.shocked_banks = {0, n / 2};
      shock.survival = 0.25 * static_cast<double>(c % 4);
      instance = MakeEgjWorkload(g, wp, shock);
    } else {
      // Raw draws up to 4x the format maximum exercise saturation; zero
      // base assets model shocked banks, zero valuations the ratio guard.
      const uint64_t cap = 4 * params.format.MaxValue();
      instance.graph = &g;
      instance.base.resize(n);
      instance.orig_val.resize(n);
      instance.threshold.resize(n);
      instance.penalty.resize(n);
      instance.insh.resize(n);
      for (int v = 0; v < n; v++) {
        instance.base[v] = rng.Below(4) == 0 ? 0 : rng.Below(cap);
        instance.orig_val[v] = rng.Below(5) == 0 ? 0 : rng.Below(cap);
        instance.threshold[v] = rng.Below(cap);
        instance.penalty[v] = rng.Below(cap / 2);
        for (int d = 0; d < g.InDegree(v); d++) {
          instance.insh[v].push_back(rng.Below(params.format.One() + 1));
        }
      }
    }

    lanes::ExpectLaneEq(MakeEgjInitialStates(instance, params),
                        ScanEgjInitialStates(instance, params));
    std::vector<uint64_t> scan_values, flat_values;
    const uint64_t scan_tds = ScanEgjSolveFixed(instance, params, &scan_values);
    EXPECT_EQ(EgjSolveFixed(instance, params, &flat_values), scan_tds);
    EXPECT_EQ(flat_values, scan_values);
  }
}

// --- The packed packer vs its retired one-byte-per-bit form ---------------
//
// RetiredEgjInitialStates is a verbatim copy of MakeEgjInitialStates from
// when it built one BitVector per vertex (with the PutWordBits helper it
// used), before it wrote the packed lane directly.

void PutWordBits(mpc::BitVector* bits, size_t offset, uint64_t value, int count) {
  DSTRESS_CHECK(offset + count <= bits->size());
  for (int i = 0; i < count; i++) {
    (*bits)[offset + i] = (value >> i) & 1;
  }
}

std::vector<mpc::BitVector> RetiredEgjInitialStates(const EgjInstance& instance,
                                                    const EgjProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  auto put = [&](mpc::BitVector* state, int word, uint64_t value) {
    PutWordBits(state, static_cast<size_t>(word) * w, params.format.SaturateValue(value), w);
  };
  // Words past a vertex's in-degree stay zero: the padded slots.
  std::vector<mpc::BitVector> states(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); v++) {
    mpc::BitVector& state = states[v];
    state.assign((5 + 2 * d_bound) * w, 0);
    put(&state, 0, instance.base[v]);
    put(&state, 1, instance.orig_val[v]);
    put(&state, 2, instance.orig_val[v]);  // value starts at the initial valuation
    put(&state, 3, instance.threshold[v]);
    put(&state, 4, instance.penalty[v]);
    const graph::VertexRange in = g.InNeighbors(v);
    const int in_slots = std::min(static_cast<int>(in.size()), d_bound);
    for (int d = 0; d < in_slots; d++) {
      put(&state, 5 + d, instance.insh[v][d]);
      put(&state, 5 + d_bound + d, instance.orig_val[in[d]]);
    }
  }
  return states;
}

// Seeded cases over N in {1, 2, 63, 64, 65, 130, 200}: isolated vertices
// (every fourth), degree bounds below, at and above the max degree (so
// in-degrees exceed the bound), seeded workloads and raw saturating draws.
TEST(EgjPackerTest, MatchesRetiredBitVectorPacker) {
  int c = 0;
  for (int n : {1, 2, 63, 64, 65, 130, 200}) {
    Rng rng(600 + static_cast<uint64_t>(n));
    const graph::Graph g = RandomDirectedGraph(n, 8 * n, rng);
    const int max_degree = std::max(1, g.MaxDegree());
    for (int bound : {1, std::max(1, max_degree / 2), max_degree, max_degree + 2}) {
      SCOPED_TRACE("N=" + std::to_string(n) + " bound=" + std::to_string(bound));
      EgjProgramParams params;
      params.format.value_bits = 10 + (c % 7);
      params.format.frac_bits = 4;
      params.degree_bound = bound;
      EgjInstance instance;
      if (c++ % 2 == 0 && n >= 2) {
        WorkloadParams wp;
        wp.format = params.format;
        wp.seed = 41 + static_cast<uint64_t>(c);
        ShockParams shock;
        shock.shocked_banks = {0};
        instance = MakeEgjWorkload(g, wp, shock);
      } else {
        const uint64_t cap = 4 * params.format.MaxValue();
        instance.graph = &g;
        instance.base.resize(n);
        instance.orig_val.resize(n);
        instance.threshold.resize(n);
        instance.penalty.resize(n);
        instance.insh.resize(n);
        for (int v = 0; v < n; v++) {
          instance.base[v] = rng.Below(cap);
          instance.orig_val[v] = rng.Below(cap);
          instance.threshold[v] = rng.Below(cap);
          instance.penalty[v] = rng.Below(cap / 2);
          for (int d = 0; d < g.InDegree(v); d++) {
            instance.insh[v].push_back(rng.Below(params.format.One() + 1));
          }
        }
      }
      lanes::ExpectLaneEq(MakeEgjInitialStates(instance, params),
                          RetiredEgjInitialStates(instance, params));
    }
  }
}

}  // namespace
}  // namespace dstress::finance
