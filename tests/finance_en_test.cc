#include "src/finance/eisenberg_noe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/check.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"
#include "tests/lane_util.h"

namespace dstress::finance {
namespace {

using mpc::AppendBits;
using mpc::BitsToWord;
using mpc::BitVector;

EnProgramParams DefaultParams(const graph::Graph& g, int iterations) {
  EnProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = iterations;
  return params;
}

// A tiny hand-checkable instance: bank 1 owes 0 and 2, has no cash after a
// shock; bank 0 owes 2.
graph::Graph TinyGraph() {
  graph::GraphBuilder g(3);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g.Build();
}

struct TinyInstance {
  graph::Graph g = TinyGraph();
  EnInstance instance;

  TinyInstance() {
    instance.graph = &g;
    instance.cash = {50, 10, 5};
    // debts aligned with out-neighbors: bank1 -> {0: 30, 2: 30}, bank0 -> {2: 20}.
    instance.debts = {{20}, {30, 30}, {}};
  }
};

TEST(EnModelTest, TotalDebtComputation) {
  TinyInstance tiny;
  EXPECT_EQ(tiny.instance.TotalDebtOf(0), 20u);
  EXPECT_EQ(tiny.instance.TotalDebtOf(1), 60u);
  EXPECT_EQ(tiny.instance.TotalDebtOf(2), 0u);
}

TEST(EnModelTest, ExactSolverHandSolvableCase) {
  TinyInstance tiny;
  // Bank 1: liquid = 10 (no incoming debts), totalDebt 60 -> p1 = 1/6.
  // Bank 0: liquid = 50 + 30*p1 = 55, totalDebt 20 -> p0 = 1 (solvent).
  // Bank 2: no debt -> p2 = 1.
  std::vector<double> p;
  double tds = EnSolveExact(tiny.instance, /*iterations=*/5, &p);
  EXPECT_NEAR(p[1], 10.0 / 60.0, 1e-9);
  EXPECT_NEAR(p[0], 1.0, 1e-9);
  EXPECT_NEAR(p[2], 1.0, 1e-9);
  EXPECT_NEAR(tds, 60.0 * (1 - 10.0 / 60.0), 1e-9);
}

TEST(EnModelTest, FixedSolverTracksExactSolver) {
  Rng rng(1);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 30;
  topo.core_size = 6;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 6;
  ShockParams shock;
  shock.shocked_banks = {0, 1};
  EnInstance instance = MakeEnWorkload(g, wp, shock);
  EnProgramParams params = DefaultParams(g, 6);

  uint64_t fixed_tds = EnSolveFixed(instance, params);
  double exact_tds = EnSolveExact(instance, 6);
  // Fixed-point quantization error: bounded by ~N units plus rounding of
  // each prorate (1/2^F relative).
  double tolerance = 0.05 * std::max(exact_tds, 50.0) + 30;
  EXPECT_NEAR(static_cast<double>(fixed_tds), exact_tds, tolerance);
}

TEST(EnModelTest, NoShockMeansNoShortfallOnSolventNetwork) {
  // Generous cash, small debts: everyone pays in full.
  Rng rng(2);
  graph::Graph g = graph::GenerateErdosRenyi(20, 0.2, rng);
  WorkloadParams wp;
  wp.base_cash = 500;
  wp.base_debt = 10;
  EnInstance instance = MakeEnWorkload(g, wp, ShockParams{});
  EnProgramParams params = DefaultParams(g, 5);
  EXPECT_EQ(EnSolveFixed(instance, params), 0u);
  EXPECT_NEAR(EnSolveExact(instance, 5), 0.0, 1e-9);
}

TEST(EnModelTest, ShortfallMonotoneInShockSize) {
  Rng rng(3);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 40;
  topo.core_size = 8;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 8;
  EnProgramParams params = DefaultParams(g, 6);

  uint64_t previous = 0;
  for (int shocked = 0; shocked <= 8; shocked += 2) {
    ShockParams shock;
    for (int b = 0; b < shocked; b++) {
      shock.shocked_banks.push_back(b);
    }
    uint64_t tds = EnSolveFixed(MakeEnWorkload(g, wp, shock), params);
    EXPECT_GE(tds, previous) << shocked << " banks shocked";
    previous = tds;
  }
  EXPECT_GT(previous, 0u);
}

TEST(EnModelTest, ProratesDecreaseMonotonicallyOverIterations) {
  // Eisenberg–Noe converges monotonically from p = 1 downward.
  Rng rng(4);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 25;
  topo.core_size = 5;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 5;
  ShockParams shock;
  shock.shocked_banks = {0, 1, 2};
  EnInstance instance = MakeEnWorkload(g, wp, shock);

  std::vector<uint64_t> prev;
  for (int iters = 0; iters <= 6; iters++) {
    EnProgramParams params = DefaultParams(g, iters);
    std::vector<uint64_t> prorate;
    EnSolveFixed(instance, params, &prorate);
    if (!prev.empty()) {
      for (size_t v = 0; v < prorate.size(); v++) {
        EXPECT_LE(prorate[v], prev[v]) << "vertex " << v << " at iter " << iters;
      }
    }
    prev = prorate;
  }
}

TEST(EnModelTest, ConvergesWithinLogNIterations) {
  // Appendix C: I = log2 N suffices on core-periphery networks.
  Rng rng(5);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 50;
  topo.core_size = 10;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  WorkloadParams wp;
  wp.core_size = 10;
  ShockParams shock;
  shock.shocked_banks = {0, 1};
  EnInstance instance = MakeEnWorkload(g, wp, shock);

  int log_n = 6;  // ceil(log2 50)
  EnProgramParams at_log = DefaultParams(g, log_n);
  EnProgramParams beyond = DefaultParams(g, 3 * log_n);
  uint64_t tds_log = EnSolveFixed(instance, at_log);
  uint64_t tds_converged = EnSolveFixed(instance, beyond);
  double rel_gap = tds_converged == 0
                       ? 0.0
                       : std::abs(static_cast<double>(tds_log) -
                                  static_cast<double>(tds_converged)) /
                             static_cast<double>(tds_converged);
  EXPECT_LT(rel_gap, 0.05);
}

TEST(EnCircuitTest, UpdateCircuitMatchesFixedSolverOneStep) {
  TinyInstance tiny;
  EnProgramParams params = DefaultParams(tiny.g, 1);
  core::VertexProgram program = MakeEnProgram(params);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  auto states = MakeEnInitialStates(tiny.instance, params);

  const int w = params.format.value_bits;
  // Evaluate bank 1's first update with no incoming messages: its prorate
  // should become floor((10 << F) / 60) and shortfall messages
  // debts*(1-p)>>F.
  BitVector input = states.Instance(1);
  for (int d = 0; d < params.degree_bound; d++) {
    AppendBits(&input, mpc::WordToBits(0, program.message_bits));
  }
  auto out = update.Eval(input);
  uint64_t prorate = BitsToWord(out, 2 * w, w);
  uint64_t expected_prorate = (10ull << params.format.frac_bits) / 60;
  EXPECT_EQ(prorate, expected_prorate);
  // First out message (to bank 0, debt 30).
  uint64_t msg0 = BitsToWord(out, static_cast<size_t>(program.state_bits), w);
  uint64_t expected_msg =
      (30ull * (params.format.One() - expected_prorate)) >> params.format.frac_bits;
  EXPECT_EQ(msg0, expected_msg);
}

TEST(EnCircuitTest, ContributionCircuitComputesShortfall) {
  graph::GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const graph::Graph g = builder.Build();
  EnProgramParams params;
  params.degree_bound = 1;
  params.iterations = 1;
  core::VertexProgram program = MakeEnProgram(params);

  circuit::Builder b;
  circuit::Word state = b.InputWord(program.state_bits);
  b.OutputWord(program.build_contribution(b, state));
  circuit::Circuit c = b.Build();

  // State with totalDebt=100, prorate=0.5 (128/256 at F=8): shortfall 50.
  const int w = params.format.value_bits;
  BitVector state_bits;
  AppendBits(&state_bits, mpc::WordToBits(0, w));       // cash
  AppendBits(&state_bits, mpc::WordToBits(100, w));     // totalDebt
  AppendBits(&state_bits, mpc::WordToBits(128, w));     // prorate = 0.5
  AppendBits(&state_bits, mpc::WordToBits(0, w));       // debts[0]
  AppendBits(&state_bits, mpc::WordToBits(0, w));       // credits[0]
  auto out = c.Eval(state_bits);
  EXPECT_EQ(BitsToWord(out, 0, params.aggregate_bits), 50u);
}

TEST(EnWorkloadTest, CreditsMirrorDebts) {
  Rng rng(6);
  graph::Graph g = graph::GenerateErdosRenyi(15, 0.3, rng);
  WorkloadParams wp;
  EnInstance instance = MakeEnWorkload(g, wp, ShockParams{});
  // For every edge (i, j), i's debt to j must appear as j's credit from i —
  // verified through the initial-state packing.
  EnProgramParams params = DefaultParams(g, 1);
  auto states = MakeEnInitialStates(instance, params);
  const int w = params.format.value_bits;
  for (int j = 0; j < g.num_vertices(); j++) {
    for (int d = 0; d < g.InDegree(j); d++) {
      int i = g.InNeighbors(j)[d];
      const auto& out = g.OutNeighbors(i);
      uint64_t debt = 0;
      for (size_t s = 0; s < out.size(); s++) {
        if (out[s] == j) {
          debt = instance.debts[i][s];
        }
      }
      uint64_t credit =
          BitsToWord(states.Instance(j), static_cast<size_t>(3 + params.degree_bound + d) * w, w);
      EXPECT_EQ(credit, debt) << "edge " << i << "->" << j;
    }
  }
}

TEST(EnWorkloadTest, ShockZeroesCash) {
  Rng rng(7);
  graph::Graph g = graph::GenerateErdosRenyi(10, 0.3, rng);
  WorkloadParams wp;
  ShockParams shock;
  shock.shocked_banks = {3, 4};
  shock.survival = 0.0;
  EnInstance instance = MakeEnWorkload(g, wp, shock);
  EXPECT_EQ(instance.cash[3], 0u);
  EXPECT_EQ(instance.cash[4], 0u);
  EXPECT_GT(instance.cash[0], 0u);
}

// --- Flat kernels vs the neighbor-scan loops they replaced ----------------
//
// ScanEnInitialStates / ScanEnSolveFixed are verbatim copies of the
// per-visit mirror-slot scans MakeEnInitialStates / EnSolveFixed ran before
// they moved onto the CSR graph's mirror slots. The differential test below checks the
// flat kernels against them bit for bit.

std::vector<BitVector> ScanEnInitialStates(const EnInstance& instance,
                                           const EnProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  std::vector<BitVector> states;
  for (int v = 0; v < g.num_vertices(); v++) {
    BitVector state;
    AppendBits(&state, mpc::WordToBits(params.format.SaturateValue(instance.cash[v]), w));
    AppendBits(&state, mpc::WordToBits(params.format.SaturateValue(instance.TotalDebtOf(v)), w));
    AppendBits(&state, mpc::WordToBits(params.format.One(), w));
    for (int d = 0; d < d_bound; d++) {
      uint64_t debt =
          d < g.OutDegree(v) ? params.format.SaturateValue(instance.debts[v][d]) : 0;
      AppendBits(&state, mpc::WordToBits(debt, w));
    }
    for (int d = 0; d < d_bound; d++) {
      uint64_t credit = 0;
      if (d < g.InDegree(v)) {
        int j = g.InNeighbors(v)[d];
        const auto& out = g.OutNeighbors(j);
        for (size_t s = 0; s < out.size(); s++) {
          if (out[s] == v) {
            credit = params.format.SaturateValue(instance.debts[j][s]);
            break;
          }
        }
      }
      AppendBits(&state, mpc::WordToBits(credit, w));
    }
    states.push_back(std::move(state));
  }
  return states;
}

uint64_t ScanEnSolveFixed(const EnInstance& instance, const EnProgramParams& params,
                          std::vector<uint64_t>* prorate_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const uint64_t one = params.format.One();
  const uint64_t max_value = params.format.MaxValue();
  std::vector<uint64_t> cash(n), total_debt(n);
  for (int v = 0; v < n; v++) {
    cash[v] = params.format.SaturateValue(instance.cash[v]);
    total_debt[v] = params.format.SaturateValue(instance.TotalDebtOf(v));
  }
  std::vector<std::vector<uint64_t>> shortfall_in(n);
  for (int v = 0; v < n; v++) {
    shortfall_in[v].assign(g.InDegree(v), 0);
  }
  std::vector<uint64_t> prorate(n, one);
  for (int step = 0; step <= params.iterations; step++) {
    for (int v = 0; v < n; v++) {
      uint64_t liquid = cash[v];
      for (int d = 0; d < g.InDegree(v); d++) {
        int j = g.InNeighbors(v)[d];
        uint64_t credit = 0;
        const auto& out = g.OutNeighbors(j);
        for (size_t s = 0; s < out.size(); s++) {
          if (out[s] == v) {
            credit = params.format.SaturateValue(instance.debts[j][s]);
            break;
          }
        }
        uint64_t paid = shortfall_in[v][d] > credit ? 0 : credit - shortfall_in[v][d];
        liquid += paid;
      }
      liquid = std::min(liquid, max_value);
      uint64_t ratio = total_debt[v] == 0 ? one : (liquid << params.format.frac_bits) /
                                                      total_debt[v];
      prorate[v] = std::min(ratio, one);
    }
    if (step == params.iterations) {
      break;
    }
    for (int v = 0; v < n; v++) {
      uint64_t unpaid_frac = one - prorate[v];
      for (int s = 0; s < g.OutDegree(v); s++) {
        int j = g.OutNeighbors(v)[s];
        uint64_t debt = params.format.SaturateValue(instance.debts[v][s]);
        uint64_t shortfall = (debt * unpaid_frac) >> params.format.frac_bits;
        const auto& in = g.InNeighbors(j);
        for (size_t slot = 0; slot < in.size(); slot++) {
          if (in[slot] == v) {
            shortfall_in[j][slot] = shortfall;
            break;
          }
        }
      }
    }
  }
  *prorate_out = prorate;
  uint64_t tds = 0;
  for (int v = 0; v < n; v++) {
    tds += (total_debt[v] * (one - prorate[v])) >> params.format.frac_bits;
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

TEST(EnFlatKernelTest, MatchesNeighborScanLoops) {
  constexpr int kCases = 64;
  for (int c = 0; c < kCases; c++) {
    SCOPED_TRACE("case " + std::to_string(c));
    Rng rng(1000 + c);
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
    EnProgramParams params;
    params.format.value_bits = 10 + static_cast<int>(rng.Below(10));
    params.format.frac_bits = 4 + static_cast<int>(rng.Below(5));
    // Padding: the bound is often above the graph's max degree.
    params.degree_bound = std::max(1, g.MaxDegree()) + static_cast<int>(rng.Below(3));
    params.iterations = static_cast<int>(rng.Below(9));

    EnInstance instance;
    if (c % 3 == 0) {
      WorkloadParams wp;
      wp.format = params.format;
      wp.seed = 77 + c;
      ShockParams shock;
      shock.shocked_banks = {0, n / 2};
      shock.survival = 0.25 * static_cast<double>(c % 4);
      instance = MakeEnWorkload(g, wp, shock);
    } else {
      // Raw draws up to 4x the format maximum exercise saturation; zero
      // cash models shocked banks and zero debts debt-free banks.
      const uint64_t cap = 4 * params.format.MaxValue();
      instance.graph = &g;
      instance.cash.resize(n);
      instance.debts.resize(n);
      for (int v = 0; v < n; v++) {
        instance.cash[v] = rng.Below(4) == 0 ? 0 : rng.Below(cap);
        for (int s = 0; s < g.OutDegree(v); s++) {
          instance.debts[v].push_back(rng.Below(3) == 0 ? 0 : rng.Below(cap / 8 + 1));
        }
      }
    }

    lanes::ExpectLaneEq(MakeEnInitialStates(instance, params),
                        ScanEnInitialStates(instance, params));
    std::vector<uint64_t> scan_prorate, flat_prorate;
    const uint64_t scan_tds = ScanEnSolveFixed(instance, params, &scan_prorate);
    EXPECT_EQ(EnSolveFixed(instance, params, &flat_prorate), scan_tds);
    EXPECT_EQ(flat_prorate, scan_prorate);
  }
}

// --- The packed packer vs its retired one-byte-per-bit form ---------------
//
// RetiredEnInitialStates is a verbatim copy of MakeEnInitialStates from when
// it built one BitVector per vertex (with the PutWordBits and
// CreditsByInSlot helpers it used), before it wrote the packed lane
// directly.

void PutWordBits(BitVector* bits, size_t offset, uint64_t value, int count) {
  DSTRESS_CHECK(offset + count <= bits->size());
  for (int i = 0; i < count; i++) {
    (*bits)[offset + i] = (value >> i) & 1;
  }
}

std::vector<uint64_t> CreditsByInSlot(const EnInstance& instance, const FixedPointFormat& format) {
  const graph::Graph& g = *instance.graph;
  std::vector<uint64_t> credit(static_cast<size_t>(g.num_edges()));
  for (int u = 0; u < g.num_vertices(); u++) {
    const size_t first = g.out_start(u);
    for (size_t e = first; e < g.out_start(u + 1); e++) {
      credit[g.in_flat(e)] = format.SaturateValue(instance.debts[u][e - first]);
    }
  }
  return credit;
}

std::vector<BitVector> RetiredEnInitialStates(const EnInstance& instance,
                                              const EnProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  const std::vector<uint64_t> credit = CreditsByInSlot(instance, params.format);
  auto put = [w](BitVector* state, int word, uint64_t value) {
    PutWordBits(state, static_cast<size_t>(word) * w, value, w);
  };
  // Words past a vertex's degree stay zero: the padded slots.
  std::vector<BitVector> states(n);
  for (int v = 0; v < n; v++) {
    BitVector& state = states[v];
    state.assign((3 + 2 * d_bound) * w, 0);
    put(&state, 0, params.format.SaturateValue(instance.cash[v]));
    put(&state, 1, params.format.SaturateValue(instance.TotalDebtOf(v)));
    put(&state, 2, params.format.One());  // prorate = 1.0
    const int out_slots = std::min(g.OutDegree(v), d_bound);
    for (int d = 0; d < out_slots; d++) {
      put(&state, 3 + d, params.format.SaturateValue(instance.debts[v][d]));
    }
    // In-slot credits: what the in-neighbor owes me.
    const int in_slots = std::min(g.InDegree(v), d_bound);
    for (int d = 0; d < in_slots; d++) {
      put(&state, 3 + d_bound + d, credit[g.in_start(v) + static_cast<size_t>(d)]);
    }
  }
  return states;
}

// Seeded cases over N in {1, 2, 63, 64, 65, 130, 200}: isolated vertices
// (every fourth), degree bounds below, at and above the max degree (so out-
// and in-degrees exceed the bound), seeded workloads and raw saturating
// draws.
TEST(EnPackerTest, MatchesRetiredBitVectorPacker) {
  int c = 0;
  for (int n : {1, 2, 63, 64, 65, 130, 200}) {
    Rng rng(500 + static_cast<uint64_t>(n));
    const graph::Graph g = RandomDirectedGraph(n, 8 * n, rng);
    const int max_degree = std::max(1, g.MaxDegree());
    for (int bound : {1, std::max(1, max_degree / 2), max_degree, max_degree + 2}) {
      SCOPED_TRACE("N=" + std::to_string(n) + " bound=" + std::to_string(bound));
      EnProgramParams params;
      params.format.value_bits = 10 + (c % 7);
      params.format.frac_bits = 4;
      params.degree_bound = bound;
      EnInstance instance;
      if (c++ % 2 == 0 && n >= 2) {
        WorkloadParams wp;
        wp.format = params.format;
        wp.seed = 31 + static_cast<uint64_t>(c);
        ShockParams shock;
        shock.shocked_banks = {0};
        instance = MakeEnWorkload(g, wp, shock);
      } else {
        const uint64_t cap = 4 * params.format.MaxValue();
        instance.graph = &g;
        instance.cash.resize(n);
        instance.debts.resize(n);
        for (int v = 0; v < n; v++) {
          instance.cash[v] = rng.Below(cap);
          for (int s = 0; s < g.OutDegree(v); s++) {
            instance.debts[v].push_back(rng.Below(cap / 8 + 1));
          }
        }
      }
      lanes::ExpectLaneEq(MakeEnInitialStates(instance, params),
                          RetiredEnInitialStates(instance, params));
    }
  }
}

}  // namespace
}  // namespace dstress::finance
