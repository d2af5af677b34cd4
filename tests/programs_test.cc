#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/engine/engine.h"
#include "src/graph/generators.h"
#include "src/programs/components.h"
#include "src/programs/histogram.h"
#include "src/programs/influence.h"
#include "src/programs/private_sum.h"
#include "src/programs/reachability.h"
#include "tests/lane_util.h"

namespace dstress::programs {
namespace {

dp::NoiseCircuitSpec NoNoise() {
  dp::NoiseCircuitSpec spec;
  spec.alpha = 1e-12;  // effectively deterministic output
  spec.magnitude_bits = 8;
  spec.threshold_bits = 10;
  return spec;
}

graph::Graph Chain(int n) {
  graph::GraphBuilder g(n);
  for (int v = 0; v + 1 < n; v++) {
    g.AddEdge(v, v + 1);
  }
  return g.Build();
}

graph::Graph Ring(int n) {
  graph::GraphBuilder g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g.Build();
}

// Symmetric union of two cycles: vertices 0..5 and 6..9.
graph::Graph TwoCycles() {
  graph::GraphBuilder g(10);
  for (int v = 0; v < 6; v++) {
    int u = (v + 1) % 6;
    g.AddEdge(v, u);
    g.AddEdge(u, v);
  }
  for (int v = 6; v < 10; v++) {
    int u = 6 + (v - 6 + 1) % 4;
    g.AddEdge(v, u);
    g.AddEdge(u, v);
  }
  return g.Build();
}

// --- plaintext reference behaviour -----------------------------------------

TEST(ReachabilityReferenceTest, ChainCoversHopsPlusSource) {
  graph::Graph g = Chain(10);
  for (int hops = 1; hops < 9; hops++) {
    EXPECT_EQ(PlaintextReachableCount(g, {0}, hops), hops + 1) << "hops " << hops;
  }
}

TEST(ReachabilityReferenceTest, DisconnectedSourcesAddUp) {
  graph::Graph g = TwoCycles();
  EXPECT_EQ(PlaintextReachableCount(g, {0}, 100), 6);
  EXPECT_EQ(PlaintextReachableCount(g, {7}, 100), 4);
  EXPECT_EQ(PlaintextReachableCount(g, {0, 7}, 100), 10);
}

TEST(ReachabilityReferenceTest, DuplicateSourcesCountOnce) {
  graph::Graph g = Chain(4);
  EXPECT_EQ(PlaintextReachableCount(g, {0, 0, 1}, 1), 3);
}

TEST(InfluenceReferenceTest, IsolatedVertexDecays) {
  const graph::Graph g = graph::GraphBuilder(1).Build();
  InfluenceParams params;
  params.degree_bound = 1;
  params.iterations = 3;
  params.out_shift = 3;
  params.keep_shift = 1;
  // 4 compute steps, each halving: 1024 -> 512 -> 256 -> 128 -> 64.
  auto result = PlaintextInfluence(g, {1024}, params);
  EXPECT_EQ(result[0], 64);
}

TEST(InfluenceReferenceTest, RingConservesUpToTruncation) {
  // out_shift = keep_shift = 1 on a ring: every vertex keeps half and
  // forwards half, so each full step conserves the total except for the
  // <1-per-vertex truncation of odd values.
  graph::Graph g = Ring(6);
  InfluenceParams params;
  params.degree_bound = 1;
  params.iterations = 4;
  params.out_shift = 1;
  params.keep_shift = 1;
  std::vector<uint16_t> masses = {512, 256, 128, 64, 32, 16};
  // First compute halves everything once with no inflow.
  uint32_t after_decay = 0;
  for (uint16_t mass : masses) {
    after_decay += mass / 2;
  }
  auto result = PlaintextInfluence(g, masses, params);
  uint32_t total = std::accumulate(result.begin(), result.end(), 0u);
  EXPECT_LE(total, after_decay);
  EXPECT_GE(total, after_decay - params.iterations * g.num_vertices());
}

TEST(InfluenceReferenceTest, MassNeverAppearsFromNowhere) {
  Rng rng(11);
  graph::Graph g = graph::GenerateScaleFree(20, 2, rng);
  InfluenceParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 3;
  params.out_shift = 4;  // push 1/16 per slot; with keep 1/2 mass shrinks
  params.keep_shift = 1;
  std::vector<uint16_t> masses(20, 1000);
  auto result = PlaintextInfluence(g, masses, params);
  uint64_t before = 20 * 1000;
  uint64_t after = std::accumulate(result.begin(), result.end(), uint64_t{0});
  EXPECT_LT(after, before);
}

TEST(ComponentsReferenceTest, ConvergedCountMatchesUnionFind) {
  graph::Graph g = TwoCycles();
  EXPECT_EQ(WeaklyConnectedComponents(g), 2);
  EXPECT_EQ(PlaintextComponentsCount(g, /*iterations=*/8), 2);
}

TEST(ComponentsReferenceTest, TooFewIterationsOvercounts) {
  // With zero propagation everyone is its own root; counts shrink
  // monotonically toward the true component count.
  graph::Graph g = TwoCycles();
  int prev = g.num_vertices();
  for (int iterations = 1; iterations <= 6; iterations++) {
    int count = PlaintextComponentsCount(g, iterations);
    EXPECT_LE(count, prev) << "iterations " << iterations;
    EXPECT_GE(count, 2);
    prev = count;
  }
  EXPECT_EQ(prev, 2);
}

TEST(PrivateSumReferenceTest, WrapsAtAggregateWidth) {
  EXPECT_EQ(PlaintextSum({1, 2, 3}, 16), 6);
  // 40000 + 40000 = 80000 = 0x13880; mod 2^16 = 0x3880 = 14464.
  EXPECT_EQ(PlaintextSum({40000, 40000}, 16), 14464);
  // Sign bit: 0x8000 reads as -32768.
  EXPECT_EQ(PlaintextSum({0x8000}, 16), -32768);
}

// --- update circuits cross-checked against the references -------------------

// Evaluates one update step of `program` in plaintext circuit simulation.
struct StepResult {
  std::vector<uint8_t> new_state;
  std::vector<std::vector<uint8_t>> out_msgs;
};
StepResult EvalUpdate(const core::VertexProgram& program, const std::vector<uint8_t>& state,
                      const std::vector<std::vector<uint8_t>>& in_msgs) {
  circuit::Circuit c = core::BuildUpdateCircuit(program);
  std::vector<uint8_t> input = state;
  for (const auto& msg : in_msgs) {
    input.insert(input.end(), msg.begin(), msg.end());
  }
  std::vector<uint8_t> output = c.Eval(input);
  StepResult result;
  result.new_state.assign(output.begin(), output.begin() + program.state_bits);
  for (int d = 0; d < program.degree_bound; d++) {
    auto begin = output.begin() + program.state_bits + d * program.message_bits;
    result.out_msgs.emplace_back(begin, begin + program.message_bits);
  }
  return result;
}

TEST(ProgramCircuitTest, ReachabilityUpdateOrsInputs) {
  ReachabilityParams params;
  params.degree_bound = 3;
  params.hops = 1;
  params.noise = NoNoise();
  core::VertexProgram program = BuildReachabilityProgram(params);

  std::vector<uint8_t> healthy(8, 0);
  std::vector<std::vector<uint8_t>> quiet(3, std::vector<uint8_t>(8, 0));
  StepResult r = EvalUpdate(program, healthy, quiet);
  EXPECT_EQ(r.new_state[0], 0);

  auto one_failed = quiet;
  one_failed[1][0] = 1;
  r = EvalUpdate(program, healthy, one_failed);
  EXPECT_EQ(r.new_state[0], 1);
  for (const auto& msg : r.out_msgs) {
    EXPECT_EQ(msg[0], 1);
  }
}

TEST(ProgramCircuitTest, ComponentsUpdateIgnoresNoOpZero) {
  ComponentsParams params;
  params.degree_bound = 2;
  params.iterations = 1;
  params.label_bits = 6;
  params.noise = NoNoise();
  core::VertexProgram program = BuildComponentsProgram(params);

  // Vertex id 5 (label 6) hearing [⊥, label 3]: adopts 3, not 0.
  std::vector<uint8_t> state(12, 0);
  for (int i = 0; i < 6; i++) {
    state[i] = (6 >> i) & 1;
    state[6 + i] = (6 >> i) & 1;
  }
  std::vector<std::vector<uint8_t>> msgs(2, std::vector<uint8_t>(6, 0));
  for (int i = 0; i < 6; i++) {
    msgs[1][i] = (3 >> i) & 1;
  }
  StepResult r = EvalUpdate(program, state, msgs);
  uint32_t label = 0;
  for (int i = 0; i < 6; i++) {
    label |= static_cast<uint32_t>(r.new_state[6 + i]) << i;
  }
  EXPECT_EQ(label, 3u);
  // The id half is untouched.
  uint32_t id = 0;
  for (int i = 0; i < 6; i++) {
    id |= static_cast<uint32_t>(r.new_state[i]) << i;
  }
  EXPECT_EQ(id, 6u);
}

TEST(ProgramCircuitTest, InfluenceUpdateMatchesArithmetic) {
  InfluenceParams params;
  params.degree_bound = 2;
  params.iterations = 1;
  params.out_shift = 2;
  params.keep_shift = 1;
  params.noise = NoNoise();
  core::VertexProgram program = BuildInfluenceProgram(params);

  auto state = MakeInfluenceStates({1000}).Instance(0);
  std::vector<std::vector<uint8_t>> msgs;
  msgs.push_back(MakeInfluenceStates({40}).Instance(0));
  msgs.push_back(MakeInfluenceStates({24}).Instance(0));
  StepResult r = EvalUpdate(program, state, msgs);
  uint32_t new_mass = 0;
  for (int i = 0; i < kInfluenceStateBits; i++) {
    new_mass |= static_cast<uint32_t>(r.new_state[i]) << i;
  }
  EXPECT_EQ(new_mass, 1000u / 2 + 40 + 24);
  uint32_t pushed = 0;
  for (int i = 0; i < kInfluenceStateBits; i++) {
    pushed |= static_cast<uint32_t>(r.out_msgs[0][i]) << i;
  }
  EXPECT_EQ(pushed, (1000u / 2 + 40 + 24) / 4);
}

// --- end-to-end runs through the engine --------------------------------------

int64_t EngineRun(const graph::Graph& g, core::VertexProgram program,
                  mpc::PackedShareMatrix states, uint64_t seed) {
  engine::RunSpec spec;
  spec.graph = g;
  spec.model = engine::ContagionModel::kCustom;
  spec.custom_program = std::move(program);
  spec.custom_states = std::move(states);
  spec.block_size = 3;
  spec.seed = seed;
  return engine::Engine(std::move(spec)).Run().released;
}

TEST(ProgramsEndToEndTest, ReachabilityMatchesBfs) {
  Rng rng(3);
  graph::Graph g = graph::GenerateScaleFree(14, 2, rng);
  ReachabilityParams params;
  params.degree_bound = g.MaxDegree();
  params.hops = 3;
  params.noise = NoNoise();
  core::VertexProgram program = BuildReachabilityProgram(params);

  std::vector<int> sources = {0, 9};
  auto states = MakeReachabilityStates(g.num_vertices(), sources);
  int64_t released = EngineRun(g, program, states, 21);
  EXPECT_EQ(released, PlaintextReachableCount(g, sources, params.hops));
}

TEST(ProgramsEndToEndTest, InfluenceMatchesPlaintext) {
  graph::Graph g = Ring(8);
  InfluenceParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 2;
  params.out_shift = 2;
  params.keep_shift = 1;
  params.noise = NoNoise();
  core::VertexProgram program = BuildInfluenceProgram(params);

  std::vector<uint16_t> masses = {100, 200, 300, 400, 500, 600, 700, 800};
  auto states = MakeInfluenceStates(masses);
  int64_t released = EngineRun(g, program, states, 22);

  auto final_masses = PlaintextInfluence(g, masses, params);
  int64_t expected = 0;
  for (uint16_t mass : final_masses) {
    expected += mass;
  }
  EXPECT_EQ(released, expected);
}

TEST(ProgramsEndToEndTest, ComponentsCountsTwoCycles) {
  graph::Graph g = TwoCycles();
  ComponentsParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 5;  // cycle of 6 has min-label diameter 5
  params.label_bits = 5;
  params.noise = NoNoise();
  core::VertexProgram program = BuildComponentsProgram(params);

  auto states = MakeComponentsStates(g.num_vertices(), params.label_bits);
  int64_t released = EngineRun(g, program, states, 23);
  EXPECT_EQ(released, 2);
  EXPECT_EQ(released, PlaintextComponentsCount(g, params.iterations));
}

TEST(ProgramsEndToEndTest, PrivateSumMatches) {
  graph::Graph g = Chain(5);
  PrivateSumParams params;
  params.degree_bound = std::max(1, g.MaxDegree());
  params.noise = NoNoise();
  core::VertexProgram program = BuildPrivateSumProgram(params);

  std::vector<uint32_t> values = {17, 0, 65535, 3, 900};
  auto states = MakePrivateSumStates(values, params.value_bits);
  int64_t released = EngineRun(g, program, states, 24);
  EXPECT_EQ(released, PlaintextSum(values, params.aggregate_bits));
}

// --- histogram ---------------------------------------------------------------

TEST(HistogramReferenceTest, PackingAndUnpackingInvert) {
  HistogramParams params;
  params.num_buckets = 4;
  params.counter_bits = 6;
  std::vector<int> buckets = {0, 1, 1, 3, 3, 3};
  int64_t packed = PlaintextPackedHistogram(buckets, params);
  auto counts = UnpackHistogram(packed, params);
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 2, 0, 3}));
}

TEST(HistogramReferenceTest, FieldsDoNotInterfere) {
  HistogramParams params;
  params.num_buckets = 3;
  params.counter_bits = 4;  // fields of 0..15; 10 entries per bucket is safe
  std::vector<int> buckets;
  for (int i = 0; i < 10; i++) {
    buckets.push_back(0);
    buckets.push_back(2);
  }
  auto counts = UnpackHistogram(PlaintextPackedHistogram(buckets, params), params);
  EXPECT_EQ(counts, (std::vector<uint32_t>{10, 0, 10}));
}

TEST(HistogramCircuitTest, ContributionIsOneHot) {
  HistogramParams params;
  params.num_buckets = 4;
  params.counter_bits = 5;
  params.noise = NoNoise();
  core::VertexProgram program = BuildHistogramProgram(params);
  circuit::Builder b;
  circuit::Word state = b.InputWord(params.counter_bits);
  circuit::Word contribution = program.build_contribution(b, state);
  b.OutputWord(contribution);
  circuit::Circuit c = b.Build();
  for (int bucket = 0; bucket < params.num_buckets; bucket++) {
    std::vector<uint8_t> input(params.counter_bits, 0);
    for (int i = 0; i < params.counter_bits; i++) {
      input[i] = static_cast<uint8_t>((bucket >> i) & 1);
    }
    std::vector<uint8_t> out = c.Eval(input);
    for (int other = 0; other < params.num_buckets; other++) {
      EXPECT_EQ(out[other * params.counter_bits], other == bucket ? 1 : 0)
          << "bucket " << bucket << " field " << other;
    }
  }
}

TEST(ProgramsEndToEndTest, HistogramMatchesReference) {
  graph::Graph g = Chain(8);
  HistogramParams params;
  params.degree_bound = 1;
  params.num_buckets = 3;
  params.counter_bits = 5;
  params.noise = NoNoise();
  core::VertexProgram program = BuildHistogramProgram(params);

  std::vector<int> buckets = {0, 1, 2, 2, 1, 0, 1, 1};
  auto states = MakeHistogramStates(buckets, params);
  int64_t released = EngineRun(g, program, states, 25);
  EXPECT_EQ(released, PlaintextPackedHistogram(buckets, params));
  EXPECT_EQ(UnpackHistogram(released, params), (std::vector<uint32_t>{2, 4, 2}));
}

// --- the packed packers vs their retired one-byte-per-bit forms -------------
//
// The Retired*States below are verbatim copies of the five Make*States from
// when they returned one BitVector per vertex, before they wrote the packed
// lane directly.

std::vector<mpc::BitVector> RetiredHistogramStates(const std::vector<int>& buckets,
                                                   const HistogramParams& params) {
  std::vector<mpc::BitVector> states;
  states.reserve(buckets.size());
  for (int bucket : buckets) {
    states.push_back(mpc::WordToBits(static_cast<uint64_t>(bucket), params.counter_bits));
  }
  return states;
}

std::vector<mpc::BitVector> RetiredComponentsStates(int num_vertices, int label_bits) {
  std::vector<mpc::BitVector> states;
  states.reserve(num_vertices);
  for (int v = 0; v < num_vertices; v++) {
    mpc::BitVector bits(2 * label_bits, 0);
    uint32_t label = static_cast<uint32_t>(v) + 1;
    for (int i = 0; i < label_bits; i++) {
      uint8_t bit = static_cast<uint8_t>((label >> i) & 1);
      bits[i] = bit;               // id half
      bits[label_bits + i] = bit;  // label half
    }
    states.push_back(std::move(bits));
  }
  return states;
}

std::vector<mpc::BitVector> RetiredPrivateSumStates(const std::vector<uint32_t>& values,
                                                    int value_bits) {
  std::vector<mpc::BitVector> states;
  states.reserve(values.size());
  for (uint32_t value : values) {
    mpc::BitVector bits(value_bits, 0);
    for (int i = 0; i < value_bits && i < 32; i++) {
      bits[i] = static_cast<uint8_t>((value >> i) & 1);
    }
    states.push_back(std::move(bits));
  }
  return states;
}

std::vector<mpc::BitVector> RetiredInfluenceStates(const std::vector<uint16_t>& masses) {
  std::vector<mpc::BitVector> states;
  states.reserve(masses.size());
  for (uint16_t mass : masses) {
    mpc::BitVector bits(kInfluenceStateBits, 0);
    for (int i = 0; i < kInfluenceStateBits; i++) {
      bits[i] = static_cast<uint8_t>((mass >> i) & 1);
    }
    states.push_back(std::move(bits));
  }
  return states;
}

std::vector<mpc::BitVector> RetiredReachabilityStates(int num_vertices,
                                                      const std::vector<int>& sources) {
  std::vector<mpc::BitVector> states(num_vertices, mpc::BitVector(8, 0));
  for (int v : sources) {
    states[v][0] = 1;
  }
  return states;
}

TEST(ProgramPackerTest, MatchesRetiredBitVectorPackers) {
  for (int n : {1, 2, 63, 64, 65, 130}) {
    SCOPED_TRACE("N=" + std::to_string(n));
    Rng rng(700 + static_cast<uint64_t>(n));
    HistogramParams hist;
    hist.num_buckets = 5;
    hist.counter_bits = 7;
    std::vector<int> buckets;
    std::vector<uint16_t> masses;
    std::vector<int> sources;
    for (int v = 0; v < n; v++) {
      buckets.push_back(static_cast<int>(rng.Below(5)));
      masses.push_back(static_cast<uint16_t>(rng.Below(1 << 16)));
      if (rng.Below(3) == 0) {
        sources.push_back(v);
      }
    }
    lanes::ExpectLaneEq(MakeHistogramStates(buckets, hist), RetiredHistogramStates(buckets, hist));
    lanes::ExpectLaneEq(MakeInfluenceStates(masses), RetiredInfluenceStates(masses));
    lanes::ExpectLaneEq(MakeReachabilityStates(n, sources), RetiredReachabilityStates(n, sources));
    for (int label_bits : {8, 9, 31}) {
      lanes::ExpectLaneEq(MakeComponentsStates(n, label_bits),
                          RetiredComponentsStates(n, label_bits));
    }
    for (int value_bits : {1, 12, 32, 40}) {
      std::vector<uint32_t> values;
      for (int v = 0; v < n; v++) {
        values.push_back(value_bits >= 32 ? static_cast<uint32_t>(rng.Next())
                                          : static_cast<uint32_t>(rng.Below(1ULL << value_bits)));
      }
      lanes::ExpectLaneEq(MakePrivateSumStates(values, value_bits),
                          RetiredPrivateSumStates(values, value_bits));
    }
  }
}

// --- property sweep: plaintext references across generator families ---------

struct SweepCase {
  int num_vertices;
  uint64_t seed;
};

class ReferenceSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ReferenceSweepTest, ReachabilityMonotoneInHops) {
  auto [n, seed] = GetParam();
  Rng rng(seed);
  graph::Graph g = graph::GenerateScaleFree(n, 2, rng);
  int prev = 0;
  for (int hops = 0; hops <= 6; hops++) {
    int count = PlaintextReachableCount(g, {0}, hops);
    EXPECT_GE(count, prev);
    EXPECT_LE(count, n);
    prev = count;
  }
}

TEST_P(ReferenceSweepTest, ComponentCountsBoundedByRoots) {
  auto [n, seed] = GetParam();
  Rng rng(seed ^ 0x5a5a);
  graph::Graph g = graph::GenerateScaleFree(n, 2, rng);
  // Symmetrize so weak components are well-defined for min propagation.
  graph::GraphBuilder builder(n);
  for (auto [u, v] : g.Edges()) {
    builder.AddEdge(u, v);
    builder.AddEdge(v, u);
  }
  const graph::Graph sym = builder.Build();
  int truth = WeaklyConnectedComponents(sym);
  EXPECT_GE(PlaintextComponentsCount(sym, 2), truth);
  EXPECT_EQ(PlaintextComponentsCount(sym, n), truth);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReferenceSweepTest,
                         ::testing::Values(SweepCase{8, 1}, SweepCase{16, 2}, SweepCase{24, 3},
                                           SweepCase{32, 4}, SweepCase{48, 5}));

}  // namespace
}  // namespace dstress::programs
