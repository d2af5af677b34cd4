// Flat-arena cleartext graph plane tests (src/graphplane + the
// kCleartextFast backend in src/engine/arena_cleartext_backend.cc).
//
// Two halves:
//
//  1. A golden-digest corpus pinning the plane's full observable surface —
//     released figures, cleartext references, per-vertex final states and
//     per-node TrafficStats — over random topologies (N in {1, 7, 64,
//     1000}), EN / EGJ / custom vertex programs, flat and tree aggregation,
//     and ensemble widths W in {1, 3, 64}. The digests were recorded from
//     the retired per-vertex container plane, which produced the same
//     surface bit for bit, so they stand in for it as the oracle.
//
//  2. Frontier unit tests driving graphplane::GraphPlane directly: words
//     deactivate when their inputs stop changing, reactivate when a changed
//     message is delivered, every edge is still metered every iteration,
//     and W > 1 scenario lanes converge independently without cross-lane
//     contamination. Plus the engine-level early-exit A/B: stopping at
//     AllConverged releases the same figure as running all I iterations.
//
//  3. The lane-chunk packer (PackLaneChunk) against a per-bit reference.

#include "src/graphplane/plane.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/common/rng.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/engine/engine.h"
#include "src/graph/graph.h"
#include "src/net/sim_network.h"
#include "src/programs/private_sum.h"
#include "src/programs/reachability.h"
#include "tests/golden_digest.h"

namespace dstress {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunReport;
using engine::RunSpec;

// --- golden-digest corpus ---------------------------------------------------

// One row per corpus case, keyed by the label the tests below pass. Ensemble
// rows carry no state image (their engine keeps none after RunEnsemble).
const golden::GoldenDigest kGolden[] = {
    {"en n=1 seed=1",
     "093fe73eb27f6996461ae6e5cd2e16ba9f29071ef4acdd76351721784ebf6267",
     "c27fb0ca11327c640ff562d2a2de3ab61a56a2c1cfad3d6c55c67ffd24ddd3ae",
     "e47e593dbea1c0eb7668212efcf2c619909e20360aaddefd69834af172fd0184", 10, 0},
    {"en n=1 seed=23",
     "d13fffa69082d88a50a999db142f52604fb4b43d4ecffb62c21c8422d1caea88",
     "c27fb0ca11327c640ff562d2a2de3ab61a56a2c1cfad3d6c55c67ffd24ddd3ae",
     "e47e593dbea1c0eb7668212efcf2c619909e20360aaddefd69834af172fd0184", 10, 0},
    {"en n=1 seed=777",
     "532d7e86a4bfe46f094bc1f18158565ddbdff9239844ff013d0c48fb3d37e1e5",
     "c27fb0ca11327c640ff562d2a2de3ab61a56a2c1cfad3d6c55c67ffd24ddd3ae",
     "e47e593dbea1c0eb7668212efcf2c619909e20360aaddefd69834af172fd0184", 10, 0},
    {"en n=7 seed=1",
     "093fe73eb27f6996461ae6e5cd2e16ba9f29071ef4acdd76351721784ebf6267",
     "08a95da5357863781f0e8868931b5e209ab768ad9d96af00424d95b2c3ac23e6",
     "76906270078f3839998df9640fa8ade4f4d82efd57ebfd3cf6bd8b717564d569", 250, 0},
    {"en n=7 seed=23",
     "d13fffa69082d88a50a999db142f52604fb4b43d4ecffb62c21c8422d1caea88",
     "1cfc7e718558659cf4268bf7c386fcdffbd425b03298206e079a465a87e3620b",
     "66b55087de109bf6844da1dffaa75dd250684eb53d392224bbbe8a64f63c390e", 274, 0},
    {"en n=7 seed=777",
     "82073a6ca9aec88ef4ecffc353048cfe79423b888c0d94244f77a55d395028b3",
     "a501dfbd5e269ac6e3d26f8f5029bba105552e3c875f950afa46b5725a049015",
     "56165f3f58a187bd3f7d7ca0e918009253a801ab66e86c27bf2124e98e464646", 262, 0},
    {"en n=64 seed=1",
     "9b60d6015ec9e1fd4ab7cb2e85e3e7f5fecf3cd5aa0fec099d65d8910ba249f4",
     "c61143d750c6594fe6dc7976f2847d0cb2c0158fea6687854eff2e7761f9467b",
     "2a25cffb806c46e24d223587ff22e239534653215c1c8348d1424ae0a6e0ff6b", 2920, 0},
    {"en n=64 seed=23",
     "d13fffa69082d88a50a999db142f52604fb4b43d4ecffb62c21c8422d1caea88",
     "c986b52370079d43abe0ca2d273b53e1d5b8910268e6b4a24957278ae94a6fa0",
     "fe86e28cd8316b7144cc19b0a833a47565d1983ac02446187a77383242d93204", 3088, 0},
    {"en n=64 seed=777",
     "96e3c195f3ebdd235fbf5bd22e2dba2f6ca03e9c828da05cc44af1ef0078b56a",
     "63c35f92411e77ec85cfee8bf91927de6c69df5de9704dfd24a9fe2af85ba3f7",
     "376be23a0156d617e847b9f14f1739df64b2673cf7747b97ecd9a2988724c4b3", 3016, 0},
    {"egj n=1 seed=1",
     "c8bfae7ea955287b36b803279dffa8e32e54724a22be7f34347fdf87bb724422",
     "234b0395a03374defa80cf2129740f55fb3aa18aec879161c40a9f5289727592",
     "37f56f35c113c6a838319ac8ba0d047137a56a23c4f120efe50e697fc3538b9e", 14, 0},
    {"egj n=1 seed=23",
     "ba9310b2939f87afe0f8b246f54c7908720fcdb08f480b9d1ac07a481d8931d8",
     "961e2ddb8bc0e1d51e3d0c895a2ed8621e66cdaaeee5e22765a2f3aca5eaf501",
     "37f56f35c113c6a838319ac8ba0d047137a56a23c4f120efe50e697fc3538b9e", 14, 0},
    {"egj n=1 seed=777",
     "316257e98c5fa368953790657564ac2af89d1d72956ff51ff70e3d0bbb97a505",
     "4a75a6f3b081f2d3a4133ee1eaeed62b64fb8bbb71aade467a41df65b60f5a10",
     "37f56f35c113c6a838319ac8ba0d047137a56a23c4f120efe50e697fc3538b9e", 14, 0},
    {"egj n=7 seed=1",
     "64b990a82f553146f7ad89f0ebaefcc50e81e9037c67b04e9b8946eb84bc9fcc",
     "24114c4a276a7e107a0f69189f6bf084776095322afd8c70b7a6289996d78002",
     "554f11e0129f0846392c8576196bb851cf3ed2e0d176641235169d719fce8cc5", 278, 0},
    {"egj n=7 seed=23",
     "8cac4d9cf804df9ce7698b4b4f0a5c775db572cca7685f2dd61adbdbdfb7adf5",
     "26add1a882f654054b6887cf7cfcb2c345d3b084db930ebba6ac9c633fa04dc3",
     "68510bda7908d4bc9fdd88fbcac82bd04dd3b7f0d3774588f166bb8bacaaf646", 302, 0},
    {"egj n=7 seed=777",
     "55bfdba8a378e859d20b87bee7862b90db884ed2c6cab065750bddd35cfec2e9",
     "07e67719d702d885a3a64bf4852d80013cb149a90e1f4967e80f4655e7d0237a",
     "22b06749eb21b9c5b95a27e45832553a270c5083535b1c83d93cfd43114b3225", 290, 0},
    {"egj n=64 seed=1",
     "c75ddc3d261542ac312d246338061c4c4b8517c02d67712f714e219d6774a6c7",
     "580503923234bba42265b8f47c62e46bafef3c14dd0b7dfd64a24140d3c33670",
     "15a0808bafde2d4a0bbd6de16dec911a44822f255b7692bd45d900b68b57a125", 3176, 0},
    {"egj n=64 seed=23",
     "8ca898398f63c2696778a57e89db4d35241fe9904f15a841717e5265730344a1",
     "7b28d2ffb41cf793640c5d7995e1e6da9d464d79e773574adf66dc350839330b",
     "336dcf4ffc9e9e36bb6d2f1feadff4207c3f225bfe50221c2a63e81370fc0cd2", 3344, 0},
    {"egj n=64 seed=777",
     "8167773620039f5c71d66b0b2aa4520880978b540d5cd67d4b690ecf418dc613",
     "23e7874ba36bbcbaeabff0ca836318b1d5efb508a0b5657d1703cf5f1513241e",
     "9a0ea7966b34cf9d953a73010db2c061f75b2ab922ec36b2e8bb80ae1014e9a3", 3272, 0},
    {"en n=1000 seed=4",
     "707dfe2934badba4ab6983cf30555a79a70ec83baa1e6712d5c4725537caf6d2",
     "97a854d5e47a68c5e61c1afc0daa761fa7dade6f30d345020086e3536b415f0e",
     "c16710ecae075f45309bea8a3223fd00a68d1eef97467496070f0b18429b0950", 62840, 0},
    {"egj n=1000 seed=4",
     "554a13d6962ef4d8f088f76f24035e21544b2bb7599a89e9cec1466fc8efffef",
     "ba5941454a3ad8148a527aa40507dcadea274bbd733b9ef8fb7ac03bc9b62970",
     "84ab229d04492b3adf6f8eb361aaf24fc2647bcd1271bad091ab78780e9e7889", 66840, 0},
    {"en n=64 seed=9 fanout=2",
     "121f889574393e278a6483abd3afac634215bbbcf40f8fbca56ba145032e7e52",
     "9324753e61d57e2a46a8dd1424f076cc4a6db3cacb305d0d8a200874ab27530f",
     "32c8e02ae907f64541444de2c124ba2cb0933361ef9f5bad14112ad5959a2039", 3528, 0},
    {"en n=64 seed=9 fanout=4",
     "121f889574393e278a6483abd3afac634215bbbcf40f8fbca56ba145032e7e52",
     "9324753e61d57e2a46a8dd1424f076cc4a6db3cacb305d0d8a200874ab27530f",
     "dd10f15e59b00515fbf9706f9e62fc74d04e8e225eabddd58b57a55553d9c6ca", 3360, 0},
    {"en n=64 seed=9 fanout=8",
     "121f889574393e278a6483abd3afac634215bbbcf40f8fbca56ba145032e7e52",
     "9324753e61d57e2a46a8dd1424f076cc4a6db3cacb305d0d8a200874ab27530f",
     "328910f81ec485605a02754ff7bfe372f758aa1213849694829b51ebe59c2101", 3312, 0},
    {"egj n=7 seed=5 fanout=3",
     "8a07b3d0ace08993652ef2e593667ffe271f13d6c2a7aed153585995bd7dc59a",
     "bb97be46096b12015631ff5b163459c8dff9d4f3ece345b78b831d7429d24514",
     "8b31e5c8a3a161ee652da9e97ff982b4c951fa7860579b73749806783a46fc36", 314, 0},
    {"private_sum n=7",
     "34d6a7cf78b24ba3229787d31ef3a861924ce44f244494c0e91c22b41599cdf0",
     "561bbe27ad2b2f56d5de54d649fe0cf3617d287b6be1e0ce483005e7a386395f",
     "a0fa0b233b1a807a73d783e0c694bc5113aadc8ad20b9a99de0c55d5e865e77d", 36, 0},
    {"reachability n=7",
     "a4b9c152d3f0babee297dd168ed5a0e96561539a3854379a90b5b146417ae8a1",
     "a962d5141b1592a1e77dcdbb750fa5249feaa4893e9e297a4775d3a51f030f6d",
     "8f83c4dd3d5510a3d2348b34211b261f48fb023180ba4f88985870214fd1bcbf", 73, 0},
    {"private_sum n=64",
     "f780b5a6ec2b2d201c15dab87f982e141d44c8ee61f257ec62fad8900eb0e2b7",
     "90b0b8e7a911fb04cee0a9e990190ddac220a4d65f6efe4758793c7999963b58",
     "60fa5d90830fa0d128de577422ae8ee48bf5f35f7cc404b03500b18c3834924c", 378, 0},
    {"reachability n=64",
     "5674db803f0f955c2d7ee016f464fd1efa3563b08a6a5913fc20bc11e18f8b12",
     "66f14067e0fe6f491c816835e1b9bcc768135c8ef004d7086c964f3d32a9641e",
     "0a3a912830eace6224fc3a8c5136da93301f1e99d69f8563d2e0af23646a37e7", 814, 0},
    {"ensemble W=1",
     "619b41fd2031b5324f911043ee53c9ca488fbcb5e3e5fd5ee023bc67a3862406",
     nullptr,
     "563f5127b753783d7b384bc45fba66b79043b7831476c89729b6f627fd2e3c81", 1888, 0},
    {"ensemble W=3",
     "c352eacf668fad8dcb63de3bafdf805d9eb55bdb8ce58b6ddda833753d587c1f",
     nullptr,
     "6715b8f9295f497394c394610dfa6046b935885b002c7184a1efe9906473eb5e", 5664, 0},
    {"ensemble W=64",
     "523940e840d6e2a92908887127622b72e5acbd473715f6f56e5a72c83fb70d32",
     nullptr,
     "a938bb8a665d23ac25e52ff099922da3c3aa48b7e831158e426fc0e41210f981", 120832, 0},
};

// Counts messages and nothing else. Attaching any observer makes the
// transport refuse bulk metering, so a run takes its literal per-message
// send/receive paths.
class CountingObserver : public net::NetworkObserver {
 public:
  void OnSend(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override { sends++; }
  void OnRecv(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override { recvs++; }
  std::atomic<uint64_t> sends{0};
  std::atomic<uint64_t> recvs{0};
};

// Runs `spec` (with `observer` attached, if any) and checks its digest
// against the row named `label`; a mismatch names the case and every
// differing field.
void ExpectMatchesGolden(const RunSpec& spec, const std::string& label,
                         net::NetworkObserver* observer = nullptr) {
  const golden::GoldenDigest* want = golden::Find(kGolden, label);
  ASSERT_NE(want, nullptr) << "no golden digest for " << label;
  Engine engine(spec);
  if (observer != nullptr) {
    engine.AttachObserver(observer);
  }
  RunReport report = engine.Run();
  EXPECT_EQ(golden::Mismatch(golden::DigestRun(engine, report), *want), "");
}

void ExpectEnsembleMatchesGolden(const RunSpec& spec, const std::string& label) {
  const golden::GoldenDigest* want = golden::Find(kGolden, label);
  ASSERT_NE(want, nullptr) << "no golden digest for " << label;
  Engine engine(spec);
  ensemble::EnsembleReport report = engine.RunEnsemble();
  EXPECT_EQ(golden::Mismatch(golden::DigestEnsemble(engine, report), *want), "");
}

RunSpec FinanceSpec(ContagionModel model, int n, uint64_t seed) {
  RunSpec spec;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.model = model;
  if (n == 1) {
    spec.topology = engine::ExplicitTopology(1, {});
    spec.degree_bound = 1;
  } else {
    spec.topology = engine::ScaleFreeTopology(n, 2);
    spec.topology.degree_cap = 4;
  }
  spec.shock.shocked_banks = {0};
  spec.seed = seed;
  return spec;
}

const char* ModelName(ContagionModel model) {
  return model == ContagionModel::kEisenbergNoe ? "en" : "egj";
}

TEST(GraphPlaneGoldenTest, FinanceModelsAcrossSizesAndSeeds) {
  for (ContagionModel model :
       {ContagionModel::kEisenbergNoe, ContagionModel::kElliottGolubJackson}) {
    for (int n : {1, 7, 64}) {
      for (uint64_t seed : {1u, 23u, 777u}) {
        ExpectMatchesGolden(FinanceSpec(model, n, seed),
                            std::string(ModelName(model)) + " n=" + std::to_string(n) +
                                " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(GraphPlaneGoldenTest, ThousandVertexSweep) {
  for (ContagionModel model :
       {ContagionModel::kEisenbergNoe, ContagionModel::kElliottGolubJackson}) {
    ExpectMatchesGolden(FinanceSpec(model, 1000, 4),
                        std::string(ModelName(model)) + " n=1000 seed=4");
  }
}

// Tree aggregation (aggregation_fanout > 1) exercises the backend's
// gather-tree traffic simulation, recorded from the literal tree, and —
// with an observer attached — the literal tree gather itself.
TEST(GraphPlaneGoldenTest, TreeAggregation) {
  for (bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "literal (observed)" : "bulk-metered");
    CountingObserver observer;
    net::NetworkObserver* attach = observed ? &observer : nullptr;
    for (int fanout : {2, 4, 8}) {
      RunSpec spec = FinanceSpec(ContagionModel::kEisenbergNoe, 64, 9);
      spec.aggregation_fanout = fanout;
      ExpectMatchesGolden(spec, "en n=64 seed=9 fanout=" + std::to_string(fanout), attach);
    }
    RunSpec odd = FinanceSpec(ContagionModel::kElliottGolubJackson, 7, 5);
    odd.aggregation_fanout = 3;
    ExpectMatchesGolden(odd, "egj n=7 seed=5 fanout=3", attach);
    if (observed) {
      EXPECT_GT(observer.sends.load(), 0u);
      EXPECT_EQ(observer.sends.load(), observer.recvs.load());
    }
  }
}

TEST(GraphPlaneGoldenTest, CustomPrograms) {
  for (int n : {7, 64}) {
    Rng rng(static_cast<uint64_t>(n) * 31);
    graph::Graph g = graph::GenerateScaleFree(n, 2, rng);

    programs::PrivateSumParams sum_params;
    sum_params.degree_bound = std::max(1, g.MaxDegree());
    sum_params.noise.alpha = 1e-12;
    sum_params.noise.magnitude_bits = 8;
    sum_params.noise.threshold_bits = 10;
    std::vector<uint32_t> values;
    for (int v = 0; v < n; v++) {
      values.push_back(static_cast<uint32_t>(100 + 7 * v));
    }
    RunSpec spec;
    spec.graph = g;
    spec.mode = ExecutionMode::kCleartextFast;
    spec.model = ContagionModel::kCustom;
    spec.custom_program = programs::BuildPrivateSumProgram(sum_params);
    spec.custom_states = programs::MakePrivateSumStates(values, sum_params.value_bits);
    spec.seed = static_cast<uint64_t>(n);
    ExpectMatchesGolden(spec, "private_sum n=" + std::to_string(n));

    programs::ReachabilityParams reach_params;
    reach_params.degree_bound = std::max(1, g.MaxDegree());
    reach_params.hops = 3;
    reach_params.noise.alpha = 1e-12;
    reach_params.noise.magnitude_bits = 8;
    reach_params.noise.threshold_bits = 10;
    RunSpec reach;
    reach.graph = g;
    reach.mode = ExecutionMode::kCleartextFast;
    reach.model = ContagionModel::kCustom;
    reach.custom_program = programs::BuildReachabilityProgram(reach_params);
    reach.custom_states = programs::MakeReachabilityStates(n, {0});
    reach.seed = static_cast<uint64_t>(n) + 1;
    ExpectMatchesGolden(reach, "reachability n=" + std::to_string(n));
  }
}

// Ensemble lanes: per-scenario figures and references plus per-node
// traffic, lane for lane.
TEST(GraphPlaneGoldenTest, EnsembleWidths) {
  // W = 1 (degenerate lane plane) and W = 3 (explicit scenarios).
  for (int width : {1, 3}) {
    RunSpec spec = FinanceSpec(ContagionModel::kEisenbergNoe, 40, 11);
    spec.ensemble.emplace();
    for (int s = 0; s < width; s++) {
      ensemble::Scenario sc;
      sc.shock.shocked_banks = {s};
      spec.ensemble->scenarios.push_back(sc);
    }
    ExpectEnsembleMatchesGolden(spec, "ensemble W=" + std::to_string(width));
  }
  // W = 64: a full word of Monte Carlo lanes.
  RunSpec spec = FinanceSpec(ContagionModel::kEisenbergNoe, 40, 11);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 9;
  spec.ensemble->banks_per_draw = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.6;
  ExpectEnsembleMatchesGolden(spec, "ensemble W=64");
}

// --- frontier semantics -----------------------------------------------------

// OR-propagation: new_state = state | (OR of in-messages), out-message =
// the *pre-update* state. Monotone, so convergence is observable, and the
// one-iteration emission lag makes activation timing easy to pin down.
core::VertexProgram PropagateProgram(int bits, int degree_bound) {
  core::VertexProgram program;
  program.state_bits = bits;
  program.message_bits = bits;
  program.degree_bound = degree_bound;
  program.iterations = 8;
  program.aggregate_bits = 16;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    circuit::Word acc = state;
    for (const circuit::Word& m : in_msgs) {
      for (size_t i = 0; i < acc.size(); i++) {
        acc[i] = b.Or(acc[i], m[i]);
      }
    }
    *new_state = acc;
    out_msgs->assign(in_msgs.size(), state);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(state, 16);
  };
  return program;
}

TEST(GraphPlaneFrontierTest, WordsDeactivateAndReactivateOnDelivery) {
  // 130 vertices = 3 lane words; one edge crossing from word 0 to word 1.
  const int n = 130;
  graph::GraphBuilder builder(n);
  builder.AddEdge(0, 100);
  const graph::Graph g = builder.Build();
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, {});

  plane.Reset();
  const mpc::BitVector five = {1, 0, 1, 0};
  plane.input_matrix().SetColumnWord(0, 0, 4, 5);  // every other state is 0

  // After Reset everything is active.
  EXPECT_EQ(plane.ActiveWords(), 3u);

  // Iteration 1: all 3 words evaluate; only vertex 0's out-message changes
  // (⊥ -> 5), so only the word holding vertex 100 stays active.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.ActiveWords(), 1u);
  EXPECT_FALSE(plane.AllConverged());
  EXPECT_EQ(plane.stats().words_evaluated, 3u);
  EXPECT_EQ(plane.stats().words_skipped, 0u);
  // Delivered but not yet evaluated: vertex 100 still holds its old state.
  EXPECT_EQ(plane.VertexState(100, 0), mpc::BitVector(4, 0));

  // Iteration 2: only word 1 evaluates (the other two are skipped); vertex
  // 100 absorbs the message, so its word stays active for one more check.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 4u);
  EXPECT_EQ(plane.stats().words_skipped, 2u);
  EXPECT_EQ(plane.VertexState(100, 0), five);
  EXPECT_EQ(plane.ActiveWords(), 1u);

  // Iteration 3: vertex 100 re-evaluates to a fixed point; frontier drains.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 4u);
  EXPECT_EQ(plane.ActiveWords(), 0u);
  EXPECT_TRUE(plane.AllConverged());

  // A converged iteration evaluates nothing — but still meters every edge:
  // traffic is per-iteration regardless of the frontier.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 7u);
  EXPECT_EQ(plane.stats().iterations, 4u);
  EXPECT_TRUE(plane.stats().bulk_metered);
  net::TrafficStats sender = net.NodeStats(0);
  net::TrafficStats receiver = net.NodeStats(100);
  EXPECT_EQ(sender.messages_sent, 4u);  // one per iteration, frontier or not
  EXPECT_EQ(receiver.messages_received, 4u);
  EXPECT_EQ(sender.bytes_sent, 4u);  // 4-bit payload -> 1 byte per message

  // States are untouched by the converged rounds.
  EXPECT_EQ(plane.VertexState(0, 0), five);
  EXPECT_EQ(plane.VertexState(100, 0), five);
  EXPECT_EQ(plane.VertexState(64, 0), mpc::BitVector(4, 0));
}

TEST(GraphPlaneFrontierTest, EnsembleLanesConvergeIndependently) {
  // Chain 0 -> 1 -> 2 with three scenario lanes: lane s seeds vertex s with
  // 7. Lane 0 needs the full two-hop propagation, lane 2 is converged from
  // the start — the shared frontier must keep iterating for the slowest
  // lane without disturbing the finished ones.
  const int n = 3;
  const int kScenarios = 3;
  const int kStride = 4;
  graph::GraphBuilder builder(n);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  const graph::Graph g = builder.Build();
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane::Options options;
  options.num_scenarios = kScenarios;
  options.stride = kStride;
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, options);

  plane.Reset();
  for (int v = 0; v < n; v++) {
    for (int s = 0; s < kScenarios; s++) {
      if (v == s) {
        // State 7 = bits 0..2 set.
        for (int r = 0; r < 3; r++) {
          plane.input_matrix().Set(static_cast<size_t>(r),
                                   static_cast<size_t>(v * kStride + s), true);
        }
      }
    }
  }

  int rounds = 0;
  while (!plane.AllConverged() && rounds < 8) {
    plane.ComputeStep();
    plane.CommunicateStep();
    rounds++;
  }
  EXPECT_TRUE(plane.AllConverged());
  // Lane 0's value crosses two edges with the one-iteration emission lag;
  // the word must have stayed active well past lane 2's instant convergence.
  EXPECT_GE(rounds, 4);

  mpc::BitVector seven = {1, 1, 1, 0};
  mpc::BitVector zero(4, 0);
  // Lane 0: seeded at vertex 0, reaches everyone downstream.
  EXPECT_EQ(plane.VertexState(0, 0), seven);
  EXPECT_EQ(plane.VertexState(1, 0), seven);
  EXPECT_EQ(plane.VertexState(2, 0), seven);
  // Lane 1: seeded at vertex 1 — vertex 0 must stay clean (no upstream or
  // cross-lane leakage).
  EXPECT_EQ(plane.VertexState(0, 1), zero);
  EXPECT_EQ(plane.VertexState(1, 1), seven);
  EXPECT_EQ(plane.VertexState(2, 1), seven);
  // Lane 2: seeded at the sink, nothing propagates.
  EXPECT_EQ(plane.VertexState(0, 2), zero);
  EXPECT_EQ(plane.VertexState(1, 2), zero);
  EXPECT_EQ(plane.VertexState(2, 2), seven);

  // Per-lane contribution sums over the final states: 3 lanes, vertex-major
  // reduction, garbage lanes (s = 3) excluded by the valid mask.
  circuit::Circuit contribution = core::BuildAggregateCircuit(program, 1, /*with_noise=*/false);
  circuit::EvalPlan contribution_plan(contribution);
  std::vector<uint64_t> sums =
      plane.ScenarioSums(plane.EvalOverStates(contribution_plan), program.aggregate_bits);
  ASSERT_EQ(sums.size(), static_cast<size_t>(kScenarios));
  EXPECT_EQ(sums[0], 21u);  // 7 + 7 + 7
  EXPECT_EQ(sums[1], 14u);  // 0 + 7 + 7
  EXPECT_EQ(sums[2], 7u);   // 0 + 0 + 7
}

// Engine-level early-exit A/B: breaking out of the iteration loop once the
// frontier drains must release the same figure and final states as running
// every scheduled iteration (the skipped rounds are figure-identical
// no-ops) — only the traffic shrinks.
TEST(GraphPlaneFrontierTest, EarlyExitReleasesSameFigureAsFullRun) {
  RunSpec full = FinanceSpec(ContagionModel::kEisenbergNoe, 200, 17);
  full.cleartext_early_exit = false;
  RunSpec early = full;
  early.cleartext_early_exit = true;

  Engine full_engine(full);
  RunReport f = full_engine.Run();
  Engine early_engine(early);
  RunReport e = early_engine.Run();

  EXPECT_EQ(e.released, f.released);
  ASSERT_TRUE(e.has_reference);
  EXPECT_EQ(e.reference, f.reference);
  mpc::PackedShareMatrix sf = full_engine.FinalStates();
  mpc::PackedShareMatrix se = early_engine.FinalStates();
  ASSERT_EQ(se.instances(), sf.instances());
  ASSERT_EQ(se.rows(), sf.rows());
  for (size_t v = 0; v < se.instances(); v++) {
    EXPECT_EQ(se.Instance(v), sf.Instance(v)) << "vertex " << v;
  }
  // EN on a 200-vertex scale-free network converges long before
  // ceil(log2 200) = 8 iterations, so the early run must be cheaper.
  EXPECT_LE(e.iterations, f.iterations);
  EXPECT_LT(e.metrics.total_bytes, f.metrics.total_bytes);
}

// --- lane-chunk packer --------------------------------------------------------

// Every S-lane group PackLaneChunk writes equals the group assembled bit by
// bit from the source lanes, across S, state widths on both sides of one
// and several 64-bit words, a non-zero lane offset and N = 130 (two full
// vertex words and a partial one). The stride gap lanes [S, P) stay zero.
TEST(PackLaneChunkTest, MatchesPerBitReference) {
  constexpr size_t kN = 130;
  constexpr int kLo = 1;  // lane 0 is a decoy the chunk must not read
  for (int num_scenarios : {2, 3, 63, 64}) {
    int stride = 1;
    while (stride < num_scenarios) {
      stride <<= 1;
    }
    for (size_t state_bits : {1, 63, 64, 65, 304}) {
      SCOPED_TRACE("S=" + std::to_string(num_scenarios) +
                   " state_bits=" + std::to_string(state_bits));
      Rng rng(static_cast<uint64_t>(num_scenarios) * 1000 + state_bits);
      std::vector<mpc::PackedShareMatrix> lanes;
      for (int s = 0; s < kLo + num_scenarios; s++) {
        mpc::PackedShareMatrix lane(state_bits, kN);
        for (size_t r = 0; r < state_bits; r++) {
          for (size_t v = 0; v < kN; v++) {
            lane.Set(r, v, rng.Below(2) == 1);
          }
        }
        lanes.push_back(std::move(lane));
      }
      // Extra rows past state_bits stand for the plane's in-slot rows.
      mpc::PackedShareMatrix in_mat(state_bits + 2, kN * static_cast<size_t>(stride));
      graphplane::PackLaneChunk(lanes, kLo, num_scenarios, stride, &in_mat);
      for (size_t r = 0; r < in_mat.rows(); r++) {
        for (size_t v = 0; v < kN; v++) {
          uint64_t want = 0;
          for (int s = 0; r < state_bits && s < num_scenarios; s++) {
            want |= static_cast<uint64_t>(lanes[static_cast<size_t>(kLo + s)].Get(r, v)) << s;
          }
          const size_t first = v * static_cast<size_t>(stride);
          ASSERT_EQ(in_mat.GetLaneGroup(r, first, num_scenarios), want)
              << "row " << r << " vertex " << v;
          if (stride > num_scenarios) {
            ASSERT_EQ(in_mat.GetLaneGroup(r, first + num_scenarios, stride - num_scenarios), 0u)
                << "row " << r << " vertex " << v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dstress
