// Scenario-ensemble subsystem tests (src/ensemble + the engine/runtime
// ensemble planes).
//
// The load-bearing property is per-lane fidelity: scenario s of an ensemble
// run must release the figure that an independent solo run of
// ensemble::SoloSpecFor(base, scenarios[s]) releases, bit-exactly, in both
// execution modes — the lanes share one lockstep pass but must be
// observationally independent. Width-1 ensembles must additionally be
// traffic-identical to a plain run (same per-node TrafficStats), which pins
// the W-identical case to the solo schedule.

#include "src/ensemble/ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/engine/engine.h"
#include "src/ensemble/spec.h"
#include "tests/golden_digest.h"

namespace dstress::ensemble {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunSpec;

RunSpec CleartextBase(int num_banks) {
  RunSpec spec;
  spec.topology.kind = engine::TopologySpec::Kind::kScaleFree;
  spec.topology.num_vertices = num_banks;
  spec.topology.links_per_vertex = 2;
  spec.topology.degree_cap = 4;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.shock.shocked_banks = {0};
  spec.seed = 11;
  return spec;
}

RunSpec SecureBase(int num_banks, int iterations) {
  RunSpec spec;
  spec.topology.kind = engine::TopologySpec::Kind::kScaleFree;
  spec.topology.num_vertices = num_banks;
  spec.topology.links_per_vertex = 2;
  spec.topology.degree_cap = 3;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.mode = ExecutionMode::kSecure;
  spec.block_size = 2;
  spec.iterations = iterations;
  spec.shock.shocked_banks = {0};
  spec.seed = 11;
  return spec;
}

// Runs the ensemble and asserts every lane against its independent solo run.
void ExpectLanesMatchSolo(const RunSpec& base) {
  ASSERT_TRUE(base.ensemble.has_value());
  std::vector<Scenario> scenarios = MaterializeScenarios(
      *base.ensemble, base.shock, base.topology.num_vertices);
  EnsembleReport report = Engine(base).RunEnsemble();
  ASSERT_EQ(report.scenarios.size(), scenarios.size());
  for (size_t s = 0; s < scenarios.size(); s++) {
    RunSpec solo = SoloSpecFor(base, scenarios[s]);
    engine::RunReport solo_report = Engine(solo).Run();
    EXPECT_EQ(report.scenarios[s].released, solo_report.released)
        << "lane " << s << " (" << scenarios[s].label << ")";
    ASSERT_TRUE(report.scenarios[s].has_reference);
    EXPECT_EQ(report.scenarios[s].reference, solo_report.reference)
        << "lane " << s << " (" << scenarios[s].label << ")";
  }
}

// --- scenario materialization ----------------------------------------------

TEST(MaterializeScenariosTest, DrawsAreDeterministicDistinctAndInRange) {
  EnsembleSpec es;
  es.shock_draws = 32;
  es.draw_seed = 5;
  es.banks_per_draw = 3;
  es.has_magnitude_range = true;
  es.magnitude_lo = 0.2;
  es.magnitude_hi = 0.7;
  finance::ShockParams base;
  base.shocked_banks = {0};
  std::vector<Scenario> a = MaterializeScenarios(es, base, 20);
  std::vector<Scenario> b = MaterializeScenarios(es, base, 20);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (size_t k = 0; k < a.size(); k++) {
    EXPECT_EQ(a[k].shock.shocked_banks, b[k].shock.shocked_banks) << "draw " << k;
    EXPECT_DOUBLE_EQ(a[k].shock.survival, b[k].shock.survival) << "draw " << k;
    ASSERT_EQ(a[k].shock.shocked_banks.size(), 3u);
    std::set<int> distinct(a[k].shock.shocked_banks.begin(), a[k].shock.shocked_banks.end());
    EXPECT_EQ(distinct.size(), 3u) << "draw " << k << " repeated a bank";
    for (int bank : a[k].shock.shocked_banks) {
      EXPECT_GE(bank, 0);
      EXPECT_LT(bank, 20);
    }
    EXPECT_GE(a[k].shock.survival, 0.2);
    EXPECT_LE(a[k].shock.survival, 0.7);
    EXPECT_FALSE(a[k].workload_seed.has_value());
  }
}

TEST(MaterializeScenariosTest, ExplicitScenariosPassThrough) {
  EnsembleSpec es;
  Scenario one;
  one.shock.shocked_banks = {2, 3};
  one.label = "pair";
  es.scenarios.push_back(one);
  finance::ShockParams base;
  std::vector<Scenario> out = MaterializeScenarios(es, base, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].shock.shocked_banks, (std::vector<int>{2, 3}));
  EXPECT_EQ(out[0].label, "pair");
}

TEST(MaterializeScenariosTest, PerturbWorkloadAssignsDistinctSeeds) {
  EnsembleSpec es;
  es.shock_draws = 8;
  es.draw_seed = 3;
  es.perturb_workload = true;
  finance::ShockParams base;
  base.shocked_banks = {0};
  std::vector<Scenario> out = MaterializeScenarios(es, base, 12);
  std::set<uint64_t> seeds;
  for (const Scenario& sc : out) {
    ASSERT_TRUE(sc.workload_seed.has_value());
    seeds.insert(*sc.workload_seed);
  }
  EXPECT_EQ(seeds.size(), out.size()) << "workload seeds must be distinct";
}

// --- reduce ----------------------------------------------------------------

TEST(ReduceEnsembleTest, QuantileNearestRank) {
  std::vector<int64_t> sorted = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(QuantileNearestRank(sorted, 0.0), 10);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.05), 10);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.25), 30);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.50), 50);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.75), 80);
  EXPECT_EQ(QuantileNearestRank(sorted, 1.0), 100);
}

TEST(ReduceEnsembleTest, MomentsQuantilesAndBands) {
  EnsembleReport report;
  for (int64_t v : {4, 1, 3, 2}) {
    ScenarioResult sc;
    sc.released = v;
    report.scenarios.push_back(sc);
  }
  // Bank 0 defaults in every scenario, bank 1 in half, bank 2 never.
  std::vector<std::vector<uint8_t>> defaults = {
      {1, 1, 0}, {1, 0, 0}, {1, 1, 0}, {1, 0, 0}};
  ReduceEnsemble(defaults, &report);
  EXPECT_DOUBLE_EQ(report.mean, 2.5);
  EXPECT_NEAR(report.stddev, 1.29, 0.01);
  EXPECT_EQ(report.min_released, 1);
  EXPECT_EQ(report.max_released, 4);
  EXPECT_EQ(report.p50, 2);
  EXPECT_EQ(report.p95, 4);
  ASSERT_EQ(report.default_probability.size(), 3u);
  EXPECT_DOUBLE_EQ(report.default_probability[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_band_lo[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_band_hi[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_probability[1], 0.5);
  EXPECT_GT(report.default_band_hi[1], 0.5);
  EXPECT_LT(report.default_band_lo[1], 0.5);
  EXPECT_DOUBLE_EQ(report.default_probability[2], 0.0);
}

// --- cleartext lane fidelity ----------------------------------------------

TEST(EnsembleCleartextTest, SingleScenarioMatchesSolo) {
  RunSpec spec = CleartextBase(40);
  spec.ensemble.emplace();
  Scenario sc;
  sc.shock = spec.shock;
  spec.ensemble->scenarios.push_back(sc);
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleCleartextTest, ThreeExplicitScenariosMatchSolo) {
  RunSpec spec = CleartextBase(40);
  spec.ensemble.emplace();
  for (std::vector<int> banks : {std::vector<int>{0}, {1, 2}, {5, 7, 9}}) {
    Scenario sc;
    sc.shock.shocked_banks = std::move(banks);
    spec.ensemble->scenarios.push_back(sc);
  }
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleCleartextTest, SixtyFourDrawsMatchSolo) {
  RunSpec spec = CleartextBase(40);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 9;
  spec.ensemble->banks_per_draw = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.6;
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleCleartextTest, PerturbedWorkloadLanesMatchSolo) {
  RunSpec spec = CleartextBase(24);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 8;
  spec.ensemble->draw_seed = 4;
  spec.ensemble->perturb_workload = true;
  ExpectLanesMatchSolo(spec);
}

// A >64-scenario ensemble exercises the chunked (multi-pass) plane.
TEST(EnsembleCleartextTest, ChunkedEnsembleBeyondSixtyFourLanes) {
  RunSpec spec = CleartextBase(16);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 70;
  spec.ensemble->draw_seed = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.5;
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleCleartextTest, Width1TrafficIdenticalToSolo) {
  RunSpec base = CleartextBase(30);
  RunSpec with_ensemble = base;
  with_ensemble.ensemble.emplace();
  Scenario sc;
  sc.shock = base.shock;
  with_ensemble.ensemble->scenarios.push_back(sc);

  Engine solo(base);
  engine::RunReport solo_report = solo.Run();
  Engine ens(with_ensemble);
  EnsembleReport report = ens.RunEnsemble();

  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].released, solo_report.released);
  EXPECT_EQ(report.metrics.total_bytes, solo_report.metrics.total_bytes);
  ASSERT_EQ(ens.transport().num_nodes(), solo.transport().num_nodes());
  for (int v = 0; v < base.topology.num_vertices; v++) {
    net::TrafficStats a = ens.transport().NodeStats(v);
    net::TrafficStats b = solo.transport().NodeStats(v);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << v;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "node " << v;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "node " << v;
  }
}

// --- secure (dealer) lane fidelity ----------------------------------------

TEST(EnsembleSecureTest, SingleScenarioTrafficIdenticalToSolo) {
  RunSpec base = SecureBase(8, 2);
  RunSpec with_ensemble = base;
  with_ensemble.ensemble.emplace();
  Scenario sc;
  sc.shock = base.shock;
  with_ensemble.ensemble->scenarios.push_back(sc);

  Engine solo(base);
  engine::RunReport solo_report = solo.Run();
  Engine ens(with_ensemble);
  EnsembleReport report = ens.RunEnsemble();

  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].released, solo_report.released);
  EXPECT_EQ(report.metrics.total_bytes, solo_report.metrics.total_bytes);
  for (int v = 0; v < ens.transport().num_nodes(); v++) {
    net::TrafficStats a = ens.transport().NodeStats(v);
    net::TrafficStats b = solo.transport().NodeStats(v);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << v;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "node " << v;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "node " << v;
  }
}

TEST(EnsembleSecureTest, ThreeExplicitScenariosMatchSolo) {
  RunSpec spec = SecureBase(8, 2);
  spec.ensemble.emplace();
  for (std::vector<int> banks : {std::vector<int>{0}, {1, 2}, {3}}) {
    Scenario sc;
    sc.shock.shocked_banks = std::move(banks);
    spec.ensemble->scenarios.push_back(sc);
  }
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleSecureTest, SixtyFourDrawsMatchSolo) {
  RunSpec spec = SecureBase(6, 1);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 13;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.8;
  ExpectLanesMatchSolo(spec);
}

// Whole-ensemble trace of the secure plane: per-lane figures and
// references, per-node TrafficStats, total bytes and Beaver triples, for
// widths the solo-equality tests above do not cover traffic-wise: dealer
// triples at W = 3, and the node-pair OT triple factory at W = 2. The
// figures and triple counts date from before the solo and ensemble run
// loops were merged; the traffic was re-recorded when the lanes' openings
// took the solo GmwParty::Open payload (8 bytes per 32-bit figure instead
// of 4), which adds W x 2 members x 1 peer x 4 B to total_bytes.
const golden::GoldenDigest kSecureEnsembleGolden[] = {
    {"secure dealer W=3", "484f09a4e1a378ad321e45c6a38ae6c000e7ade8bf745dd08c18bcfad0cbd663",
     nullptr, "d05556963d54ded01de37db4f8dee086d66c9286e3ee8b9000f50652bfbaaac7", 1891380,
     501012},
    {"secure ot factory W=2", "baf2e8af1d8fd564a4aa09a0ddd09ba9b2e3f60f6f47870189cb0d8328b31529",
     nullptr, "9fdc9c6bde780068aa8ad7dca908fdedbe54e12ce02238fb2d2458396fe43f8a", 3458072,
     171388},
};

void ExpectSecureEnsembleMatchesGolden(const RunSpec& spec, const std::string& label) {
  const golden::GoldenDigest* want = golden::Find(kSecureEnsembleGolden, label);
  ASSERT_NE(want, nullptr) << label;
  Engine engine(spec);
  EnsembleReport report = engine.RunEnsemble();
  EXPECT_EQ(golden::Mismatch(golden::DigestEnsemble(engine, report), *want), "");
}

RunSpec WithExplicitScenarios(RunSpec spec, const std::vector<std::vector<int>>& shocked) {
  spec.ensemble.emplace();
  for (const std::vector<int>& banks : shocked) {
    Scenario sc;
    sc.shock.shocked_banks = banks;
    spec.ensemble->scenarios.push_back(sc);
  }
  return spec;
}

// An S-lane run is the composition of its S solo runs: with dealer
// triples every node sends and receives exactly the bytes and messages of
// the three solo runs together, aggregation and its opening included, and
// every Beaver triple is accounted for by the circuits' AND gates.
TEST(EnsembleSecureTest, WidthThreeTrafficIsSumOfSoloRuns) {
  const RunSpec spec = WithExplicitScenarios(SecureBase(8, 2), {{0}, {1, 2}, {3}});
  Engine ens(spec);
  EnsembleReport report = ens.RunEnsemble();
  const int n = spec.topology.num_vertices;
  const int lanes = static_cast<int>(report.scenarios.size());
  ASSERT_EQ(lanes, 3);
  std::vector<net::TrafficStats> solo_sum(static_cast<size_t>(n));
  uint64_t solo_bytes = 0;
  for (const Scenario& sc : MaterializeScenarios(*spec.ensemble, spec.shock, n)) {
    Engine solo(SoloSpecFor(spec, sc));
    solo_bytes += solo.Run().metrics.total_bytes;
    ASSERT_EQ(solo.transport().num_nodes(), n);
    for (int v = 0; v < n; v++) {
      net::TrafficStats s = solo.transport().NodeStats(v);
      solo_sum[static_cast<size_t>(v)].bytes_sent += s.bytes_sent;
      solo_sum[static_cast<size_t>(v)].bytes_received += s.bytes_received;
      solo_sum[static_cast<size_t>(v)].messages_sent += s.messages_sent;
      solo_sum[static_cast<size_t>(v)].messages_received += s.messages_received;
    }
  }
  EXPECT_EQ(report.metrics.total_bytes, solo_bytes);
  for (int v = 0; v < n; v++) {
    net::TrafficStats got = ens.transport().NodeStats(v);
    const net::TrafficStats& want = solo_sum[static_cast<size_t>(v)];
    EXPECT_EQ(got.bytes_sent, want.bytes_sent) << "node " << v;
    EXPECT_EQ(got.bytes_received, want.bytes_received) << "node " << v;
    EXPECT_EQ(got.messages_sent, want.messages_sent) << "node " << v;
    EXPECT_EQ(got.messages_received, want.messages_received) << "node " << v;
  }
  const core::RunMetrics& m = report.metrics;
  EXPECT_EQ(m.triples_consumed,
            static_cast<uint64_t>(spec.block_size) *
                (m.update_and_gates * n * lanes * (m.iterations + 1) + m.aggregate_and_gates));
}

// The cleartext plane reports the secure plane's aggregation AND gates for
// a multi-lane run too: every lane's group circuits, noise included.
TEST(EnsembleSecureTest, CleartextAggregateAndGatesMatchSecure) {
  RunSpec spec = WithExplicitScenarios(SecureBase(8, 2), {{0}, {1, 2}, {3}});
  const size_t secure = Engine(spec).RunEnsemble().metrics.aggregate_and_gates;
  spec.mode = ExecutionMode::kCleartextFast;
  EXPECT_EQ(Engine(spec).RunEnsemble().metrics.aggregate_and_gates, secure);
}

TEST(EnsembleSecureGoldenTest, DealerWidthThree) {
  ExpectSecureEnsembleMatchesGolden(
      WithExplicitScenarios(SecureBase(8, 2), {{0}, {1, 2}, {3}}), "secure dealer W=3");
}

TEST(EnsembleSecureGoldenTest, NodePairOtFactoryWidthTwo) {
  RunSpec spec = WithExplicitScenarios(SecureBase(6, 1), {{0}, {2}});
  spec.use_ot_triples = true;
  ExpectSecureEnsembleMatchesGolden(spec, "secure ot factory W=2");
}

// --- privacy gate ----------------------------------------------------------

TEST(EnsembleBudgetTest, OverBudgetEnsembleAbortsNamingOverrun) {
  RunSpec spec = CleartextBase(16);
  spec.epsilon = 0.5;
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 4;
  spec.ensemble->draw_seed = 1;
  spec.ensemble->epsilon_budget = 1.0;  // 4 x 0.5 = 2.0 > 1.0
  EXPECT_DEATH(Engine(spec).RunEnsemble(), "exceeds remaining budget");
}

TEST(EnsembleBudgetTest, WithinBudgetEnsembleRuns) {
  RunSpec spec = CleartextBase(16);
  spec.epsilon = 0.2;
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 4;
  spec.ensemble->draw_seed = 1;
  spec.ensemble->epsilon_budget = 1.0;  // 4 x 0.2 = 0.8 fits
  EnsembleReport report = Engine(spec).RunEnsemble();
  EXPECT_EQ(report.scenarios.size(), 4u);
  EXPECT_DOUBLE_EQ(report.epsilon_total, 0.8);
}

}  // namespace
}  // namespace dstress::ensemble
