// Tests for the node-pair OT triple factory (src/mpc/triple_factory.h):
// share-relation correctness over randomized demand corpora, disjoint
// deterministic view slices, deadlock-freedom under the tournament order
// with mixed batch sizes, the O(roles x peers) -> O(node pairs) base-OT
// dedup, and the fidelity contract — pipelined == unpipelined runs and
// factory == per-role baseline online traffic, bit for bit. The per-role
// baseline (oracle/per_role_ot_supply.h) is itself pinned to golden digests
// of the per-role path it replaced in the runtime.
#include "src/mpc/triple_factory.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "oracle/per_role_ot_supply.h"
#include "src/core/runtime.h"
#include "src/core/vertex_program.h"
#include "src/graph/graph.h"
#include "src/net/transport_spec.h"
#include "src/ot/base_ot.h"
#include "tests/golden_digest.h"

namespace dstress::mpc {
namespace {

// XOR-combines every member's share of one draw and checks c = a AND b.
void ExpectTripleRelation(const std::vector<BitTriples>& member_shares) {
  ASSERT_FALSE(member_shares.empty());
  const size_t count = member_shares[0].count;
  const size_t words = PackedWords(count);
  PackedBits a(words, 0), b(words, 0), c(words, 0);
  for (const BitTriples& t : member_shares) {
    ASSERT_EQ(t.count, count);
    for (size_t w = 0; w < words; w++) {
      a[w] ^= t.a[w];
      b[w] ^= t.b[w];
      c[w] ^= t.c[w];
    }
  }
  for (size_t i = 0; i < count; i++) {
    ASSERT_EQ(GetBit(c, i), GetBit(a, i) && GetBit(b, i)) << "triple " << i;
  }
}

void ExpectSameTriples(const BitTriples& x, const BitTriples& y) {
  ASSERT_EQ(x.count, y.count);
  for (size_t i = 0; i < x.count; i++) {
    ASSERT_EQ(GetBit(x.a, i), GetBit(y.a, i)) << "a bit " << i;
    ASSERT_EQ(GetBit(x.b, i), GetBit(y.b, i)) << "b bit " << i;
    ASSERT_EQ(GetBit(x.c, i), GetBit(y.c, i)) << "c bit " << i;
  }
}

TEST(TripleFactoryTest, TriplesSatisfyRelationAcrossBlockSizes) {
  // Randomized corpus: per block size, several waves of varying counts
  // (word-aligned and not) over blocks carved out of a 9-node transport.
  for (int block_size : {2, 3, 8}) {
    auto net = net::MakeTransport(net::SimTransportSpec(), 9);
    TripleFactoryOptions options;
    options.prg_seed = 0x5eed0000 + block_size;
    // Synchronous mode so the stats assertions below are exact; the
    // dispatcher path is exercised by the mixed-batch and runtime tests.
    options.pipeline = false;
    TripleFactory factory(net.get(), options);

    std::vector<int> parties;
    for (int i = 0; i < block_size; i++) {
      parties.push_back(i);
    }
    const std::vector<size_t> wave_counts = {3, 64, 130, 17};
    for (size_t wave = 0; wave < wave_counts.size(); wave++) {
      std::vector<TripleDemand> demands;
      demands.push_back({/*tag=*/7, parties, wave_counts[wave]});
      factory.Enqueue(std::move(demands));
      std::vector<BitTriples> shares;
      for (int m = 0; m < block_size; m++) {
        shares.push_back(factory.ViewFor(7, m)->Generate(wave_counts[wave]));
      }
      ExpectTripleRelation(shares);
    }
    TripleFactoryStats stats = factory.stats();
    EXPECT_EQ(stats.waves, wave_counts.size());
    EXPECT_EQ(stats.pair_sessions,
              static_cast<uint64_t>(block_size * (block_size - 1) / 2));
  }
}

TEST(TripleFactoryTest, ViewsAreDisjointDeterministicSlices) {
  // Same seed, same wave: drawing 30 + 70 must yield exactly the bits of
  // one 100-triple draw, split at 30 — views are cursors over one stream,
  // not independent generators.
  auto make_run = [](const std::vector<size_t>& draws) {
    auto net = net::MakeTransport(net::SimTransportSpec(), 4);
    TripleFactoryOptions options;
    options.prg_seed = 42;
    options.pipeline = false;
    TripleFactory factory(net.get(), options);
    factory.Enqueue({{/*tag=*/3, {0, 1, 2}, 100}});
    std::vector<std::vector<BitTriples>> per_member(3);
    for (int m = 0; m < 3; m++) {
      for (size_t d : draws) {
        per_member[m].push_back(factory.ViewFor(3, m)->Generate(d));
      }
    }
    return per_member;
  };
  auto split = make_run({30, 70});
  auto whole = make_run({100});
  for (int m = 0; m < 3; m++) {
    BitTriples rejoined = split[m][0];
    size_t words = PackedWords(100);
    rejoined.a.resize(words, 0);
    rejoined.b.resize(words, 0);
    rejoined.c.resize(words, 0);
    for (size_t i = 0; i < 70; i++) {
      SetBit(rejoined.a, 30 + i, GetBit(split[m][1].a, i));
      SetBit(rejoined.b, 30 + i, GetBit(split[m][1].b, i));
      SetBit(rejoined.c, 30 + i, GetBit(split[m][1].c, i));
    }
    rejoined.count = 100;
    ExpectSameTriples(rejoined, whole[m][0]);
  }
  // And the slices themselves form valid triples.
  ExpectTripleRelation({split[0][0], split[1][0], split[2][0]});
  ExpectTripleRelation({split[0][1], split[1][1], split[2][1]});
}

TEST(TripleFactoryTest, MixedBatchSizesUnderTournamentOrderComplete) {
  // One wave of overlapping blocks with very different counts: every
  // co-occurring pair runs one bulk extend over its shared segments, and
  // the circle-method schedule must complete without deadlock (a hang here
  // trips the ctest timeout). Two waves reuse the pair sessions.
  auto net = net::MakeTransport(net::SimTransportSpec(), 8);
  TripleFactoryOptions options;
  options.prg_seed = 99;
  options.pipeline = true;
  TripleFactory factory(net.get(), options);

  const std::vector<TripleDemand> wave = {
      {/*tag=*/0, {0, 1, 2, 3, 4}, 129},
      {/*tag=*/1, {2, 5, 6}, 5},
      {/*tag=*/2, {1, 6, 7}, 64},
      {/*tag=*/3, {0, 7}, 1},
  };
  std::set<std::pair<int, int>> pairs;
  for (const TripleDemand& d : wave) {
    for (size_t i = 0; i < d.parties.size(); i++) {
      for (size_t j = i + 1; j < d.parties.size(); j++) {
        pairs.insert({std::min(d.parties[i], d.parties[j]),
                      std::max(d.parties[i], d.parties[j])});
      }
    }
  }
  uint64_t base_ots_before = ot::BaseOtExecutionCount();
  for (int repeat = 0; repeat < 2; repeat++) {
    factory.Enqueue(std::vector<TripleDemand>(wave));
    for (const TripleDemand& d : wave) {
      std::vector<BitTriples> shares;
      for (size_t m = 0; m < d.parties.size(); m++) {
        shares.push_back(factory.ViewFor(d.tag, static_cast<int>(m))->Generate(d.count));
      }
      ExpectTripleRelation(shares);
    }
  }
  // Base OTs paid once per co-occurring node pair (4 executions each: two
  // IKNP directions x two endpoints), not once per wave or per role.
  EXPECT_EQ(ot::BaseOtExecutionCount() - base_ots_before, 4 * pairs.size());
  EXPECT_EQ(factory.stats().pair_sessions, pairs.size());
}

// --- runtime-level fidelity and dedup --------------------------------------

core::VertexProgram MakeSumProgram(int degree_bound, int iterations) {
  core::VertexProgram program;
  program.state_bits = 16;
  program.message_bits = 8;
  program.degree_bound = degree_bound;
  program.iterations = iterations;
  program.aggregate_bits = 24;
  program.output_noise.alpha = 1e-12;
  program.output_noise.magnitude_bits = 8;
  program.output_noise.threshold_bits = 10;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs,
                            circuit::Word* new_state, std::vector<circuit::Word>* out_msgs) {
    circuit::Word seed(state.begin(), state.begin() + 8);
    circuit::Word acc(state.begin() + 8, state.end());
    for (const auto& msg : in_msgs) {
      acc = b.Add(acc, msg);
    }
    *new_state = seed;
    new_state->insert(new_state->end(), acc.begin(), acc.end());
    out_msgs->assign(in_msgs.size(), seed);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(circuit::Word(state.begin() + 8, state.end()), 24);
  };
  return program;
}

graph::Graph Ring(int n) {
  graph::GraphBuilder g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g.Build();
}

mpc::PackedShareMatrix RingStates(int n) {
  mpc::PackedShareMatrix states(16, static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    states.SetColumnWord(static_cast<size_t>(v), 0, 16, static_cast<uint64_t>(10 + v));
  }
  return states;
}

core::RuntimeConfig OtConfig(int aggregation_fanout = 0) {
  core::RuntimeConfig config;
  config.block_size = 3;
  config.seed = 11;
  config.use_ot_triples = true;
  config.aggregation_fanout = aggregation_fanout;
  return config;
}

// The runtime's default supply with the dispatcher off: every wave is
// generated synchronously at Enqueue.
core::Runtime::TripleSupplyMaker UnpipelinedFactory(uint64_t run_seed) {
  return [run_seed](net::Transport* net) {
    TripleFactoryOptions options;
    options.prg_seed = core::RolePrgSeed(run_seed, 0x78);
    options.pipeline = false;
    return std::make_unique<TripleFactory>(net, options);
  };
}

// Per-node traffic meter that splits offline (session namespace 8, all
// OT-triple generation) from online (everything else) bytes and messages.
class OnlineTrafficMeter : public net::NetworkObserver {
 public:
  struct PerNode {
    uint64_t online_sent = 0, online_received = 0;
    uint64_t online_msgs_sent = 0, online_msgs_received = 0;
    uint64_t offline_sent = 0;
    bool operator==(const PerNode& o) const {
      return online_sent == o.online_sent && online_received == o.online_received &&
             online_msgs_sent == o.online_msgs_sent &&
             online_msgs_received == o.online_msgs_received;
    }
  };

  void OnSend(net::NodeId from, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    if ((session >> 60) == 8) {
      nodes_[from].offline_sent += payload.size();
      return;
    }
    nodes_[from].online_sent += payload.size();
    nodes_[from].online_msgs_sent += 1;
  }
  void OnRecv(net::NodeId to, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    if ((session >> 60) == 8) {
      return;
    }
    nodes_[to].online_received += payload.size();
    nodes_[to].online_msgs_received += 1;
  }

  std::map<net::NodeId, PerNode> nodes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_;
  }

 private:
  mutable std::mutex mu_;
  std::map<net::NodeId, PerNode> nodes_;
};

TEST(TripleFactoryTest, PipelinedRunMatchesUnpipelinedRunExactly) {
  // The offline/online pipeline must be a pure latency optimization:
  // released figure, full per-node TrafficStats and metered triple demand
  // identical whether waves are generated ahead on the dispatcher or
  // synchronously at enqueue.
  constexpr int kN = 5;
  graph::Graph g = Ring(kN);
  core::VertexProgram program = MakeSumProgram(1, 2);

  core::Runtime pipelined(OtConfig(), g, program);
  core::Runtime unpipelined(OtConfig(), g, program, UnpipelinedFactory(OtConfig().seed));
  core::RunMetrics mp, mu;
  int64_t released_p = pipelined.Run(RingStates(kN), &mp);
  int64_t released_u = unpipelined.Run(RingStates(kN), &mu);

  EXPECT_EQ(released_p, released_u);
  EXPECT_EQ(mp.triples_consumed, mu.triples_consumed);
  EXPECT_EQ(mp.base_ot_executions, mu.base_ot_executions);
  for (int node = 0; node < kN; node++) {
    net::TrafficStats sp = pipelined.network().NodeStats(node);
    net::TrafficStats su = unpipelined.network().NodeStats(node);
    EXPECT_EQ(sp.bytes_sent, su.bytes_sent) << "node " << node;
    EXPECT_EQ(sp.bytes_received, su.bytes_received) << "node " << node;
    EXPECT_EQ(sp.messages_sent, su.messages_sent) << "node " << node;
    EXPECT_EQ(sp.messages_received, su.messages_received) << "node " << node;
  }
}

TEST(TripleFactoryTest, FactoryMatchesPerRoleBaselineAndDedupsBaseOts) {
  // Factory vs per-role baseline over the same workload: identical released
  // figure, bit-identical per-node ONLINE traffic, and the factory's
  // base-OT executions drop from O(roles x peers) to O(node pairs) —
  // asserted structurally against the trusted setup's blocks.
  constexpr int kN = 5;
  graph::Graph g = Ring(kN);
  core::VertexProgram program = MakeSumProgram(1, 2);

  core::Runtime baseline(OtConfig(), g, program, oracle::PerRoleOtSupplyMaker(OtConfig().seed));
  core::Runtime factory(OtConfig(), g, program);
  OnlineTrafficMeter baseline_meter, factory_meter;
  baseline.AttachObserver(&baseline_meter);
  factory.AttachObserver(&factory_meter);

  core::RunMetrics mb, mf;
  int64_t released_b = baseline.Run(RingStates(kN), &mb);
  int64_t released_f = factory.Run(RingStates(kN), &mf);
  EXPECT_EQ(released_b, released_f);
  EXPECT_EQ(mb.triples_consumed, mf.triples_consumed);

  // Online-phase traffic identical per node, in bytes and message counts.
  auto online_b = baseline_meter.nodes();
  auto online_f = factory_meter.nodes();
  ASSERT_EQ(online_b.size(), online_f.size());
  uint64_t offline_bytes_f = 0;
  for (const auto& [node, stats] : online_f) {
    ASSERT_TRUE(online_b.count(node)) << "node " << node;
    EXPECT_TRUE(stats == online_b[node]) << "node " << node;
    offline_bytes_f += stats.offline_sent;
  }
  EXPECT_GT(offline_bytes_f, 0u);  // the OT protocol really ran

  // Base-OT dedup. Baseline: every role group (one per vertex, plus the
  // flat aggregation block) pays C(k+1, 2) pairwise setups of 4 executions
  // each. Factory: 4 executions per distinct node pair co-occurring in any
  // block.
  const int k1 = 3;
  uint64_t groups = static_cast<uint64_t>(kN) + 1;
  EXPECT_EQ(mb.base_ot_executions, 4 * (k1 * (k1 - 1) / 2) * groups);
  std::set<std::pair<int, int>> node_pairs;
  auto add_block = [&](const std::vector<int>& block) {
    for (size_t i = 0; i < block.size(); i++) {
      for (size_t j = i + 1; j < block.size(); j++) {
        node_pairs.insert(
            {std::min(block[i], block[j]), std::max(block[i], block[j])});
      }
    }
  };
  for (int v = 0; v < kN; v++) {
    add_block(factory.setup().blocks[v]);
  }
  add_block(factory.setup().aggregation_block);
  EXPECT_EQ(mf.base_ot_executions, 4 * node_pairs.size());
  EXPECT_LT(mf.base_ot_executions, mb.base_ot_executions);
  // The factory overlaps offline generation with the online phase; its
  // metrics must surface that work.
  EXPECT_GT(mf.offline_seconds, 0.0);
}

// Solo runs of the ring workload above through the per-role path the
// runtime used to carry (one OtTripleSource per (tag, member), drawn
// inside each phase), recorded before that path left src/: released
// figure, golden::HashTraffic over every node's bytes and messages sent
// and received (offline included), total bytes, triples consumed and
// base-OT executions. Fanout 2 runs leaf, combine and root levels of the
// aggregation tree.
struct PerRoleGolden {
  int fanout;
  int64_t released;
  const char* traffic;
  uint64_t total_bytes;
  uint64_t triples;
  uint64_t base_ots;
};

const PerRoleGolden kPerRoleGolden[] = {
    {0, 120, "2e24acb990774b500176e5964403295ed1fc7b38c4c7597ea0527256f2ba1044", 305478, 429, 72},
    {2, 120, "c35f985c944289cded6b6467e6c92c8735fd40d02c8be25978ee952139ef0c07", 405621, 501, 108},
};

TEST(PerRoleOtSupplyTest, ReproducesRetiredPerRolePathDigests) {
  constexpr int kN = 5;
  graph::Graph g = Ring(kN);
  core::VertexProgram program = MakeSumProgram(1, 2);
  for (const PerRoleGolden& want : kPerRoleGolden) {
    SCOPED_TRACE("fanout " + std::to_string(want.fanout));
    core::RuntimeConfig config = OtConfig(want.fanout);
    core::Runtime runtime(config, g, program, oracle::PerRoleOtSupplyMaker(config.seed));
    core::RunMetrics m;
    EXPECT_EQ(runtime.Run(RingStates(kN), &m), want.released);
    EXPECT_EQ(golden::HashTraffic(runtime.network()), want.traffic);
    EXPECT_EQ(runtime.network().TotalBytes(), want.total_bytes);
    EXPECT_EQ(m.triples_consumed, want.triples);
    EXPECT_EQ(m.base_ot_executions, want.base_ots);
  }
}

}  // namespace
}  // namespace dstress::mpc
