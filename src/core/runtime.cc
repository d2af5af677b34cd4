#include "src/core/runtime.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/ha/checkpoint.h"
#include "src/net/channel.h"
#include "src/ot/base_ot.h"
#include "src/transfer/batch_engine.h"

namespace dstress::core {

namespace {

// Session-id namespaces (top 4 bits of a 64-bit id select the phase; 2 is
// unused since computation steps run on kBatchSession).
constexpr net::SessionId kInitSession = 1ULL << 60;
constexpr net::SessionId kTransferSession = 3ULL << 60;
constexpr net::SessionId kAggGatherSession = 4ULL << 60;
constexpr net::SessionId kAggEvalSession = 5ULL << 60;
constexpr net::SessionId kAggCombineSession = 6ULL << 60;
// All lockstep batched GMW exchanges share one session: phases are
// separated by scheduler barriers (every message of a phase is consumed
// before the next phase sends), so the per-(from, to, session) FIFO order
// inside a phase is the only order that matters — and batch_eval.h fixes it
// by instance order_key.
constexpr net::SessionId kBatchSession = 7ULL << 60;

// Triple-source tags outside the vertex-id space.
constexpr uint64_t kAggTripleTag = 1ULL << 40;

// The (group, member) roles of `groups` blocks of k1 members, group-major:
// the role order every batched MPC phase schedules in.
std::vector<std::pair<int, int>> BlockRoles(int groups, int k1) {
  std::vector<std::pair<int, int>> roles;
  roles.reserve(static_cast<size_t>(groups) * k1);
  for (int g = 0; g < groups; g++) {
    for (int m = 0; m < k1; m++) {
      roles.emplace_back(g, m);
    }
  }
  return roles;
}

// Member m's batched instance of `plan` among `parties`, with the plan's
// triples drawn from `source` now; the caller fills in input_shares.
mpc::BatchInstance NewInstance(const circuit::EvalPlan& plan, const std::vector<int>& parties,
                               int m, mpc::TripleSource* source, uint64_t order_key) {
  mpc::BatchInstance item;
  item.plan = &plan;
  item.parties = parties;
  item.my_index = m;
  if (plan.stats().num_and > 0) {
    item.triples = source->Generate(plan.stats().num_and);
  }
  item.order_key = order_key;
  return item;
}

}  // namespace

std::string RunMetrics::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "total=%.2fs (init=%.2fs compute=%.2fs comm=%.2fs agg=%.2fs) "
                "traffic: total=%.2fMB avg/node=%.2fMB update_ands=%zu depth=%zu rounds=%zu "
                "agg_ands=%zu triples=%llu iters=%d",
                total_seconds, init.seconds, compute.seconds, communicate.seconds,
                aggregate.seconds, total_bytes / 1e6, avg_bytes_per_node / 1e6, update_and_gates,
                update_and_depth, update_rounds, aggregate_and_gates,
                static_cast<unsigned long long>(triples_consumed), iterations);
  std::string out = buf;
  if (ha_control_bytes > 0 || ha_resumes > 0 || ha_checkpoint_seconds > 0 ||
      resumed_from_iteration >= 0) {
    std::snprintf(buf, sizeof(buf), " ha: ctrl=%.2fMB resumes=%d ckpt=%.2fs resumed_from=%d",
                  ha_control_bytes / 1e6, ha_resumes, ha_checkpoint_seconds,
                  resumed_from_iteration);
    out += buf;
  }
  if (base_ot_executions > 0 || offline_seconds > 0) {
    std::snprintf(buf, sizeof(buf), " offline: gen=%.2fs wait=%.2fs base_ots=%llu",
                  offline_seconds, offline_wait_seconds,
                  static_cast<unsigned long long>(base_ot_executions));
    out += buf;
  }
  return out;
}

uint64_t RolePrgSeed(uint64_t run_seed, uint64_t role_tag) {
  return run_seed * 0x9e3779b97f4a7c15ULL + role_tag;
}

Runtime::Runtime(const RuntimeConfig& config, const graph::Graph& graph,
                 const VertexProgram& program, const TripleSupplyMaker& make_supply)
    : config_(config),
      graph_(graph),
      program_(program),
      update_circuit_(BuildUpdateCircuit(program)),
      update_plan_(update_circuit_) {
  DSTRESS_CHECK(graph.MaxDegree() <= program.degree_bound);
  // fanout 1 would make the aggregation-tree reduction never shrink.
  DSTRESS_CHECK(config.aggregation_fanout != 1);
  if (config.checkpoint_every > 0 || config.resume) {
    // Checkpoints only rewind dealer triple tapes (src/ha/checkpoint.h);
    // OT sessions hold cross-process key state that cannot be restored.
    DSTRESS_CHECK(!config.use_ot_triples);
    DSTRESS_CHECK(!config.checkpoint_path.empty());
  }

  transfer_params_.block_size = config.block_size;
  transfer_params_.message_bits = program.message_bits;
  transfer_params_.budget_alpha = config.transfer_budget_alpha;
  if (config.dlog_range > 0) {
    transfer_params_.dlog_range = config.dlog_range;
  } else {
    // Auto-size: a run performs about |E|·(k+1)·L·I bit-sum lookups; budget
    // a 1e-6 total failure probability across all of them.
    double draws = static_cast<double>(graph.num_edges()) * config.block_size *
                   program.message_bits * std::max(program.iterations, 1) *
                   std::max(config.ensemble_width, 1);
    transfer_params_.dlog_range =
        transfer_params_.RecommendedDlogRange(1e-6 / std::max(draws, 1.0));
  }

  SetupConfig setup_config;
  setup_config.num_nodes = graph.num_vertices();
  setup_config.block_size = config.block_size;
  setup_config.message_bits = program.message_bits;
  setup_config.seed = config.seed;
  setup_ = RunTrustedSetup(setup_config, graph);

  // The aggregation plan. Extra blocks come from one RolePrg(0x55, 0)
  // stream in level-major, group-minor order; the root is the aggregation
  // block. Triple tags: kAggTripleTag at the root, +1+(level<<20)+g below.
  const std::vector<AggregationLevel> shape =
      AggregationShape(graph.num_vertices(), config.aggregation_fanout);
  auto block_prg = RolePrg(0x55, 0);
  for (size_t l = 0; l < shape.size(); l++) {
    const bool root = l + 1 == shape.size();
    AggregationStep step;
    std::map<int, size_t> plan_of_size;
    for (int g = 0; g < shape[l].groups(); g++) {
      AggregationGroup group;
      group.parties = root ? setup_.aggregation_block : setup_.MakeExtraBlock(block_prg);
      group.begin = shape[l].GroupBegin(g);
      group.end = shape[l].GroupEnd(g);
      group.triple_tag =
          root ? kAggTripleTag : kAggTripleTag + 1 + (static_cast<uint64_t>(l) << 20) + g;
      const int size = group.end - group.begin;
      auto [it, fresh] = plan_of_size.emplace(size, step.plans.size());
      if (fresh) {
        // Vertex children contribute states, partial children are words.
        step.plans.emplace_back(l == 0 ? BuildAggregateCircuit(program, size, root)
                                       : BuildCombineCircuit(program, size, root));
      }
      group.plan = it->second;
      aggregation_ands_ += step.plans[group.plan].stats().num_and;
      step.groups.push_back(std::move(group));
    }
    aggregation_.push_back(std::move(step));
  }

  net_ = net::MakeTransport(
      config.transport.WithChannelHighWatermark(config.channel_high_watermark_bytes),
      graph.num_vertices());
  dlog_table_ = std::make_unique<crypto::DlogTable>(transfer_params_.dlog_range);

  threads_target_ = ResolveThreadBudget(config.max_parallel_tasks);
  pool_ = std::make_unique<WorkerPool>(threads_target_);

  if (config_.use_ot_triples) {
    if (make_supply) {
      triple_supply_ = make_supply(net_.get());
    } else {
      mpc::TripleFactoryOptions factory_options;
      factory_options.prg_seed = RolePrgSeed(config_.seed, 0x78);
      triple_supply_ = std::make_unique<mpc::TripleFactory>(net_.get(), factory_options);
    }
  }
}

Runtime::~Runtime() = default;

crypto::ChaCha20Prg Runtime::RolePrg(uint64_t role_tag, uint64_t instance) {
  return crypto::ChaCha20Prg::FromSeed(RolePrgSeed(config_.seed, role_tag), instance);
}

mpc::TripleSource* Runtime::TripleSourceFor(uint64_t tag, int member_index) {
  if (triple_supply_ != nullptr) {
    // OT triples: the offline waves enqueued per phase carry this role's
    // triples; the view is a local cursor over them.
    return triple_supply_->ViewFor(tag, member_index);
  }
  std::lock_guard<std::mutex> lock(triple_mu_);
  std::unique_ptr<mpc::DealerTripleSource>& source = triple_sources_[{tag, member_index}];
  if (source == nullptr) {
    source = std::make_unique<mpc::DealerTripleSource>(member_index, config_.block_size,
                                                       config_.seed ^ tag);
  }
  return source.get();
}

void Runtime::EnqueueComputeWave(int num_scenarios) {
  if (triple_supply_ == nullptr) {
    return;
  }
  const size_t num_and = update_circuit_.stats().num_and;
  if (num_and == 0) {
    return;  // the online phase draws no triples either (gmw.cc guards)
  }
  const int n = graph_.num_vertices();
  std::vector<mpc::TripleDemand> demands;
  demands.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    mpc::TripleDemand d;
    d.tag = static_cast<uint64_t>(v);
    d.parties = setup_.blocks[v];
    // Ensembles draw num_and once per scenario from the shared (v, m)
    // source (ComputePhase), so one wave covers all lanes.
    d.count = num_and * static_cast<size_t>(num_scenarios);
    demands.push_back(std::move(d));
  }
  triple_supply_->Enqueue(std::move(demands));
}

void Runtime::EnqueueAggregateWave(int num_scenarios) {
  if (triple_supply_ == nullptr) {
    return;
  }
  std::vector<mpc::TripleDemand> demands;
  for (const AggregationStep& step : aggregation_) {
    for (const AggregationGroup& group : step.groups) {
      const size_t num_and = step.plans[group.plan].stats().num_and;
      if (num_and == 0) {
        continue;
      }
      mpc::TripleDemand d;
      d.tag = group.triple_tag;
      d.parties = group.parties;
      // Lanes draw num_and each from the group's shared (tag, m) source.
      d.count = num_and * static_cast<size_t>(num_scenarios);
      demands.push_back(std::move(d));
    }
  }
  triple_supply_->Enqueue(std::move(demands));
}

uint64_t Runtime::ConfigFingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(graph_.num_vertices()));
  mix(static_cast<uint64_t>(graph_.num_edges()));
  mix(static_cast<uint64_t>(config_.block_size));
  mix(static_cast<uint64_t>(program_.state_bits));
  mix(static_cast<uint64_t>(program_.message_bits));
  mix(static_cast<uint64_t>(program_.degree_bound));
  mix(static_cast<uint64_t>(program_.iterations));
  mix(static_cast<uint64_t>(config_.aggregation_fanout));
  mix(config_.seed);
  return h;
}

void Runtime::SaveCheckpoint(int next_iteration, RunMetrics* m) {
  Stopwatch sw;
  ha::RuntimeSnapshot snapshot;
  snapshot.config_fingerprint = ConfigFingerprint();
  snapshot.next_iteration = next_iteration;
  snapshot.state_shares = state_shares_;
  snapshot.inmsg_shares = inmsg_shares_;
  snapshot.outmsg_shares = outmsg_shares_;
  {
    std::lock_guard<std::mutex> lock(triple_mu_);
    for (const auto& [key, source] : triple_sources_) {
      snapshot.triple_cursors.push_back({key.first, key.second, source->calls()});
    }
  }
  std::string error;
  if (!ha::SaveSnapshot(config_.checkpoint_path, snapshot, &error)) {
    std::fprintf(stderr, "checkpoint: %s\n", error.c_str());
    DSTRESS_CHECK(false);
  }
  m->ha_checkpoint_seconds += sw.ElapsedSeconds();
}

int Runtime::RestoreCheckpoint() {
  ha::RuntimeSnapshot snapshot;
  std::string error;
  if (!ha::LoadSnapshot(config_.checkpoint_path, &snapshot, &error)) {
    std::fprintf(stderr, "resume: %s\n", error.c_str());
    DSTRESS_CHECK(false);
  }
  if (snapshot.config_fingerprint != ConfigFingerprint()) {
    std::fprintf(stderr, "resume: checkpoint %s is from a different run configuration\n",
                 config_.checkpoint_path.c_str());
    DSTRESS_CHECK(false);
  }
  state_shares_ = std::move(snapshot.state_shares);
  inmsg_shares_ = std::move(snapshot.inmsg_shares);
  outmsg_shares_ = std::move(snapshot.outmsg_shares);
  DSTRESS_CHECK(static_cast<int>(state_shares_.size()) == graph_.num_vertices());
  {
    // Fresh dealer sources fast-forwarded to the saved tape positions; any
    // source the snapshot does not name starts at zero calls, exactly as
    // the uninterrupted run would first touch it.
    std::lock_guard<std::mutex> lock(triple_mu_);
    for (const auto& cursor : snapshot.triple_cursors) {
      auto source = std::make_unique<mpc::DealerTripleSource>(
          cursor.member, config_.block_size, config_.seed ^ cursor.tag);
      source->FastForward(cursor.calls);
      triple_sources_[{cursor.tag, cursor.member}] = std::move(source);
    }
  }
  DSTRESS_CHECK(snapshot.next_iteration >= 0 && snapshot.next_iteration <= program_.iterations);
  return snapshot.next_iteration;
}

void Runtime::InitPhase(const std::vector<mpc::PackedShareMatrix>& lanes) {
  const int n = graph_.num_vertices();
  const int k1 = config_.block_size;
  const int d = program_.degree_bound;
  const int num_scenarios = static_cast<int>(lanes.size());
  const size_t total = static_cast<size_t>(num_scenarios) * n;

  state_shares_.assign(total, std::vector<mpc::BitVector>(k1));
  inmsg_shares_.assign(
      total, std::vector<std::vector<mpc::BitVector>>(
                 d, std::vector<mpc::BitVector>(k1, mpc::BitVector(program_.message_bits, 0))));
  outmsg_shares_.assign(
      total, std::vector<std::vector<mpc::BitVector>>(
                 d, std::vector<mpc::BitVector>(k1, mpc::BitVector(program_.message_bits, 0))));

  // Each node splits its initial state and distributes the shares to its
  // block. Sends never block, so a simple send-all / receive-all sequence
  // is deadlock-free and still meters every byte.
  for (int s = 0; s < num_scenarios; s++) {
    const uint64_t salt = static_cast<uint64_t>(s) << 40;
    for (int v = 0; v < n; v++) {
      auto prg = RolePrg(0x11, static_cast<uint64_t>(s) * n + static_cast<uint64_t>(v));
      auto shares = mpc::ShareBits(lanes[s].Instance(v), k1, prg);
      for (int m = 0; m < k1; m++) {
        net_->Send(v, setup_.blocks[v][m], mpc::PackBits(shares[m]),
                   kInitSession | salt | static_cast<uint64_t>(v));
      }
    }
  }
  for (int s = 0; s < num_scenarios; s++) {
    const uint64_t salt = static_cast<uint64_t>(s) << 40;
    for (int v = 0; v < n; v++) {
      for (int m = 0; m < k1; m++) {
        Bytes raw =
            net_->Recv(setup_.blocks[v][m], v, kInitSession | salt | static_cast<uint64_t>(v));
        state_shares_[static_cast<size_t>(s) * n + v][m] =
            mpc::UnpackBits(raw, static_cast<size_t>(program_.state_bits));
      }
    }
  }
}

mpc::BitVector Runtime::AssembleUpdateInput(int v, int m) const {
  mpc::BitVector input = state_shares_[v][m];
  input.reserve(update_circuit_.num_inputs());
  for (int slot = 0; slot < program_.degree_bound; slot++) {
    mpc::AppendBits(&input, inmsg_shares_[v][slot][m]);
  }
  return input;
}

void Runtime::ScatterUpdateOutput(int v, int m, const mpc::BitVector& output) {
  // Split: new state, then D outgoing message words.
  state_shares_[v][m].assign(output.begin(), output.begin() + program_.state_bits);
  size_t cursor = static_cast<size_t>(program_.state_bits);
  for (int slot = 0; slot < program_.degree_bound; slot++) {
    outmsg_shares_[v][slot][m].assign(output.begin() + cursor,
                                      output.begin() + cursor + program_.message_bits);
    cursor += program_.message_bits;
  }
}

// Compute-phase stats: triples total plus the observed exchange-round
// count (the rounds max is only meaningful for the update circuit — the
// aggregation stages account their triples directly).
void Runtime::AccumulateBatchStats(const mpc::BatchStats& stats) {
  triples_consumed_.fetch_add(stats.triples_consumed, std::memory_order_relaxed);
  size_t prev = compute_rounds_.load(std::memory_order_relaxed);
  while (stats.rounds > prev &&
         !compute_rounds_.compare_exchange_weak(prev, stats.rounds, std::memory_order_relaxed)) {
  }
}

void Runtime::RunBatchedPhase(net::SessionId session,
                              const std::vector<std::pair<int, int>>& roles,
                              const std::function<mpc::BatchInstance(int, int)>& make_item,
                              const std::function<void(size_t, const mpc::BitVector&)>& sink,
                              bool count_rounds) {
  std::vector<mpc::BatchInstance> items;
  items.reserve(roles.size());
  for (auto [g, m] : roles) {
    items.push_back(make_item(g, m));
  }
  mpc::BatchStats stats;
  std::vector<mpc::BitVector> outputs =
      mpc::EvalBatchInstances(net_.get(), session, std::move(items), &stats);
  if (count_rounds) {
    AccumulateBatchStats(stats);
  } else {
    triples_consumed_.fetch_add(stats.triples_consumed, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < roles.size(); i++) {
    sink(i, outputs[i]);
  }
}

// The step's (lane, member) roles advance through the update circuit's
// AND layers in lockstep over bitsliced shares (batch_eval.h): each
// instance sends exactly what a lone GmwParty would — rounds still = AND
// depth — but the per-layer synchronization is paid once per scheduler
// instead of once per role, and the free gates of up to 64 roles cost one
// word op.
void Runtime::ComputePhase(int num_scenarios) {
  const int n = graph_.num_vertices();
  const std::vector<std::pair<int, int>> roles = BlockRoles(num_scenarios * n, config_.block_size);
  RunBatchedPhase(
      kBatchSession, roles,
      [&](int g, int m) {
        // Triple sources are shared per (vertex, member) across scenarios —
        // consumed in ascending scenario order at every member, and triple
        // randomness cancels out of opened results anyway.
        const int v = g % n;
        mpc::BatchInstance item =
            NewInstance(update_plan_, setup_.blocks[v], m,
                        TripleSourceFor(static_cast<uint64_t>(v), m),
                        static_cast<uint64_t>(g));
        item.input_shares = AssembleUpdateInput(g, m);
        return item;
      },
      [&](size_t i, const mpc::BitVector& output) {
        ScatterUpdateOutput(roles[i].first, roles[i].second, output);
      },
      /*count_rounds=*/true);
}

// The step's per-edge role work runs through the wire-level batch engine
// (transfer/batch_engine.h) in four barrier-separated sub-phases —
// senders, source endpoints, dest endpoints, receivers — so every Recv is
// satisfied by a Send from an earlier sub-phase and no task ever parks on
// a peer. Messages, sessions and byte counts are those of the per-role
// §3.5 protocol (transfer::Run*Member / Run*Endpoint).
void Runtime::CommunicatePhase(int scenario) {
  int k1 = config_.block_size;
  const int n = graph_.num_vertices();
  // Ensemble lane (scenario > 0): shares live at flat index s*n + v, and
  // sessions / PRG instances are salted per scenario so lanes stay
  // independent streams. scenario == 0 reduces to the solo schedule
  // bit-for-bit (offset 0, salt 0, same PRG instances).
  const size_t vertex_offset = static_cast<size_t>(scenario) * n;
  const uint64_t session_salt = static_cast<uint64_t>(scenario) << 40;
  const size_t num_edges = static_cast<size_t>(graph_.num_edges());
  const uint64_t prg_base = static_cast<uint64_t>(scenario) * num_edges;
  if (noise_cache_ == nullptr) {
    noise_cache_ = std::make_unique<transfer::EvenNoiseCache>(dlog_table_->range());
  }

  // Sub-phase 1: all sender members of every edge, one batched encrypt per
  // edge sharing the certificate's fixed-base tables.
  pool_->RunGrouped(num_edges, 1, [&](size_t e, size_t) {
    const int i = graph_.src(e);
    const int j = graph_.dst(e);
    net::SessionId session = kTransferSession | session_salt | e;
    const size_t out_slot = e - graph_.out_start(i);
    std::vector<mpc::BitVector> shares;
    std::vector<crypto::ChaCha20Prg> prgs;
    shares.reserve(k1);
    prgs.reserve(k1);
    for (int x = 0; x < k1; x++) {
      shares.push_back(outmsg_shares_[vertex_offset + i][out_slot][x]);
      prgs.push_back(RolePrg(0x22, ((prg_base + e) << 8) | static_cast<uint64_t>(x)));
    }
    std::vector<Bytes> bundles =
        transfer::EncryptSubsharesWire(shares, setup_.edge_certificates.at({i, j}), prgs);
    for (int x = 0; x < k1; x++) {
      net_->Send(setup_.blocks[i][x], i, std::move(bundles[x]),
                 transfer::TransferSubSession(session, 0));
    }
  });

  // Sub-phase 2: node i aggregates + masks every edge's bundles.
  pool_->RunGrouped(num_edges, 1, [&](size_t e, size_t) {
    const int i = graph_.src(e);
    const int j = graph_.dst(e);
    net::SessionId session = kTransferSession | session_salt | e;
    std::vector<Bytes> bundles;
    bundles.reserve(k1);
    for (int member : setup_.blocks[i]) {
      bundles.push_back(net_->Recv(i, member, transfer::TransferSubSession(session, 0)));
    }
    auto prg = RolePrg(0x33, prg_base + e);
    Bytes agg = transfer::AggregateSubsharesWire(bundles, transfer_params_, prg, *noise_cache_);
    net_->Send(i, j, std::move(agg), transfer::TransferSubSession(session, 1));
  });

  // Sub-phase 3: node j adjusts and fans the columns out (same Channel
  // burst as RunDestEndpoint, so per-node traffic accounting matches).
  pool_->RunGrouped(num_edges, 1, [&](size_t e, size_t) {
    const int i = graph_.src(e);
    const int j = graph_.dst(e);
    net::SessionId session = kTransferSession | session_salt | e;
    const int in_slot = graph_.in_slot(e);
    Bytes agg = net_->Recv(j, i, transfer::TransferSubSession(session, 1));
    std::vector<Bytes> columns =
        transfer::AdjustAndSplitWire(agg, setup_.neighbor_keys[j][in_slot], transfer_params_);
    std::vector<net::NodeId> members(setup_.blocks[j].begin(), setup_.blocks[j].end());
    net::Channel fanout(net_.get(), j, members, transfer::TransferSubSession(session, 2));
    for (size_t y = 0; y < members.size(); y++) {
      fanout.Send(members[y], std::move(columns[y]));
    }
    fanout.Flush();
  });

  // Sub-phase 4: all receiver members of every edge, one batched recovery
  // per edge sharing the c1 fixed-base table.
  pool_->RunGrouped(num_edges, 1, [&](size_t e, size_t) {
    const int j = graph_.dst(e);
    net::SessionId session = kTransferSession | session_salt | e;
    const int in_slot = graph_.in_slot(e);
    std::vector<Bytes> columns;
    std::vector<const transfer::MemberKeys*> keys;
    columns.reserve(k1);
    keys.reserve(k1);
    for (int y = 0; y < k1; y++) {
      int member_node = setup_.blocks[j][y];
      columns.push_back(
          net_->Recv(member_node, j, transfer::TransferSubSession(session, 2)));
      keys.push_back(&setup_.node_keys[member_node]);
    }
    std::vector<mpc::BitVector> shares;
    bool ok = transfer::RecoverSharesWire(columns, keys, *dlog_table_, transfer_params_, &shares);
    // Same contract as RunReceiverMember: a lookup miss is the Appendix B
    // P_fail event, negligible by parameter choice and fatal if it fires.
    DSTRESS_CHECK(ok);
    for (int y = 0; y < k1; y++) {
      inmsg_shares_[vertex_offset + j][in_slot][y] = std::move(shares[y]);
    }
  });
}

// --- the lane loop (RunLanes) -----------------------------------------------
//
// S scenarios advance in lockstep as lanes of the batched planes: role
// (s, v) lives at flat share index s*n + v, compute phases batch all S*n
// vertex instances into one EvalBatchInstances pass, transfers run the
// scenario-salted CommunicatePhase per lane, and AggregatePhase runs every
// lane through the one aggregation plan. Lane s's released figure and
// traffic equal a solo run of its states: init-share and transfer
// randomness cancel out of opened values, and every lane draws the root
// noise from the same per-member streams a solo run uses.

std::vector<int64_t> Runtime::AggregatePhase(int num_scenarios) {
  const int n = graph_.num_vertices();
  const int k1 = config_.block_size;
  // The previous level's output shares, [(s * groups + g) * k1 + m].
  std::vector<mpc::BitVector> partials;
  for (size_t l = 0; l < aggregation_.size(); l++) {
    const AggregationStep& step = aggregation_[l];
    const bool root = l + 1 == aggregation_.size();
    const int num_groups = static_cast<int>(step.groups.size());
    const int num_children = step.groups.back().end;
    const size_t child_bits =
        static_cast<size_t>(l == 0 ? program_.state_bits : program_.aggregate_bits);
    const net::SessionId gather =
        l == 0 ? kAggGatherSession : kAggCombineSession | (static_cast<uint64_t>(l) << 32);
    // Child c of lane s: member m's node and its share.
    auto child_node = [&](int c, int m) {
      return l == 0 ? setup_.blocks[c][m] : aggregation_[l - 1].groups[c].parties[m];
    };
    auto child_share = [&](int s, int c, int m) -> const mpc::BitVector& {
      return l == 0 ? state_shares_[static_cast<size_t>(s) * n + c][m]
                    : partials[(static_cast<size_t>(s) * num_children + c) * k1 + m];
    };

    // Gather: member m of every child forwards its share to member m of the
    // child's group.
    for (int s = 0; s < num_scenarios; s++) {
      const uint64_t salt = static_cast<uint64_t>(s) << 40;
      for (const AggregationGroup& group : step.groups) {
        for (int c = group.begin; c < group.end; c++) {
          for (int m = 0; m < k1; m++) {
            net_->Send(child_node(c, m), group.parties[m], mpc::PackBits(child_share(s, c, m)),
                       gather | salt | static_cast<uint64_t>(c));
          }
        }
      }
    }

    const std::vector<std::pair<int, int>> roles = BlockRoles(num_scenarios * num_groups, k1);
    std::vector<mpc::BitVector> outputs(roles.size());
    RunBatchedPhase(
        kAggEvalSession, roles,
        [&](int sg, int m) {
          const int s = sg / num_groups;
          const uint64_t salt = static_cast<uint64_t>(s) << 40;
          const AggregationGroup& group = step.groups[sg % num_groups];
          mpc::BatchInstance item =
              NewInstance(step.plans[group.plan], group.parties, m,
                          TripleSourceFor(group.triple_tag, m), static_cast<uint64_t>(sg));
          for (int c = group.begin; c < group.end; c++) {
            Bytes raw = net_->Recv(group.parties[m], child_node(c, m),
                                   gather | salt | static_cast<uint64_t>(c));
            mpc::AppendBits(&item.input_shares, mpc::UnpackBits(raw, child_bits));
          }
          if (root) {
            // Noise randomness: each member feeds its own uniform bits as
            // its input shares, from a fresh per-lane copy of the stream a
            // solo run draws ((kNoiseRoleTag, m) flat, (0x66, m) at a tree
            // root).
            auto prg = RolePrg(config_.aggregation_fanout == 0 ? kNoiseRoleTag : 0x66,
                               static_cast<uint64_t>(m));
            const size_t noise_bits = dp::NoiseInputBits(program_.output_noise);
            for (size_t b = 0; b < noise_bits; b++) {
              item.input_shares.push_back(prg.NextBit() ? 1 : 0);
            }
          }
          return item;
        },
        [&](size_t i, const mpc::BitVector& output) { outputs[i] = output; },
        /*count_rounds=*/false);
    partials = std::move(outputs);
  }

  // Open: every root member sends its output share to every other member
  // in GmwParty::Open's payload (the bits as little-endian 64-bit words),
  // then XORs in what it receives.
  const std::vector<int>& root = setup_.aggregation_block;
  const size_t out_bits = static_cast<size_t>(program_.aggregate_bits);
  const size_t payload_bytes = 8 * ((out_bits + 63) / 64);
  for (int s = 0; s < num_scenarios; s++) {
    for (int m = 0; m < k1; m++) {
      Bytes payload = mpc::PackBits(partials[static_cast<size_t>(s) * k1 + m]);
      payload.resize(payload_bytes, 0);
      for (int m2 = 0; m2 < k1; m2++) {
        if (m2 != m) {
          net_->Send(root[m], root[m2], payload, kAggEvalSession);
        }
      }
    }
  }
  std::vector<int64_t> results(num_scenarios, 0);
  for (int s = 0; s < num_scenarios; s++) {
    for (int m = 0; m < k1; m++) {
      mpc::BitVector opened = partials[static_cast<size_t>(s) * k1 + m];
      for (int m2 = 0; m2 < k1; m2++) {
        if (m2 == m) {
          continue;
        }
        Bytes raw = net_->Recv(root[m], root[m2], kAggEvalSession);
        DSTRESS_CHECK(raw.size() == payload_bytes);
        raw.resize((out_bits + 7) / 8);
        const mpc::BitVector other = mpc::UnpackBits(raw, out_bits);
        for (size_t b = 0; b < out_bits; b++) {
          opened[b] ^= other[b];
        }
      }
      if (m == 0) {
        results[s] = mpc::BitsToSignedWord(opened, 0, program_.aggregate_bits);
      }
    }
  }
  return results;
}

int64_t Runtime::Run(const mpc::PackedShareMatrix& initial_states, RunMetrics* metrics) {
  return RunLanes({initial_states}, metrics)[0];
}

std::vector<int64_t> Runtime::RunLanes(const std::vector<mpc::PackedShareMatrix>& lanes,
                                       RunMetrics* metrics) {
  const int num_scenarios = static_cast<int>(lanes.size());
  DSTRESS_CHECK(num_scenarios > 0);
  for (const mpc::PackedShareMatrix& states : lanes) {
    DSTRESS_CHECK(states.rows() == static_cast<size_t>(program_.state_bits));
    DSTRESS_CHECK(states.instances() == static_cast<size_t>(graph_.num_vertices()));
  }
  // A solo run may checkpoint, resume and aggregate through a tree; S > 1
  // is never checkpointed and aggregates flat.
  const bool solo = num_scenarios == 1;
  DSTRESS_CHECK(solo || config_.aggregation_fanout == 0);

  RunMetrics local;
  RunMetrics* m = metrics != nullptr ? metrics : &local;
  *m = RunMetrics{};
  m->iterations = program_.iterations;
  m->update_and_gates = update_circuit_.stats().num_and;
  m->update_and_depth = update_circuit_.stats().and_depth;
  triples_consumed_.store(0, std::memory_order_relaxed);
  compute_rounds_.store(0, std::memory_order_relaxed);

  Stopwatch total;
  uint64_t bytes_before = net_->TotalBytes();
  uint64_t base_ots_before = ot::BaseOtExecutionCount();
  mpc::TripleFactoryStats factory_before;
  if (triple_supply_ != nullptr) {
    factory_before = triple_supply_->stats();
  }

  // Offline wave for the first computation step (all S lanes at once); the
  // per-iteration enqueues below keep the factory one phase ahead of the
  // online plane.
  EnqueueComputeWave(num_scenarios);

  Stopwatch phase;
  int start_iteration = 0;
  if (solo && config_.resume) {
    // Rejoin at the checkpointed iteration barrier: the share arrays and
    // dealer tapes replace the init phase (docs/ha.md).
    start_iteration = RestoreCheckpoint();
    m->resumed_from_iteration = start_iteration;
    m->init.seconds = phase.ElapsedSeconds();
  } else {
    InitPhase(lanes);
    m->init.seconds = phase.ElapsedSeconds();
    m->init.bytes = net_->TotalBytes() - bytes_before;
  }

  // Times one phase into `pm`. Bytes count from the end of the previous
  // phase, so traffic between phases lands in the next one.
  uint64_t phase_bytes = net_->TotalBytes();
  auto run_phase = [&](PhaseMetrics* pm, const std::function<void()>& step) {
    Stopwatch phase;
    step();
    pm->seconds += phase.ElapsedSeconds();
    pm->bytes += net_->TotalBytes() - phase_bytes;
    phase_bytes = net_->TotalBytes();
  };
  for (int iter = start_iteration; iter < program_.iterations; iter++) {
    // Prefetch the NEXT computation step's triples (the loop's next
    // iteration, or the final step after it) while this iteration's online
    // phases evaluate.
    EnqueueComputeWave(num_scenarios);
    run_phase(&m->compute, [&] { ComputePhase(num_scenarios); });
    run_phase(&m->communicate, [&] {
      for (int s = 0; s < num_scenarios; s++) {
        CommunicatePhase(s);
      }
    });
    if (solo && config_.checkpoint_every > 0 && (iter + 1) % config_.checkpoint_every == 0) {
      SaveCheckpoint(iter + 1, m);
    }
  }
  // Final computation step (§3.6). Its triples were enqueued by the last
  // loop iteration (or the pre-loop enqueue when iterations == 0); the
  // aggregation wave overlaps this step.
  EnqueueAggregateWave(num_scenarios);
  run_phase(&m->compute, [&] { ComputePhase(num_scenarios); });
  std::vector<int64_t> results;
  run_phase(&m->aggregate, [&] { results = AggregatePhase(num_scenarios); });
  m->aggregate_and_gates = aggregation_ands_ * static_cast<size_t>(num_scenarios);

  m->total_seconds = total.ElapsedSeconds();
  m->total_bytes = net_->TotalBytes() - bytes_before;
  m->avg_bytes_per_node = static_cast<double>(m->total_bytes) / graph_.num_vertices();
  m->update_rounds = compute_rounds_.load(std::memory_order_relaxed);
  m->triples_consumed = triples_consumed_.load(std::memory_order_relaxed);
  m->ha_control_bytes = net_->HaControlBytes();
  m->ha_resumes = net_->HaResumeCount();
  m->base_ot_executions = ot::BaseOtExecutionCount() - base_ots_before;
  if (triple_supply_ != nullptr) {
    mpc::TripleFactoryStats fs = triple_supply_->stats();
    m->offline_seconds = fs.offline_seconds - factory_before.offline_seconds;
    m->offline_wait_seconds = fs.online_wait_seconds - factory_before.online_wait_seconds;
  }
  return results;
}

}  // namespace dstress::core
