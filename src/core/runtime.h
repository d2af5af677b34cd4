// The DStress execution engine (paper §3.3 / §3.6).
//
// The engine is the middle of a three-layer architecture:
//
//   transport (src/net)   — net::Transport carries serialized protocol
//                           messages over FIFO (from, to, session) channels
//                           and meters every byte; backends are selected by
//                           name via net::TransportSpec ("sim" in-process,
//                           "tcp" one process per bank — see
//                           RuntimeConfig::transport). net::Channel
//                           coalesces a role's per-round message bursts.
//   protocol  (src/mpc, src/ot, src/transfer)
//                         — GMW circuit evaluation, OT-extension triples,
//                           and the §3.5 share-transfer scheme, all written
//                           against net::Transport* so backends swap freely.
//   scheduler (this file + worker_pool.h)
//                         — decides which protocol roles run when, on a
//                           persistent core::WorkerPool.
//
// The runtime runs a vertex program over a distributed set of nodes, one
// per vertex, where every protocol role executes as a pool task and
// communicates exclusively through transport messages:
//
//  * Initialization — each node XOR-splits its vertex's initial state into
//    k+1 shares and distributes them to its block; message slots start as
//    shares of the no-op message ⊥ (all zeros).
//  * Computation step — every block evaluates the update circuit in GMW;
//    inputs and outputs stay shared, no member ever sees a value.
//  * Communication step — every directed edge runs the §3.5 transfer
//    protocol, moving each message's sharing from the sender's block to the
//    receiver's block through the two edge endpoints.
//  * Aggregation + noising — one level plan, built once per Runtime from
//    AggregationShape (vertex_program.h), run by one executor for every
//    lane count. Each level's groups receive their children's shares
//    (member-index aligned, so collusion resistance carries over) and sum
//    them in GMW; the root group, played by the aggregation block, adds
//    the in-MPC discrete-Laplace sample and opens only the noised total.
//    A flat run (aggregation_fanout == 0) is a root-only plan over every
//    vertex. With aggregation_fanout > 0 it is §3.6's scalable tree: leaf
//    blocks sum groups of `fanout` states, intermediate blocks combine up
//    to `fanout` partials per level (all sums stay shared), and only the
//    root adds noise and opens.
//
// Scheduling: a computation step, like each aggregation level, is one
// lockstep batched GMW evaluation over all of its (block, member) roles; a
// communication step runs four barrier-separated sub-phases of per-edge
// batched transfer tasks. Tasks go to a persistent worker pool that admits
// whole groups only while every subtask of the admitted set can hold a
// thread concurrently; sends never block, so every admitted protocol
// instance eventually progresses — see worker_pool.h for the full
// invariant. The pool's threads persist across phases and runs, so a run
// pays thread creation once, not once per batch.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/circuit/eval_plan.h"
#include "src/core/setup.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/graph/graph.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/packed.h"
#include "src/mpc/triple_factory.h"
#include "src/net/transport.h"
#include "src/net/transport_spec.h"
#include "src/transfer/transfer.h"

namespace dstress::transfer {
class EvenNoiseCache;  // batch_engine.h; held by unique_ptr only
}

namespace dstress::core {

struct RuntimeConfig {
  int block_size = 8;  // k+1
  // Transfer-protocol noise and lookup parameters (production-scale alpha
  // needs the paper's 8 GB lookup table; defaults are test-scale).
  double transfer_budget_alpha = 0.9;
  // Half-range of the ElGamal discrete-log table. 0 = size automatically so
  // the Appendix B lookup-failure probability is negligible per run.
  int64_t dlog_range = 0;
  // false: dealer triples (simulated offline phase, fast). true: IKNP
  // OT-extension triples (the real protocol) from a triple supply — by
  // default the node-pair triple factory (src/mpc/triple_factory.h): one
  // IKNP session pair per node pair, bulk extends sized to each phase's
  // aggregate demand, and triple generation for iteration i+1 prefetched
  // while iteration i evaluates.
  bool use_ot_triples = false;
  // 0 = single aggregation block; >0 = aggregation tree with this group
  // size per level (depth grows as log_fanout(N)).
  int aggregation_fanout = 0;
  // Target number of concurrently live role threads (0 = auto). The worker
  // pool grows past this if a single protocol group needs more.
  int max_parallel_tasks = 0;
  // Per-channel queued-byte cap forwarded to the transport
  // (TransportOptions::channel_high_watermark_bytes); 0 = unbounded. A
  // batched round's openings for every instance two nodes share coalesce
  // onto one channel — size the cap for that sum, not for a single
  // vertex's burst (see TransportOptions).
  size_t channel_high_watermark_bytes = 0;
  // Which wire carries the run (resolved via net::MakeTransport; "sim" or
  // "tcp" built in). The runtime never names a concrete transport type.
  net::TransportSpec transport;
  // Largest lane count Runtime::RunLanes will be called with (1 = solo
  // runs only). Only scales the auto-sized dlog-table failure budget:
  // an ensemble multiplies the transfer draws per run by its width.
  int ensemble_width = 1;
  uint64_t seed = 1;
  // --- HA checkpointing (src/ha/checkpoint.h, docs/ha.md) -----------------
  // >0: Run() snapshots its phase state to checkpoint_path after every
  // `checkpoint_every`-th communication step (an iteration barrier).
  // Requires use_ot_triples == false (OT sessions hold unrewindable
  // cross-process state) and applies to solo (one-lane) runs only.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // Resume Run() from checkpoint_path instead of starting at iteration 0:
  // restores the share arrays and dealer-triple tape positions and skips
  // the init phase. The released figure is bit-identical to an
  // uninterrupted run (the config fingerprint guards against resuming a
  // different run shape).
  bool resume = false;
};

// Derives the PRG seed for a protocol role from the run seed. Shared with
// the engine's cleartext backend, which must draw the aggregation-noise
// bits (role tag kNoiseRoleTag) from the same stream family the secure
// runtime uses — keep any change to this mixing in sync with nothing else:
// this function is the single definition.
constexpr uint64_t kNoiseRoleTag = 0x44;
uint64_t RolePrgSeed(uint64_t run_seed, uint64_t role_tag);

struct PhaseMetrics {
  double seconds = 0;
  uint64_t bytes = 0;
};

struct RunMetrics {
  PhaseMetrics init;
  PhaseMetrics compute;      // summed over all computation steps
  PhaseMetrics communicate;  // summed over all communication steps
  PhaseMetrics aggregate;
  double total_seconds = 0;
  uint64_t total_bytes = 0;
  double avg_bytes_per_node = 0;
  size_t update_and_gates = 0;
  // Secure runs: the AND gates of every group of every aggregation level
  // (the root alone when flat), times the lane count. The cleartext plane
  // counts only its contribution and noise circuits.
  size_t aggregate_and_gates = 0;
  // Circuit-stats surface (run_spec.h FormatReport): the update circuit's
  // AND depth is the number of GMW communication rounds one computation
  // step must take; update_rounds is the exchange-round count the MPC layer
  // actually reported for a step (engine_test asserts they are equal), and
  // triples_consumed totals the Beaver triples drawn across all parties and
  // phases of the run. Cleartext runs report the depth but no rounds or
  // triples (there is no MPC).
  size_t update_and_depth = 0;
  size_t update_rounds = 0;
  uint64_t triples_consumed = 0;
  int iterations = 0;
  // HA surface (docs/ha.md), all zero when the HA layer is off: transport
  // fault-tolerance traffic (heartbeats, resume handshakes, replays —
  // excluded from the byte totals above), completed session resumes, wall
  // time spent writing checkpoints, and the iteration a resumed run
  // restarted from (-1 = not resumed). ToString appends them only when HA
  // was active, so non-HA reports are unchanged.
  uint64_t ha_control_bytes = 0;
  int ha_resumes = 0;
  double ha_checkpoint_seconds = 0;
  int resumed_from_iteration = -1;
  // Offline-phase surface (docs/offline-phase.md), all zero for dealer
  // runs: wall time the triple supply spent generating waves (overlaps
  // the phase timings above — the pipelined factory runs while the online
  // phase evaluates), online time spent blocked on the triple pool,
  // and base-OT protocol executions during the run (both endpoints count,
  // so one node-pair setup contributes 4). ToString appends them only for
  // OT runs, so dealer reports are unchanged.
  double offline_seconds = 0;
  double offline_wait_seconds = 0;
  uint64_t base_ot_executions = 0;

  std::string ToString() const;
};

class Runtime {
 public:
  // Builds the OT triple supply over the runtime's transport (which the
  // runtime creates, hence a maker rather than a supply). Empty = the
  // pipelined node-pair TripleFactory; tests and benches pass the per-role
  // baseline (oracle/per_role_ot_supply.h) here. Used only with
  // use_ot_triples.
  using TripleSupplyMaker =
      std::function<std::unique_ptr<mpc::TripleSupply>(net::Transport*)>;

  Runtime(const RuntimeConfig& config, const graph::Graph& graph, const VertexProgram& program,
          const TripleSupplyMaker& make_supply = nullptr);
  ~Runtime();

  // Executes the program on S lanes of initial states (lanes[s] is a
  // state_bits x n matrix whose column v is scenario s's state for vertex
  // v, held by that vertex's node) in one lockstep pass — every batched
  // phase carries all S lanes as extra instances of the same
  // EvalBatchInstances / per-edge transfer batches — and opens S noised
  // aggregates. Lane s's figure is identical to a one-lane run of
  // lanes[s]: per-lane PRG roles (init shares, transfer masks, aggregation
  // noise) reproduce the solo streams. A solo run is S = 1, the only width
  // that checkpoints, resumes and may aggregate through a tree; S > 1
  // requires aggregation_fanout == 0.
  // Reusable: each call is an independent run (state is re-initialized),
  // but OT/triple sessions persist.
  std::vector<int64_t> RunLanes(const std::vector<mpc::PackedShareMatrix>& lanes,
                                RunMetrics* metrics);

  // The solo run: RunLanes over one lane, returning its figure.
  int64_t Run(const mpc::PackedShareMatrix& initial_states, RunMetrics* metrics);

  const net::Transport& network() const { return *net_; }
  // Attaches a NetworkObserver (e.g. an audit::TranscriptRecorder; nullptr
  // detaches); see src/audit. Must happen before the first Run: the
  // transport aborts on an attach after worker threads have started
  // exchanging traffic.
  void AttachObserver(net::NetworkObserver* observer) { net_->SetObserver(observer); }
  const circuit::Circuit& update_circuit() const { return update_circuit_; }
  const TrustedSetup& setup() const { return setup_; }

 private:
  // Share distribution for S >= 1 scenario lanes: the share arrays are
  // sized S*n and role (s, v) lives at flat index s*n + v, so the
  // Assemble/Scatter helpers work unchanged on flat indices. A solo run is
  // the S == 1 case.
  void InitPhase(const std::vector<mpc::PackedShareMatrix>& lanes);
  // Computation step: every (lane, member) role of the S = num_scenarios
  // lanes advances through the update circuit in one lockstep batched
  // evaluation (docs/packed-eval.md).
  void ComputePhase(int num_scenarios);
  // Communication step: four barrier-separated sub-phases of per-edge
  // batched transfer crypto (docs/transfer-crypto.md). `scenario` selects
  // the ensemble lane (0 = the solo run).
  void CommunicatePhase(int scenario);
  // Aggregation step: runs the aggregation_ plan level by level for all S
  // = num_scenarios lanes — per level the gather sends, then one batched
  // evaluation over every (lane, group, member) role — and opens the S
  // noised figures among the aggregation block.
  std::vector<int64_t> AggregatePhase(int num_scenarios);

  // This party's share of one update-circuit input vector (state + incoming
  // message slots) and the inverse scatter of an output vector.
  mpc::BitVector AssembleUpdateInput(int v, int m) const;
  void ScatterUpdateOutput(int v, int m, const mpc::BitVector& output);
  void AccumulateBatchStats(const mpc::BatchStats& stats);

  // Shared scheduler for a batched MPC phase over `roles` = (group,
  // member) pairs: the whole phase is one lockstep EvalBatchInstances call
  // on the calling thread, exchanging openings on `session`. Nothing ever
  // parks: each round's receives are satisfied by sends earlier in the
  // same round, and triple sources are local (dealer tapes, or supply
  // views whose OT traffic already ran in the phase's offline wave).
  // make_item(g, m) builds the instance (triples drawn inside, in role
  // order), sink(i, output) stores role i's output shares.
  //
  // Scheduling tradeoff (see the ROADMAP open item on multi-core policy):
  // one scheduler trades cross-block thread parallelism for maximal
  // slicing width and zero blocking — the right trade when per-layer
  // synchronization dominates.
  void RunBatchedPhase(net::SessionId session, const std::vector<std::pair<int, int>>& roles,
                       const std::function<mpc::BatchInstance(int, int)>& make_item,
                       const std::function<void(size_t, const mpc::BitVector&)>& sink,
                       bool count_rounds);

  mpc::TripleSource* TripleSourceFor(uint64_t tag, int member_index);
  crypto::ChaCha20Prg RolePrg(uint64_t role_tag, uint64_t instance);

  // Offline-phase demand estimation (config_.use_ot_triples): registers one
  // supply wave covering every triple the named phase will draw —
  // update-circuit AND count x scenarios per vertex block for a
  // computation step, each aggregation_ group's AND count x scenarios for
  // the aggregation step. No-ops with dealer triples.
  void EnqueueComputeWave(int num_scenarios);
  void EnqueueAggregateWave(int num_scenarios);

  // HA checkpointing (config_.checkpoint_every / config_.resume). The
  // fingerprint covers every parameter that shapes the share arrays and
  // triple tapes, so a checkpoint can never be replayed into a different
  // run. SaveCheckpoint snapshots after the iteration barrier;
  // RestoreCheckpoint returns the iteration to resume at (aborts when the
  // file is unreadable or from another run).
  uint64_t ConfigFingerprint() const;
  void SaveCheckpoint(int next_iteration, RunMetrics* m);
  int RestoreCheckpoint();

  RuntimeConfig config_;
  // Mirror-slot CSR: edge e = (src(e), dst(e)) is src(e)'s out-slot
  // e - out_start(src(e)) and dst(e)'s in-slot in_slot(e).
  const graph::Graph& graph_;
  VertexProgram program_;
  circuit::Circuit update_circuit_;
  // Precompiled layer structure of the update circuit, shared by every
  // round, instance and run (circuit/eval_plan.h).
  circuit::EvalPlan update_plan_;
  transfer::TransferParams transfer_params_;
  TrustedSetup setup_;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<crypto::DlogTable> dlog_table_;
  // One group of an aggregation level: `parties` (a fresh extra block, or
  // the aggregation block at the root) sum children [begin, end) of the
  // level with plans[plan], drawing triples under `triple_tag`.
  struct AggregationGroup {
    std::vector<int> parties;
    int begin = 0;
    int end = 0;
    size_t plan = 0;
    uint64_t triple_tag = 0;
  };
  struct AggregationStep {
    std::vector<AggregationGroup> groups;
    std::vector<circuit::EvalPlan> plans;  // one per distinct group size
  };
  // The aggregation schedule, one step per AggregationShape level (the
  // last is the root); both EnqueueAggregateWave and AggregatePhase read
  // it, and aggregate_and_gates is its AND total.
  std::vector<AggregationStep> aggregation_;
  size_t aggregation_ands_ = 0;
  // Noise points for the batched aggregation step, sized to the dlog table
  // range; built on the first batched communication step.
  std::unique_ptr<transfer::EvenNoiseCache> noise_cache_;
  std::unique_ptr<WorkerPool> pool_;

  // Shares indexed [vertex][member]: the runtime stores them centrally, but
  // entry [v][m] is only ever touched by the thread playing member m of
  // B_v — the access pattern respects the trust boundaries.
  std::vector<std::vector<mpc::BitVector>> state_shares_;
  // [vertex][in_slot][member]
  std::vector<std::vector<std::vector<mpc::BitVector>>> inmsg_shares_;
  // [vertex][out_slot][member]
  std::vector<std::vector<std::vector<mpc::BitVector>>> outmsg_shares_;

  // Dealer triple sources keyed by (vertex or agg tag, member index).
  std::map<std::pair<uint64_t, int>, std::unique_ptr<mpc::DealerTripleSource>> triple_sources_;
  std::mutex triple_mu_;
  // Offline phase (use_ot_triples): where every OT triple comes from.
  std::unique_ptr<mpc::TripleSupply> triple_supply_;

  int threads_target_ = 0;

  // Per-run circuit-stat accumulators (RunMetrics surface).
  std::atomic<uint64_t> triples_consumed_{0};
  std::atomic<size_t> compute_rounds_{0};
};

}  // namespace dstress::core

#endif  // SRC_CORE_RUNTIME_H_
