// The kCleartextFast backend: the flat graph plane (src/graphplane)
// composed with the update, aggregation and noise circuits and the
// aggregation schedule. Released figures, per-vertex states and per-node
// TrafficStats are pinned by golden digests (tests/graphplane_test.cc)
// recorded from the retired per-vertex container plane.
#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/core/worker_pool.h"
#include "src/crypto/chacha20.h"
#include "src/dp/noise_circuit.h"
#include "src/engine/cleartext_backend.h"
#include "src/graphplane/plane.h"
#include "src/mpc/packed.h"
#include "src/net/transport_spec.h"

namespace dstress::engine {

namespace {

// Session namespaces, keyed by phase like the secure runtime's. The root
// aggregation role is played by node 0 (any fixed node works — there is no
// aggregation block to protect in cleartext mode).
constexpr net::SessionId kEdgeSession = 1ULL << 60;
constexpr net::SessionId kGatherSession = 2ULL << 60;
constexpr net::SessionId kCombineSession = 3ULL << 60;
constexpr net::NodeId kAggregatorNode = 0;

class ArenaCleartextBackend : public ExecutionBackend {
 public:
  explicit ArenaCleartextBackend(const BackendContext& context)
      : graph_(*context.graph),
        program_(*context.program),
        config_(context.runtime_config),
        early_exit_(context.spec != nullptr && context.spec->cleartext_early_exit),
        update_circuit_(core::BuildUpdateCircuit(program_)),
        contribution_circuit_(core::BuildAggregateCircuit(program_, 1, /*with_noise=*/false)),
        aggregation_ands_(core::AggregationAndGates(program_, graph_.num_vertices(),
                                                    config_.aggregation_fanout)) {
    DSTRESS_CHECK(graph_.MaxDegree() <= program_.degree_bound);
    DSTRESS_CHECK(config_.aggregation_fanout != 1);

    circuit::Builder noise_builder;
    noise_builder.OutputWord(dp::BuildGeometricNoise(noise_builder, program_.output_noise,
                                                     program_.aggregate_bits));
    noise_circuit_ = std::make_unique<circuit::Circuit>(noise_builder.Build());

    net_ = net::MakeTransport(
        config_.transport.WithChannelHighWatermark(config_.channel_high_watermark_bytes),
        graph_.num_vertices());
    pool_ = std::make_unique<core::WorkerPool>(
        core::ResolveThreadBudget(config_.max_parallel_tasks));

    graphplane::GraphPlane::Options options;
    options.num_scenarios = 1;
    options.stride = 1;
    options.edge_session_base = kEdgeSession;
    solo_plane_ = std::make_unique<graphplane::GraphPlane>(graph_, program_, update_plan_,
                                                           pool_.get(), net_.get(), options);
  }

  const char* name() const override { return ExecutionModeName(ExecutionMode::kCleartextFast); }

  std::vector<int64_t> Execute(const std::vector<mpc::PackedShareMatrix>& lanes,
                               core::RunMetrics* metrics) override;

  // The solo plane's state rows are the lane layout itself (stride 1, lane
  // v = vertex v): copied word for word, garbage lanes past N masked off.
  mpc::PackedShareMatrix DebugFinalStates() const override {
    if (!solo_ran_) {
      return {};
    }
    const mpc::PackedShareMatrix& in_mat = solo_plane_->input_matrix();
    const std::vector<uint64_t>& valid = solo_plane_->valid_masks();
    mpc::PackedShareMatrix states(static_cast<size_t>(program_.state_bits),
                                  static_cast<size_t>(graph_.num_vertices()));
    for (size_t r = 0; r < states.rows(); r++) {
      for (size_t w = 0; w < states.words_per_row(); w++) {
        states.row(r)[w] = in_mat.row(r)[w] & valid[w];
      }
    }
    return states;
  }

  void AttachObserver(net::NetworkObserver* observer) override { net_->SetObserver(observer); }

  const net::Transport& transport() const override { return *net_; }

 private:
  // One wrapping sum per scenario from the plane's final states: packed
  // contribution eval over every lane, then the transpose reduction. Same
  // circuit as a per-vertex Eval, so per-lane values
  // are bit-identical; same vertex-major addition order, so sums are too.
  std::vector<uint64_t> PackedContributionSums(const graphplane::GraphPlane& plane) const {
    return plane.ScenarioSums(plane.EvalOverStates(contribution_plan_),
                              program_.aggregate_bits);
  }

  // sum + sampled noise, masked and sign-extended at aggregate_bits — the
  // aggregation circuit's arithmetic, bit for bit.
  int64_t Release(uint64_t sum, uint64_t noise) const {
    const int agg_bits = program_.aggregate_bits;
    const uint64_t mask = agg_bits >= 64 ? ~0ULL : (1ULL << agg_bits) - 1;
    const uint64_t value = (sum + noise) & mask;
    if (agg_bits < 64 && (value >> (agg_bits - 1)) != 0) {
      return static_cast<int64_t>(value) - static_cast<int64_t>(1ULL << agg_bits);
    }
    return static_cast<int64_t>(value);
  }

  uint64_t SampleNoise() const {
    auto prg = crypto::ChaCha20Prg::FromSeed(
        core::RolePrgSeed(config_.seed, core::kNoiseRoleTag), /*instance=*/0);
    std::vector<uint8_t> noise_input(noise_circuit_->num_inputs());
    for (auto& bit : noise_input) {
      bit = prg.NextBit() ? 1 : 0;
    }
    return mpc::BitsToWord(noise_circuit_->Eval(noise_input), 0, program_.aggregate_bits);
  }

  // Flat gather for a plane of S scenario lanes (the solo S=1 case
  // included): every vertex's state payload crosses to node 0 — as one
  // bulk-metered TrafficStats delta when the transport accepts, literally
  // otherwise — then the packed contribution reduction releases per-lane
  // figures.
  void AggregateFlat(const graphplane::GraphPlane& plane, int num_scenarios, int64_t* results) {
    const int n = graph_.num_vertices();
    const int sb = program_.state_bits;
    const size_t payload_bits = static_cast<size_t>(sb) * num_scenarios;
    const size_t payload_bytes = (payload_bits + 7) / 8;

    std::vector<net::TrafficStats> delta(static_cast<size_t>(n));
    for (int v = 0; v < n; v++) {
      delta[static_cast<size_t>(v)].bytes_sent += payload_bytes;
      delta[static_cast<size_t>(v)].messages_sent += 1;
      delta[static_cast<size_t>(kAggregatorNode)].bytes_received += payload_bytes;
      delta[static_cast<size_t>(kAggregatorNode)].messages_received += 1;
    }
    if (!net_->MeterSelfDelivered(delta)) {
      // Literal fallback: the exact payload bytes the metered delta stands
      // for (bit r*S+s = state bit r of scenario s), so observers see the
      // same transcript. Contributions still come from the
      // arena — the received copies hold the same valid-lane values.
      for (int v = 0; v < n; v++) {
        Bytes payload(payload_bytes, 0);
        for (int r = 0; r < sb; r++) {
          graphplane::InsertBits(&payload, static_cast<size_t>(r) * num_scenarios,
                                 plane.StateLaneGroup(static_cast<size_t>(r), v, num_scenarios),
                                 num_scenarios);
        }
        net_->Send(v, kAggregatorNode, std::move(payload),
                   kGatherSession | static_cast<uint64_t>(v));
      }
      for (int v = 0; v < n; v++) {
        Bytes raw = net_->Recv(kAggregatorNode, v, kGatherSession | static_cast<uint64_t>(v));
        DSTRESS_CHECK(raw.size() == payload_bytes);
      }
    }

    const std::vector<uint64_t> sums = PackedContributionSums(plane);
    const uint64_t noise = SampleNoise();
    for (int s = 0; s < num_scenarios; s++) {
      results[s] = Release(sums[static_cast<size_t>(s)], noise);
    }
  }

  // The node that plays each group of each aggregation level: the node of
  // its first child (vertex v is node v), and kAggregatorNode at the root.
  static std::vector<std::vector<int>> GroupNodes(
      const std::vector<core::AggregationLevel>& levels) {
    std::vector<std::vector<int>> nodes(levels.size());
    for (size_t l = 0; l < levels.size(); l++) {
      for (int g = 0; g < levels[l].groups(); g++) {
        const int first = levels[l].GroupBegin(g);
        int node = kAggregatorNode;
        if (l + 1 < levels.size()) {
          node = l == 0 ? first : nodes[l - 1][static_cast<size_t>(first)];
        }
        nodes[l].push_back(node);
      }
    }
    return nodes;
  }

  // Tree gather (one lane only; the multi-lane aggregation schedule is
  // flat, mirroring the secure plane) over core::AggregationShape, the
  // secure plan's tree. Bulk-metered mode replays the literal §3.6 tree's
  // traffic (GatherTreeLiteral) as one delta; the sum itself is the packed
  // flat reduction — associative two's-complement addition makes it equal
  // to the tree's level-by-level partials.
  uint64_t MeterGatherTree() {
    const int n = graph_.num_vertices();
    const uint64_t state_bytes = (static_cast<uint64_t>(program_.state_bits) + 7) / 8;
    const uint64_t agg_bytes = (static_cast<uint64_t>(program_.aggregate_bits) + 7) / 8;
    const std::vector<core::AggregationLevel> levels =
        core::AggregationShape(n, config_.aggregation_fanout);
    const std::vector<std::vector<int>> nodes = GroupNodes(levels);

    std::vector<net::TrafficStats> delta(static_cast<size_t>(n));
    for (size_t l = 0; l < levels.size(); l++) {
      for (int c = 0; c < levels[l].children; c++) {
        const int from = l == 0 ? c : nodes[l - 1][static_cast<size_t>(c)];
        const int to = nodes[l][static_cast<size_t>(c / levels[l].group_width)];
        const uint64_t bytes = l == 0 ? state_bytes : agg_bytes;
        delta[static_cast<size_t>(from)].bytes_sent += bytes;
        delta[static_cast<size_t>(from)].messages_sent += 1;
        delta[static_cast<size_t>(to)].bytes_received += bytes;
        delta[static_cast<size_t>(to)].messages_received += 1;
      }
    }
    if (net_->MeterSelfDelivered(delta)) {
      return PackedContributionSums(*solo_plane_)[0];
    }
    return GatherTreeLiteral(levels, nodes);
  }

  // Literal tree gather, with leaf states read out of the arena: level by
  // level every child's node sends its payload to its group's node, and the
  // groups sum on the pool. Fallback path only (observer or a real wire),
  // so per-vertex circuit evaluation is fine here.
  uint64_t GatherTreeLiteral(const std::vector<core::AggregationLevel>& levels,
                             const std::vector<std::vector<int>>& nodes) {
    const size_t agg_bits = static_cast<size_t>(program_.aggregate_bits);
    std::vector<uint64_t> partials;  // the previous level's group sums
    for (size_t l = 0; l < levels.size(); l++) {
      const core::AggregationLevel& level = levels[l];
      const net::SessionId session =
          l == 0 ? kGatherSession : kCombineSession | (static_cast<uint64_t>(l) << 32);
      auto from = [&](int c) { return l == 0 ? c : nodes[l - 1][static_cast<size_t>(c)]; };
      for (int c = 0; c < level.children; c++) {
        Bytes payload = l == 0 ? mpc::PackBits(solo_plane_->VertexState(c, 0))
                               : mpc::PackBits(mpc::WordToBits(partials[static_cast<size_t>(c)],
                                                               program_.aggregate_bits));
        net_->Send(from(c), nodes[l][static_cast<size_t>(c / level.group_width)],
                   std::move(payload), session | static_cast<uint64_t>(c));
      }
      std::vector<uint64_t> sums(static_cast<size_t>(level.groups()), 0);
      pool_->RunGrouped(sums.size(), 1, [&](size_t g, size_t) {
        const int to = nodes[l][g];
        uint64_t sum = 0;
        for (int c = level.GroupBegin(static_cast<int>(g)); c < level.GroupEnd(static_cast<int>(g));
             c++) {
          Bytes raw = net_->Recv(to, from(c), session | static_cast<uint64_t>(c));
          const mpc::BitVector word =
              l == 0 ? contribution_circuit_.Eval(
                           mpc::UnpackBits(raw, static_cast<size_t>(program_.state_bits)))
                     : mpc::UnpackBits(raw, agg_bits);
          sum += mpc::BitsToWord(word, 0, program_.aggregate_bits);
        }
        sums[g] = sum;
      });
      partials = std::move(sums);
    }
    return partials[0];
  }

  const graph::Graph& graph_;
  core::VertexProgram program_;
  core::RuntimeConfig config_;
  bool early_exit_ = false;
  circuit::Circuit update_circuit_;
  circuit::EvalPlan update_plan_{update_circuit_};
  circuit::Circuit contribution_circuit_;
  circuit::EvalPlan contribution_plan_{contribution_circuit_};
  std::unique_ptr<circuit::Circuit> noise_circuit_;
  // The secure plane's aggregation AND total for one lane (its group
  // circuits over the same core::AggregationShape).
  size_t aggregation_ands_ = 0;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<core::WorkerPool> pool_;
  // The width-1 (S = stride = 1) plane, allocated once and Reset per run;
  // also the source of DebugFinalStates. Wider chunks build their own
  // planes (stride varies with the chunk width).
  std::unique_ptr<graphplane::GraphPlane> solo_plane_;
  bool solo_ran_ = false;
};

std::vector<int64_t> ArenaCleartextBackend::Execute(
    const std::vector<mpc::PackedShareMatrix>& lanes, core::RunMetrics* metrics) {
  const int total_scenarios = static_cast<int>(lanes.size());
  DSTRESS_CHECK(total_scenarios > 0);
  DSTRESS_CHECK(total_scenarios == 1 || config_.aggregation_fanout == 0);
  const int n = graph_.num_vertices();
  for (const mpc::PackedShareMatrix& states : lanes) {
    DSTRESS_CHECK(states.rows() == static_cast<size_t>(program_.state_bits));
    DSTRESS_CHECK(states.instances() == static_cast<size_t>(n));
  }

  core::RunMetrics local;
  core::RunMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::RunMetrics{};
  m->update_and_gates = update_circuit_.stats().num_and;
  m->update_and_depth = update_circuit_.stats().and_depth;

  Stopwatch total;
  uint64_t bytes_before = net_->TotalBytes();
  solo_ran_ = total_scenarios == 1;

  // Times one phase into `pm`, with the bytes it put on the wire.
  auto run_phase = [&](core::PhaseMetrics* pm, const std::function<void()>& step) {
    Stopwatch phase;
    const uint64_t phase_bytes = net_->TotalBytes();
    step();
    pm->seconds += phase.ElapsedSeconds();
    pm->bytes += net_->TotalBytes() - phase_bytes;
  };
  std::vector<int64_t> results(static_cast<size_t>(total_scenarios), 0);
  for (int chunk_lo = 0; chunk_lo < total_scenarios; chunk_lo += 64) {
    const int num_scenarios = std::min(64, total_scenarios - chunk_lo);
    std::unique_ptr<graphplane::GraphPlane> chunk_plane;
    graphplane::GraphPlane* plane = solo_plane_.get();
    run_phase(&m->init, [&] {
      if (num_scenarios == 1) {
        // Stride 1: the lane's rows are the plane's first state_bits rows.
        solo_plane_->Reset();
        const mpc::PackedShareMatrix& lane = lanes[static_cast<size_t>(chunk_lo)];
        std::copy(lane.data(), lane.data() + lane.rows() * lane.words_per_row(),
                  solo_plane_->input_matrix().data());
        return;
      }
      int stride = 1;
      while (stride < num_scenarios) {
        stride <<= 1;
      }
      graphplane::GraphPlane::Options options;
      options.num_scenarios = num_scenarios;
      options.stride = stride;
      options.edge_session_base = kEdgeSession;
      chunk_plane = std::make_unique<graphplane::GraphPlane>(
          graph_, program_, update_plan_, pool_.get(), net_.get(), options);
      plane = chunk_plane.get();
      graphplane::PackLaneChunk(lanes, chunk_lo, num_scenarios, stride, &plane->input_matrix());
    });

    for (int iter = 0; iter < program_.iterations; iter++) {
      run_phase(&m->compute, [&] { plane->ComputeStep(); });
      run_phase(&m->communicate, [&] { plane->CommunicateStep(); });
      if (early_exit_ && plane->AllConverged()) {
        // Every remaining (compute, communicate) round is a figure-identical
        // no-op; only the traffic shape changes, which is what the opt-in
        // acknowledges.
        break;
      }
    }
    // Final computation step, as in the secure schedule (§3.6).
    run_phase(&m->compute, [&] { plane->ComputeStep(); });
    run_phase(&m->aggregate, [&] {
      if (config_.aggregation_fanout > 0) {
        results[0] = Release(MeterGatherTree(), SampleNoise());
      } else {
        AggregateFlat(*plane, num_scenarios, &results[static_cast<size_t>(chunk_lo)]);
      }
    });
    m->iterations = std::max(m->iterations, static_cast<int>(plane->stats().iterations));
  }

  m->aggregate_and_gates = aggregation_ands_ * static_cast<size_t>(total_scenarios);
  m->total_seconds = total.ElapsedSeconds();
  m->total_bytes = net_->TotalBytes() - bytes_before;
  m->avg_bytes_per_node = static_cast<double>(m->total_bytes) / n;
  return results;
}

}  // namespace

std::unique_ptr<ExecutionBackend> MakeArenaCleartextBackend(const BackendContext& context) {
  return std::make_unique<ArenaCleartextBackend>(context);
}

}  // namespace dstress::engine
