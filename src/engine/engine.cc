#include "src/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/dp/release.h"
#include "src/engine/backend.h"
#include "src/ha/faulty.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/finance/utility.h"

namespace dstress::engine {

namespace {

core::RuntimeConfig DeriveRuntimeConfig(const RunSpec& spec) {
  core::RuntimeConfig config;
  config.block_size = spec.block_size;
  config.transfer_budget_alpha = spec.transfer_budget_alpha;
  config.dlog_range = spec.dlog_range;
  config.use_ot_triples = spec.use_ot_triples;
  config.aggregation_fanout = spec.aggregation_fanout;
  config.max_parallel_tasks = spec.max_parallel_tasks;
  config.channel_high_watermark_bytes = spec.channel_high_watermark_bytes;
  config.transport = spec.transport;
  config.seed = spec.seed;
  config.checkpoint_every = spec.ha_checkpoint_every;
  config.checkpoint_path = spec.ha_checkpoint_path;
  config.resume = spec.ha_resume;
  if (spec.ensemble.has_value()) {
    config.ensemble_width = std::max(1, spec.ensemble->Width());
  }
  return config;
}

double DeriveNoiseAlpha(const RunSpec& spec) {
  if (spec.noise_alpha > 0) {
    return spec.noise_alpha;
  }
  double sensitivity = spec.model == ContagionModel::kEisenbergNoe
                           ? finance::EnSensitivity(spec.leverage)
                           : finance::EgjSensitivity(spec.leverage);
  return finance::NoiseAlphaForRelease(sensitivity, spec.epsilon, /*unit_dollars=*/1.0);
}

// The finance entry points of one contagion model, so that one compiler
// (Engine::CompileModel) serves both.
struct EnModel {
  using Params = finance::EnProgramParams;
  using Instance = finance::EnInstance;
  static constexpr const char* kName = "Eisenberg-Noe";
  static core::VertexProgram Program(const Params& params) {
    return finance::MakeEnProgram(params);
  }
  static Instance Workload(const graph::Graph& graph, const finance::WorkloadParams& workload,
                           const finance::ShockParams& shock) {
    return finance::MakeEnWorkload(graph, workload, shock);
  }
  static void Shock(Instance& instance, const finance::ShockParams& shock) {
    finance::ApplyEnShock(instance, shock);
  }
  static mpc::PackedShareMatrix States(const Instance& instance, const Params& params) {
    return finance::MakeEnInitialStates(instance, params);
  }
  // The reference TDS; with `defaults`, also which banks end with a
  // prorate below one.
  static uint64_t Reference(const Instance& instance, const Params& params,
                            std::vector<uint8_t>* defaults) {
    std::vector<uint64_t> prorate;
    const uint64_t tds =
        finance::EnSolveFixed(instance, params, defaults != nullptr ? &prorate : nullptr);
    for (uint64_t p : prorate) {
      defaults->push_back(p < params.format.One() ? 1 : 0);
    }
    return tds;
  }
};

struct EgjModel {
  using Params = finance::EgjProgramParams;
  using Instance = finance::EgjInstance;
  static constexpr const char* kName = "Elliott-Golub-Jackson";
  static core::VertexProgram Program(const Params& params) {
    return finance::MakeEgjProgram(params);
  }
  static Instance Workload(const graph::Graph& graph, const finance::WorkloadParams& workload,
                           const finance::ShockParams& shock) {
    return finance::MakeEgjWorkload(graph, workload, shock);
  }
  static void Shock(Instance& instance, const finance::ShockParams& shock) {
    finance::ApplyEgjShock(instance, shock);
  }
  static mpc::PackedShareMatrix States(const Instance& instance, const Params& params) {
    return finance::MakeEgjInitialStates(instance, params);
  }
  // The reference TDS; with `defaults`, also which banks end below their
  // failure threshold.
  static uint64_t Reference(const Instance& instance, const Params& params,
                            std::vector<uint8_t>* defaults) {
    std::vector<uint64_t> values;
    const uint64_t tds =
        finance::EgjSolveFixed(instance, params, defaults != nullptr ? &values : nullptr);
    for (size_t v = 0; v < values.size(); v++) {
      defaults->push_back(values[v] < instance.threshold[v] ? 1 : 0);
    }
    return tds;
  }
};

}  // namespace

Engine::Engine(RunSpec spec) : spec_(std::move(spec)) {
  // Make the "faulty" fault-injection backend resolvable by name before any
  // transport spec is materialized (the registry is the only way scenarios
  // reach it; explicit because static-lib self-registration gets dropped).
  ha::RegisterHaTransports();
  if (spec_.graph.has_value()) {
    graph_ = &*spec_.graph;
  } else {
    built_graph_.emplace(BuildTopologyGraph(spec_.topology, spec_.seed));
    graph_ = &*built_graph_;
  }
  const int n = graph_->num_vertices();
  DSTRESS_CHECK(n > 0);
  const int degree_bound =
      spec_.degree_bound > 0 ? spec_.degree_bound : std::max(1, graph_->MaxDegree());

  // An ensemble varies shocks and balance sheets; a custom program has
  // neither channel to vary.
  DSTRESS_CHECK(!spec_.ensemble.has_value() || spec_.model != ContagionModel::kCustom);
  switch (spec_.model) {
    case ContagionModel::kEisenbergNoe:
      CompileModel<EnModel>(degree_bound);
      break;
    case ContagionModel::kElliottGolubJackson:
      CompileModel<EgjModel>(degree_bound);
      break;
    case ContagionModel::kCustom: {
      model_name_ = "custom";
      DSTRESS_CHECK(spec_.custom_program.build_update != nullptr);
      DSTRESS_CHECK(spec_.custom_program.build_contribution != nullptr);
      program_ = spec_.custom_program;
      if (spec_.iterations > 0) {
        program_.iterations = spec_.iterations;
      }
      iterations_ = program_.iterations;
      DSTRESS_CHECK(spec_.custom_states.rows() == static_cast<size_t>(program_.state_bits));
      DSTRESS_CHECK(spec_.custom_states.instances() == static_cast<size_t>(n));
      base_lane_ = {spec_.custom_states};
      break;
    }
  }

  BackendContext context;
  context.spec = &spec_;
  context.graph = graph_;
  context.program = &program_;
  context.runtime_config = DeriveRuntimeConfig(spec_);
  backend_ = MakeExecutionBackend(spec_.mode, context);
}

template <typename Model>
void Engine::CompileModel(int degree_bound) {
  model_name_ = Model::kName;
  iterations_ = spec_.iterations > 0 ? spec_.iterations : AutoIterations(graph_->num_vertices());
  typename Model::Params params;
  params.format = spec_.format;
  params.degree_bound = degree_bound;
  params.iterations = iterations_;
  params.aggregate_bits = spec_.aggregate_bits;
  params.noise_alpha = DeriveNoiseAlpha(spec_);
  program_ = Model::Program(params);
  const finance::WorkloadParams workload = DeriveWorkloadParams(spec_);

  // Compiles one scenario into `lane`: the spec's workload (re-drawn at
  // `workload_seed` when set) under `shock`. `unshocked`, when given, is
  // the spec's workload drawn with no shock; all RNG draws precede the
  // shock, so stamping it onto a copy equals regenerating.
  auto compile = [&](const finance::ShockParams& shock, std::optional<uint64_t> workload_seed,
                     const typename Model::Instance* unshocked,
                     mpc::PackedShareMatrix* lane, std::vector<uint8_t>* defaults) {
    typename Model::Instance instance;
    if (unshocked != nullptr && !workload_seed.has_value()) {
      instance = *unshocked;
      Model::Shock(instance, shock);
    } else {
      finance::WorkloadParams scenario_workload = workload;
      scenario_workload.seed = workload_seed.value_or(workload.seed);
      instance = Model::Workload(*graph_, scenario_workload, shock);
    }
    *lane = Model::States(instance, params);
    return Model::Reference(instance, params, defaults);
  };

  base_lane_.resize(1);
  reference_ = compile(spec_.shock, std::nullopt, nullptr, &base_lane_[0], nullptr);
  has_reference_ = true;
  if (!spec_.ensemble.has_value()) {
    return;
  }
  scenarios_ =
      ensemble::MaterializeScenarios(*spec_.ensemble, spec_.shock, graph_->num_vertices());
  DSTRESS_CHECK(!scenarios_.empty());
  const typename Model::Instance unshocked =
      Model::Workload(*graph_, workload, finance::ShockParams{});
  ensemble_lanes_.resize(scenarios_.size());
  ensemble_refs_.resize(scenarios_.size());
  ensemble_defaults_.resize(scenarios_.size());
  for (size_t s = 0; s < scenarios_.size(); s++) {
    ensemble_refs_[s] = compile(scenarios_[s].shock, scenarios_[s].workload_seed, &unshocked,
                                &ensemble_lanes_[s], &ensemble_defaults_[s]);
  }
}

Engine::~Engine() = default;

RunReport Engine::Run() {
  RunReport report;
  report.iterations = iterations_;
  report.model_name = model_name_;
  report.mode = spec_.mode;
  report.has_reference = has_reference_;
  report.reference = reference_;
  report.released = backend_->Execute(base_lane_, &report.metrics)[0];
  return report;
}

ensemble::EnsembleReport Engine::RunEnsemble() {
  DSTRESS_CHECK(spec_.ensemble.has_value());
  const ensemble::EnsembleSpec& es = *spec_.ensemble;
  const int k = static_cast<int>(scenarios_.size());
  if (es.epsilon_budget > 0) {
    // Ensemble-aware accounting: every lane is a release at spec epsilon,
    // so the whole ensemble must fit the cap before anything is computed —
    // a data-dependent partial refusal would itself leak (dp/release.h).
    dp::ReleaseManager manager(es.epsilon_budget, spec_.seed);
    std::string error;
    if (!manager.ChargeEnsemble(model_name_, k, spec_.epsilon, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::abort();
    }
  }
  ensemble::EnsembleReport report;
  report.iterations = iterations_;
  report.model_name = model_name_;
  report.mode = spec_.mode;
  report.epsilon_each = spec_.epsilon;
  report.epsilon_total = static_cast<double>(k) * spec_.epsilon;
  report.epsilon_budget = es.epsilon_budget;
  std::vector<int64_t> released = backend_->Execute(ensemble_lanes_, &report.metrics);
  DSTRESS_CHECK(released.size() == scenarios_.size());
  report.scenarios.reserve(scenarios_.size());
  for (size_t s = 0; s < scenarios_.size(); s++) {
    ensemble::ScenarioResult result;
    result.label = scenarios_[s].label;
    result.released = released[s];
    result.has_reference = true;
    result.reference = ensemble_refs_[s];
    report.scenarios.push_back(std::move(result));
  }
  ensemble::ReduceEnsemble(ensemble_defaults_, &report);
  return report;
}

void Engine::AttachObserver(net::NetworkObserver* observer) {
  backend_->AttachObserver(observer);
}

mpc::PackedShareMatrix Engine::FinalStates() const { return backend_->DebugFinalStates(); }

const net::Transport& Engine::transport() const { return backend_->transport(); }

}  // namespace dstress::engine
