// DStress beyond finance: privately measuring failure propagation in a
// federated infrastructure graph (the "cloud reliability" use case of
// paper §3.1, citing Zhai et al.'s independence-as-a-service).
//
// Setting: operators of interdependent services each know only their own
// dependencies (edges). An auditor wants the *number of services that a
// given set of initially-failed services can take down within h hops* —
// without any operator revealing its dependency list and with differential
// privacy on the released count.
//
// Vertex program: state = 1 bit of "failed"; a failed vertex broadcasts 1,
// a healthy one broadcasts ⊥ = 0; a vertex fails when any in-neighbor has
// failed; aggregate = noised count of failed vertices after h iterations.
// The program rides in a RunSpec as a custom contagion model.
//
// Build & run:  ./build/examples/private_reachability

#include <cstdio>
#include <queue>

#include "src/engine/engine.h"
#include "src/graph/generators.h"

int main() {
  using namespace dstress;

  Rng rng(7);
  graph::Graph deps = graph::GenerateScaleFree(/*num_vertices=*/32, /*links_per_vertex=*/2, rng);
  const std::vector<int> initially_failed = {0, 5};
  constexpr int kHops = 4;

  core::VertexProgram program;
  program.state_bits = 8;  // bit 0 = failed; spare bits keep packing simple
  program.message_bits = 8;
  program.degree_bound = deps.MaxDegree();
  program.iterations = kHops;
  program.aggregate_bits = 16;
  program.output_noise.alpha = 0.6;  // modest DP noise on the failure count
  program.output_noise.magnitude_bits = 8;
  program.output_noise.threshold_bits = 12;

  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs,
                            circuit::Word* new_state, std::vector<circuit::Word>* out_msgs) {
    circuit::Wire failed = state[0];
    for (const auto& msg : in_msgs) {
      failed = b.Or(failed, msg[0]);  // any failed dependency takes us down
    }
    *new_state = circuit::Word(state.size(), b.Zero());
    (*new_state)[0] = failed;
    circuit::Word broadcast(8, b.Zero());
    broadcast[0] = failed;
    out_msgs->assign(in_msgs.size(), broadcast);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    circuit::Word one_if_failed(16, b.Zero());
    one_if_failed[0] = state[0];
    return one_if_failed;
  };

  // One 8-bit state per bank (column v = bank v), bit 0 = initially failed.
  mpc::PackedShareMatrix states(8, static_cast<size_t>(deps.num_vertices()));
  for (int v : initially_failed) {
    states.Set(0, static_cast<size_t>(v), true);
  }

  engine::RunSpec spec;
  spec.graph = deps;
  spec.model = engine::ContagionModel::kCustom;
  spec.custom_program = program;
  spec.custom_states = states;
  spec.block_size = 4;
  spec.seed = 77;
  engine::RunReport report = engine::Engine(spec).Run();

  // Cleartext reference: BFS truncated at kHops.
  std::vector<int> dist(deps.num_vertices(), -1);
  std::queue<int> frontier;
  for (int v : initially_failed) {
    dist[v] = 0;
    frontier.push(v);
  }
  int reachable = 0;
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop();
    reachable++;
    if (dist[v] == kHops) {
      continue;
    }
    for (int u : deps.OutNeighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }

  std::printf("federated dependency graph: %d services, %d edges, degree bound %d\n",
              deps.num_vertices(), deps.num_edges(), deps.MaxDegree());
  std::printf("failure sources: %zu services; horizon: %d hops\n", initially_failed.size(),
              kHops);
  std::printf("released (noised) blast-radius count: %lld\n",
              static_cast<long long>(report.released));
  std::printf("cleartext reference:                  %d\n", reachable);
  std::printf("run: %s\n", report.metrics.ToString().c_str());
  return 0;
}
