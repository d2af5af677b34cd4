#include "src/programs/reachability.h"

#include <queue>

#include "src/common/check.h"

namespace dstress::programs {

namespace {
constexpr int kStateBits = 8;
constexpr int kMessageBits = 8;
}  // namespace

core::VertexProgram BuildReachabilityProgram(const ReachabilityParams& params) {
  DSTRESS_CHECK(params.degree_bound > 0);
  DSTRESS_CHECK(params.hops >= 1);
  core::VertexProgram program;
  program.state_bits = kStateBits;
  program.message_bits = kMessageBits;
  program.degree_bound = params.degree_bound;
  program.iterations = params.hops;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise = params.noise;

  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    circuit::Wire failed = state[0];
    for (const auto& msg : in_msgs) {
      failed = b.Or(failed, msg[0]);
    }
    *new_state = circuit::Word(state.size(), b.Zero());
    (*new_state)[0] = failed;
    circuit::Word broadcast(kMessageBits, b.Zero());
    broadcast[0] = failed;
    out_msgs->assign(in_msgs.size(), broadcast);
  };
  const int aggregate_bits = params.aggregate_bits;
  program.build_contribution = [aggregate_bits](circuit::Builder& b,
                                                const circuit::Word& state) -> circuit::Word {
    circuit::Word contribution(aggregate_bits, b.Zero());
    contribution[0] = state[0];
    return contribution;
  };
  return program;
}

mpc::PackedShareMatrix MakeReachabilityStates(int num_vertices,
                                              const std::vector<int>& sources) {
  mpc::PackedShareMatrix states(kStateBits, static_cast<size_t>(num_vertices));
  for (int v : sources) {
    DSTRESS_CHECK(v >= 0 && v < num_vertices);
    states.Set(0, static_cast<size_t>(v), true);
  }
  return states;
}

int PlaintextReachableCount(const graph::Graph& g, const std::vector<int>& sources, int hops) {
  std::vector<int> dist(g.num_vertices(), -1);
  std::queue<int> frontier;
  for (int v : sources) {
    if (dist[v] < 0) {
      dist[v] = 0;
      frontier.push(v);
    }
  }
  int reachable = 0;
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop();
    reachable++;
    if (dist[v] == hops) {
      continue;
    }
    for (int u : g.OutNeighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  return reachable;
}

}  // namespace dstress::programs
