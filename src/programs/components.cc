#include "src/programs/components.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "src/common/check.h"

namespace dstress::programs {

core::VertexProgram BuildComponentsProgram(const ComponentsParams& params) {
  DSTRESS_CHECK(params.degree_bound > 0);
  DSTRESS_CHECK(params.iterations >= 1);
  DSTRESS_CHECK(params.label_bits >= 1);

  core::VertexProgram program;
  const int lb = params.label_bits;
  program.state_bits = 2 * lb;
  program.message_bits = lb;
  program.degree_bound = params.degree_bound;
  program.iterations = params.iterations;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise = params.noise;

  program.build_update = [lb](circuit::Builder& b, const circuit::Word& state,
                              const std::vector<circuit::Word>& in_msgs,
                              circuit::Word* new_state, std::vector<circuit::Word>* out_msgs) {
    circuit::Word id(state.begin(), state.begin() + lb);
    circuit::Word label(state.begin() + lb, state.end());
    for (const auto& msg : in_msgs) {
      // Adopt msg iff it is a real label (nonzero) and smaller than ours.
      circuit::Wire real = b.Not(b.EqZero(msg));
      circuit::Wire smaller = b.Ult(msg, label);
      label = b.MuxWord(b.And(real, smaller), msg, label);
    }
    *new_state = id;
    new_state->insert(new_state->end(), label.begin(), label.end());
    out_msgs->assign(in_msgs.size(), label);
  };
  const int aggregate_bits = params.aggregate_bits;
  program.build_contribution = [lb, aggregate_bits](circuit::Builder& b,
                                                    const circuit::Word& state) -> circuit::Word {
    circuit::Word id(state.begin(), state.begin() + lb);
    circuit::Word label(state.begin() + lb, state.end());
    circuit::Word contribution(aggregate_bits, b.Zero());
    contribution[0] = b.Eq(id, label);
    return contribution;
  };
  return program;
}

mpc::PackedShareMatrix MakeComponentsStates(int num_vertices, int label_bits) {
  DSTRESS_CHECK(static_cast<int64_t>(num_vertices) + 1 <= (int64_t{1} << label_bits));
  mpc::PackedShareMatrix states(2 * static_cast<size_t>(label_bits),
                                static_cast<size_t>(num_vertices));
  for (int v = 0; v < num_vertices; v++) {
    const uint64_t label = static_cast<uint64_t>(v) + 1;
    const size_t column = static_cast<size_t>(v);
    states.SetColumnWord(column, 0, label_bits, label);                                // id half
    states.SetColumnWord(column, static_cast<size_t>(label_bits), label_bits, label);  // label half
  }
  return states;
}

int PlaintextComponentsCount(const graph::Graph& g, int iterations) {
  int n = g.num_vertices();
  std::vector<uint32_t> label(n);
  for (int v = 0; v < n; v++) {
    label[v] = static_cast<uint32_t>(v) + 1;
  }
  for (int round = 0; round < iterations; round++) {
    std::vector<uint32_t> next = label;
    for (int v = 0; v < n; v++) {
      for (int u : g.InNeighbors(v)) {
        next[v] = std::min(next[v], label[u]);
      }
    }
    label = std::move(next);
  }
  int roots = 0;
  for (int v = 0; v < n; v++) {
    if (label[v] == static_cast<uint32_t>(v) + 1) {
      roots++;
    }
  }
  return roots;
}

int WeaklyConnectedComponents(const graph::Graph& g) {
  int n = g.num_vertices();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (auto [u, v] : g.Edges()) {
    parent[find(u)] = find(v);
  }
  int components = 0;
  for (int v = 0; v < n; v++) {
    if (find(v) == v) {
      components++;
    }
  }
  return components;
}

}  // namespace dstress::programs
