#include "src/programs/influence.h"

#include "src/common/check.h"

namespace dstress::programs {

core::VertexProgram BuildInfluenceProgram(const InfluenceParams& params) {
  DSTRESS_CHECK(params.degree_bound > 0);
  DSTRESS_CHECK(params.iterations >= 1);
  DSTRESS_CHECK(params.out_shift >= 0 && params.out_shift < kInfluenceStateBits);
  DSTRESS_CHECK(params.keep_shift >= 0 && params.keep_shift < kInfluenceStateBits);

  core::VertexProgram program;
  program.state_bits = kInfluenceStateBits;
  program.message_bits = kInfluenceStateBits;
  program.degree_bound = params.degree_bound;
  program.iterations = params.iterations;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise = params.noise;

  const int out_shift = params.out_shift;
  const int keep_shift = params.keep_shift;
  program.build_update = [out_shift, keep_shift](
                             circuit::Builder& b, const circuit::Word& state,
                             const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                             std::vector<circuit::Word>* out_msgs) {
    // Absorb first, then push from the updated mass: the runtime executes
    // iterations+1 computation steps (the +1 is §3.6's final step), so this
    // ordering gives the clean recurrence
    //   s^t = (s^{t-1} >> keep_shift) + sum_in (s^{t-1} >> out_shift)
    // after an initial pure-decay step, which PlaintextInfluence mirrors.
    circuit::Word acc = b.ShiftRightConst(state, keep_shift);
    for (const auto& msg : in_msgs) {
      acc = b.Add(acc, msg);
    }
    *new_state = acc;
    out_msgs->assign(in_msgs.size(), b.ShiftRightConst(acc, out_shift));
  };
  const int aggregate_bits = params.aggregate_bits;
  program.build_contribution = [aggregate_bits](circuit::Builder& b,
                                                const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(state, aggregate_bits);
  };
  return program;
}

mpc::PackedShareMatrix MakeInfluenceStates(const std::vector<uint16_t>& masses) {
  mpc::PackedShareMatrix states(kInfluenceStateBits, masses.size());
  for (size_t v = 0; v < masses.size(); v++) {
    states.SetColumnWord(v, 0, kInfluenceStateBits, masses[v]);
  }
  return states;
}

std::vector<uint16_t> PlaintextInfluence(const graph::Graph& g,
                                         const std::vector<uint16_t>& masses,
                                         const InfluenceParams& params) {
  DSTRESS_CHECK(static_cast<int>(masses.size()) == g.num_vertices());
  // First computation step sees only no-op messages: pure decay.
  std::vector<uint16_t> current(masses.size());
  for (size_t v = 0; v < masses.size(); v++) {
    current[v] = static_cast<uint16_t>(masses[v] >> params.keep_shift);
  }
  // Each (communication, computation) pair then applies the full recurrence.
  for (int round = 0; round < params.iterations; round++) {
    std::vector<uint16_t> next(current.size(), 0);
    for (int v = 0; v < g.num_vertices(); v++) {
      uint16_t acc = static_cast<uint16_t>(current[v] >> params.keep_shift);
      for (int u : g.InNeighbors(v)) {
        acc = static_cast<uint16_t>(acc + static_cast<uint16_t>(current[u] >> params.out_shift));
      }
      next[v] = acc;
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace dstress::programs
