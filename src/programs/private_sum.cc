#include "src/programs/private_sum.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::programs {

core::VertexProgram BuildPrivateSumProgram(const PrivateSumParams& params) {
  DSTRESS_CHECK(params.degree_bound >= 1);
  DSTRESS_CHECK(params.value_bits >= 1);
  DSTRESS_CHECK(params.aggregate_bits >= params.value_bits);

  core::VertexProgram program;
  program.state_bits = params.value_bits;
  program.message_bits = 1;  // all messages are ⊥; keep the slots minimal
  program.degree_bound = params.degree_bound;
  program.iterations = 1;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise = params.noise;

  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    *new_state = state;
    out_msgs->assign(in_msgs.size(), circuit::Word(1, b.Zero()));
  };
  const int aggregate_bits = params.aggregate_bits;
  program.build_contribution = [aggregate_bits](circuit::Builder& b,
                                                const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(state, aggregate_bits);
  };
  return program;
}

mpc::PackedShareMatrix MakePrivateSumStates(const std::vector<uint32_t>& values,
                                            int value_bits) {
  mpc::PackedShareMatrix states(static_cast<size_t>(value_bits), values.size());
  for (size_t v = 0; v < values.size(); v++) {
    DSTRESS_CHECK(value_bits >= 32 || values[v] < (uint32_t{1} << value_bits));
    states.SetColumnWord(v, 0, std::min(value_bits, 32), values[v]);
  }
  return states;
}

int64_t PlaintextSum(const std::vector<uint32_t>& values, int aggregate_bits) {
  uint64_t sum = 0;
  for (uint32_t value : values) {
    sum += value;
  }
  // The runtime opens a two's-complement aggregate_bits-wide word.
  uint64_t mask = (aggregate_bits >= 64) ? ~uint64_t{0} : ((uint64_t{1} << aggregate_bits) - 1);
  uint64_t wrapped = sum & mask;
  if (aggregate_bits < 64 && (wrapped >> (aggregate_bits - 1)) != 0) {
    return static_cast<int64_t>(wrapped) - (int64_t{1} << aggregate_bits);
  }
  return static_cast<int64_t>(wrapped);
}

}  // namespace dstress::programs
