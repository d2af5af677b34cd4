#include "src/programs/histogram.h"

#include "src/common/check.h"

namespace dstress::programs {

core::VertexProgram BuildHistogramProgram(const HistogramParams& params) {
  DSTRESS_CHECK(params.degree_bound >= 1);
  DSTRESS_CHECK(params.num_buckets >= 1);
  DSTRESS_CHECK(params.counter_bits >= 1);
  DSTRESS_CHECK(params.aggregate_bits() <= 62);  // released as int64 with sign headroom

  core::VertexProgram program;
  program.state_bits = params.counter_bits;
  program.message_bits = 1;  // no propagation; all messages are ⊥
  program.degree_bound = params.degree_bound;
  program.iterations = 1;
  program.aggregate_bits = params.aggregate_bits();
  program.output_noise = params.noise;

  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    *new_state = state;
    out_msgs->assign(in_msgs.size(), circuit::Word(1, b.Zero()));
  };
  const int num_buckets = params.num_buckets;
  const int counter_bits = params.counter_bits;
  program.build_contribution = [num_buckets, counter_bits](
                                   circuit::Builder& b,
                                   const circuit::Word& state) -> circuit::Word {
    // One-hot decode: contribution bit (bucket*counter_bits) = [state == bucket].
    circuit::Word contribution(num_buckets * counter_bits, b.Zero());
    for (int bucket = 0; bucket < num_buckets; bucket++) {
      circuit::Word constant = b.ConstWord(static_cast<uint64_t>(bucket), counter_bits);
      contribution[bucket * counter_bits] = b.Eq(state, constant);
    }
    return contribution;
  };
  return program;
}

mpc::PackedShareMatrix MakeHistogramStates(const std::vector<int>& buckets,
                                           const HistogramParams& params) {
  mpc::PackedShareMatrix states(static_cast<size_t>(params.counter_bits), buckets.size());
  for (size_t v = 0; v < buckets.size(); v++) {
    DSTRESS_CHECK(buckets[v] >= 0 && buckets[v] < params.num_buckets);
    states.SetColumnWord(v, 0, params.counter_bits, static_cast<uint64_t>(buckets[v]));
  }
  return states;
}

std::vector<uint32_t> UnpackHistogram(int64_t released, const HistogramParams& params) {
  uint64_t word = static_cast<uint64_t>(released);
  uint64_t field_mask = (uint64_t{1} << params.counter_bits) - 1;
  std::vector<uint32_t> counts(params.num_buckets);
  for (int bucket = 0; bucket < params.num_buckets; bucket++) {
    counts[bucket] =
        static_cast<uint32_t>((word >> (bucket * params.counter_bits)) & field_mask);
  }
  return counts;
}

int64_t PlaintextPackedHistogram(const std::vector<int>& buckets,
                                 const HistogramParams& params) {
  int64_t packed = 0;
  for (int bucket : buckets) {
    DSTRESS_CHECK(bucket >= 0 && bucket < params.num_buckets);
    packed += int64_t{1} << (bucket * params.counter_bits);
  }
  return packed;
}

}  // namespace dstress::programs
