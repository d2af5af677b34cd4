#include "src/core/vertex_program.h"

#include "src/common/check.h"

namespace dstress::core {

using circuit::Builder;
using circuit::Circuit;
using circuit::Word;

Circuit BuildUpdateCircuit(const VertexProgram& program) {
  DSTRESS_CHECK(program.state_bits > 0);
  DSTRESS_CHECK(program.build_update != nullptr);
  Builder builder;
  Word state = builder.InputWord(program.state_bits);
  std::vector<Word> in_msgs;
  in_msgs.reserve(program.degree_bound);
  for (int d = 0; d < program.degree_bound; d++) {
    in_msgs.push_back(builder.InputWord(program.message_bits));
  }
  Word new_state;
  std::vector<Word> out_msgs;
  program.build_update(builder, state, in_msgs, &new_state, &out_msgs);
  DSTRESS_CHECK(static_cast<int>(new_state.size()) == program.state_bits);
  DSTRESS_CHECK(static_cast<int>(out_msgs.size()) == program.degree_bound);
  builder.OutputWord(new_state);
  for (const Word& msg : out_msgs) {
    DSTRESS_CHECK(static_cast<int>(msg.size()) == program.message_bits);
    builder.OutputWord(msg);
  }
  return builder.Build();
}

Circuit BuildAggregateCircuit(const VertexProgram& program, int group_size, bool with_noise) {
  DSTRESS_CHECK(program.build_contribution != nullptr);
  DSTRESS_CHECK(group_size >= 1);
  Builder builder;
  Word total = builder.ConstWord(0, program.aggregate_bits);
  for (int v = 0; v < group_size; v++) {
    Word state = builder.InputWord(program.state_bits);
    Word contribution = program.build_contribution(builder, state);
    DSTRESS_CHECK(static_cast<int>(contribution.size()) == program.aggregate_bits);
    total = builder.Add(total, contribution);
  }
  if (with_noise) {
    Word noise = dp::BuildGeometricNoise(builder, program.output_noise, program.aggregate_bits);
    total = builder.Add(total, noise);
  }
  builder.OutputWord(total);
  return builder.Build();
}

Circuit BuildCombineCircuit(const VertexProgram& program, int num_partials, bool with_noise) {
  DSTRESS_CHECK(num_partials >= 1);
  Builder builder;
  Word total = builder.ConstWord(0, program.aggregate_bits);
  for (int i = 0; i < num_partials; i++) {
    Word partial = builder.InputWord(program.aggregate_bits);
    total = builder.Add(total, partial);
  }
  if (with_noise) {
    Word noise = dp::BuildGeometricNoise(builder, program.output_noise, program.aggregate_bits);
    total = builder.Add(total, noise);
  }
  builder.OutputWord(total);
  return builder.Build();
}

std::vector<AggregationLevel> AggregationShape(int num_vertices, int fanout) {
  DSTRESS_CHECK(num_vertices >= 1);
  DSTRESS_CHECK(fanout == 0 || fanout >= 2);  // fanout 1 would never shrink
  std::vector<AggregationLevel> levels;
  int children = num_vertices;
  if (fanout > 0) {
    do {
      levels.push_back({children, fanout});
      children = levels.back().groups();
    } while (children > fanout);
  }
  levels.push_back({children, children});
  return levels;
}

}  // namespace dstress::core
