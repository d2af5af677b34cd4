#include "src/core/vertex_program.h"

#include <algorithm>

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

Circuit BuildAggregateCircuit(const VertexProgram& program, int group_size, bool with_noise,
                              std::vector<size_t>* ands_after_child) {
  DSTRESS_CHECK(program.build_contribution != nullptr);
  DSTRESS_CHECK(group_size >= 1);
  Builder builder;
  Word total = builder.ConstWord(0, program.aggregate_bits);
  for (int v = 0; v < group_size; v++) {
    Word state = builder.InputWord(program.state_bits);
    Word contribution = program.build_contribution(builder, state);
    DSTRESS_CHECK(static_cast<int>(contribution.size()) == program.aggregate_bits);
    total = builder.Add(total, contribution);
    if (ands_after_child != nullptr) {
      ands_after_child->push_back(builder.num_and_gates());
    }
  }
  if (with_noise) {
    Word noise = dp::BuildGeometricNoise(builder, program.output_noise, program.aggregate_bits);
    total = builder.Add(total, noise);
  }
  builder.OutputWord(total);
  return builder.Build();
}

Circuit BuildCombineCircuit(const VertexProgram& program, int num_partials, bool with_noise,
                            std::vector<size_t>* ands_after_child) {
  DSTRESS_CHECK(num_partials >= 1);
  Builder builder;
  Word total = builder.ConstWord(0, program.aggregate_bits);
  for (int i = 0; i < num_partials; i++) {
    Word partial = builder.InputWord(program.aggregate_bits);
    total = builder.Add(total, partial);
    if (ands_after_child != nullptr) {
      ands_after_child->push_back(builder.num_and_gates());
    }
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

size_t AggregationAndGates(const VertexProgram& program, int num_vertices, int fanout) {
  const std::vector<AggregationLevel> levels = AggregationShape(num_vertices, fanout);
  size_t total = 0;
  for (size_t l = 0; l < levels.size(); l++) {
    const bool root = l + 1 == levels.size();
    int widest = 0;
    for (int g = 0; g < levels[l].groups(); g++) {
      widest = std::max(widest, levels[l].GroupEnd(g) - levels[l].GroupBegin(g));
    }
    // One probe build, recording the ANDs after each child. Each add
    // carries non-constant bits at least one position higher until the
    // adders are full width, so by aggregate_bits + 1 children every further
    // child adds the same ANDs; the check pins that on the last three.
    const int probe = std::min(widest, program.aggregate_bits + 4);
    std::vector<size_t> after;
    const size_t full = (l == 0 ? BuildAggregateCircuit(program, probe, root, &after)
                                : BuildCombineCircuit(program, probe, root, &after))
                            .stats()
                            .num_and;
    const size_t tail = full - after[probe - 1];  // the root's noise
    size_t step = 0;
    if (widest > probe) {
      step = after[probe - 1] - after[probe - 2];
      DSTRESS_CHECK(after[probe - 2] - after[probe - 3] == step &&
                    after[probe - 3] - after[probe - 4] == step);
    }
    for (int g = 0; g < levels[l].groups(); g++) {
      const int size = levels[l].GroupEnd(g) - levels[l].GroupBegin(g);
      total += tail + (size <= probe ? after[size - 1]
                                     : after[probe - 1] + static_cast<size_t>(size - probe) * step);
    }
  }
  return total;
}

}  // namespace dstress::core
