// Private sum: the smallest useful DStress program, and the canonical
// "private census" building block — every participant contributes one
// confidential value, the system releases the noised total, and nothing
// else (not even ⊥-padded communication patterns) leaks.
//
// With value = out-degree this computes a noised edge count; with value =
// exposure it is the degenerate one-round case of the financial TDS. The
// update function is the identity and all messages are ⊥, so the program
// doubles as the minimal end-to-end exercise of every runtime phase
// (quickstart example and smoke tests use it).
#ifndef SRC_PROGRAMS_PRIVATE_SUM_H_
#define SRC_PROGRAMS_PRIVATE_SUM_H_

#include <cstdint>
#include <vector>

#include "src/core/vertex_program.h"
#include "src/mpc/packed.h"

namespace dstress::programs {

struct PrivateSumParams {
  int degree_bound = 1;
  int value_bits = 16;
  int aggregate_bits = 24;
  dp::NoiseCircuitSpec noise;
};

core::VertexProgram BuildPrivateSumProgram(const PrivateSumParams& params);

// Encodes per-vertex contributions as value_bits-wide states.
mpc::PackedShareMatrix MakePrivateSumStates(const std::vector<uint32_t>& values,
                                            int value_bits);

// The exact (un-noised) released value: sum of contributions mod
// 2^aggregate_bits, interpreted as the runtime does.
int64_t PlaintextSum(const std::vector<uint32_t>& values, int aggregate_bits);

}  // namespace dstress::programs

#endif  // SRC_PROGRAMS_PRIVATE_SUM_H_
