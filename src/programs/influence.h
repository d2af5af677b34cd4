// Private influence diffusion ("heat kernel" / truncated random walk).
//
// Every vertex holds a private fixed-point mass. Each round it pushes a
// 2^-out_shift fraction of its mass along every out-slot (no-op slots leak
// their fraction into the void — the public degree bound D must not reveal
// true degrees, so the circuit cannot treat real and padded slots
// differently), keeps a 2^-keep_shift fraction, and absorbs whatever its
// in-neighbors pushed. After a fixed number of rounds the aggregate
// releases the noised total remaining mass.
//
// This models influence/exposure propagation in social-science and
// criminal-intelligence graphs (§3.1's citation list) where both the seed
// masses and the link structure are confidential. All arithmetic is
// wrapping mod 2^16, mirrored exactly by the plaintext reference, so tests
// compare bit-for-bit.
#ifndef SRC_PROGRAMS_INFLUENCE_H_
#define SRC_PROGRAMS_INFLUENCE_H_

#include <cstdint>
#include <vector>

#include "src/core/vertex_program.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"

namespace dstress::programs {

struct InfluenceParams {
  int degree_bound = 0;
  int iterations = 1;
  // Fraction pushed per out-slot: mass >> out_shift.
  int out_shift = 3;
  // Fraction retained: mass >> keep_shift.
  int keep_shift = 1;
  int aggregate_bits = 24;
  dp::NoiseCircuitSpec noise;
};

inline constexpr int kInfluenceStateBits = 16;

core::VertexProgram BuildInfluenceProgram(const InfluenceParams& params);

// Encodes per-vertex initial masses as 16-bit states.
mpc::PackedShareMatrix MakeInfluenceStates(const std::vector<uint16_t>& masses);

// Cleartext reference with identical wrapping semantics. Returns the final
// per-vertex masses; the released aggregate is their sum mod 2^aggregate_bits.
std::vector<uint16_t> PlaintextInfluence(const graph::Graph& g,
                                         const std::vector<uint16_t>& masses,
                                         const InfluenceParams& params);

}  // namespace dstress::programs

#endif  // SRC_PROGRAMS_INFLUENCE_H_
