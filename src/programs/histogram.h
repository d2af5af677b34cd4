// Private histogram: a packed multi-counter release.
//
// DStress's aggregation function is a single sum (that restriction enables
// the §3.6 aggregation tree), but a sum over *packed* per-vertex indicator
// words releases a whole histogram in one run: bucket b occupies
// `counter_bits` bits at offset b·counter_bits of the aggregate word, each
// vertex contributes a 1 in exactly one bucket's field, and the fields
// cannot carry into each other as long as counter_bits can hold N.
//
// The released value is the noised packed word; Unpack() splits it back
// into per-bucket counts. Note the DP granularity: the geometric noise is
// added to the *packed integer*, so a single released figure carries the
// usual one-dimensional noise — callers who need per-bucket independent
// noise should run one release per bucket and pay the budget for each.
// (The packed form matches wPINQ-style "one query, one release"
// accounting for a categorical attribute.)
#ifndef SRC_PROGRAMS_HISTOGRAM_H_
#define SRC_PROGRAMS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/core/vertex_program.h"
#include "src/mpc/packed.h"

namespace dstress::programs {

struct HistogramParams {
  int degree_bound = 1;
  int num_buckets = 4;
  // Bits per bucket counter; 2^counter_bits must exceed the vertex count.
  int counter_bits = 8;
  dp::NoiseCircuitSpec noise;

  int aggregate_bits() const { return num_buckets * counter_bits; }
};

// State: the vertex's bucket index (counter_bits wide — the circuit decodes
// it to a one-hot packed contribution).
core::VertexProgram BuildHistogramProgram(const HistogramParams& params);

// Encodes per-vertex bucket indices (each must be < num_buckets).
mpc::PackedShareMatrix MakeHistogramStates(const std::vector<int>& buckets,
                                           const HistogramParams& params);

// Splits a released packed word into per-bucket counts. Noise on the packed
// integer can push individual fields below zero / above the field range;
// fields are reported as raw unsigned slices of the two's-complement word.
std::vector<uint32_t> UnpackHistogram(int64_t released, const HistogramParams& params);

// Reference: exact packed histogram of `buckets`.
int64_t PlaintextPackedHistogram(const std::vector<int>& buckets,
                                 const HistogramParams& params);

}  // namespace dstress::programs

#endif  // SRC_PROGRAMS_HISTOGRAM_H_
