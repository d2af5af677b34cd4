// The DStress programming model (paper §3.1).
//
// A vertex program is (1) a graph, (2) per-vertex initial state and an
// update function, (3) an iteration count n, (4) an aggregation function,
// (5) a no-op message ⊥, and (6) a sensitivity bound. Because computation
// steps execute inside GMW, the update and aggregation functions are
// expressed as boolean-circuit builders rather than host code: the runtime
// instantiates one update circuit (identical for every vertex — vertex
// identity must not influence circuit shape, or the degree would leak) and
// one aggregation circuit.
//
// The aggregation function is restricted to a sum of per-vertex
// contributions. Both of the paper's case studies have this form (TDS is a
// sum over banks), and the restriction is what enables the hierarchical
// aggregation tree of §3.6.
#ifndef SRC_CORE_VERTEX_PROGRAM_H_
#define SRC_CORE_VERTEX_PROGRAM_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "src/circuit/builder.h"
#include "src/dp/noise_circuit.h"

namespace dstress::core {

struct VertexProgram {
  // Bit widths. message_bits is the L of the transfer protocol; the paper's
  // prototype uses 12-bit shares.
  int state_bits = 0;
  int message_bits = 12;
  // Public degree bound D: the update circuit always has D input and D
  // output message slots; unused slots carry the no-op message (all-zero).
  int degree_bound = 0;
  // Fixed number of (computation, communication) rounds before the final
  // computation step (§3.7: no data-dependent convergence checks).
  int iterations = 1;
  // Sensitivity bound s of the aggregate output (e.g. 1/r for
  // Eisenberg-Noe, 2/r for Elliott-Golub-Jackson, in output units).
  double sensitivity = 1.0;
  // Width of the aggregate output word (two's complement).
  int aggregate_bits = 32;

  // Builds the body of the update function: given the current state and D
  // incoming message words, define the new state and D outgoing messages.
  // Invoked once; the same circuit runs at every vertex.
  std::function<void(circuit::Builder& builder, const circuit::Word& state,
                     const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                     std::vector<circuit::Word>* out_msgs)>
      build_update;

  // Builds the per-vertex contribution to the aggregate (width
  // aggregate_bits, two's complement). The runtime sums contributions and
  // adds the DP noise inside the aggregation MPC.
  std::function<circuit::Word(circuit::Builder& builder, const circuit::Word& state)>
      build_contribution;

  // Discrete-Laplace output noise (added in-circuit). alpha should be
  // exp(-epsilon / sensitivity_in_output_units).
  dp::NoiseCircuitSpec output_noise;
};

// Builds the update circuit for `program`.
circuit::Circuit BuildUpdateCircuit(const VertexProgram& program);

// Builds an aggregation circuit summing `group_size` states' contributions;
// if `with_noise` is set, appends the geometric noise sampler (whose random
// bits become extra inputs, supplied by the aggregation-block members) and
// adds it to the sum. Output: one aggregate_bits-wide word. If
// `ands_after_child` is set, the builder's AND count after each child's add
// is appended to it.
circuit::Circuit BuildAggregateCircuit(const VertexProgram& program, int group_size,
                                       bool with_noise,
                                       std::vector<size_t>* ands_after_child = nullptr);

// Builds the combine circuit for the root of an aggregation tree: sums
// `num_partials` aggregate_bits-wide partial sums and adds noise.
circuit::Circuit BuildCombineCircuit(const VertexProgram& program, int num_partials,
                                     bool with_noise,
                                     std::vector<size_t>* ands_after_child = nullptr);

// One level of the §3.6 aggregation schedule: its `children` (the vertices
// at the first level, the previous level's partial sums after it) are cut
// into consecutive groups of `group_width`; the last group may be short.
struct AggregationLevel {
  int children = 0;
  int group_width = 0;

  int groups() const { return (children + group_width - 1) / group_width; }
  int GroupBegin(int g) const { return g * group_width; }
  int GroupEnd(int g) const { return std::min(children, (g + 1) * group_width); }
};

// The shape of the aggregation over `num_vertices` vertices, the one tree
// both execution planes walk. fanout 0 is flat: a single root level over
// every vertex. fanout >= 2 is a tree: a leaf level of `fanout`-vertex
// groups, combine levels while more than `fanout` partials remain, then the
// root. The last level is always the root, one group over all its children.
std::vector<AggregationLevel> AggregationShape(int num_vertices, int fanout);

// The AND gates of one aggregation over AggregationShape(num_vertices,
// fanout): the sum over every group of its circuit's ANDs
// (BuildAggregateCircuit at the first level, BuildCombineCircuit above it,
// noise at the root). Each level builds one circuit, of at most
// aggregate_bits + 4 children, and reads every group's count off the ANDs
// after each child; past that size every further child adds the same ANDs
// (its contribution plus a full-width adder), so a larger group, such as the
// flat root over all N vertices, is extrapolated instead of built.
size_t AggregationAndGates(const VertexProgram& program, int num_vertices, int fanout);

}  // namespace dstress::core

#endif  // SRC_CORE_VERTEX_PROGRAM_H_
