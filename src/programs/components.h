// Private component counting by min-label propagation.
//
// Every vertex starts with the public label id+1 (label 0 is reserved so
// the all-zero no-op message ⊥ can be told apart from a real label). Each
// round a vertex adopts the smallest nonzero label it has heard and
// re-broadcasts it; after I rounds the aggregate releases the noised count
// of vertices that still hold their own label — on a symmetric graph with
// I at least the largest component diameter this is exactly the number of
// connected components.
//
// What is private here is the *topology*: participants learn only the
// noised component count, not who is connected to whom (criminal-
// intelligence cell mapping, §3.1's Krebs/Sparrow citations, is the
// motivating shape). The labels themselves are public vertex ids.
#ifndef SRC_PROGRAMS_COMPONENTS_H_
#define SRC_PROGRAMS_COMPONENTS_H_

#include <vector>

#include "src/core/vertex_program.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"

namespace dstress::programs {

struct ComponentsParams {
  int degree_bound = 0;
  // Rounds of label propagation; needs to reach the largest component
  // diameter for an exact count.
  int iterations = 1;
  // Width of a label word; must satisfy num_vertices + 1 <= 2^label_bits.
  int label_bits = 10;
  int aggregate_bits = 16;
  dp::NoiseCircuitSpec noise;
};

// State layout: [id+1 (label_bits)] [current label (label_bits)].
core::VertexProgram BuildComponentsProgram(const ComponentsParams& params);

mpc::PackedShareMatrix MakeComponentsStates(int num_vertices, int label_bits);

// Cleartext reference: min-label propagation for `iterations` rounds over
// in-neighbors, returning the number of vertices keeping their own label.
int PlaintextComponentsCount(const graph::Graph& g, int iterations);

// Convenience for tests: the true number of weakly connected components.
int WeaklyConnectedComponents(const graph::Graph& g);

}  // namespace dstress::programs

#endif  // SRC_PROGRAMS_COMPONENTS_H_
