// Private bounded-hop reachability (the "cloud reliability" / blast-radius
// use case of paper §3.1, citing Zhai et al.'s independence-as-a-service).
//
// Each vertex privately knows whether it belongs to the initially-failed
// set. A failed vertex broadcasts 1 to its out-neighbors; a healthy vertex
// broadcasts the no-op 0; any vertex with a failed in-neighbor fails. After
// `hops` rounds the aggregate releases the noised count of failed vertices.
//
// Sensitivity note: one vertex flipping its initial bit can change the
// count by the whole downstream cone, so the edge-DP sensitivity of raw
// reachability is large (§6 discusses why many graph statistics are hard to
// release). The program is still useful under the paper's model where the
// *membership bit* is the protected input and the topology is assumed
// degree-bounded: flipping one source changes the count by at most the
// vertices within `hops` of it, and callers pick `sensitivity` accordingly.
#ifndef SRC_PROGRAMS_REACHABILITY_H_
#define SRC_PROGRAMS_REACHABILITY_H_

#include <vector>

#include "src/core/vertex_program.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"

namespace dstress::programs {

struct ReachabilityParams {
  int degree_bound = 0;
  int hops = 1;
  int aggregate_bits = 16;
  // Output-noise spec (alpha = e^{-eps/sensitivity}); alpha ~ 0 disables
  // noise for testing.
  dp::NoiseCircuitSpec noise;
};

// Builds the vertex program. Initial state per vertex: bit 0 = initially
// failed (see MakeReachabilityStates).
core::VertexProgram BuildReachabilityProgram(const ReachabilityParams& params);

// Encodes the initial states: one 8-bit word per vertex, bit 0 set for
// members of `sources`.
mpc::PackedShareMatrix MakeReachabilityStates(int num_vertices,
                                              const std::vector<int>& sources);

// Cleartext reference: number of vertices reachable from `sources` within
// `hops` edges (sources included).
int PlaintextReachableCount(const graph::Graph& g, const std::vector<int>& sources, int hops);

}  // namespace dstress::programs

#endif  // SRC_PROGRAMS_REACHABILITY_H_
