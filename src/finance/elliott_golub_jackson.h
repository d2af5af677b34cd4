// The Elliott–Golub–Jackson contagion model (paper §4.3, Figure 2b).
//
// Banks hold equity cross-holdings: insh[i][j] is the share of bank j's
// value held by bank i. A bank's valuation is its primitive ("base") assets
// plus the current value of its holdings; when the valuation falls below a
// bank-specific threshold, the bank is "distressed" and suffers an
// additional discontinuous penalty. Messages carry each bank's valuation
// *discount* relative to its initial valuation (a Q0.F fraction); the
// aggregate is the TDS of failed banks relative to their thresholds,
// Σ_i max(0, threshold_i − value_i).
//
// As the paper notes (§4.3), the fixpoint is not unique and convergence is
// monotone from above but not guaranteed within n rounds; a fixed iteration
// budget gives a sound approximation (Hemenway–Khanna).
#ifndef SRC_FINANCE_ELLIOTT_GOLUB_JACKSON_H_
#define SRC_FINANCE_ELLIOTT_GOLUB_JACKSON_H_

#include <vector>

#include "src/core/vertex_program.h"
#include "src/finance/fixed_point.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"

namespace dstress::finance {

// Instance data. insh[i] is aligned with graph.InNeighbors(i): insh[i][d]
// is the Q0.F share of in-neighbor d's equity held by i (an edge (j, i)
// means j's valuation discount flows to holder i).
struct EgjInstance {
  const graph::Graph* graph = nullptr;
  std::vector<uint64_t> base;       // [vertex] primitive assets, money units
  std::vector<uint64_t> orig_val;   // [vertex] initial valuation
  std::vector<uint64_t> threshold;  // [vertex] failure threshold
  std::vector<uint64_t> penalty;    // [vertex] failure penalty
  std::vector<std::vector<uint64_t>> insh;  // [vertex][in_slot], Q0.F
};

struct EgjProgramParams {
  FixedPointFormat format;
  int degree_bound = 0;
  int iterations = 0;
  double noise_alpha = 0.5;
  int aggregate_bits = 32;
};

core::VertexProgram MakeEgjProgram(const EgjProgramParams& params);

// The initial states as one state_bits x n lane (column v = vertex v's
// state, padded slots zero).
mpc::PackedShareMatrix MakeEgjInitialStates(const EgjInstance& instance,
                                            const EgjProgramParams& params);

// Host integer mirror of the circuit arithmetic; returns the unnoised TDS.
// Runs on flat per-in-slot arrays over instance.graph's CSR.
uint64_t EgjSolveFixed(const EgjInstance& instance, const EgjProgramParams& params,
                       std::vector<uint64_t>* values_out = nullptr);

// Double-precision reference (insh words are interpreted through `format`).
// Returns the TDS; values_out gets final valuations.
double EgjSolveExact(const EgjInstance& instance, int iterations,
                     const FixedPointFormat& format = FixedPointFormat{},
                     std::vector<double>* values_out = nullptr);

}  // namespace dstress::finance

#endif  // SRC_FINANCE_ELLIOTT_GOLUB_JACKSON_H_
