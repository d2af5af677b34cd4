// The Eisenberg–Noe contagion model (paper §4.2, Figure 2a).
//
// Banks hold debt contracts: edge (i, j) with weight debts[i][j] means i
// owes j. Each bank pays its debts pro rata from its liquid assets (cash
// plus incoming payments); if assets fall short, the bank is bankrupt and
// pays the fraction prorate = liquid / totalDebt. Messages carry the
// *shortfall* — the part of a debt that will not be paid — and the
// aggregate is the Total Dollar Shortfall, TDS = Σ_i totalDebt_i * (1 −
// prorate_i). Eisenberg & Noe prove the fixpoint is unique and reached in
// at most n rounds; DStress runs a fixed iteration count (I ≈ log2 N per
// Appendix C).
//
// Three implementations, used to cross-validate each other in tests:
//  * MakeEnProgram — the DStress vertex program (boolean circuits);
//  * EnSolveFixed — host integer simulation with bit-identical arithmetic;
//  * EnSolveExact — double-precision economic reference.
#ifndef SRC_FINANCE_EISENBERG_NOE_H_
#define SRC_FINANCE_EISENBERG_NOE_H_

#include <vector>

#include "src/core/vertex_program.h"
#include "src/finance/fixed_point.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"

namespace dstress::finance {

// A concrete Eisenberg–Noe problem instance. debts[i] is aligned with
// graph.OutNeighbors(i): debts[i][d] is owed by i to its d-th out-neighbor.
struct EnInstance {
  const graph::Graph* graph = nullptr;
  std::vector<uint64_t> cash;                // [vertex], money units
  std::vector<std::vector<uint64_t>> debts;  // [vertex][out_slot]

  uint64_t TotalDebtOf(int v) const;
};

struct EnProgramParams {
  FixedPointFormat format;
  int degree_bound = 0;
  int iterations = 0;
  // Output-noise parameters (two-sided geometric on the TDS): alpha =
  // exp(-epsilon / sensitivity-in-money-units).
  double noise_alpha = 0.5;
  int aggregate_bits = 32;
};

// Builds the vertex program implementing Figure 2a.
core::VertexProgram MakeEnProgram(const EnProgramParams& params);

// Packs the initial states in the layout the program's circuits expect:
// one state_bits x n lane, column v = vertex v's state (its words at
// rows [k*w, (k+1)*w), padded slots zero).
mpc::PackedShareMatrix MakeEnInitialStates(const EnInstance& instance,
                                           const EnProgramParams& params);

// Host-side integer simulation with exactly the circuit's fixed-point
// arithmetic (same division, clamps and widths). Returns the exact
// (unnoised) TDS in money units and optionally the per-vertex prorate
// words. Runs on flat per-in-slot arrays over instance.graph's CSR.
uint64_t EnSolveFixed(const EnInstance& instance, const EnProgramParams& params,
                      std::vector<uint64_t>* prorate_out = nullptr);

// Double-precision reference of the economic model (pro-rata clearing
// iteration). Returns the TDS; prorates_out gets the clearing fractions.
double EnSolveExact(const EnInstance& instance, int iterations,
                    std::vector<double>* prorates_out = nullptr);

}  // namespace dstress::finance

#endif  // SRC_FINANCE_EISENBERG_NOE_H_
