#include "src/finance/eisenberg_noe.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::finance {

namespace {

using circuit::Builder;
using circuit::Wire;
using circuit::Word;

// State layout (all words value_bits wide):
//   [cash][totalDebt][prorate][debts[0..D)][credits[0..D)]
// debts are out-slot aligned, credits in-slot aligned. prorate is a Q0.F
// word stored at value width (2^F == fully solvent).
int StateBits(const EnProgramParams& p) {
  return (3 + 2 * p.degree_bound) * p.format.value_bits;
}

Word Slice(const Word& state, int index, int width) {
  return Word(state.begin() + static_cast<long>(index) * width,
              state.begin() + static_cast<long>(index + 1) * width);
}

// Every edge's saturated debt, stored at the creditor's flat in-slot.
std::vector<uint64_t> CreditsByInSlot(const EnInstance& instance, const FixedPointFormat& format) {
  const graph::Graph& g = *instance.graph;
  std::vector<uint64_t> credit(static_cast<size_t>(g.num_edges()));
  for (int u = 0; u < g.num_vertices(); u++) {
    const size_t first = g.out_start(u);
    for (size_t e = first; e < g.out_start(u + 1); e++) {
      credit[g.in_flat(e)] = format.SaturateValue(instance.debts[u][e - first]);
    }
  }
  return credit;
}

}  // namespace

uint64_t EnInstance::TotalDebtOf(int v) const {
  uint64_t total = 0;
  for (uint64_t d : debts[v]) {
    total += d;
  }
  return total;
}

core::VertexProgram MakeEnProgram(const EnProgramParams& params) {
  DSTRESS_CHECK(params.degree_bound > 0);
  const int w = params.format.value_bits;
  const int f = params.format.frac_bits;
  DSTRESS_CHECK(f < w);

  core::VertexProgram program;
  program.state_bits = StateBits(params);
  program.message_bits = w;
  program.degree_bound = params.degree_bound;
  program.iterations = params.iterations;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise.alpha = params.noise_alpha;

  const int d_bound = params.degree_bound;
  const FixedPointFormat format = params.format;

  program.build_update = [w, f, d_bound, format](Builder& b, const Word& state,
                                                 const std::vector<Word>& in_msgs,
                                                 Word* new_state, std::vector<Word>* out_msgs) {
    Word cash = Slice(state, 0, w);
    Word total_debt = Slice(state, 1, w);
    std::vector<Word> debts(d_bound), credits(d_bound);
    for (int d = 0; d < d_bound; d++) {
      debts[d] = Slice(state, 3 + d, w);
      credits[d] = Slice(state, 3 + d_bound + d, w);
    }

    // liquid = cash + sum over in-slots of the payment actually received:
    // credits[d] - shortfall[d], floored at zero. A wide accumulator
    // prevents wraparound; the final value saturates at the format maximum.
    const int wide = w + 8;
    DSTRESS_CHECK(d_bound < (1 << 8));
    Word liquid_wide = b.ZeroExtend(cash, wide);
    for (int d = 0; d < d_bound; d++) {
      const Word& shortfall = in_msgs[d];
      Wire under = b.Ult(credits[d], shortfall);
      Word paid = b.MuxWord(under, b.ConstWord(0, w), b.Sub(credits[d], shortfall));
      liquid_wide = b.Add(liquid_wide, b.ZeroExtend(paid, wide));
    }
    Wire overflow = b.Zero();
    for (int bit = w; bit < wide; bit++) {
      overflow = b.Or(overflow, liquid_wide[bit]);
    }
    Word liquid = b.MuxWord(overflow, b.ConstWord(format.MaxValue(), w),
                            b.Truncate(liquid_wide, w));

    // prorate = min(1.0, liquid / totalDebt). DivFixed saturates when
    // totalDebt == 0, so debt-free banks come out fully solvent.
    Word ratio = b.DivFixed(liquid, total_debt, f);
    Word prorate = b.ClampMax(ratio, b.ConstWord(format.One(), w));

    // New state: constants carry through, prorate is replaced.
    *new_state = cash;
    new_state->insert(new_state->end(), total_debt.begin(), total_debt.end());
    new_state->insert(new_state->end(), prorate.begin(), prorate.end());
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), debts[d].begin(), debts[d].end());
    }
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), credits[d].begin(), credits[d].end());
    }

    // Outgoing shortfall notices: debts[d] * (1 - prorate).
    Word unpaid_frac = b.Sub(b.ConstWord(format.One(), w), prorate);
    out_msgs->clear();
    for (int d = 0; d < d_bound; d++) {
      Word product = b.Mul(b.ZeroExtend(debts[d], w + f), b.ZeroExtend(unpaid_frac, w + f));
      Word shortfall = b.Truncate(b.ShiftRightConst(product, f), w);
      out_msgs->push_back(shortfall);
    }
  };

  const int agg_bits = params.aggregate_bits;
  program.build_contribution = [w, f, agg_bits, format](Builder& b, const Word& state) -> Word {
    Word total_debt = Slice(state, 1, w);
    Word prorate = Slice(state, 2, w);
    Word unpaid_frac = b.Sub(b.ConstWord(format.One(), w), prorate);
    Word product = b.Mul(b.ZeroExtend(total_debt, w + f), b.ZeroExtend(unpaid_frac, w + f));
    Word shortfall = b.Truncate(b.ShiftRightConst(product, f), w);
    return b.ZeroExtend(shortfall, agg_bits);
  };

  return program;
}

mpc::PackedShareMatrix MakeEnInitialStates(const EnInstance& instance,
                                           const EnProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  const std::vector<uint64_t> credit = CreditsByInSlot(instance, params.format);
  // Words past a vertex's degree stay zero: the padded slots.
  mpc::PackedShareMatrix states(static_cast<size_t>(StateBits(params)), static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    auto put = [&](int word, uint64_t value) {
      states.SetColumnWord(static_cast<size_t>(v), static_cast<size_t>(word) * w, w, value);
    };
    put(0, params.format.SaturateValue(instance.cash[v]));
    put(1, params.format.SaturateValue(instance.TotalDebtOf(v)));
    put(2, params.format.One());  // prorate = 1.0
    const int out_slots = std::min(g.OutDegree(v), d_bound);
    for (int d = 0; d < out_slots; d++) {
      put(3 + d, params.format.SaturateValue(instance.debts[v][d]));
    }
    // In-slot credits: what the in-neighbor owes me.
    const int in_slots = std::min(g.InDegree(v), d_bound);
    for (int d = 0; d < in_slots; d++) {
      put(3 + d_bound + d, credit[g.in_start(v) + static_cast<size_t>(d)]);
    }
  }
  return states;
}

uint64_t EnSolveFixed(const EnInstance& instance, const EnProgramParams& params,
                      std::vector<uint64_t>* prorate_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int f = params.format.frac_bits;
  const uint64_t one = params.format.One();
  const uint64_t max_value = params.format.MaxValue();

  std::vector<uint64_t> cash(n), total_debt(n);
  for (int v = 0; v < n; v++) {
    cash[v] = params.format.SaturateValue(instance.cash[v]);
    total_debt[v] = params.format.SaturateValue(instance.TotalDebtOf(v));
  }
  // Flat arrays: per in-slot, the credit it is owed and the last shortfall
  // notice it received; per out-edge, its debt and the in-slot its notice
  // lands in.
  const std::vector<uint64_t> credit = CreditsByInSlot(instance, params.format);
  std::vector<uint64_t> shortfall_in(credit.size(), 0);
  std::vector<uint64_t> debt(credit.size());
  std::vector<size_t> target(credit.size());
  for (size_t e = 0; e < target.size(); e++) {
    target[e] = g.in_flat(e);
    debt[e] = credit[target[e]];
  }
  std::vector<uint64_t> prorate(n, one);

  // Mirrors the runtime: iterations+1 computation steps with a
  // communication step between consecutive ones.
  for (int step = 0; step <= params.iterations; step++) {
    for (int v = 0; v < n; v++) {
      uint64_t liquid = cash[v];
      for (size_t k = g.in_start(v); k < g.in_start(v + 1); k++) {
        liquid += shortfall_in[k] > credit[k] ? 0 : credit[k] - shortfall_in[k];
      }
      liquid = std::min(liquid, max_value);
      uint64_t ratio = total_debt[v] == 0 ? one : (liquid << f) / total_debt[v];
      prorate[v] = std::min(ratio, one);
    }
    if (step == params.iterations) {
      break;
    }
    // Communication: update shortfall notices.
    for (int v = 0; v < n; v++) {
      uint64_t unpaid_frac = one - prorate[v];
      for (size_t e = g.out_start(v); e < g.out_start(v + 1); e++) {
        shortfall_in[target[e]] = (debt[e] * unpaid_frac) >> f;
      }
    }
  }

  if (prorate_out != nullptr) {
    *prorate_out = prorate;
  }
  uint64_t tds = 0;
  for (int v = 0; v < n; v++) {
    tds += (total_debt[v] * (one - prorate[v])) >> f;
  }
  return tds;
}

double EnSolveExact(const EnInstance& instance, int iterations,
                    std::vector<double>* prorates_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  std::vector<double> total_debt(n, 0.0);
  for (int v = 0; v < n; v++) {
    total_debt[v] = static_cast<double>(instance.TotalDebtOf(v));
  }
  std::vector<double> p(n, 1.0);
  for (int it = 0; it <= iterations; it++) {
    std::vector<double> next(n, 1.0);
    for (int v = 0; v < n; v++) {
      double liquid = static_cast<double>(instance.cash[v]);
      for (int d = 0; d < g.InDegree(v); d++) {
        int j = g.InNeighbors(v)[d];
        const auto& out = g.OutNeighbors(j);
        for (size_t s = 0; s < out.size(); s++) {
          if (out[s] == v) {
            liquid += static_cast<double>(instance.debts[j][s]) * p[j];
            break;
          }
        }
      }
      next[v] = total_debt[v] == 0 ? 1.0 : std::min(1.0, liquid / total_debt[v]);
    }
    p = next;
  }
  if (prorates_out != nullptr) {
    *prorates_out = p;
  }
  double tds = 0;
  for (int v = 0; v < n; v++) {
    tds += total_debt[v] * (1.0 - p[v]);
  }
  return tds;
}

}  // namespace dstress::finance
