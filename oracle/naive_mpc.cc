#include "oracle/naive_mpc.h"

#include <thread>
#include <vector>

#include "oracle/ot_triple_source.h"
#include "src/circuit/builder.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/mpc/gmw.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"

namespace dstress::oracle {

circuit::Circuit BuildMatMulCircuit(int matrix_n, int value_bits) {
  DSTRESS_CHECK(matrix_n >= 1);
  circuit::Builder b;
  std::vector<circuit::Word> a(static_cast<size_t>(matrix_n) * matrix_n);
  std::vector<circuit::Word> bm(static_cast<size_t>(matrix_n) * matrix_n);
  for (auto& word : a) {
    word = b.InputWord(value_bits);
  }
  for (auto& word : bm) {
    word = b.InputWord(value_bits);
  }
  for (int i = 0; i < matrix_n; i++) {
    for (int j = 0; j < matrix_n; j++) {
      circuit::Word acc = b.ConstWord(0, value_bits);
      for (int k = 0; k < matrix_n; k++) {
        acc = b.Add(acc, b.Mul(a[static_cast<size_t>(i) * matrix_n + k],
                               bm[static_cast<size_t>(k) * matrix_n + j]));
      }
      b.OutputWord(acc);
    }
  }
  return b.Build();
}

NaiveMpcResult RunNaiveMatMul(const NaiveMpcParams& params) {
  circuit::Circuit circuit = BuildMatMulCircuit(params.matrix_n, params.value_bits);

  // Random input matrices.
  auto prg = crypto::ChaCha20Prg::FromSeed(params.seed);
  mpc::BitVector inputs;
  inputs.reserve(circuit.num_inputs());
  for (size_t i = 0; i < circuit.num_inputs(); i++) {
    inputs.push_back(prg.NextBit() ? 1 : 0);
  }
  std::vector<uint8_t> expected = circuit.Eval(inputs);

  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(params.parties);
  net::Transport& net = *net_owner;
  auto shares = mpc::ShareBits(inputs, params.parties, prg);
  std::vector<mpc::BitVector> outputs(params.parties);

  NaiveMpcResult result;
  result.and_gates = circuit.stats().num_and;
  Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(params.parties);
  for (int p = 0; p < params.parties; p++) {
    threads.emplace_back([&, p] {
      std::vector<net::NodeId> ids(params.parties);
      for (int i = 0; i < params.parties; i++) {
        ids[i] = i;
      }
      std::unique_ptr<mpc::TripleSource> triples;
      if (params.use_ot_triples) {
        triples = std::make_unique<OtTripleSource>(
            &net, ids, p, crypto::ChaCha20Prg::FromSeed(params.seed + 100 + p));
      } else {
        triples = std::make_unique<mpc::DealerTripleSource>(p, params.parties, params.seed);
      }
      mpc::GmwParty party(&net, ids, p, triples.get());
      outputs[p] = party.Eval(circuit, shares[p]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  result.seconds = timer.ElapsedSeconds();
  result.total_bytes = net.TotalBytes();
  result.verified = mpc::ReconstructBits(outputs) == expected;
  return result;
}

double ExtrapolateMatrixPowerSeconds(double measured_seconds, int measured_n, int target_n,
                                     int power) {
  DSTRESS_CHECK(measured_n >= 1 && target_n >= measured_n && power >= 2);
  double ratio = static_cast<double>(target_n) / measured_n;
  return measured_seconds * ratio * ratio * ratio * (power - 1);
}

}  // namespace dstress::oracle
