// Packed-share data plane tests (docs/packed-eval.md): the bitsliced
// representations and batched evaluation paths must be bit-identical to the
// per-instance seed paths on an adversarial corpus of random circuits.
//
//  * PackedShareMatrix round-trips the column representation.
//  * EvalPlan::EvalPacked (word-parallel cleartext) == Circuit::Eval per
//    instance, for batch widths around the word boundaries.
//  * GmwParty::EvalBatch == per-instance GmwParty::Eval == Circuit::Eval on
//    reconstructed outputs, same widths.
//  * The multi-node single-scheduler mode of EvalBatchInstances (many
//    executing nodes, heterogeneous circuits, one thread) matches cleartext.
#include <gtest/gtest.h>

#include <thread>

#include "src/circuit/circuit.h"
#include "src/circuit/eval_plan.h"
#include "src/common/rng.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/gmw.h"
#include "src/mpc/packed.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"
#include "tests/lane_util.h"

namespace dstress::mpc {
namespace {

using circuit::Circuit;
using circuit::EvalPlan;
using circuit::Gate;
using circuit::GateOp;
using circuit::Wire;

// Random topologically ordered circuit: `inputs` input gates followed by
// `body` random gates over earlier wires, with random output taps. The mix
// leans on XOR/AND so both the free and the interactive paths get depth.
Circuit RandomCircuit(uint64_t seed, int inputs, int body) {
  Rng rng(seed);
  std::vector<Gate> gates;
  for (int i = 0; i < inputs; i++) {
    gates.push_back({GateOp::kInput, 0, 0});
  }
  for (int i = 0; i < body; i++) {
    Wire a = static_cast<Wire>(rng.Below(gates.size()));
    Wire b = static_cast<Wire>(rng.Below(gates.size()));
    switch (rng.Below(8)) {
      case 0:
        gates.push_back({GateOp::kConst, static_cast<Wire>(rng.Below(2)), 0});
        break;
      case 1:
        gates.push_back({GateOp::kNot, a, 0});
        break;
      case 2:
      case 3:
      case 4:
        gates.push_back({GateOp::kXor, a, b});
        break;
      default:
        gates.push_back({GateOp::kAnd, a, b});
        break;
    }
  }
  std::vector<Wire> outputs;
  int num_outputs = 1 + static_cast<int>(rng.Below(24));
  for (int i = 0; i < num_outputs; i++) {
    outputs.push_back(static_cast<Wire>(rng.Below(gates.size())));
  }
  return Circuit(std::move(gates), std::move(outputs), inputs);
}

std::vector<BitVector> RandomInstances(uint64_t seed, size_t bits, size_t count) {
  Rng rng(seed);
  std::vector<BitVector> out(count, BitVector(bits));
  for (auto& inst : out) {
    for (auto& bit : inst) {
      bit = rng.Below(2) ? 1 : 0;
    }
  }
  return out;
}

TEST(PackedShareMatrixTest, RoundTripsInstances) {
  auto instances = RandomInstances(7, 133, 70);
  PackedShareMatrix m = lanes::FromInstances(instances);
  EXPECT_EQ(m.rows(), 133u);
  EXPECT_EQ(m.instances(), 70u);
  EXPECT_EQ(m.words_per_row(), 2u);
  EXPECT_EQ(lanes::ToInstances(m), instances);
  // Column writes land in the right lanes.
  PackedShareMatrix n(133, 70);
  for (size_t j = 0; j < instances.size(); j++) {
    n.SetInstance(j, instances[j]);
  }
  for (size_t j = 0; j < instances.size(); j++) {
    EXPECT_EQ(n.Instance(j), instances[j]) << j;
  }
}

// SetColumnWord against a one-byte-per-bit model of the whole matrix: every
// width 1..64, columns in both words of a row, writes that start below row
// 64 and end above it, over a matrix pre-filled with random bits (so each
// write must clear what it overwrites and touch nothing else).
TEST(PackedShareMatrixTest, SetColumnWordOverwritesOnlyItsBits) {
  constexpr size_t kRows = 133;
  constexpr size_t kCols = 70;
  Rng rng(12);
  std::vector<BitVector> model = RandomInstances(13, kRows, kCols);
  PackedShareMatrix m = lanes::FromInstances(model);
  for (int width = 1; width <= 64; width++) {
    const size_t w = static_cast<size_t>(width);
    for (size_t first_row : {size_t{0}, 64 - (w + 1) / 2, kRows - w}) {
      for (size_t col : {size_t{0}, size_t{63}, size_t{64}, kCols - 1}) {
        const uint64_t value = rng.Next();
        m.SetColumnWord(col, first_row, width, value);
        for (size_t i = 0; i < w; i++) {
          model[col][first_row + i] = (value >> i) & 1;
        }
      }
      for (size_t j = 0; j < kCols; j++) {
        ASSERT_EQ(m.Instance(j), model[j]) << "width " << width << " first row " << first_row
                                           << " column " << j;
      }
    }
  }
}

TEST(EvalPlanTest, PackedClearTextMatchesEvalOnRandomCorpus) {
  for (uint64_t seed = 1; seed <= 12; seed++) {
    Circuit circuit = RandomCircuit(seed, 8 + seed % 13, 60 + 20 * (seed % 5));
    EvalPlan plan(circuit);
    for (size_t width : {1u, 3u, 64u, 130u}) {
      auto instances = RandomInstances(seed * 100 + width, circuit.num_inputs(), width);
      size_t wpr = (width + 63) / 64;
      std::vector<uint64_t> inputs(circuit.num_inputs() * wpr, 0);
      for (size_t j = 0; j < width; j++) {
        for (size_t i = 0; i < circuit.num_inputs(); i++) {
          if (instances[j][i] & 1) {
            inputs[i * wpr + j / 64] |= 1ULL << (j % 64);
          }
        }
      }
      std::vector<uint64_t> outputs(circuit.num_outputs() * wpr);
      plan.EvalPacked(inputs.data(), wpr, outputs.data());
      for (size_t j = 0; j < width; j++) {
        BitVector expect = circuit.Eval(instances[j]);
        for (size_t o = 0; o < circuit.num_outputs(); o++) {
          EXPECT_EQ((outputs[o * wpr + j / 64] >> (j % 64)) & 1, expect[o])
              << "seed " << seed << " width " << width << " instance " << j << " output " << o;
        }
      }
    }
  }
}

// All parties run EvalBatch over a sim transport; returns the
// reconstructed (opened) outputs per instance.
std::vector<BitVector> RunGmwBatch(const Circuit& circuit,
                                   const std::vector<BitVector>& instances, int parties,
                                   uint64_t seed) {
  EvalPlan plan(circuit);
  auto net = net::MakeSimTransport(parties);
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  // Share every instance's inputs across the parties.
  std::vector<PackedShareMatrix> party_inputs(
      parties, PackedShareMatrix(circuit.num_inputs(), instances.size()));
  for (size_t j = 0; j < instances.size(); j++) {
    auto shares = ShareBits(instances[j], parties, prg);
    for (int p = 0; p < parties; p++) {
      party_inputs[p].SetInstance(j, shares[p]);
    }
  }
  std::vector<net::NodeId> ids(parties);
  for (int p = 0; p < parties; p++) {
    ids[p] = p;
  }
  std::vector<PackedShareMatrix> party_outputs(parties);
  std::vector<std::thread> threads;
  for (int p = 0; p < parties; p++) {
    threads.emplace_back([&, p] {
      DealerTripleSource triples(p, parties, seed ^ 0x5eedULL);
      GmwParty party(net.get(), ids, p, &triples);
      BatchStats stats;
      party_outputs[p] = party.EvalBatch(plan, party_inputs[p], &stats);
      EXPECT_EQ(stats.rounds, circuit.stats().and_depth);
      EXPECT_EQ(stats.triples_consumed, circuit.stats().num_and * instances.size());
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<BitVector> opened;
  for (size_t j = 0; j < instances.size(); j++) {
    std::vector<BitVector> shares;
    for (int p = 0; p < parties; p++) {
      shares.push_back(party_outputs[p].Instance(j));
    }
    opened.push_back(ReconstructBits(shares));
  }
  return opened;
}

TEST(GmwEvalBatchTest, BitIdenticalToPerInstanceEvalOnRandomCorpus) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    Circuit circuit = RandomCircuit(seed * 31, 10, 90);
    int parties = 2 + static_cast<int>(seed % 3);
    for (size_t width : {1u, 3u, 64u, 130u}) {
      auto instances = RandomInstances(seed * 1000 + width, circuit.num_inputs(), width);
      std::vector<BitVector> batched = RunGmwBatch(circuit, instances, parties, seed);
      for (size_t j = 0; j < width; j++) {
        EXPECT_EQ(batched[j], circuit.Eval(instances[j]))
            << "seed " << seed << " width " << width << " instance " << j;
      }
    }
    // The W=1 case *is* Eval: one solo per-instance run must reconstruct to
    // the same outputs the batch did.
    auto instances = RandomInstances(seed * 7777, circuit.num_inputs(), 3);
    std::vector<BitVector> batched = RunGmwBatch(circuit, instances, parties, seed + 9);
    for (size_t j = 0; j < instances.size(); j++) {
      std::vector<BitVector> solo = RunGmwBatch(circuit, {instances[j]}, parties, seed + 9);
      EXPECT_EQ(solo[0], batched[j]) << "seed " << seed << " instance " << j;
    }
  }
}

// The runtime's single-scheduler mode: one thread, many executing nodes,
// two different circuits in one lockstep call. Every receive must be
// satisfied by a send earlier in the same round — the call would hang
// otherwise, so passing at all is half the assertion.
TEST(EvalBatchInstancesTest, SingleThreadMultiNodeHeterogeneousCircuits) {
  Circuit big = RandomCircuit(71, 12, 140);
  Circuit small = RandomCircuit(72, 6, 40);
  EvalPlan big_plan(big);
  EvalPlan small_plan(small);

  const int num_nodes = 6;
  auto net = net::MakeSimTransport(num_nodes);
  auto prg = crypto::ChaCha20Prg::FromSeed(99);

  struct Spec {
    const Circuit* circuit;
    const EvalPlan* plan;
    std::vector<net::NodeId> parties;
    uint64_t key;
  };
  std::vector<Spec> specs = {
      {&big, &big_plan, {0, 2, 4}, 0},
      {&big, &big_plan, {1, 3, 5}, 1},
      {&big, &big_plan, {5, 0, 3, 2}, 2},
      {&small, &small_plan, {2, 1}, 3},
      {&small, &small_plan, {4, 5, 0, 1, 3}, 4},
  };

  std::vector<BitVector> plain_inputs;
  std::vector<mpc::BatchInstance> items;
  std::vector<size_t> item_spec;  // which spec each item belongs to
  for (size_t s = 0; s < specs.size(); s++) {
    const Spec& spec = specs[s];
    BitVector input = RandomInstances(500 + s, spec.circuit->num_inputs(), 1)[0];
    plain_inputs.push_back(input);
    auto shares = ShareBits(input, static_cast<int>(spec.parties.size()), prg);
    for (size_t p = 0; p < spec.parties.size(); p++) {
      DealerTripleSource triples(static_cast<int>(p), static_cast<int>(spec.parties.size()),
                                 1234 + s);
      mpc::BatchInstance item;
      item.plan = spec.plan;
      item.parties = spec.parties;
      item.my_index = static_cast<int>(p);
      item.triples = triples.Generate(spec.circuit->stats().num_and);
      item.input_shares = shares[p];
      item.order_key = spec.key;
      items.push_back(std::move(item));
      item_spec.push_back(s);
    }
  }

  BatchStats stats;
  std::vector<BitVector> outputs =
      EvalBatchInstances(net.get(), /*session=*/0, std::move(items), &stats);
  EXPECT_EQ(stats.rounds,
            std::max(big.stats().and_depth, small.stats().and_depth));

  // Reconstruct each spec's outputs from its parties' shares.
  for (size_t s = 0; s < specs.size(); s++) {
    std::vector<BitVector> shares;
    for (size_t i = 0; i < outputs.size(); i++) {
      if (item_spec[i] == s) {
        shares.push_back(outputs[i]);
      }
    }
    EXPECT_EQ(ReconstructBits(shares), specs[s].circuit->Eval(plain_inputs[s])) << "spec " << s;
  }
}

}  // namespace
}  // namespace dstress::mpc
