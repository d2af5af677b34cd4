// Base oblivious transfer (Chou–Orlandi "simplest OT"), honest-but-curious
// variant, over the from-scratch secp256k1 group.
//
// The sender publishes A = a*G; for the i-th transfer the receiver replies
// with B_i = b_i*G (choice 0) or A + b_i*G (choice 1). The sender derives
//   k_i^0 = H(i, a*B_i)        k_i^1 = H(i, a*(B_i - A))
// and the receiver derives k_i^{c_i} = H(i, b_i*A), with H = SHA-256 over
// (i, compressed point) truncated to 128 bits. These keys seed the IKNP OT
// extension (iknp.h); DStress's HbC threat model (paper §3.2) matches the
// HbC security of this construction.
//
// A batch of `count` transfers shares its EC work: the sender computes
// a*(B_i - A) as a*B_i - a*A with one shared a*A (one multiplication per
// transfer, not two), decompresses the replies and compresses every key
// point with one shared field inversion; the receiver computes every b_i*A
// against one crypto::FixedBaseTable for A with crypto::MulBatch, whose
// window levels share one inversion across the batch. The keys are the
// same group elements either way, so they are bit-identical to the
// per-transfer formulas above.
#ifndef SRC_OT_BASE_OT_H_
#define SRC_OT_BASE_OT_H_

#include <array>
#include <vector>

#include "src/crypto/chacha20.h"
#include "src/net/transport.h"

namespace dstress::ot {

using OtKey = std::array<uint8_t, 16>;

struct BaseOtSenderOutput {
  std::vector<OtKey> keys0;
  std::vector<OtKey> keys1;
};

struct BaseOtReceiverOutput {
  std::vector<OtKey> keys;  // keys[i] == (choices[i] ? keys1[i] : keys0[i])
};

// Both calls block until the peer completes its half. `count` transfers are
// performed in one batch with a single round trip.
BaseOtSenderOutput BaseOtSend(net::Transport* net, net::NodeId self, net::NodeId peer, int count,
                              crypto::ChaCha20Prg& prg, net::SessionId session = 0);

BaseOtReceiverOutput BaseOtRecv(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const std::vector<bool>& choices, crypto::ChaCha20Prg& prg,
                                net::SessionId session = 0);

// Process-wide count of base-OT protocol executions (one per BaseOtSend or
// BaseOtRecv call, i.e. one per batch of `count` transfers — the unit the
// EC-multiplication setup cost is paid in). Base OTs dominate OT-mode wall
// time, so tests and bench_fig6 assert on deltas of this counter to pin the
// triple factory's O(roles x peers) -> O(node pairs) setup dedup. Both
// endpoints of an in-process (sim transport) pairing increment it, so one
// IKNP sender/receiver setup between two nodes counts 2.
uint64_t BaseOtExecutionCount();

}  // namespace dstress::ot

#endif  // SRC_OT_BASE_OT_H_
