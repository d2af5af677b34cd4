// IKNP oblivious-transfer extension (Ishai–Kilian–Nissim–Petrank 2003).
//
// Turns kappa = 128 base OTs (base_ot.h) into an unbounded stream of cheap
// random OTs on single bits using only symmetric crypto: ChaCha20 PRGs
// expand the base-OT keys into the 128 columns, 64x64 block transposes turn
// columns into per-OT rows, and a fixed-permutation hash maps each row to
// its output bit. The paper notes that Wysteria's GMW backend relies on
// exactly this optimization to keep MPC traffic low (§5.3, [41, 46]).
//
// The hash is H(j, x) = bit 0 of pi(s) + s, where s is a ChaCha20 input
// state carrying the 128-bit row x and the OT index j in its key words and
// a domain tag in its nonce words, pi is ChaCha20's fixed 20-round
// permutation, and + is the RFC 8439 block function's word-wise
// feed-forward. IKNP needs only a correlation-robust hash, and a fixed
// permutation with a feed-forward gives one (Asharov-Lindell-Schneider-
// Zohner, CCS 2013; Guo-Katz-Wang-Yu, S&P 2020); docs/offline-phase.md
// states the assumption. Rows are hashed kChaCha20Lanes at a time through
// the ChaCha20 lane kernel.
//
// Roles are named from the *extension* point of view: the extension sender
// obtains random bit pairs (r0_j, r1_j); the extension receiver chooses c_j
// and learns r_{c_j}. Internally the base OTs run with the roles reversed.
//
// Output bits are packed little-endian into uint64 words: bit j of the
// stream lives at word j/64, bit j%64.
#ifndef SRC_OT_IKNP_H_
#define SRC_OT_IKNP_H_

#include <cstdint>
#include <vector>

#include "src/common/bits.h"
#include "src/crypto/chacha20.h"
#include "src/net/transport.h"
#include "src/ot/base_ot.h"

namespace dstress::ot {

inline constexpr int kIknpKappa = 128;

struct RandomOtPairs {
  PackedBits r0;
  PackedBits r1;
  size_t count = 0;
};

struct RandomOtChosen {
  PackedBits r;  // r_j = (c_j ? r1_j : r0_j)
  size_t count = 0;
};

class IknpSender {
 public:
  // Runs the base-OT setup with `peer` (blocking; the peer must construct a
  // matching IknpReceiver).
  IknpSender(net::Transport* net, net::NodeId self, net::NodeId peer, crypto::ChaCha20Prg& prg,
             net::SessionId session = 0);

  // Produces `count` random OT pairs. Blocking: the receiver must call
  // Extend with the same count.
  RandomOtPairs Extend(size_t count);

 private:
  net::Transport* net_;
  net::NodeId self_;
  net::NodeId peer_;
  net::SessionId session_;
  uint64_t s_bits_[2] = {0, 0};               // kappa choice bits
  std::vector<crypto::ChaCha20Prg> seed_prg_;  // PRG(k_i^{s_i})
  uint64_t ot_counter_ = 0;
};

class IknpReceiver {
 public:
  IknpReceiver(net::Transport* net, net::NodeId self, net::NodeId peer, crypto::ChaCha20Prg& prg,
               net::SessionId session = 0);

  // choices is a packed bit vector of length >= count bits.
  RandomOtChosen Extend(const PackedBits& choices, size_t count);

 private:
  net::Transport* net_;
  net::NodeId self_;
  net::NodeId peer_;
  net::SessionId session_;
  std::vector<crypto::ChaCha20Prg> prg0_;  // PRG(k_i^0)
  std::vector<crypto::ChaCha20Prg> prg1_;  // PRG(k_i^1)
  uint64_t ot_counter_ = 0;
};

}  // namespace dstress::ot

#endif  // SRC_OT_IKNP_H_
