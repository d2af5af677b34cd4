#include "src/ot/iknp.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/sha256.h"

namespace dstress::ot {

namespace {

// Expands a 16-byte base-OT key into a ChaCha20 PRG.
crypto::ChaCha20Prg PrgFromKey(const OtKey& key, uint64_t stream_id) {
  auto digest = crypto::Sha256::Hash(key.data(), key.size());
  std::array<uint8_t, 32> full;
  std::memcpy(full.data(), digest.data(), 32);
  return crypto::ChaCha20Prg(full, stream_id);
}

// Transposes the kappa columns (column i = words `words` at cols + i*words)
// into per-OT 128-bit rows (row j = rows[2j], rows[2j+1]) for j < count,
// one 64x64 block at a time.
void ColumnsToRows(const uint64_t* cols, size_t words, size_t count, uint64_t* rows) {
  uint64_t block[64];
  for (size_t w = 0; w < words; w++) {
    const size_t n = std::min<size_t>(64, count - 64 * w);
    for (int h = 0; h < 2; h++) {
      for (int k = 0; k < 64; k++) {
        block[k] = cols[(64 * static_cast<size_t>(h) + k) * words + w];
      }
      TransposeBits64x64(block);
      for (size_t r = 0; r < n; r++) {
        rows[2 * (64 * w + r) + h] = block[r];
      }
    }
  }
}

// Domain tag of the row hash ("IKNP-row", little-endian), in nonce words
// 0-1 of its ChaCha20 input state.
constexpr uint64_t kRowHashTag = 0x776f722d504e4b49ULL;

// Sets bit j of `out` (zeroed, PackedWords(count) words) to the
// correlation-robust hash H(first_index + j, row_j ^ mask), where row_j =
// (rows[2j], rows[2j+1]): bit 0 of the ChaCha20 block function (pi(s) + s)
// of a state s holding the row in key words 0-3, the OT index in key words
// 4-5 and the domain tag in the nonce. kChaCha20Lanes rows per kernel call.
void HashRows(const uint64_t* rows, size_t count, uint64_t first_index, const uint64_t mask[2],
              uint64_t* out) {
  constexpr size_t kLanes = crypto::kChaCha20Lanes;
  crypto::ChaCha20Lanes in = crypto::ChaCha20InputLanes();
  for (size_t l = 0; l < kLanes; l++) {
    in.words[13][l] = static_cast<uint32_t>(kRowHashTag);
    in.words[14][l] = static_cast<uint32_t>(kRowHashTag >> 32);
  }
  crypto::ChaCha20Lanes hashed;
  for (size_t j0 = 0; j0 < count; j0 += kLanes) {
    const size_t n = std::min(kLanes, count - j0);
    for (size_t l = 0; l < n; l++) {
      const size_t j = j0 + l;
      const uint64_t row[2] = {rows[2 * j] ^ mask[0], rows[2 * j + 1] ^ mask[1]};
      const uint64_t index = first_index + j;
      in.words[4][l] = static_cast<uint32_t>(row[0]);
      in.words[5][l] = static_cast<uint32_t>(row[0] >> 32);
      in.words[6][l] = static_cast<uint32_t>(row[1]);
      in.words[7][l] = static_cast<uint32_t>(row[1] >> 32);
      in.words[8][l] = static_cast<uint32_t>(index);
      in.words[9][l] = static_cast<uint32_t>(index >> 32);
    }
    crypto::ChaCha20BlockLanes(in, &hashed);
    for (size_t l = 0; l < n; l++) {
      const size_t j = j0 + l;
      out[j / 64] |= static_cast<uint64_t>(hashed.words[0][l] & 1) << (j % 64);
    }
  }
}

}  // namespace

IknpSender::IknpSender(net::Transport* net, net::NodeId self, net::NodeId peer,
                       crypto::ChaCha20Prg& prg, net::SessionId session)
    : net_(net), self_(self), peer_(peer), session_(session) {
  // Extension sender = base-OT receiver with choice vector s.
  std::vector<bool> choices(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    bool bit = prg.NextBit();
    choices[i] = bit;
    s_bits_[i / 64] |= static_cast<uint64_t>(bit) << (i % 64);
  }
  auto base = BaseOtRecv(net_, self_, peer_, choices, prg, session_);
  seed_prg_.reserve(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    seed_prg_.push_back(PrgFromKey(base.keys[i], static_cast<uint64_t>(i)));
  }
}

RandomOtPairs IknpSender::Extend(size_t count) {
  const size_t words = PackedWords(count);
  Bytes u_block = net_->Recv(self_, peer_, session_);
  DSTRESS_CHECK(u_block.size() == static_cast<size_t>(kIknpKappa) * words * 8);

  // Column i of Q is PRG(k_i^{s_i}), XORed with u_i where s_i = 1.
  std::vector<uint64_t> q(kIknpKappa * words);
  for (int i = 0; i < kIknpKappa; i++) {
    uint64_t* col = q.data() + static_cast<size_t>(i) * words;
    seed_prg_[i].Fill(reinterpret_cast<uint8_t*>(col), words * 8);
    if ((s_bits_[i / 64] >> (i % 64)) & 1) {
      const uint8_t* u = u_block.data() + static_cast<size_t>(i) * words * 8;
      for (size_t w = 0; w < words; w++) {
        uint64_t uw;
        std::memcpy(&uw, u + w * 8, 8);
        col[w] ^= uw;
      }
    }
  }
  std::vector<uint64_t> rows(count * 2);
  ColumnsToRows(q.data(), words, count, rows.data());

  RandomOtPairs out;
  out.count = count;
  out.r0.assign(words, 0);
  out.r1.assign(words, 0);
  const uint64_t no_mask[2] = {0, 0};
  HashRows(rows.data(), count, ot_counter_, no_mask, out.r0.data());
  HashRows(rows.data(), count, ot_counter_, s_bits_, out.r1.data());
  ot_counter_ += count;
  return out;
}

IknpReceiver::IknpReceiver(net::Transport* net, net::NodeId self, net::NodeId peer,
                           crypto::ChaCha20Prg& prg, net::SessionId session)
    : net_(net), self_(self), peer_(peer), session_(session) {
  auto base = BaseOtSend(net_, self_, peer_, kIknpKappa, prg, session_);
  prg0_.reserve(kIknpKappa);
  prg1_.reserve(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    prg0_.push_back(PrgFromKey(base.keys0[i], static_cast<uint64_t>(i)));
    prg1_.push_back(PrgFromKey(base.keys1[i], static_cast<uint64_t>(i)));
  }
}

RandomOtChosen IknpReceiver::Extend(const PackedBits& choices, size_t count) {
  const size_t words = PackedWords(count);
  DSTRESS_CHECK(choices.size() >= words);

  // Column i of T is PRG(k_i^0); the sender gets u_i = t_i ^ PRG(k_i^1) ^ c.
  std::vector<uint64_t> t(kIknpKappa * words);
  std::vector<uint64_t> u_col(words);
  Bytes u_block(t.size() * 8);
  for (int i = 0; i < kIknpKappa; i++) {
    uint64_t* t_col = t.data() + static_cast<size_t>(i) * words;
    prg0_[i].Fill(reinterpret_cast<uint8_t*>(t_col), words * 8);
    prg1_[i].Fill(reinterpret_cast<uint8_t*>(u_col.data()), words * 8);
    for (size_t w = 0; w < words; w++) {
      u_col[w] ^= t_col[w] ^ choices[w];
    }
    std::memcpy(u_block.data() + static_cast<size_t>(i) * words * 8, u_col.data(), words * 8);
  }
  net_->Send(self_, peer_, std::move(u_block), session_);

  std::vector<uint64_t> rows(count * 2);
  ColumnsToRows(t.data(), words, count, rows.data());

  RandomOtChosen out;
  out.count = count;
  out.r.assign(words, 0);
  const uint64_t no_mask[2] = {0, 0};
  HashRows(rows.data(), count, ot_counter_, no_mask, out.r.data());
  ot_counter_ += count;
  return out;
}

}  // namespace dstress::ot
