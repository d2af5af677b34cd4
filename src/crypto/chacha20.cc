#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/sha256.h"

namespace dstress::crypto {

namespace {

// One state word across the kernel's lanes. GCC and Clang lower the
// element-wise operators to SSE2 on x86-64 (its baseline ISA) and to
// NEON or scalar code elsewhere.
typedef uint32_t U32x4 __attribute__((vector_size(4 * kChaCha20Lanes)));

inline U32x4 Rotl(U32x4 x, int n) { return (x << n) | (x >> (32 - n)); }

inline void QuarterRound(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

constexpr uint32_t kSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// Writes lanes [0, lanes) of `x` to `out` as consecutive 64-byte blocks.
void StoreBlocks(const ChaCha20Lanes& x, int lanes, uint8_t* out) {
  for (int l = 0; l < lanes; l++) {
    for (int i = 0; i < 16; i++) {
      std::memcpy(out + 64 * l + 4 * i, &x.words[i][l], 4);
    }
  }
}

}  // namespace

ChaCha20Lanes ChaCha20InputLanes() {
  ChaCha20Lanes lanes{};
  for (int i = 0; i < 4; i++) {
    for (int l = 0; l < kChaCha20Lanes; l++) {
      lanes.words[i][l] = kSigma[i];
    }
  }
  return lanes;
}

void ChaCha20BlockLanes(const ChaCha20Lanes& in, ChaCha20Lanes* out) {
  U32x4 s[16];
  std::memcpy(s, in.words, sizeof(s));
  U32x4 x[16];
  for (int i = 0; i < 16; i++) {
    x[i] = s[i];
  }
  for (int round = 0; round < 10; round++) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++) {
    x[i] += s[i];
  }
  std::memcpy(out->words, x, sizeof(x));
}

void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]) {
  ChaCha20Lanes lanes = ChaCha20InputLanes();
  for (int i = 0; i < 8; i++) {
    lanes.words[4 + i][0] = LoadLe32(key + 4 * i);
  }
  lanes.words[12][0] = counter;
  for (int i = 0; i < 3; i++) {
    lanes.words[13 + i][0] = LoadLe32(nonce + 4 * i);
  }
  ChaCha20BlockLanes(lanes, &lanes);
  StoreBlocks(lanes, 1, out);
}

ChaCha20Prg::ChaCha20Prg(const std::array<uint8_t, 32>& key, uint64_t stream_id) {
  for (int i = 0; i < 8; i++) {
    key_[i] = LoadLe32(key.data() + 4 * i);
  }
  nonce_[0] = static_cast<uint32_t>(stream_id);
  nonce_[1] = static_cast<uint32_t>(stream_id >> 32);
  nonce_[2] = 0;
}

ChaCha20Prg ChaCha20Prg::FromSeed(uint64_t seed, uint64_t stream_id) {
  uint8_t seed_bytes[8];
  std::memcpy(seed_bytes, &seed, 8);
  Sha256Digest digest = Sha256::Hash(seed_bytes, 8);
  std::array<uint8_t, 32> key;
  std::memcpy(key.data(), digest.data(), 32);
  return ChaCha20Prg(key, stream_id);
}

void ChaCha20Prg::NextBlocks(uint8_t* out, int blocks) {
  // 256 GiB per stream is far beyond any run; never let the counter wrap.
  DSTRESS_CHECK(counter_ + blocks <= (1ULL << 32));
  ChaCha20Lanes lanes = ChaCha20InputLanes();
  for (int l = 0; l < blocks; l++) {
    for (int i = 0; i < 8; i++) {
      lanes.words[4 + i][l] = key_[i];
    }
    lanes.words[12][l] = static_cast<uint32_t>(counter_ + l);
    for (int i = 0; i < 3; i++) {
      lanes.words[13 + i][l] = nonce_[i];
    }
  }
  ChaCha20BlockLanes(lanes, &lanes);
  StoreBlocks(lanes, blocks, out);
  counter_ += blocks;
}

void ChaCha20Prg::Fill(uint8_t* out, size_t len) {
  while (len > 0) {
    if (pos_ == 64) {
      if (len >= 64) {
        const int blocks = static_cast<int>(std::min<size_t>(len / 64, kChaCha20Lanes));
        NextBlocks(out, blocks);
        out += 64 * static_cast<size_t>(blocks);
        len -= 64 * static_cast<size_t>(blocks);
        continue;
      }
      NextBlocks(block_, 1);
      pos_ = 0;
    }
    size_t take = 64 - pos_;
    if (take > len) {
      take = len;
    }
    std::memcpy(out, block_ + pos_, take);
    pos_ += take;
    out += take;
    len -= take;
  }
}

Bytes ChaCha20Prg::NextBytes(size_t len) {
  Bytes out(len);
  Fill(out.data(), len);
  return out;
}

uint8_t ChaCha20Prg::NextByte() {
  uint8_t b;
  Fill(&b, 1);
  return b;
}

uint64_t ChaCha20Prg::NextU64() {
  uint64_t v;
  Fill(reinterpret_cast<uint8_t*>(&v), 8);
  return v;
}

bool ChaCha20Prg::NextBit() {
  if (bits_left_ == 0) {
    bit_byte_ = NextByte();
    bits_left_ = 8;
  }
  bool bit = (bit_byte_ & 1) != 0;
  bit_byte_ >>= 1;
  bits_left_--;
  return bit;
}

uint64_t ChaCha20Prg::NextBelow(uint64_t bound) {
  DSTRESS_CHECK(bound > 0);
  uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

U256 ChaCha20Prg::NextU256() {
  uint8_t raw[32];
  Fill(raw, 32);
  return U256::FromBytesBe(raw);
}

U256 ChaCha20Prg::NextScalar(const U256& order) {
  // Draw only BitLength(order) bits so the acceptance probability is at
  // least 1/2 regardless of how small the order is; sampling full 256-bit
  // values would essentially never terminate for short orders.
  const int bits = order.BitLength() + 1;  // BitLength is the top set bit index
  for (;;) {
    U256 v = NextU256();
    if (bits < 256) {
      v = Shr(v, 256 - bits);
    }
    if (!v.IsZero() && Cmp(v, order) < 0) {
      return v;
    }
  }
}

}  // namespace dstress::crypto
