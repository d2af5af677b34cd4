// ChaCha20 stream cipher (RFC 8439 block function) and a PRG built on it.
//
// ChaCha20Prg is the cryptographic randomness source for the protocol stack:
// ephemeral ElGamal keys, OT choice bits, GMW share masks, and the jointly
// seeded in-MPC noise draw all pull from instances of this generator.
#ifndef SRC_CRYPTO_CHACHA20_H_
#define SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"
#include "src/crypto/u256.h"

namespace dstress::crypto {

// Blocks per call of the block-function kernel.
inline constexpr int kChaCha20Lanes = 4;

// The 16-word states of one kernel call, word-major: words[i][l] is word i
// of lane l, in RFC 8439 §2.3 order (4 constants, 8 key words, the block
// counter, 3 nonce words).
struct ChaCha20Lanes {
  uint32_t words[16][kChaCha20Lanes];
};

// Lanes holding the RFC 8439 constants in words 0-3 and zero elsewhere.
ChaCha20Lanes ChaCha20InputLanes();

// The RFC 8439 block function on every lane at once: out = pi(in) + in,
// word-wise mod 2^32, where pi is ChaCha's fixed 20-round permutation of
// the 512-bit state and the addition is the block function's feed-forward.
// One kernel on GCC/Clang vector types (SSE2 on x86-64, no -march needed);
// `out` may alias `in`.
void ChaCha20BlockLanes(const ChaCha20Lanes& in, ChaCha20Lanes* out);

// Computes one 64-byte ChaCha20 block for (key, nonce, counter): the
// one-lane call of ChaCha20BlockLanes.
void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]);

class ChaCha20Prg {
 public:
  // Deterministic PRG from a 32-byte key. The 12-byte nonce defaults to a
  // stream id, letting one key derive independent streams.
  explicit ChaCha20Prg(const std::array<uint8_t, 32>& key, uint64_t stream_id = 0);
  // Convenience: derives the key by hashing a 64-bit seed. Test/simulation
  // entry point; protocol code should pass full-entropy keys.
  static ChaCha20Prg FromSeed(uint64_t seed, uint64_t stream_id = 0);

  // Writes the next `len` bytes of the stream. Whole blocks go straight
  // from the kernel into `out`, up to kChaCha20Lanes per call; only a
  // partial tail block is buffered. The byte stream does not depend on how
  // reads are split.
  void Fill(uint8_t* out, size_t len);
  Bytes NextBytes(size_t len);
  uint8_t NextByte();
  uint64_t NextU64();
  bool NextBit();
  // Uniform value below `bound` (rejection sampled).
  uint64_t NextBelow(uint64_t bound);
  // Uniform 256-bit value.
  U256 NextU256();
  // Uniform nonzero scalar below `order` (rejection sampled) — used for
  // ElGamal secret/ephemeral keys and neighbor keys.
  U256 NextScalar(const U256& order);

 private:
  // Writes the next `blocks` (1..kChaCha20Lanes) blocks of the stream to
  // `out` with one kernel call.
  void NextBlocks(uint8_t* out, int blocks);

  // One buffered block only: the IKNP sessions hold hundreds of these
  // generators per node pair.
  uint32_t key_[8];
  uint32_t nonce_[3];
  uint64_t counter_ = 0;  // next block; the RFC counter is its low 32 bits
  uint8_t block_[64];
  size_t pos_ = 64;
  // Bit-level buffer for NextBit().
  uint8_t bit_byte_ = 0;
  int bits_left_ = 0;
};

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_CHACHA20_H_
