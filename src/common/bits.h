// Packed bit vectors and the word-level bit kernels shared by the OT
// extension (src/ot) and the MPC data plane (src/mpc).
//
// Bit j of a packed vector lives at word j/64, bit j%64 (little-endian
// within and across words).
#ifndef SRC_COMMON_BITS_H_
#define SRC_COMMON_BITS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dstress {

using PackedBits = std::vector<uint64_t>;

inline size_t PackedWords(size_t bits) { return (bits + 63) / 64; }
inline bool GetBit(const PackedBits& v, size_t i) { return (v[i / 64] >> (i % 64)) & 1; }
inline void SetBit(PackedBits& v, size_t i, bool bit) {
  if (bit) {
    v[i / 64] |= 1ULL << (i % 64);
  } else {
    v[i / 64] &= ~(1ULL << (i % 64));
  }
}

// In-place 64x64 bit-matrix transpose (the Hacker's Delight butterfly):
// afterwards, bit r of word c equals what bit c of word r was. This is the
// workhorse that moves data between bit-sliced rows and per-item words
// without touching individual bits.
void TransposeBits64x64(uint64_t x[64]);

// Bits [dst_off, dst_off + count) of `dst` become bits [src_off, src_off +
// count) of `src`; every other bit of `dst` is left as it was. Works a word
// at a time at any pair of alignments. `dst` and `src` must not overlap.
void CopyBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t count);
// Same ranges, but XORs the source bits into the destination.
void XorBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t count);

}  // namespace dstress

#endif  // SRC_COMMON_BITS_H_
