#include "src/common/bits.h"

namespace dstress {

namespace {

// `n` (1..64) bits of `src` starting at bit `off`, in the low bits of the
// result; reads the second word only when the range straddles it.
uint64_t LoadBits(const uint64_t* src, size_t off, size_t n) {
  const uint64_t* w = src + off / 64;
  const size_t shift = off % 64;
  uint64_t v = w[0] >> shift;
  if (shift != 0 && shift + n > 64) {
    v |= w[1] << (64 - shift);
  }
  return n == 64 ? v : v & ((1ULL << n) - 1);
}

// Walks the destination range a (partial) word at a time; `op(word, mask,
// bits)` merges `bits` (already shifted into place) into `word` under
// `mask`.
template <typename Op>
void ForEachDestWord(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off,
                     size_t count, Op op) {
  while (count > 0) {
    const size_t shift = dst_off % 64;
    const size_t n = count < 64 - shift ? count : 64 - shift;
    const uint64_t mask = (n == 64 ? ~0ULL : (1ULL << n) - 1) << shift;
    op(dst[dst_off / 64], mask, LoadBits(src, src_off, n) << shift);
    dst_off += n;
    src_off += n;
    count -= n;
  }
}

}  // namespace

void TransposeBits64x64(uint64_t x[64]) {
  // Butterfly formulated for LSB-first bit order (bit c of word r is
  // element (r, c)): each stage swaps the (row-low, col-high) quadrant
  // with the (row-high, col-low) quadrant at its scale.
  uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      uint64_t t = ((x[k] >> j) ^ x[k + j]) & mask;
      x[k] ^= t << j;
      x[k + j] ^= t;
    }
  }
}

void CopyBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t count) {
  ForEachDestWord(dst, dst_off, src, src_off, count, [](uint64_t& w, uint64_t mask, uint64_t bits) {
    w = (w & ~mask) | bits;
  });
}

void XorBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t count) {
  ForEachDestWord(dst, dst_off, src, src_off, count,
                  [](uint64_t& w, uint64_t, uint64_t bits) { w ^= bits; });
}

}  // namespace dstress
