#include "src/mpc/packed.h"

#include "src/common/check.h"

namespace dstress::mpc {

BitVector PackedShareMatrix::Instance(size_t j) const {
  DSTRESS_CHECK(j < instances_);
  BitVector out(rows_);
  for (size_t r = 0; r < rows_; r++) {
    out[r] = Get(r, j) ? 1 : 0;
  }
  return out;
}

void PackedShareMatrix::SetInstance(size_t j, const BitVector& bits) {
  DSTRESS_CHECK(j < instances_ && bits.size() == rows_);
  for (size_t r = 0; r < rows_; r++) {
    Set(r, j, bits[r] & 1);
  }
}

void PackedShareMatrix::SetColumnWord(size_t j, size_t first_row, int width, uint64_t value) {
  DSTRESS_CHECK(j < instances_ && width >= 1 && width <= 64 && first_row + width <= rows_);
  const int shift = static_cast<int>(j % 64);
  const uint64_t keep = ~(1ULL << shift);
  uint64_t* w = data_.data() + first_row * wpr_ + j / 64;
  for (int i = 0; i < width; i++, w += wpr_) {
    *w = (*w & keep) | (((value >> i) & 1) << shift);
  }
}

uint64_t PackedShareMatrix::GetLaneGroup(size_t r, size_t first, int count) const {
  DSTRESS_CHECK(count >= 1 && count <= 64 && first + count <= instances_);
  const uint64_t* w = row(r);
  const size_t word = first / 64;
  const int shift = static_cast<int>(first % 64);
  uint64_t bits = w[word] >> shift;
  if (shift != 0 && shift + count > 64) {
    bits |= w[word + 1] << (64 - shift);
  }
  if (count < 64) {
    bits &= (1ULL << count) - 1;
  }
  return bits;
}

void PackedShareMatrix::SetLaneGroup(size_t r, size_t first, int count, uint64_t bits) {
  DSTRESS_CHECK(count >= 1 && count <= 64 && first + count <= instances_);
  const uint64_t mask = count == 64 ? ~0ULL : (1ULL << count) - 1;
  bits &= mask;
  uint64_t* w = row(r);
  const size_t word = first / 64;
  const int shift = static_cast<int>(first % 64);
  w[word] = (w[word] & ~(mask << shift)) | (bits << shift);
  if (shift != 0 && shift + count > 64) {
    const int spill = shift + count - 64;
    const uint64_t spill_mask = (1ULL << spill) - 1;
    w[word + 1] = (w[word + 1] & ~spill_mask) | (bits >> (64 - shift));
  }
}

}  // namespace dstress::mpc
