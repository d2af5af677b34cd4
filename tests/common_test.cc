#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/bits.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"

namespace dstress {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(HexEncode(data), "0001abff7f");
  EXPECT_EQ(HexDecode("0001abff7f"), data);
  EXPECT_EQ(HexDecode("0001ABFF7F"), data);
  EXPECT_EQ(HexDecode(""), Bytes{});
}

TEST(ByteWriterTest, LittleEndianLayout) {
  ByteWriter w;
  w.U8(0x12);
  w.U16(0x3456);
  w.U32(0x789abcde);
  w.U64(0x0102030405060708ULL);
  EXPECT_EQ(HexEncode(w.bytes()), "125634debc9a780807060504030201");
}

TEST(ByteReaderTest, ReadsBackWriterOutput) {
  ByteWriter w;
  w.U8(7);
  w.U16(1234);
  w.U32(567890);
  w.U64(~0ULL);
  w.Blob({1, 2, 3});
  Bytes raw = w.Take();
  ByteReader r(raw);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 1234);
  EXPECT_EQ(r.U32(), 567890u);
  EXPECT_EQ(r.U64(), ~0ULL);
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteReaderTest, RemainingTracksCursor) {
  Bytes raw = {1, 2, 3, 4};
  ByteReader r(raw);
  EXPECT_EQ(r.remaining(), 4u);
  r.U16();
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(RngTest, Deterministic) {
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 100; i++) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(10);
  constexpr double kScale = 3.0;
  constexpr int kTrials = 20000;
  double sum = 0, abs_sum = 0;
  for (int i = 0; i < kTrials; i++) {
    double v = rng.Laplace(kScale);
    sum += v;
    abs_sum += std::fabs(v);
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.15);
  // E|Laplace(b)| = b.
  EXPECT_NEAR(abs_sum / kTrials, kScale, 0.15);
}

TEST(RngTest, GeometricMean) {
  Rng rng(11);
  constexpr double kP = 0.25;
  constexpr int kTrials = 20000;
  double sum = 0;
  for (int i = 0; i < kTrials; i++) {
    int64_t v = rng.Geometric(kP);
    ASSERT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  // E[Geo(p)] = (1-p)/p = 3.
  EXPECT_NEAR(sum / kTrials, 3.0, 0.2);
}

TEST(RngTest, TwoSidedGeometricSymmetry) {
  Rng rng(12);
  constexpr double kAlpha = 0.7;
  constexpr int kTrials = 20000;
  double sum = 0;
  int zeros = 0;
  for (int i = 0; i < kTrials; i++) {
    int64_t v = rng.TwoSidedGeometric(kAlpha);
    sum += static_cast<double>(v);
    zeros += v == 0 ? 1 : 0;
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.1);
  // P(0) = (1-a)/(1+a) ~ 0.176.
  EXPECT_NEAR(static_cast<double>(zeros) / kTrials, (1 - kAlpha) / (1 + kAlpha), 0.02);
}

// CopyBits/XorBits against a per-bit reference at every (source, dest)
// alignment pair, for counts that stay inside a word, fill one exactly,
// straddle one and span several; bits outside the destination range must
// not move.
TEST(BitsTest, WordLevelRangeCopyMatchesPerBitReference) {
  constexpr size_t kWords = 6;
  Rng rng(91);
  PackedBits src(kWords), base(kWords);
  for (size_t w = 0; w < kWords; w++) {
    src[w] = rng.Next();
    base[w] = rng.Next();
  }
  for (size_t src_off = 0; src_off < 64; src_off++) {
    for (size_t dst_off = 0; dst_off < 64; dst_off++) {
      for (size_t count : {0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 200, 256}) {
        PackedBits copy = base, xored = base;
        CopyBits(copy.data(), dst_off, src.data(), src_off, count);
        XorBits(xored.data(), dst_off, src.data(), src_off, count);
        PackedBits want_copy = base, want_xor = base;
        for (size_t i = 0; i < count; i++) {
          SetBit(want_copy, dst_off + i, GetBit(src, src_off + i));
          SetBit(want_xor, dst_off + i, GetBit(base, dst_off + i) != GetBit(src, src_off + i));
        }
        ASSERT_EQ(copy, want_copy) << "src_off " << src_off << " dst_off " << dst_off << " count "
                                   << count;
        ASSERT_EQ(xored, want_xor) << "src_off " << src_off << " dst_off " << dst_off
                                   << " count " << count;
      }
    }
  }
}

// The transpose maps bit c of word r to bit r of word c, and is its own
// inverse.
TEST(BitsTest, Transpose64x64MovesEveryBit) {
  Rng rng(92);
  uint64_t x[64], t[64];
  for (int r = 0; r < 64; r++) {
    x[r] = t[r] = rng.Next();
  }
  TransposeBits64x64(t);
  for (int r = 0; r < 64; r++) {
    for (int c = 0; c < 64; c++) {
      ASSERT_EQ((t[c] >> r) & 1, (x[r] >> c) & 1) << r << "," << c;
    }
  }
  TransposeBits64x64(t);
  EXPECT_TRUE(std::equal(t, t + 64, x));
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; i++) {
    sink += std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(sink, 0.0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  double first = sw.ElapsedSeconds();
  EXPECT_GE(sw.ElapsedSeconds(), first);
  sw.Reset();
  EXPECT_LE(sw.ElapsedSeconds(), first + 1.0);
}

}  // namespace
}  // namespace dstress
