#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dstress::crypto {
namespace {

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20Test, Rfc8439BlockVector) {
  uint8_t key[32];
  for (int i = 0; i < 32; i++) {
    key[i] = static_cast<uint8_t>(i);
  }
  uint8_t nonce[12] = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t out[64];
  ChaCha20Block(key, nonce, 1, out);
  const std::string expected =
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
  EXPECT_EQ(HexEncode(out, 64), expected);
}

// RFC 8439 appendix A.1 test vectors #1 and #2: all-zero key and nonce,
// block counters 0 and 1. The PRG's stream id 0 is the all-zero nonce and
// its counter starts at 0, so its first 128 bytes are these two blocks.
TEST(ChaCha20PrgTest, Rfc8439AppendixKeystream) {
  ChaCha20Prg prg(std::array<uint8_t, 32>{}, 0);
  const std::string expected =
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
      "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
      "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
      "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f";
  EXPECT_EQ(HexEncode(prg.NextBytes(128)), expected);
}

// Fill must yield the plain block-by-block keystream whatever the read
// pattern: every prefix offset 0-300 followed by every length 0-300, then
// one NextByte, against blocks computed one at a time.
TEST(ChaCha20PrgTest, FillMatchesBlockStreamAtEveryOffsetAndLength) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; i++) {
    key[i] = static_cast<uint8_t>(3 * i + 1);
  }
  constexpr uint64_t kStream = 0x0123456789abcdefULL;
  constexpr size_t kMax = 300;
  uint8_t nonce[12] = {};
  for (int i = 0; i < 8; i++) {
    nonce[i] = static_cast<uint8_t>(kStream >> (8 * i));
  }
  Bytes reference;
  for (uint32_t counter = 0; reference.size() < 2 * kMax + 1; counter++) {
    uint8_t block[64];
    ChaCha20Block(key.data(), nonce, counter, block);
    reference.insert(reference.end(), block, block + 64);
  }
  Bytes buf(kMax);
  for (size_t offset = 0; offset <= kMax; offset++) {
    for (size_t len = 0; len <= kMax; len++) {
      ChaCha20Prg prg(key, kStream);
      prg.Fill(buf.data(), offset);
      prg.Fill(buf.data(), len);
      ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + len, reference.begin() + offset))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(prg.NextByte(), reference[offset + len]) << "offset " << offset << " len " << len;
    }
  }
}

// Every lane of the block-function kernel computes the RFC 8439 §2.3.2
// vector when that lane holds its input, whatever the other lanes hold; the
// other lanes match one-lane ChaCha20Block calls on their own inputs.
TEST(ChaCha20Test, EveryKernelLaneMatchesRfc8439Vector) {
  uint8_t key[32];
  for (int i = 0; i < 32; i++) {
    key[i] = static_cast<uint8_t>(i);
  }
  const uint8_t nonce[12] = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string expected =
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
  auto le32 = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
  };
  for (int target = 0; target < kChaCha20Lanes; target++) {
    ChaCha20Lanes in = ChaCha20InputLanes();
    uint8_t lane_keys[kChaCha20Lanes][32];
    uint8_t lane_nonces[kChaCha20Lanes][12];
    uint32_t lane_counters[kChaCha20Lanes];
    for (int l = 0; l < kChaCha20Lanes; l++) {
      for (int i = 0; i < 32; i++) {
        lane_keys[l][i] = l == target ? key[i] : static_cast<uint8_t>(37 * l + 11 * i + 5);
      }
      for (int i = 0; i < 12; i++) {
        lane_nonces[l][i] = l == target ? nonce[i] : static_cast<uint8_t>(l + 3 * i);
      }
      lane_counters[l] = l == target ? 1 : 1000u + static_cast<uint32_t>(l);
      for (int i = 0; i < 8; i++) {
        in.words[4 + i][l] = le32(lane_keys[l] + 4 * i);
      }
      in.words[12][l] = lane_counters[l];
      for (int i = 0; i < 3; i++) {
        in.words[13 + i][l] = le32(lane_nonces[l] + 4 * i);
      }
    }
    ChaCha20Lanes out;
    ChaCha20BlockLanes(in, &out);
    for (int l = 0; l < kChaCha20Lanes; l++) {
      uint8_t bytes[64];
      for (int i = 0; i < 16; i++) {
        for (int b = 0; b < 4; b++) {
          bytes[4 * i + b] = static_cast<uint8_t>(out.words[i][l] >> (8 * b));
        }
      }
      uint8_t one_lane[64];
      ChaCha20Block(lane_keys[l], lane_nonces[l], lane_counters[l], one_lane);
      EXPECT_EQ(HexEncode(bytes, 64), HexEncode(one_lane, 64)) << "lane " << l;
      if (l == target) {
        EXPECT_EQ(HexEncode(bytes, 64), expected) << "lane " << l;
      }
    }
  }
}

TEST(ChaCha20PrgTest, Deterministic) {
  auto a = ChaCha20Prg::FromSeed(123);
  auto b = ChaCha20Prg::FromSeed(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(ChaCha20PrgTest, StreamsAreIndependent) {
  auto a = ChaCha20Prg::FromSeed(123, 0);
  auto b = ChaCha20Prg::FromSeed(123, 1);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.NextByte() == b.NextByte()) {
      same++;
    }
  }
  EXPECT_LT(same, 16);  // expected ~0.25% per byte; 16/64 would be wild
}

TEST(ChaCha20PrgTest, FillCrossesBlockBoundaries) {
  auto a = ChaCha20Prg::FromSeed(9);
  auto b = ChaCha20Prg::FromSeed(9);
  Bytes big = a.NextBytes(200);
  Bytes parts;
  for (size_t chunk : {1u, 63u, 64u, 65u, 7u}) {
    Bytes part = b.NextBytes(chunk);
    parts.insert(parts.end(), part.begin(), part.end());
  }
  ASSERT_EQ(parts.size(), 200u);
  EXPECT_EQ(parts, big);
}

TEST(ChaCha20PrgTest, NextBelowIsInRangeAndRoughlyUniform) {
  auto prg = ChaCha20Prg::FromSeed(77);
  constexpr uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < 10000; i++) {
    uint64_t v = prg.NextBelow(kBound);
    ASSERT_LT(v, kBound);
    counts[v]++;
  }
  for (uint64_t v = 0; v < kBound; v++) {
    EXPECT_GT(counts[v], 800) << "bucket " << v;
    EXPECT_LT(counts[v], 1200) << "bucket " << v;
  }
}

TEST(ChaCha20PrgTest, NextScalarBelowOrderAndNonzero) {
  auto prg = ChaCha20Prg::FromSeed(5);
  U256 order = U256::FromHex("ffffffff00000000ffffffff00000000");
  for (int i = 0; i < 50; i++) {
    U256 v = prg.NextScalar(order);
    EXPECT_FALSE(v.IsZero());
    EXPECT_LT(Cmp(v, order), 0);
  }
}

TEST(ChaCha20PrgTest, BitsAreBalanced) {
  auto prg = ChaCha20Prg::FromSeed(31);
  int ones = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; i++) {
    ones += prg.NextBit() ? 1 : 0;
  }
  EXPECT_GT(ones, kTrials / 2 - 300);
  EXPECT_LT(ones, kTrials / 2 + 300);
}

}  // namespace
}  // namespace dstress::crypto
