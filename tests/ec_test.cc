#include "src/crypto/ec.h"

#include <gtest/gtest.h>

#include "src/crypto/chacha20.h"

namespace dstress::crypto {
namespace {

EcPoint RandomPoint(ChaCha20Prg& prg) { return MulBase(prg.NextScalar(CurveOrder())); }

TEST(EcTest, GeneratorIsOnCurve) {
  Fp x = Fp::FromUint64(0), y = Fp::FromUint64(0);
  EcPoint::Generator().ToAffine(&x, &y);
  EXPECT_EQ(y.Square(), x.Square() * x + Fp::FromUint64(7));
}

TEST(EcTest, KnownDoubleOfGenerator) {
  // 2*G for secp256k1 (public test vector).
  Fp x = Fp::FromUint64(0), y = Fp::FromUint64(0);
  EcPoint::Generator().Double().ToAffine(&x, &y);
  EXPECT_EQ(x.raw().ToHex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(y.raw().ToHex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(EcTest, GeneratorHasGroupOrder) {
  EXPECT_TRUE(EcPoint::Generator().Mul(CurveOrder()).IsInfinity());
  U256 n_minus_1;
  SubWithBorrow(CurveOrder(), U256::One(), &n_minus_1);
  EXPECT_EQ(EcPoint::Generator().Mul(n_minus_1), EcPoint::Generator().Neg());
}

TEST(EcTest, InfinityIsIdentity) {
  auto prg = ChaCha20Prg::FromSeed(1);
  EcPoint p = RandomPoint(prg);
  EXPECT_EQ(p.Add(EcPoint::Infinity()), p);
  EXPECT_EQ(EcPoint::Infinity().Add(p), p);
  EXPECT_TRUE(EcPoint::Infinity().Double().IsInfinity());
}

TEST(EcTest, AdditionCommutesAndAssociates) {
  auto prg = ChaCha20Prg::FromSeed(2);
  for (int i = 0; i < 20; i++) {
    EcPoint a = RandomPoint(prg);
    EcPoint b = RandomPoint(prg);
    EcPoint c = RandomPoint(prg);
    EXPECT_EQ(a.Add(b), b.Add(a));
    EXPECT_EQ(a.Add(b).Add(c), a.Add(b.Add(c)));
  }
}

TEST(EcTest, NegCancels) {
  auto prg = ChaCha20Prg::FromSeed(3);
  for (int i = 0; i < 20; i++) {
    EcPoint p = RandomPoint(prg);
    EXPECT_TRUE(p.Add(p.Neg()).IsInfinity());
  }
}

TEST(EcTest, DoubleMatchesSelfAdd) {
  auto prg = ChaCha20Prg::FromSeed(4);
  for (int i = 0; i < 20; i++) {
    EcPoint p = RandomPoint(prg);
    EXPECT_EQ(p.Add(p), p.Double());
  }
}

TEST(EcTest, MulBaseMatchesGenericMul) {
  auto prg = ChaCha20Prg::FromSeed(5);
  for (int i = 0; i < 50; i++) {
    U256 k = prg.NextScalar(CurveOrder());
    EXPECT_EQ(MulBase(k), EcPoint::Generator().Mul(k));
  }
}

TEST(EcTest, MulIsHomomorphicInScalar) {
  auto prg = ChaCha20Prg::FromSeed(6);
  for (int i = 0; i < 20; i++) {
    U256 a = prg.NextScalar(CurveOrder());
    U256 b = prg.NextScalar(CurveOrder());
    U256 sum = ModAdd(a, b, CurveOrder());
    EXPECT_EQ(MulBase(a).Add(MulBase(b)), MulBase(sum));
  }
}

TEST(EcTest, MulAssociatesWithScalarProduct) {
  auto prg = ChaCha20Prg::FromSeed(7);
  for (int i = 0; i < 10; i++) {
    EcPoint p = RandomPoint(prg);
    U256 a = prg.NextScalar(CurveOrder());
    U256 b = prg.NextScalar(CurveOrder());
    EXPECT_EQ(p.Mul(a).Mul(b), p.Mul(ModMul(a, b, CurveOrder())));
  }
}

TEST(EcTest, MulByZeroAndOne) {
  auto prg = ChaCha20Prg::FromSeed(8);
  EcPoint p = RandomPoint(prg);
  EXPECT_TRUE(p.Mul(U256::Zero()).IsInfinity());
  EXPECT_EQ(p.Mul(U256::One()), p);
}

class EcSmallScalarTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcSmallScalarTest, MulMatchesRepeatedAddition) {
  uint64_t k = GetParam();
  auto prg = ChaCha20Prg::FromSeed(900 + k);
  EcPoint p = RandomPoint(prg);
  EcPoint expected = EcPoint::Infinity();
  for (uint64_t i = 0; i < k; i++) {
    expected = expected.Add(p);
  }
  EXPECT_EQ(p.Mul(U256(k)), expected);
}

INSTANTIATE_TEST_SUITE_P(SmallScalars, EcSmallScalarTest,
                         ::testing::Values(0, 1, 2, 3, 5, 15, 16, 17, 31, 32, 33, 100, 255));

TEST(EcTest, CompressRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(9);
  for (int i = 0; i < 30; i++) {
    EcPoint p = RandomPoint(prg);
    auto compressed = p.Compress();
    auto back = EcPoint::Decompress(compressed.data());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(EcTest, CompressInfinity) {
  auto compressed = EcPoint::Infinity().Compress();
  for (uint8_t byte : compressed) {
    EXPECT_EQ(byte, 0);
  }
  auto back = EcPoint::Decompress(compressed.data());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->IsInfinity());
}

TEST(EcTest, DecompressRejectsBadPrefix) {
  auto prg = ChaCha20Prg::FromSeed(10);
  auto compressed = RandomPoint(prg).Compress();
  compressed[0] = 0x05;
  EXPECT_FALSE(EcPoint::Decompress(compressed.data()).has_value());
}

TEST(EcTest, DecompressRejectsNonCurveX) {
  // x = 3 has no square root for y^2 = x^3 + 7? Check: 27+7=34; whether 34
  // is a residue depends on p — search for a rejecting x instead.
  int rejected = 0;
  for (uint64_t x = 1; x < 40; x++) {
    std::array<uint8_t, 33> buf{};
    buf[0] = 0x02;
    U256(x).ToBytesBe(buf.data() + 1);
    if (!EcPoint::Decompress(buf.data()).has_value()) {
      rejected++;
    }
  }
  EXPECT_GT(rejected, 5);  // about half of all x should fail
}

TEST(EcTest, CompressBatchMatchesIndividual) {
  auto prg = ChaCha20Prg::FromSeed(11);
  std::vector<EcPoint> points;
  for (int i = 0; i < 17; i++) {
    points.push_back(RandomPoint(prg));
  }
  points.push_back(EcPoint::Infinity());
  points.push_back(RandomPoint(prg));
  std::vector<uint8_t> batch(points.size() * EcPoint::kCompressedSize);
  EcPoint::CompressBatch(points.data(), points.size(), batch.data());
  for (size_t i = 0; i < points.size(); i++) {
    auto single = points[i].Compress();
    EXPECT_EQ(0, memcmp(single.data(), batch.data() + i * EcPoint::kCompressedSize,
                        EcPoint::kCompressedSize))
        << "index " << i;
  }
}

// The affine overload writes the same encodings as compressing the
// Jacobian points, infinity included.
TEST(EcTest, CompressBatchOfAffinePointsMatchesJacobian) {
  auto prg = ChaCha20Prg::FromSeed(13);
  std::vector<EcPoint> points;
  for (int i = 0; i < 9; i++) {
    points.push_back(RandomPoint(prg).Double());
  }
  points.push_back(EcPoint::Infinity());
  std::vector<AffinePoint> affine(points.size());
  EcPoint::ToAffineBatch(points.data(), points.size(), affine.data());
  std::vector<uint8_t> from_jacobian(points.size() * EcPoint::kCompressedSize);
  std::vector<uint8_t> from_affine(points.size() * EcPoint::kCompressedSize);
  EcPoint::CompressBatch(points.data(), points.size(), from_jacobian.data());
  EcPoint::CompressBatch(affine.data(), affine.size(), from_affine.data());
  EXPECT_EQ(from_affine, from_jacobian);
}

// The GLV split reconstructs its scalar: e = sign1*k1 + lambda*sign2*k2
// (mod n) with both halves short, checked with the generic bit-serial
// ModMul on random scalars and on the edges of [0, n).
TEST(EcTest, GlvSplitReconstructsScalar) {
  const U256& n = CurveOrder();
  const U256 lambda = U256::FromHex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  auto prg = ChaCha20Prg::FromSeed(14);
  std::vector<U256> scalars = {U256::Zero(), U256::One(), U256(2), lambda};
  U256 n_minus_1;
  SubWithBorrow(n, U256::One(), &n_minus_1);
  scalars.push_back(n_minus_1);
  for (int i = 0; i < 200; i++) {
    U256 e = prg.NextU256();
    while (Cmp(e, n) >= 0) {
      SubWithBorrow(e, n, &e);
    }
    scalars.push_back(e);
  }
  for (const U256& e : scalars) {
    U256 k1, k2;
    int sign1 = 0, sign2 = 0;
    SplitScalarGlv(e, &k1, &sign1, &k2, &sign2);
    EXPECT_LE(k1.BitLength(), 128);
    EXPECT_LE(k2.BitLength(), 128);
    U256 term1 = sign1 > 0 ? k1 : ModSub(U256::Zero(), k1, n);
    U256 term2 = ModMul(lambda, sign2 > 0 ? k2 : ModSub(U256::Zero(), k2, n), n);
    EXPECT_EQ(ModAdd(term1, term2, n), e) << e.ToHex();
  }
}

TEST(EcTest, EqualityAcrossRepresentations) {
  // The same point reached via different operation orders has different
  // Jacobian coordinates but must compare equal.
  auto prg = ChaCha20Prg::FromSeed(12);
  EcPoint p = RandomPoint(prg);
  EcPoint via_double = p.Double().Add(p);  // 3P
  EcPoint via_add = p.Add(p).Add(p);       // 3P
  EcPoint via_mul = p.Mul(U256(3));
  EXPECT_EQ(via_double, via_add);
  EXPECT_EQ(via_double, via_mul);
}

}  // namespace
}  // namespace dstress::crypto
