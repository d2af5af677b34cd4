#include <gtest/gtest.h>

#include <thread>

#include "src/crypto/sha256.h"
#include "src/net/sim_network.h"
#include "src/ot/base_ot.h"
#include "src/ot/iknp.h"

namespace dstress::ot {
namespace {

TEST(BaseOtTest, ReceiverLearnsChosenKeyOnly) {
  net::SimNetwork net(2);
  constexpr int kCount = 32;
  std::vector<bool> choices(kCount);
  for (int i = 0; i < kCount; i++) {
    choices[i] = (i % 3) == 0;
  }
  BaseOtSenderOutput sender_out;
  BaseOtReceiverOutput receiver_out;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(1);
    sender_out = BaseOtSend(&net, 0, 1, kCount, prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(2);
    receiver_out = BaseOtRecv(&net, 1, 0, choices, prg);
  });
  sender.join();
  receiver.join();
  ASSERT_EQ(sender_out.keys0.size(), static_cast<size_t>(kCount));
  ASSERT_EQ(receiver_out.keys.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    const OtKey& chosen = choices[i] ? sender_out.keys1[i] : sender_out.keys0[i];
    const OtKey& other = choices[i] ? sender_out.keys0[i] : sender_out.keys1[i];
    EXPECT_EQ(receiver_out.keys[i], chosen) << i;
    EXPECT_NE(receiver_out.keys[i], other) << i;
  }
}

TEST(BaseOtTest, KeysAreDistinctAcrossTransfers) {
  net::SimNetwork net(2);
  BaseOtSenderOutput sender_out;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(3);
    sender_out = BaseOtSend(&net, 0, 1, 8, prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(4);
    BaseOtRecv(&net, 1, 0, std::vector<bool>(8, false), prg);
  });
  sender.join();
  receiver.join();
  for (int i = 0; i < 8; i++) {
    for (int j = i + 1; j < 8; j++) {
      EXPECT_NE(sender_out.keys0[i], sender_out.keys0[j]);
    }
    EXPECT_NE(sender_out.keys0[i], sender_out.keys1[i]);
  }
}

// Pins the base-OT keys bit for bit: the IKNP seeds, and through them every
// triple of an OT run, are derived from these keys, so any rewrite of the
// EC arithmetic behind BaseOtSend/BaseOtRecv must reproduce them exactly.
TEST(BaseOtTest, KnownAnswerDigest) {
  net::SimNetwork net(2);
  constexpr int kCount = 128;
  std::vector<bool> choices(kCount);
  auto choice_prg = crypto::ChaCha20Prg::FromSeed(60);
  for (int i = 0; i < kCount; i++) {
    choices[i] = choice_prg.NextBit();
  }
  BaseOtSenderOutput sender_out;
  BaseOtReceiverOutput receiver_out;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(61);
    sender_out = BaseOtSend(&net, 0, 1, kCount, prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(62);
    receiver_out = BaseOtRecv(&net, 1, 0, choices, prg);
  });
  sender.join();
  receiver.join();
  crypto::Sha256 h;
  for (const auto* keys : {&sender_out.keys0, &sender_out.keys1, &receiver_out.keys}) {
    ASSERT_EQ(keys->size(), static_cast<size_t>(kCount));
    for (const OtKey& key : *keys) {
      h.Update(key.data(), key.size());
    }
  }
  auto digest = h.Finish();
  EXPECT_EQ(HexEncode(digest.data(), digest.size()), "ca6002ac42acbdee699f92681b02a48f9eefe047c7b72fb0aa8e2295edb32286");
}

class IknpTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IknpTest, ExtensionDeliversChosenBits) {
  size_t count = GetParam();
  net::SimNetwork net(2);
  RandomOtPairs pairs;
  RandomOtChosen chosen;
  PackedBits choices(PackedWords(count), 0);
  auto choice_prg = crypto::ChaCha20Prg::FromSeed(50);
  choice_prg.Fill(reinterpret_cast<uint8_t*>(choices.data()), choices.size() * 8);

  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(5);
    IknpSender s(&net, 0, 1, prg);
    pairs = s.Extend(count);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(6);
    IknpReceiver r(&net, 1, 0, prg);
    chosen = r.Extend(choices, count);
  });
  sender.join();
  receiver.join();

  for (size_t j = 0; j < count; j++) {
    bool expect = GetBit(choices, j) ? GetBit(pairs.r1, j) : GetBit(pairs.r0, j);
    ASSERT_EQ(GetBit(chosen.r, j), expect) << "ot " << j;
  }
  // Sanity: the two sender strings differ in a nontrivial fraction of
  // positions (they are independent random bits).
  size_t differ = 0;
  for (size_t j = 0; j < count; j++) {
    differ += GetBit(pairs.r0, j) != GetBit(pairs.r1, j) ? 1 : 0;
  }
  if (count >= 64) {
    EXPECT_GT(differ, count / 4);
    EXPECT_LT(differ, 3 * count / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IknpTest, ::testing::Values(1, 63, 64, 65, 128, 1000, 4096));

TEST(IknpTest, RepeatedExtendsStayConsistent) {
  net::SimNetwork net(2);
  constexpr size_t kCount = 256;
  std::vector<RandomOtPairs> all_pairs;
  std::vector<RandomOtChosen> all_chosen;
  PackedBits choices(PackedWords(kCount), 0xAAAAAAAAAAAAAAAAULL);

  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(7);
    IknpSender s(&net, 0, 1, prg);
    for (int round = 0; round < 3; round++) {
      all_pairs.push_back(s.Extend(kCount));
    }
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(8);
    IknpReceiver r(&net, 1, 0, prg);
    for (int round = 0; round < 3; round++) {
      all_chosen.push_back(r.Extend(choices, kCount));
    }
  });
  sender.join();
  receiver.join();

  for (int round = 0; round < 3; round++) {
    for (size_t j = 0; j < kCount; j++) {
      bool expect = GetBit(choices, j) ? GetBit(all_pairs[round].r1, j)
                                       : GetBit(all_pairs[round].r0, j);
      ASSERT_EQ(GetBit(all_chosen[round].r, j), expect) << "round " << round << " ot " << j;
    }
  }
  // Different rounds must produce different randomness.
  EXPECT_NE(all_pairs[0].r0, all_pairs[1].r0);
}

// Pins the extension outputs bit for bit over Extends of mixed sizes (a
// partial word, a block-transpose edge, a large batch): r0, r1 and r,
// including the zero bits past `count` in the last word. The value belongs
// to the ChaCha20 row hash described in iknp.h; it moves only if the hash or
// the extension's column/row layout changes.
TEST(IknpTest, KnownAnswerDigest) {
  net::SimNetwork net(2);
  const std::vector<size_t> counts = {1, 130, 4096, 1000};
  std::vector<RandomOtPairs> all_pairs;
  std::vector<RandomOtChosen> all_chosen;
  std::vector<PackedBits> all_choices;
  auto choice_prg = crypto::ChaCha20Prg::FromSeed(70);
  for (size_t count : counts) {
    PackedBits choices(PackedWords(count), 0);
    choice_prg.Fill(reinterpret_cast<uint8_t*>(choices.data()), choices.size() * 8);
    all_choices.push_back(std::move(choices));
  }
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(71);
    IknpSender s(&net, 0, 1, prg);
    for (size_t count : counts) {
      all_pairs.push_back(s.Extend(count));
    }
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(72);
    IknpReceiver r(&net, 1, 0, prg);
    for (size_t k = 0; k < counts.size(); k++) {
      all_chosen.push_back(r.Extend(all_choices[k], counts[k]));
    }
  });
  sender.join();
  receiver.join();
  crypto::Sha256 h;
  auto update = [&](const PackedBits& bits) {
    h.Update(reinterpret_cast<const uint8_t*>(bits.data()), bits.size() * 8);
  };
  for (size_t k = 0; k < counts.size(); k++) {
    ASSERT_EQ(all_pairs[k].r0.size(), PackedWords(counts[k]));
    ASSERT_EQ(all_chosen[k].r.size(), PackedWords(counts[k]));
    update(all_pairs[k].r0);
    update(all_pairs[k].r1);
    update(all_chosen[k].r);
  }
  auto digest = h.Finish();
  EXPECT_EQ(HexEncode(digest.data(), digest.size()), "559f2825c5e682b707e3a76fab6e74ab73f91e0a35c7f6459526950bf14d5bb3");
}

TEST(PackedBitsTest, SetGetRoundTrip) {
  PackedBits bits(3, 0);
  SetBit(bits, 0, true);
  SetBit(bits, 63, true);
  SetBit(bits, 64, true);
  SetBit(bits, 130, true);
  EXPECT_TRUE(GetBit(bits, 0));
  EXPECT_TRUE(GetBit(bits, 63));
  EXPECT_TRUE(GetBit(bits, 64));
  EXPECT_TRUE(GetBit(bits, 130));
  EXPECT_FALSE(GetBit(bits, 1));
  SetBit(bits, 63, false);
  EXPECT_FALSE(GetBit(bits, 63));
  EXPECT_EQ(PackedWords(0), 0u);
  EXPECT_EQ(PackedWords(1), 1u);
  EXPECT_EQ(PackedWords(64), 1u);
  EXPECT_EQ(PackedWords(65), 2u);
}

}  // namespace
}  // namespace dstress::ot
