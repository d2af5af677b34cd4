#include "src/ot/base_ot.h"

#include <atomic>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/ec.h"
#include "src/crypto/fixed_base.h"
#include "src/crypto/sha256.h"

namespace dstress::ot {

namespace {

using crypto::EcPoint;

std::atomic<uint64_t> g_base_ot_executions{0};

OtKey DeriveKey(uint32_t index, const uint8_t compressed[EcPoint::kCompressedSize]) {
  crypto::Sha256 h;
  uint8_t idx[4];
  std::memcpy(idx, &index, 4);
  h.Update(idx, 4);
  h.Update(compressed, EcPoint::kCompressedSize);
  auto digest = h.Finish();
  OtKey key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

}  // namespace

uint64_t BaseOtExecutionCount() { return g_base_ot_executions.load(std::memory_order_relaxed); }

BaseOtSenderOutput BaseOtSend(net::Transport* net, net::NodeId self, net::NodeId peer, int count,
                              crypto::ChaCha20Prg& prg, net::SessionId session) {
  using crypto::CurveOrder;
  using crypto::MulBase;
  constexpr size_t kPoint = EcPoint::kCompressedSize;
  g_base_ot_executions.fetch_add(1, std::memory_order_relaxed);

  crypto::U256 a = prg.NextScalar(CurveOrder());
  EcPoint big_a = MulBase(a);

  ByteWriter announce;
  auto a_compressed = big_a.Compress();
  announce.Raw(a_compressed.data(), a_compressed.size());
  net->Send(self, peer, announce.Take(), session);

  Bytes reply = net->Recv(self, peer, session);
  DSTRESS_CHECK(reply.size() == static_cast<size_t>(count) * kPoint);
  std::vector<EcPoint> b_points(count);
  DSTRESS_CHECK(EcPoint::DecompressBatch(reply.data(), count, b_points.data()));

  // a*(B_i - A) = a*B_i - a*A: one shared a*A instead of a second
  // multiplication per transfer. Products interleave (a*B_i, a*(B_i - A)).
  const EcPoint neg_aa = big_a.Mul(a).Neg();
  std::vector<EcPoint> products(2 * static_cast<size_t>(count));
  for (int i = 0; i < count; i++) {
    products[2 * i] = b_points[i].Mul(a);
    products[2 * i + 1] = products[2 * i].Add(neg_aa);
  }
  std::vector<uint8_t> compressed(products.size() * kPoint);
  EcPoint::CompressBatch(products.data(), products.size(), compressed.data());

  BaseOtSenderOutput out;
  out.keys0.reserve(count);
  out.keys1.reserve(count);
  for (int i = 0; i < count; i++) {
    out.keys0.push_back(DeriveKey(static_cast<uint32_t>(i), &compressed[(2 * i) * kPoint]));
    out.keys1.push_back(DeriveKey(static_cast<uint32_t>(i), &compressed[(2 * i + 1) * kPoint]));
  }
  return out;
}

BaseOtReceiverOutput BaseOtRecv(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const std::vector<bool>& choices, crypto::ChaCha20Prg& prg,
                                net::SessionId session) {
  using crypto::CurveOrder;
  using crypto::MulBase;
  constexpr size_t kPoint = EcPoint::kCompressedSize;
  g_base_ot_executions.fetch_add(1, std::memory_order_relaxed);
  const size_t count = choices.size();

  Bytes announce = net->Recv(self, peer, session);
  DSTRESS_CHECK(announce.size() == kPoint);
  auto big_a = EcPoint::Decompress(announce.data());
  DSTRESS_CHECK(big_a.has_value());

  std::vector<crypto::U256> secrets(count);
  std::vector<EcPoint> points(count);
  for (size_t i = 0; i < count; i++) {
    secrets[i] = prg.NextScalar(CurveOrder());
    points[i] = MulBase(secrets[i]);
    if (choices[i]) {
      points[i] = points[i].Add(*big_a);
    }
  }
  Bytes reply(count * kPoint);
  EcPoint::CompressBatch(points.data(), count, reply.data());
  net->Send(self, peer, std::move(reply), session);

  // Every b_i*A against one fixed-base table for A, in batch-affine
  // lockstep.
  const crypto::FixedBaseTable table(*big_a);
  std::vector<crypto::FixedBaseTable::Recoding> recodings(count);
  std::vector<crypto::MulTask> tasks(count);
  for (size_t i = 0; i < count; i++) {
    recodings[i] = crypto::FixedBaseTable::Recode(secrets[i]);
    tasks[i] = {&table, &recodings[i]};
  }
  std::vector<crypto::AffinePoint> shared(count);
  crypto::MulBatch(tasks.data(), count, shared.data());
  std::vector<uint8_t> compressed(count * kPoint);
  EcPoint::CompressBatch(shared.data(), count, compressed.data());

  BaseOtReceiverOutput out;
  out.keys.reserve(count);
  for (size_t i = 0; i < count; i++) {
    out.keys.push_back(DeriveKey(static_cast<uint32_t>(i), &compressed[i * kPoint]));
  }
  return out;
}

}  // namespace dstress::ot
