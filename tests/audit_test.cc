#include "src/audit/verify.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/engine/engine.h"
#include "src/graph/graph.h"
#include "src/net/sim_network.h"
#include "src/programs/private_sum.h"

namespace dstress::audit {
namespace {

TEST(TranscriptLogTest, ChainVerifiesAndDetectsTamper) {
  TranscriptLog log;
  log.Append(Direction::kSent, 1, 7, Bytes{1, 2, 3});
  log.Append(Direction::kReceived, 2, 7, Bytes{4, 5});
  EXPECT_TRUE(log.VerifyChain());

  // A copy whose middle event is altered no longer matches the digest.
  std::vector<Event> tampered = log.events();
  tampered[0].payload_size = 999;
  Digest seed;
  seed.fill(0);
  EXPECT_NE(TranscriptLog::FoldChain(seed, tampered), log.chain_digest());
}

TEST(TranscriptLogTest, ChainDependsOnOrder) {
  TranscriptLog a;
  a.Append(Direction::kSent, 1, 0, Bytes{1});
  a.Append(Direction::kSent, 2, 0, Bytes{2});
  TranscriptLog b;
  b.Append(Direction::kSent, 2, 0, Bytes{2});
  b.Append(Direction::kSent, 1, 0, Bytes{1});
  EXPECT_NE(a.chain_digest(), b.chain_digest());
}

TEST(TranscriptLogTest, ChainDependsOnSessionAndPeer) {
  TranscriptLog a;
  a.Append(Direction::kSent, 1, 5, Bytes{9});
  TranscriptLog b;
  b.Append(Direction::kSent, 1, 6, Bytes{9});
  TranscriptLog c;
  c.Append(Direction::kSent, 3, 5, Bytes{9});
  EXPECT_NE(a.chain_digest(), b.chain_digest());
  EXPECT_NE(a.chain_digest(), c.chain_digest());
}

TEST(AuditVerifyTest, CleanExchangePasses) {
  net::SimNetwork net(3);
  TranscriptRecorder recorder(3);
  net.SetObserver(&recorder);

  net.Send(0, 1, Bytes{1, 2}, 4);
  net.Send(1, 2, Bytes{3}, 4);
  EXPECT_EQ(net.Recv(1, 0, 4), (Bytes{1, 2}));
  EXPECT_EQ(net.Recv(2, 1, 4), (Bytes{3}));

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditVerifyTest, UndeliveredMessageIsReported) {
  net::SimNetwork net(2);
  TranscriptRecorder recorder(2);
  net.SetObserver(&recorder);

  net.Send(0, 1, Bytes{1}, 0);  // never received

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.discrepancies.size(), 1u);
  EXPECT_EQ(report.discrepancies[0].description, "sent but never received");
  EXPECT_EQ(report.discrepancies[0].sender, 0);
  EXPECT_EQ(report.discrepancies[0].receiver, 1);
}

TEST(AuditVerifyTest, ForgedReceiveIsReported) {
  net::SimNetwork net(2);
  TranscriptRecorder recorder(2);
  net.SetObserver(&recorder);

  net.Send(0, 1, Bytes{1}, 0);
  (void)net.Recv(1, 0, 0);
  // Node 1 additionally claims to have received a message node 0 never
  // sent (e.g. fabricated to frame node 0).
  recorder.mutable_log(1).Append(Direction::kReceived, 0, 0, Bytes{0xde, 0xad});

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.discrepancies.size(), 1u);
  EXPECT_EQ(report.discrepancies[0].description, "received but never sent");
  EXPECT_EQ(report.discrepancies[0].message_index, 1u);
}

TEST(AuditVerifyTest, PayloadSubstitutionPinpointsIndex) {
  TranscriptRecorder recorder(2);
  // Simulate logs diverging on the second of three messages.
  recorder.mutable_log(0).Append(Direction::kSent, 1, 9, Bytes{1});
  recorder.mutable_log(0).Append(Direction::kSent, 1, 9, Bytes{2});
  recorder.mutable_log(0).Append(Direction::kSent, 1, 9, Bytes{3});
  recorder.mutable_log(1).Append(Direction::kReceived, 0, 9, Bytes{1});
  recorder.mutable_log(1).Append(Direction::kReceived, 0, 9, Bytes{0xff});
  recorder.mutable_log(1).Append(Direction::kReceived, 0, 9, Bytes{3});

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_TRUE(report.chains_ok);
  EXPECT_FALSE(report.pairwise_ok);
  ASSERT_EQ(report.discrepancies.size(), 1u);
  EXPECT_EQ(report.discrepancies[0].message_index, 1u);
  EXPECT_EQ(report.discrepancies[0].description, "payload digest mismatch");
}

TEST(AuditVerifyTest, ConcurrentTrafficStaysConsistent) {
  constexpr int kNodes = 6;
  constexpr int kMessages = 200;
  net::SimNetwork net(kNodes);
  TranscriptRecorder recorder(kNodes);
  net.SetObserver(&recorder);

  std::vector<std::thread> threads;
  for (int sender = 0; sender < kNodes; sender++) {
    threads.emplace_back([&net, sender] {
      for (int i = 0; i < kMessages; i++) {
        int to = (sender + 1 + i % (kNodes - 1)) % kNodes;
        net.Send(sender, to, Bytes{static_cast<uint8_t>(i), static_cast<uint8_t>(sender)},
                 /*session=*/3);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Drain: each node receives exactly what was addressed to it.
  for (int receiver = 0; receiver < kNodes; receiver++) {
    for (int from = 0; from < kNodes; from++) {
      if (from == receiver) {
        continue;
      }
      // Count how many messages `from` addressed to `receiver`.
      int expected = 0;
      for (int i = 0; i < kMessages; i++) {
        if ((from + 1 + i % (kNodes - 1)) % kNodes == receiver) {
          expected++;
        }
      }
      for (int i = 0; i < expected; i++) {
        (void)net.Recv(receiver, from, 3);
      }
    }
  }

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditVerifyTest, FullDStressRunAudits) {
  // End-to-end: attach a recorder to a real engine run and verify that
  // the complete protocol transcript audits clean.
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 0);
  const graph::Graph g = builder.Build();

  programs::PrivateSumParams params;
  params.degree_bound = 1;
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;

  engine::RunSpec spec;
  spec.graph = g;
  spec.model = engine::ContagionModel::kCustom;
  spec.custom_program = programs::BuildPrivateSumProgram(params);
  std::vector<uint32_t> values = {10, 20, 30, 40};
  spec.custom_states = programs::MakePrivateSumStates(values, params.value_bits);
  spec.block_size = 3;
  spec.seed = 31;
  engine::Engine engine(spec);

  TranscriptRecorder recorder(g.num_vertices());
  engine.AttachObserver(&recorder);

  engine::RunReport run = engine.Run();
  EXPECT_EQ(run.released, 100);

  AuditReport report = VerifyTranscripts(recorder);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Every node participated: nonempty transcript with a valid chain.
  for (int v = 0; v < g.num_vertices(); v++) {
    EXPECT_FALSE(recorder.log(v).events().empty()) << "node " << v;
  }
}

}  // namespace
}  // namespace dstress::audit
