#include "oracle/ot_triple_source.h"

#include "src/common/check.h"

namespace dstress::oracle {

OtTripleSource::OtTripleSource(net::Transport* net, std::vector<net::NodeId> parties,
                               int my_index, crypto::ChaCha20Prg prg, net::SessionId session)
    : net_(net),
      parties_(std::move(parties)),
      my_index_(my_index),
      prg_(std::move(prg)),
      session_(session) {
  DSTRESS_CHECK(my_index_ >= 0 && my_index_ < static_cast<int>(parties_.size()));
}

void OtTripleSource::EnsureSetup() {
  if (setup_done_) {
    return;
  }
  const int n = static_cast<int>(parties_.size());
  for (int round = 0; round < mpc::TournamentRounds(n); round++) {
    int peer = mpc::TournamentPeer(n, my_index_, round);
    if (peer < 0) {
      continue;
    }
    net::NodeId self_node = parties_[my_index_];
    net::NodeId peer_node = parties_[peer];
    auto session = std::make_unique<mpc::PeerIknp>();
    if (my_index_ < peer) {
      // Direction lower-as-extension-sender first, then the reverse.
      session->sender =
          std::make_unique<ot::IknpSender>(net_, self_node, peer_node, prg_, session_);
      session->receiver =
          std::make_unique<ot::IknpReceiver>(net_, self_node, peer_node, prg_, session_);
    } else {
      session->receiver =
          std::make_unique<ot::IknpReceiver>(net_, self_node, peer_node, prg_, session_);
      session->sender =
          std::make_unique<ot::IknpSender>(net_, self_node, peer_node, prg_, session_);
    }
    sessions_.emplace(peer, std::move(session));
  }
  setup_done_ = true;
}

mpc::BitTriples OtTripleSource::Generate(size_t count) {
  EnsureSetup();
  size_t words = PackedWords(count);

  mpc::BitTriples mine;
  mine.count = count;
  mine.a = mpc::RandomPacked(prg_, words);
  mine.b = mpc::RandomPacked(prg_, words);
  mine.c.assign(words, 0);
  for (size_t w = 0; w < words; w++) {
    mine.c[w] = mine.a[w] & mine.b[w];
  }

  net::NodeId self_node = parties_[my_index_];
  const int n = static_cast<int>(parties_.size());
  for (int round = 0; round < mpc::TournamentRounds(n); round++) {
    int peer = mpc::TournamentPeer(n, my_index_, round);
    if (peer < 0) {
      continue;
    }
    mpc::PeerIknp& session = *sessions_.at(peer);
    net::NodeId peer_node = parties_[peer];

    auto run_as_sender = [&] {
      // I contribute a_i; the peer's choice bits are its b_j. I keep r0 as
      // my share of a_i AND b_j and send the correction r0^r1^a_i.
      ot::RandomOtPairs pairs = session.sender->Extend(count);
      ByteWriter corrections;
      for (size_t w = 0; w < words; w++) {
        corrections.U64(pairs.r0[w] ^ pairs.r1[w] ^ mine.a[w]);
        mine.c[w] ^= pairs.r0[w];
      }
      net_->Send(self_node, peer_node, corrections.Take(), session_);
    };
    auto run_as_receiver = [&] {
      // My choice bits are b_i; I receive r_{b} plus the correction and end
      // with r0 ^ (b_i AND a_peer).
      ot::RandomOtChosen chosen = session.receiver->Extend(mine.b, count);
      Bytes corrections = net_->Recv(self_node, peer_node, session_);
      DSTRESS_CHECK(corrections.size() == words * 8);
      ByteReader reader(corrections);
      for (size_t w = 0; w < words; w++) {
        uint64_t d = reader.U64();
        mine.c[w] ^= chosen.r[w] ^ (mine.b[w] & d);
      }
    };

    if (my_index_ < peer) {
      run_as_sender();
      run_as_receiver();
    } else {
      run_as_receiver();
      run_as_sender();
    }
  }
  return mine;
}

}  // namespace dstress::oracle
