// The per-role IKNP triple source: the protocol OT-mode runs used before
// the node-pair TripleFactory (src/mpc/triple_factory.h).
//
// Every ordered pair of parties runs IKNP-extended random OTs to produce
// XOR shares of the cross terms a_i AND b_j; sessions are scheduled with a
// round-robin tournament so disjoint pairs run concurrently. This is what
// the paper's prototype does via the Choi et al. GMW implementation with OT
// extensions. Each source pays its own base-OT setup with every peer, which
// is the cost the factory's per-node-pair sessions remove; the source is
// kept as a reference for tests and benches (mpc_test, the naive-MPC
// baseline, oracle::PerRoleOtSupplyMaker).
#ifndef ORACLE_OT_TRIPLE_SOURCE_H_
#define ORACLE_OT_TRIPLE_SOURCE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/crypto/chacha20.h"
#include "src/mpc/triples.h"
#include "src/net/transport.h"

namespace dstress::oracle {

class OtTripleSource : public mpc::TripleSource {
 public:
  // `parties` are the transport node ids of the group, `my_index` is this
  // party's position in that list. Base-OT setup with every peer happens
  // lazily on the first Generate call.
  OtTripleSource(net::Transport* net, std::vector<net::NodeId> parties, int my_index,
                 crypto::ChaCha20Prg prg, net::SessionId session = 0);

  mpc::BitTriples Generate(size_t count) override;

 private:
  void EnsureSetup();

  net::Transport* net_;
  std::vector<net::NodeId> parties_;
  int my_index_;
  crypto::ChaCha20Prg prg_;
  net::SessionId session_;
  bool setup_done_ = false;
  std::map<int, std::unique_ptr<mpc::PeerIknp>> sessions_;  // keyed by peer index
};

}  // namespace dstress::oracle

#endif  // ORACLE_OT_TRIPLE_SOURCE_H_
