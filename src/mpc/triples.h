// Beaver multiplication triples for boolean GMW.
//
// A bit triple is an XOR-sharing of (a, b, c) with c = a AND b. The GMW
// engine consumes one triple per AND gate: parties open d = x^a and
// e = y^b, then locally compute shares of x AND y.
//
// Triples come from a TripleSource. The real protocol is the node-pair
// IKNP TripleFactory (triple_factory.h), whose per-role views are
// TripleSources; this header holds the interface, the pieces the factory
// shares with the per-role IKNP reference in oracle/ot_triple_source.h
// (PeerIknp, the pairing tournament, SliceTriples), and
// DealerTripleSource — a simulated offline phase: all parties derive
// their shares deterministically from a shared dealer seed. That mode
// provides NO privacy (any party can recompute the dealer tape) and exists
// so that large benchmark sweeps can exercise the online phase at scale.
#ifndef SRC_MPC_TRIPLES_H_
#define SRC_MPC_TRIPLES_H_

#include <memory>
#include <vector>

#include "src/crypto/chacha20.h"
#include "src/net/transport.h"
#include "src/ot/iknp.h"

namespace dstress::mpc {


struct BitTriples {
  PackedBits a;
  PackedBits b;
  PackedBits c;
  size_t count = 0;
};

class TripleSource {
 public:
  virtual ~TripleSource() = default;
  // Collective: every party in the group must call Generate with the same
  // count, in the same protocol position. Counts may vary call to call
  // (the batched evaluation path draws one bulk range per EvalBatch) as
  // long as all parties' call sequences match.
  virtual BitTriples Generate(size_t count) = 0;
};

// One extension-sender/receiver pair toward a peer, established with one
// base-OT setup in each direction.
struct PeerIknp {
  std::unique_ptr<ot::IknpSender> sender;
  std::unique_ptr<ot::IknpReceiver> receiver;
};

// `words` 64-bit words of `prg` output.
PackedBits RandomPacked(crypto::ChaCha20Prg& prg, size_t words);

// Circle-method tournament over n players: rounds 0 .. TournamentRounds(n)-1
// enumerate all unordered pairs, one perfect matching per round (a bye pads
// odd n). TournamentPeer returns the player `me` meets in `round`, or -1
// for its bye. Shared by the node-pair TripleFactory and the per-role
// oracle::OtTripleSource.
int TournamentRounds(int n);
int TournamentPeer(int n, int me, int round);

// Copies triples [start, start+count) of `src` into a fresh BitTriples.
// Used to split one bulk Generate across the instances of an EvalBatch.
BitTriples SliceTriples(const BitTriples& src, size_t start, size_t count);

class DealerTripleSource : public TripleSource {
 public:
  DealerTripleSource(int party_index, int num_parties, uint64_t dealer_seed);
  BitTriples Generate(size_t count) override;

  // Checkpoint support (src/ha/checkpoint.h): the call counter is this
  // source's only cross-call state, so persisting it and fast-forwarding a
  // freshly constructed source reproduces the tape position exactly.
  uint64_t calls() const { return calls_; }
  void FastForward(uint64_t calls) { calls_ = calls; }

 private:
  int party_index_;
  int num_parties_;
  uint64_t dealer_seed_;
  // Generate *calls* completed so far — advanced once per call, not once
  // per triple. The call counter selects a disjoint PRG stream-id range
  // under the fixed dealer seed, so parties stay in sync for any agreed
  // sequence of batch sizes and tapes can never collide with another
  // source's differently-seeded streams (the old per-bit advance perturbed
  // the seed itself, which adjacent sources could alias).
  uint64_t calls_ = 0;
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_TRIPLES_H_
