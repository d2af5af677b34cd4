#include "src/net/channel.h"

#include <utility>

#include "src/common/check.h"

namespace dstress::net {

Channel::Channel(Transport* transport, NodeId self, std::vector<NodeId> peers, SessionId session)
    : transport_(transport),
      self_(self),
      peers_(std::move(peers)),
      session_(session),
      pending_(peers_.size()) {
  DSTRESS_CHECK(transport_ != nullptr);
}

Channel::~Channel() {
  // Dropping buffered messages would strand a peer's blocking Recv with no
  // diagnostic; a role must Flush (or Recv) before releasing its endpoint.
  DSTRESS_CHECK(!any_pending_);
}

Channel::Channel(Channel&& other) noexcept
    : transport_(other.transport_),
      self_(other.self_),
      peers_(std::move(other.peers_)),
      session_(other.session_),
      pending_(std::move(other.pending_)),
      any_pending_(other.any_pending_) {
  other.any_pending_ = false;
}

int Channel::PeerIndex(NodeId peer) const {
  for (size_t i = 0; i < peers_.size(); i++) {
    if (peers_[i] == peer) {
      return static_cast<int>(i);
    }
  }
  ::dstress::CheckFailed("node not in the peer set", __FILE__, __LINE__);
}

void Channel::Send(NodeId to, Bytes message) {
  pending_[PeerIndex(to)].push_back(std::move(message));
  any_pending_ = true;
}

void Channel::Broadcast(const Bytes& message) {
  for (size_t i = 0; i < peers_.size(); i++) {
    if (peers_[i] != self_) {
      pending_[i].push_back(message);
      any_pending_ = true;
    }
  }
}

void Channel::Flush() {
  if (!any_pending_) {
    return;
  }
  for (size_t i = 0; i < peers_.size(); i++) {
    if (pending_[i].empty()) {
      continue;
    }
    if (pending_[i].size() == 1) {
      transport_->Send(self_, peers_[i], std::move(pending_[i].front()), session_);
      pending_[i].clear();
    } else {
      transport_->SendBatch(self_, peers_[i], std::move(pending_[i]), session_);
      pending_[i] = {};
    }
  }
  any_pending_ = false;
}

Bytes Channel::Recv(NodeId from) {
  Flush();
  return transport_->Recv(self_, from, session_);
}

}  // namespace dstress::net
