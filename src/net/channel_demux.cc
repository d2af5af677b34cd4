#include "src/net/channel_demux.h"

#include <cstdio>

#include "src/common/check.h"

namespace dstress::net {

ChannelDemuxTransport::ChannelDemuxTransport(int num_nodes, TransportOptions options)
    : num_nodes_(num_nodes), options_(options) {
  DSTRESS_CHECK(num_nodes > 0);
  counters_.reserve(num_nodes);
  dead_peers_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; i++) {
    counters_.push_back(std::make_unique<PerNodeCounters>());
    dead_peers_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

void ChannelDemuxTransport::DeclarePeerDead(NodeId node, const std::string& reason) {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  {
    std::lock_guard<std::mutex> lock(dead_reason_mu_);
    if (!dead_reason_.empty()) dead_reason_ += "; ";
    dead_reason_ += reason;
  }
  dead_peers_[static_cast<size_t>(node)]->store(true, std::memory_order_release);
  // Wake every parked receiver so its predicate re-checks the dead flags.
  std::shared_lock<std::shared_mutex> read(channels_mu_);
  for (auto& entry : channels_) {
    std::lock_guard<std::mutex> lock(entry.second->mu);
    entry.second->cv.notify_all();
  }
}

void ChannelDemuxTransport::AbortDeadPeer(NodeId to, NodeId from, SessionId session) const {
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(dead_reason_mu_);
    reason = dead_reason_;
  }
  std::fprintf(stderr,
               "transport: Recv(to=%d, from=%d, session=%llu) woke on a dead peer with no "
               "message to deliver: %s\n",
               to, from, static_cast<unsigned long long>(session),
               reason.empty() ? "peer declared dead" : reason.c_str());
  ::dstress::CheckFailed("Recv woke on a dead peer", __FILE__, __LINE__);
}

void ChannelDemuxTransport::SetObserver(NetworkObserver* observer) {
  // Attach and detach both swap a pointer the protocol threads read, so
  // neither is legal once traffic has started. The exclusive channels lock
  // serializes this against in-flight sends: a Send marks traffic_started_
  // before it takes the shared lock, so either that Send's lock acquisition
  // happens first (the CHECK below fires) or the attach completes first
  // (the Send observes the new pointer) — never a silently missed message.
  std::unique_lock<std::shared_mutex> lock(channels_mu_);
  DSTRESS_CHECK(!traffic_started_.load(std::memory_order_acquire));
  observer_.store(observer, std::memory_order_release);
}

ChannelDemuxTransport::Channel& ChannelDemuxTransport::ChannelFor(const ChannelKey& key) {
  {
    std::shared_lock<std::shared_mutex> read(channels_mu_);
    auto it = channels_.find(key);
    if (it != channels_.end()) {
      return *it->second;
    }
  }
  std::unique_lock<std::shared_mutex> write(channels_mu_);
  auto [it, _] = channels_.try_emplace(key, std::make_unique<Channel>());
  return *it->second;
}

void ChannelDemuxTransport::CheckWatermark(const Channel& ch) const {
  if (options_.channel_high_watermark_bytes > 0) {
    DSTRESS_CHECK(ch.queued_bytes <= options_.channel_high_watermark_bytes);
  }
}

void ChannelDemuxTransport::MeterSend(NodeId from, uint64_t bytes, uint64_t messages) {
  counters_[from]->bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  counters_[from]->messages_sent.fetch_add(messages, std::memory_order_relaxed);
}

bool ChannelDemuxTransport::TryMeterSelfDelivered(
    const std::vector<TrafficStats>& per_node_delta) {
  DSTRESS_CHECK(per_node_delta.size() == static_cast<size_t>(num_nodes_));
  traffic_started_.store(true, std::memory_order_release);
  {
    // An attached observer must see every message individually; refuse so
    // the caller falls back to literal sends. The shared lock orders this
    // against SetObserver exactly like a Send (see SetObserver).
    std::shared_lock<std::shared_mutex> read(channels_mu_);
    if (observer_.load(std::memory_order_acquire) != nullptr) {
      return false;
    }
  }
  for (int v = 0; v < num_nodes_; v++) {
    const TrafficStats& d = per_node_delta[static_cast<size_t>(v)];
    PerNodeCounters& c = *counters_[static_cast<size_t>(v)];
    c.bytes_sent.fetch_add(d.bytes_sent, std::memory_order_relaxed);
    c.bytes_received.fetch_add(d.bytes_received, std::memory_order_relaxed);
    c.messages_sent.fetch_add(d.messages_sent, std::memory_order_relaxed);
    c.messages_received.fetch_add(d.messages_received, std::memory_order_relaxed);
  }
  return true;
}

Bytes ChannelDemuxTransport::Recv(NodeId to, NodeId from, SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  Bytes msg;
  {
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&] { return !ch.queue.empty() || PairDead(from, to); });
    if (ch.queue.empty()) {
      AbortDeadPeer(to, from, session);
    }
    // Loaded after the wait: a Recv parked before an (otherwise legal)
    // pre-traffic attach must still record its OnRecv.
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    msg = std::move(ch.queue.front());
    ch.queue.pop_front();
    ch.queued_bytes -= msg.size();
    if (observer != nullptr) {
      observer->OnRecv(to, from, session, msg);
    }
  }
  counters_[to]->bytes_received.fetch_add(msg.size(), std::memory_order_relaxed);
  counters_[to]->messages_received.fetch_add(1, std::memory_order_relaxed);
  return msg;
}

std::vector<Bytes> ChannelDemuxTransport::RecvBatch(NodeId to, NodeId from, size_t count,
                                                    SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  std::vector<Bytes> messages;
  if (count == 0) {
    return messages;
  }
  messages.reserve(count);
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  uint64_t bytes = 0;
  {
    std::unique_lock<std::mutex> lock(ch.mu);
    while (messages.size() < count) {
      ch.cv.wait(lock, [&] { return !ch.queue.empty() || PairDead(from, to); });
      if (ch.queue.empty()) {
        AbortDeadPeer(to, from, session);
      }
      NetworkObserver* observer = observer_.load(std::memory_order_acquire);
      while (!ch.queue.empty() && messages.size() < count) {
        Bytes msg = std::move(ch.queue.front());
        ch.queue.pop_front();
        ch.queued_bytes -= msg.size();
        if (observer != nullptr) {
          observer->OnRecv(to, from, session, msg);
        }
        bytes += msg.size();
        messages.push_back(std::move(msg));
      }
    }
  }
  counters_[to]->bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  counters_[to]->messages_received.fetch_add(count, std::memory_order_relaxed);
  return messages;
}

TrafficStats ChannelDemuxTransport::NodeStats(NodeId node) const {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  const PerNodeCounters& c = *counters_[node];
  TrafficStats s;
  s.bytes_sent = c.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = c.bytes_received.load(std::memory_order_relaxed);
  s.messages_sent = c.messages_sent.load(std::memory_order_relaxed);
  s.messages_received = c.messages_received.load(std::memory_order_relaxed);
  return s;
}

uint64_t ChannelDemuxTransport::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& c : counters_) {
    total += c->bytes_sent.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ChannelDemuxTransport::MaxBytesPerNode() const {
  uint64_t max_bytes = 0;
  for (const auto& c : counters_) {
    uint64_t b = c->bytes_sent.load(std::memory_order_relaxed) +
                 c->bytes_received.load(std::memory_order_relaxed);
    if (b > max_bytes) {
      max_bytes = b;
    }
  }
  return max_bytes;
}

void ChannelDemuxTransport::ResetStats() {
  for (auto& c : counters_) {
    c->bytes_sent.store(0, std::memory_order_relaxed);
    c->bytes_received.store(0, std::memory_order_relaxed);
    c->messages_sent.store(0, std::memory_order_relaxed);
    c->messages_received.store(0, std::memory_order_relaxed);
  }
}

}  // namespace dstress::net
