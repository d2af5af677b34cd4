#include "oracle/per_role_ot_supply.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "oracle/ot_triple_source.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/core/worker_pool.h"
#include "src/mpc/triple_factory.h"

namespace dstress::oracle {

namespace {

// One (tag, member) role: its persistent source, created by the first wave
// that names the role, and the view over generated but undrawn waves. A
// draw must fit in the oldest undrawn wave (the runtime draws each phase's
// wave within that phase).
class Role : public mpc::TripleSource {
 public:
  mpc::BitTriples Generate(size_t count) override {
    std::lock_guard<std::mutex> lock(mu_);
    DSTRESS_CHECK(!waves_.empty() && cursor_ + count <= waves_.front().count);
    mpc::BitTriples out = mpc::SliceTriples(waves_.front(), cursor_, count);
    cursor_ += count;
    if (cursor_ == waves_.front().count) {
      waves_.pop_front();
      cursor_ = 0;
    }
    return out;
  }

  void Buffer(mpc::BitTriples wave) {
    std::lock_guard<std::mutex> lock(mu_);
    waves_.push_back(std::move(wave));
  }

  std::unique_ptr<OtTripleSource> source;

 private:
  std::mutex mu_;
  std::deque<mpc::BitTriples> waves_;
  size_t cursor_ = 0;
};

class PerRoleOtSupply : public mpc::TripleSupply {
 public:
  PerRoleOtSupply(net::Transport* net, uint64_t run_seed)
      : net_(net), prg_seed_(core::RolePrgSeed(run_seed, 0x77)), pool_(1) {}

  // Generates the whole wave before returning: one task per participant
  // node, each running Generate(count) for its roles in ascending tag
  // order. The smallest unfinished tag always has every member working on
  // it, so the blocking pairwise exchanges cannot deadlock.
  void Enqueue(std::vector<mpc::TripleDemand> demands) override {
    Stopwatch wave_clock;
    std::sort(demands.begin(), demands.end(),
              [](const mpc::TripleDemand& x, const mpc::TripleDemand& y) { return x.tag < y.tag; });
    std::map<net::NodeId, std::vector<std::pair<Role*, size_t>>> work;  // per node, tag order
    uint64_t wave_triples = 0;
    for (size_t d = 0; d < demands.size(); d++) {
      const mpc::TripleDemand& dem = demands[d];
      DSTRESS_CHECK(!dem.parties.empty() && (d == 0 || dem.tag != demands[d - 1].tag));
      if (dem.count == 0) {
        continue;
      }
      wave_triples += dem.count;
      for (int m = 0; m < static_cast<int>(dem.parties.size()); m++) {
        work[dem.parties[m]].emplace_back(RoleFor(dem.tag, m, dem.parties), dem.count);
      }
    }
    std::vector<const std::vector<std::pair<Role*, size_t>>*> tasks;
    for (const auto& [node, roles] : work) {
      tasks.push_back(&roles);
    }
    // One group, so every node's task is live at once (worker_pool.h).
    pool_.RunGrouped(1, tasks.size(), [&](size_t, size_t t) {
      for (const auto& [role, count] : *tasks[t]) {
        role->Buffer(role->source->Generate(count));
      }
    });
    std::lock_guard<std::mutex> lock(mu_);
    stats_.offline_seconds += wave_clock.ElapsedSeconds();
    stats_.waves += 1;
    stats_.triples += wave_triples;
  }

  mpc::TripleSource* ViewFor(uint64_t tag, int member) override {
    return RoleFor(tag, member, {});
  }

  mpc::TripleFactoryStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  Role* RoleFor(uint64_t tag, int member, const std::vector<net::NodeId>& parties) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Role>& role = roles_[{tag, member}];
    if (role == nullptr) {
      role = std::make_unique<Role>();
    }
    if (role->source == nullptr && !parties.empty()) {
      role->source = std::make_unique<OtTripleSource>(
          net_, parties, member,
          crypto::ChaCha20Prg::FromSeed(prg_seed_, (tag << 8) | static_cast<uint64_t>(member)),
          mpc::kOfflineSessionNamespace | tag);
    }
    return role.get();
  }

  net::Transport* net_;
  uint64_t prg_seed_;
  core::WorkerPool pool_;
  mutable std::mutex mu_;
  std::map<std::pair<uint64_t, int>, std::unique_ptr<Role>> roles_;
  mpc::TripleFactoryStats stats_;
};

}  // namespace

core::Runtime::TripleSupplyMaker PerRoleOtSupplyMaker(uint64_t run_seed) {
  return [run_seed](net::Transport* net) {
    return std::make_unique<PerRoleOtSupply>(net, run_seed);
  };
}

}  // namespace dstress::oracle
