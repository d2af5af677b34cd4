// Golden-digest oracles for the plane-fidelity tests.
//
// A run's observable trace is what the fidelity contract pins: the
// released figure(s) with their references, the final per-vertex states
// (when the backend exposes them), per-node TrafficStats and the Beaver
// triple count. RunDigest condenses that trace into SHA-256 hex strings
// plus two plain counters, so a test can check the one production plane
// against a table recorded from the retired reference planes (the
// container cleartext plane and the per-role MPC / transfer schedules)
// instead of running them side by side.
#ifndef TESTS_GOLDEN_DIGEST_H_
#define TESTS_GOLDEN_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/engine/engine.h"
#include "src/ensemble/ensemble.h"
#include "src/net/transport.h"

namespace dstress::golden {

// One checked-in row. `states` is nullptr for runs without a state image
// (secure backends, ensemble runs).
struct GoldenDigest {
  const char* label;
  const char* figures;
  const char* states;
  const char* traffic;
  uint64_t total_bytes;
  uint64_t triples;
};

struct RunDigest {
  std::string figures;  // per lane: released, has_reference, reference
  std::string states;   // per vertex: width, then one byte per bit
  std::string traffic;  // per node: bytes/messages sent/received
  uint64_t total_bytes = 0;
  uint64_t triples = 0;
};

inline void PutU64(crypto::Sha256* h, uint64_t v) {
  uint8_t le[8];
  for (int i = 0; i < 8; i++) {
    le[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  h->Update(le, sizeof(le));
}

inline std::string Hex(const crypto::Sha256Digest& d) {
  std::string out;
  char buf[3];
  for (uint8_t b : d) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

inline std::string HashFigures(const std::vector<ensemble::ScenarioResult>& lanes) {
  crypto::Sha256 h;
  for (const ensemble::ScenarioResult& lane : lanes) {
    PutU64(&h, static_cast<uint64_t>(lane.released));
    PutU64(&h, lane.has_reference ? 1 : 0);
    PutU64(&h, lane.reference);
  }
  return Hex(h.Finish());
}

// Hashes a state lane column by column, each column as its one-byte-per-bit
// image, so digests recorded from per-vertex state vectors still match.
inline std::string HashStates(const mpc::PackedShareMatrix& states) {
  crypto::Sha256 h;
  for (size_t v = 0; v < states.instances(); v++) {
    const mpc::BitVector s = states.Instance(v);
    PutU64(&h, s.size());
    h.Update(s.data(), s.size());
  }
  return Hex(h.Finish());
}

inline std::string HashTraffic(const net::Transport& transport) {
  crypto::Sha256 h;
  for (int v = 0; v < transport.num_nodes(); v++) {
    net::TrafficStats s = transport.NodeStats(v);
    PutU64(&h, s.bytes_sent);
    PutU64(&h, s.bytes_received);
    PutU64(&h, s.messages_sent);
    PutU64(&h, s.messages_received);
  }
  return Hex(h.Finish());
}

// Digest of the engine's last solo Run().
inline RunDigest DigestRun(const engine::Engine& engine, const engine::RunReport& report) {
  ensemble::ScenarioResult lane;
  lane.released = report.released;
  lane.has_reference = report.has_reference;
  lane.reference = report.reference;
  RunDigest d;
  d.figures = HashFigures({lane});
  mpc::PackedShareMatrix states = engine.FinalStates();
  if (states.instances() > 0) {
    d.states = HashStates(states);
  }
  d.traffic = HashTraffic(engine.transport());
  d.total_bytes = report.metrics.total_bytes;
  d.triples = report.metrics.triples_consumed;
  return d;
}

// Digest of the engine's last RunEnsemble(); no state image.
inline RunDigest DigestEnsemble(const engine::Engine& engine,
                                const ensemble::EnsembleReport& report) {
  RunDigest d;
  d.figures = HashFigures(report.scenarios);
  d.traffic = HashTraffic(engine.transport());
  d.total_bytes = report.metrics.total_bytes;
  d.triples = report.metrics.triples_consumed;
  return d;
}

template <size_t N>
const GoldenDigest* Find(const GoldenDigest (&table)[N], const std::string& label) {
  for (const GoldenDigest& row : table) {
    if (label == row.label) {
      return &row;
    }
  }
  return nullptr;
}

// Empty when `got` matches `want`; otherwise names the case and every
// field that differs (with the value the run produced).
inline std::string Mismatch(const RunDigest& got, const GoldenDigest& want) {
  std::string out;
  auto field = [&](const char* name, const std::string& g, const std::string& w) {
    if (g != w) {
      out += std::string(" ") + name + "=" + (g.empty() ? "<none>" : g) + " (golden " +
             (w.empty() ? "<none>" : w) + ")";
    }
  };
  field("figures", got.figures, want.figures);
  field("states", got.states, want.states != nullptr ? want.states : "");
  field("traffic", got.traffic, want.traffic);
  field("total_bytes", std::to_string(got.total_bytes), std::to_string(want.total_bytes));
  field("triples", std::to_string(got.triples), std::to_string(want.triples));
  return out.empty() ? out : std::string(want.label) + ":" + out;
}

}  // namespace dstress::golden

#endif  // TESTS_GOLDEN_DIGEST_H_
