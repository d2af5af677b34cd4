// ExecutionBackend — the seam between the declarative engine API and the
// machinery that actually runs a stress test.
//
// The engine compiles a RunSpec down to (graph, vertex program, runtime
// config, lanes of initial states) and hands the first three to the backend that
// MakeExecutionBackend picks for the spec's ExecutionMode, a plain switch
// over the two built-in backends:
//
//   kSecure        — secure_backend.h: wraps core::Runtime, i.e. the full
//                    GMW + OT + §3.5-transfer protocol stack.
//   kCleartextFast — cleartext_backend.h: same circuits, same transport and
//                    scheduler layers, no cryptography.
//
// A backend has one entry point, Execute over S scenario lanes; a solo run
// is the one-lane case. The wire a mode runs over is chosen separately by
// RunSpec::transport through the transport registry
// (src/net/transport_spec.h) — both backends resolve their transport from
// the spec, never by type name.
#ifndef SRC_ENGINE_BACKEND_H_
#define SRC_ENGINE_BACKEND_H_

#include <memory>
#include <vector>

#include "src/core/runtime.h"
#include "src/engine/run_spec.h"
#include "src/graph/graph.h"
#include "src/net/transport.h"

namespace dstress::engine {

// Everything a backend may depend on. The pointed-to objects are owned by
// the Engine and outlive the backend.
struct BackendContext {
  const RunSpec* spec = nullptr;
  const graph::Graph* graph = nullptr;
  const core::VertexProgram* program = nullptr;
  // Schedule knobs, already derived from the spec (block size, fanout,
  // triple source, seed, transfer parameters).
  core::RuntimeConfig runtime_config;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  // Runs the program once per lane and returns one released aggregate per
  // lane. A lane is one scenario's initial states, packed once by the
  // engine's state packers: a state_bits x N mpc::PackedShareMatrix whose
  // column v is vertex v's state (bit i in row i). The secure backend
  // shares each column; the cleartext backend copies or transposes the rows
  // straight into its arena. The lanes share one lockstep pass of the
  // batched data planes; lane s's figure equals a one-lane Execute of
  // lanes[s], and a one-lane Execute is the solo run. Reusable: each call
  // is an independent run. `metrics` may be nullptr.
  virtual std::vector<int64_t> Execute(const std::vector<mpc::PackedShareMatrix>& lanes,
                                       core::RunMetrics* metrics) = 0;

  // Final states of the last one-lane Execute, in the lane layout above,
  // for fidelity testing (tests/graphplane_test.cc digests them against
  // states recorded from the retired container plane). Optional: backends
  // without a cleartext state image return an empty matrix, and the result
  // is unspecified before the first Execute or after a wider one.
  virtual mpc::PackedShareMatrix DebugFinalStates() const { return {}; }

  // Attaches a transport observer (audit layer); must happen before the
  // first Execute, see net::Transport::SetObserver.
  virtual void AttachObserver(net::NetworkObserver* observer) = 0;

  // The transport the run's traffic crosses (for traffic accounting).
  virtual const net::Transport& transport() const = 0;
};

// Instantiates the built-in backend for `mode`.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ExecutionMode mode,
                                                       const BackendContext& context);

}  // namespace dstress::engine

#endif  // SRC_ENGINE_BACKEND_H_
