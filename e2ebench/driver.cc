// e2ebench — cold end-to-end benchmark of one DStress stress test.
//
// Every sample is what a `dstress_run` user pays: a fresh process (forked
// from this single-threaded parent, which never touches the library's lazy
// caches), one engine::Engine built from the spec, one Run(). The parent
// collects each sample's result over a pipe, checks it, and prints the
// medians as one JSON line. README.md describes the workloads, the metrics
// and why every sample starts cold.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   e2ebench --self-test
#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/run_spec.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/utility.h"
#include "src/net/transport.h"

namespace {

using namespace dstress;

// The cap every sample requests explicitly (never auto): one per core of
// the 4-core machine the workloads were sized on.
constexpr int kThreads = 4;
// A sample that has not reported by then is killed and counted as failed
// (a hang shows up here, never as a retry).
constexpr double kSampleTimeoutS = 30;
// No sample runs past this many seconds after the driver started, so a run
// ends well within three minutes even if every sample hangs.
constexpr double kRunBudgetS = 150;
// |released - reference| may exceed this tail of the two-sided geometric
// only with this probability.
constexpr double kTailProbability = 1e-9;
// Noise alpha of the untimed check run: effectively no output noise, so
// the release must equal the reference exactly.
constexpr double kNoNoiseAlpha = 1e-12;

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const double kDriverStart = Now();

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  int count = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      count++;
    }
  }
  closedir(dir);
  return count;
}

// ---------------------------------------------------------------------------
// Workloads. All run Eisenberg–Noe at the RunSpec defaults epsilon = 0.23,
// leverage bound r = 0.1. README.md says why each one is in the set.

struct Workload {
  const char* name;
  std::function<engine::RunSpec(bool smoke, uint64_t seed)> make;
};

// The secure workloads run on one fixed network, drawn from the
// core-periphery generator at this seed. At these sizes a graph drawn per
// benchmark seed changes the edge count, and with it the work and the
// bytes; the benchmark seed picks the balance sheets and the protocol
// randomness instead.
constexpr uint64_t kNetworkSeed = 1;

engine::RunSpec SecureCorePeriphery(int n, int core, int iterations, uint64_t seed) {
  engine::TopologySpec topology = engine::CorePeripheryTopology(n, core);
  topology.degree_cap = 4;
  engine::RunSpec spec;
  spec.topology = engine::ExplicitTopology(
      n, engine::BuildTopologyGraph(topology, kNetworkSeed).Edges());
  finance::WorkloadParams workload;
  workload.format = spec.format;
  workload.core_size = core;
  workload.seed = seed;
  spec.workload = workload;
  spec.degree_bound = 4;
  spec.block_size = 4;
  spec.iterations = iterations;
  spec.mode = engine::ExecutionMode::kSecure;
  spec.seed = seed;
  return spec;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // At N=100k the scale-free graph's size hardly depends on the seed, so
      // the seed picks the graph as well.
      {"cleartext_100k",
       [](bool smoke, uint64_t seed) {
         engine::RunSpec spec;
         spec.topology = engine::ScaleFreeTopology(smoke ? 3000 : 100000, 2);
         spec.topology.degree_cap = 8;
         spec.degree_bound = 8;
         spec.aggregation_fanout = 64;
         spec.shock.shocked_banks = {0, 1, 2};
         spec.mode = engine::ExecutionMode::kCleartextFast;
         spec.seed = seed;
         return spec;
       }},
      {"secure_dealer_n40",
       [](bool smoke, uint64_t seed) {
         return smoke ? SecureCorePeriphery(8, 2, 2, seed) : SecureCorePeriphery(40, 8, 4, seed);
       }},
      {"secure_ot_n10",
       [](bool smoke, uint64_t seed) {
         engine::RunSpec spec =
             smoke ? SecureCorePeriphery(5, 2, 1, seed) : SecureCorePeriphery(10, 2, 2, seed);
         spec.use_ot_triples = true;
         return spec;
       }},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Sample process (child side). Results go to the parent as "key value"
// lines, spans as "span name parent start end" lines, then "end".

enum class Kind { kTimed, kTraced, kCap1, kCheck };
enum class Corrupt { kNone, kFigure, kDigest };

struct Span {
  std::string name;
  std::string parent;
  double start = 0;
  double end = 0;
};

class Output {
 public:
  explicit Output(FILE* out) : out_(out) {}
  void Put(const char* key, double value) { std::fprintf(out_, "%s %.17g\n", key, value); }
  void PutInt(const char* key, uint64_t value) {
    std::fprintf(out_, "%s %llu\n", key, static_cast<unsigned long long>(value));
  }
  void PutSigned(const char* key, int64_t value) {
    std::fprintf(out_, "%s %lld\n", key, static_cast<long long>(value));
  }
  void PutSpan(const Span& s) {
    std::fprintf(out_, "span %s %s %.9f %.9f\n", s.name.c_str(),
                 s.parent.empty() ? "-" : s.parent.c_str(), s.start, s.end);
  }

 private:
  FILE* out_;
};

// FNV-1a over every bank's TrafficStats: equal digests mean equal per-bank
// payload accounting.
uint64_t TrafficDigest(const net::Transport& transport) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (int v = 0; v < transport.num_nodes(); v++) {
    net::TrafficStats s = transport.NodeStats(v);
    mix(s.bytes_sent);
    mix(s.bytes_received);
    mix(s.messages_sent);
    mix(s.messages_received);
  }
  return h;
}

// Payload bytes sent, bucketed by the session id's top nibble (the
// namespace each layer sends under).
class SessionBytes : public net::NetworkObserver {
 public:
  void OnSend(net::NodeId, net::NodeId, net::SessionId session, const Bytes& payload) override {
    bytes_[session >> 60].fetch_add(payload.size(), std::memory_order_relaxed);
  }
  void OnRecv(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override {}
  uint64_t Get(int nibble) const { return bytes_[nibble].load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, 16> bytes_{};
};

double NoiseAlpha(const engine::RunSpec& spec) {
  return spec.noise_alpha > 0
             ? spec.noise_alpha
             : finance::NoiseAlphaForRelease(finance::EnSensitivity(spec.leverage), spec.epsilon,
                                             /*unit_dollars=*/1.0);
}

// The stages Engine construction runs, called one by one through the public
// API and timed from outside. Returns the cleartext reference.
uint64_t RunStages(const engine::RunSpec& spec, std::vector<Span>* spans) {
  auto timed = [spans](const char* name, auto&& fn) {
    double start = Now();
    auto result = fn();
    spans->push_back({name, "stages", start, Now()});
    return result;
  };
  double start = Now();
  graph::Graph g =
      timed("engine.graph", [&] { return engine::BuildTopologyGraph(spec.topology, spec.seed); });
  finance::EnProgramParams params;
  params.format = spec.format;
  params.degree_bound = spec.degree_bound > 0 ? spec.degree_bound : std::max(1, g.MaxDegree());
  params.iterations =
      spec.iterations > 0 ? spec.iterations : engine::AutoIterations(g.num_vertices());
  params.aggregate_bits = spec.aggregate_bits;
  params.noise_alpha = NoiseAlpha(spec);
  finance::EnInstance instance = timed("engine.workload", [&] {
    return finance::MakeEnWorkload(g, engine::DeriveWorkloadParams(spec), spec.shock);
  });
  timed("engine.compile", [&] { return finance::MakeEnProgram(params); });
  timed("engine.initial_states", [&] { return finance::MakeEnInitialStates(instance, params); });
  uint64_t reference =
      timed("engine.reference", [&] { return finance::EnSolveFixed(instance, params); });
  spans->push_back({"stages", "sample", start, Now()});
  return reference;
}

void RunSample(engine::RunSpec spec, Kind kind, Corrupt corrupt, Output& out) {
  std::vector<Span> spans;
  const double sample_start = Now();
  if (kind == Kind::kCheck) {
    out.PutInt("reference", RunStages(spec, &spans));
    spec.noise_alpha = kNoNoiseAlpha;
    engine::Engine engine(spec);
    engine::RunReport report = engine.Run();
    out.PutSigned("nonoise_released", report.released);
    out.PutInt("engine_reference", report.reference);
    return;
  }
  if (kind == Kind::kCap1) {
    spec.max_parallel_tasks = 1;
  }
  SessionBytes sessions;
  double t0 = Now();
  engine::Engine engine(spec);
  double t1 = Now();
  // The arena plane falls back to literal sends when an observer is
  // attached (src/graphplane), so only the secure planes are observed.
  const bool observe = kind == Kind::kTraced && spec.mode == engine::ExecutionMode::kSecure;
  if (observe) {
    engine.AttachObserver(&sessions);
  }
  double cpu1 = CpuSeconds(RUSAGE_SELF);
  double t2 = Now();
  engine::RunReport report = engine.Run();
  double t3 = Now();
  double cpu2 = CpuSeconds(RUSAGE_SELF);
  const net::Transport& transport = engine.transport();
  const int n = transport.num_nodes();

  int64_t released = report.released + (corrupt == Corrupt::kFigure ? 1 : 0);
  uint64_t digest = TrafficDigest(transport) ^ (corrupt == Corrupt::kDigest ? 1 : 0);
  out.PutSigned("released", released);
  out.PutInt("digest", digest);
  out.Put("setup_s", t1 - t0);
  out.Put("run_s", t3 - t2);
  out.Put("cpu_per_wall", (cpu2 - cpu1) / (t3 - t2));
  out.PutInt("threads", CountThreads());
  out.Put("bytes_per_bank", transport.AverageBytesPerNode());
  spans.push_back({"engine.setup", "sample", t0, t1});
  spans.push_back({"engine.run", "sample", t2, t3});

  // Counters of the first Run() only: the transport keeps counting.
  if (kind == Kind::kTraced) {
    const core::RunMetrics& m = report.metrics;
    out.Put("init_s", m.init.seconds);
    out.Put("compute_s", m.compute.seconds);
    out.Put("communicate_s", m.communicate.seconds);
    out.Put("aggregate_s", m.aggregate.seconds);
    out.PutInt("and_gates", m.update_and_gates);
    out.PutInt("and_depth", m.update_and_depth);
    out.PutInt("rounds", m.update_rounds);
    out.PutInt("triples", m.triples_consumed);
    out.Put("offline_s", m.offline_seconds);
    out.Put("offline_wait_s", m.offline_wait_seconds);
    out.PutInt("base_ots", m.base_ot_executions);
    out.PutInt("iterations", report.iterations);
    out.PutInt("edges", engine.graph().num_edges());
    out.PutInt("nodes", n);
    out.PutInt("bytes_max_bank", transport.MaxBytesPerNode());
    uint64_t messages = 0;
    for (int v = 0; v < n; v++) {
      messages += transport.NodeStats(v).messages_sent;
    }
    out.PutInt("messages", messages);
    out.PutInt("total_bytes", transport.TotalBytes());
    out.PutInt("init_bytes", sessions.Get(1));
    out.PutInt("mpc_bytes", sessions.Get(2) + sessions.Get(7));
    out.PutInt("transfer_bytes", sessions.Get(3));
    out.PutInt("agg_bytes", sessions.Get(4) + sessions.Get(5) + sessions.Get(6));
    out.PutInt("offline_bytes", sessions.Get(8));
  }
  if (kind == Kind::kCap1 || kind == Kind::kTraced) {
    double cpu3 = CpuSeconds(RUSAGE_SELF);
    double t4 = Now();
    engine.Run();
    double t5 = Now();
    out.Put("rerun_s", t5 - t4);
    out.Put("rerun_cpu_per_wall", (CpuSeconds(RUSAGE_SELF) - cpu3) / (t5 - t4));
    spans.push_back({"engine.rerun", "sample", t4, t5});
  }
  if (kind == Kind::kTraced) {
    // Stage timings, while the engine's memory is still held so the stages
    // allocate fresh pages the way the engine's own construction did.
    RunStages(spec, &spans);
  }
  spans.push_back({"sample", "", sample_start, Now()});
  for (const Span& s : spans) {
    out.PutSpan(s);
  }
}

// ---------------------------------------------------------------------------
// Parent side: fork, collect, check.

struct Sample {
  Kind kind = Kind::kTimed;
  bool ok = false;        // ran to completion and reported
  bool failed = false;    // crashed, timed out, or failed a check
  std::string error;
  std::map<std::string, std::string> values;
  std::vector<Span> spans;
  double peak_rss_mb = 0;
  double wall_s = 0;

  double Get(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  const std::string& Raw(const std::string& key) const {
    static const std::string empty;
    auto it = values.find(key);
    return it == values.end() ? empty : it->second;
  }
};

// Kills whatever is left of a sample's process group and reaps every
// descendant this process inherited as subreaper.
void ReapAll(pid_t pgid) {
  if (pgid > 0) {
    kill(-pgid, SIGKILL);
  }
  while (waitpid(-1, nullptr, 0) > 0) {
  }
}

Sample RunInChild(const engine::RunSpec& spec, Kind kind, Corrupt corrupt = Corrupt::kNone) {
  Sample sample;
  sample.kind = kind;
  const double start = Now();
  const double timeout = std::min(kSampleTimeoutS, kDriverStart + kRunBudgetS - start);
  if (timeout <= 0) {
    sample.failed = true;
    sample.error = "run budget exhausted before the sample started";
    return sample;
  }
  int fds[2];
  if (pipe(fds) != 0) {
    sample.failed = true;
    sample.error = "pipe failed";
    return sample;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    sample.failed = true;
    sample.error = "fork failed";
    return sample;
  }
  if (pid == 0) {
    setpgid(0, 0);
    close(fds[0]);
    dup2(STDERR_FILENO, STDOUT_FILENO);  // keep the parent's stdout for results
    FILE* out = fdopen(fds[1], "w");
    Output output(out);
    RunSample(spec, kind, corrupt, output);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    output.Put("peak_rss_mb", ru.ru_maxrss / 1024.0);
    std::fprintf(out, "end\n");
    std::fflush(out);
    _exit(0);
  }
  setpgid(pid, pid);
  close(fds[1]);

  std::string text;
  bool ended = false;
  char buf[4096];
  while (!ended) {
    double left = timeout - (Now() - start);
    if (left <= 0) {
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    int rc = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) {
      continue;
    }
    if (rc <= 0) {
      continue;  // timeout: the loop condition ends it
    }
    ssize_t got = read(fds[0], buf, sizeof(buf));
    if (got <= 0) {
      break;  // EOF: the child exited (or crashed) without "end"
    }
    text.append(buf, static_cast<size_t>(got));
    ended = text.size() >= 4 && text.compare(text.size() - 4, 4, "end\n") == 0;
  }
  close(fds[0]);
  int status = 0;
  if (!ended) {
    kill(-pid, SIGKILL);
  }
  waitpid(pid, &status, 0);
  ReapAll(pid);
  sample.wall_s = Now() - start;

  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      break;
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    char name[128], parent[128];
    double s0 = 0, s1 = 0;
    if (std::sscanf(line.c_str(), "span %127s %127s %lf %lf", name, parent, &s0, &s1) == 4) {
      sample.spans.push_back({name, std::strcmp(parent, "-") == 0 ? "" : parent, s0, s1});
    } else if (size_t sp = line.find(' '); sp != std::string::npos) {
      sample.values[line.substr(0, sp)] = line.substr(sp + 1);
    }
  }
  sample.peak_rss_mb = sample.Get("peak_rss_mb");
  if (!ended) {
    sample.error = sample.wall_s >= timeout ? "timeout" : "crashed";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    sample.error = "bad exit status";
  } else {
    sample.ok = true;
  }
  sample.failed = !sample.ok;
  return sample;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Smallest k with P(|TwoSidedGeometric(alpha)| >= k) = 2 alpha^k / (1 + alpha)
// at most kTailProbability.
int64_t TailBound(double alpha) {
  return static_cast<int64_t>(
      std::ceil(std::log(kTailProbability * (1 + alpha) / 2) / std::log(alpha)));
}

// The value most samples agree on, if more than half agree.
std::optional<std::string> Majority(const std::vector<Sample>& samples, const std::string& key) {
  std::map<std::string, int> counts;
  int ok = 0;
  for (const Sample& s : samples) {
    if (s.ok) {
      counts[s.Raw(key)]++;
      ok++;
    }
  }
  for (const auto& [value, count] : counts) {
    if (2 * count > ok) {
      return value;
    }
  }
  return std::nullopt;
}

// Applies every correctness check to a set of samples; marks failing
// samples and returns false when a set-level check fails.
bool CheckSet(const engine::RunSpec& spec, const Sample& check, std::vector<Sample>* samples,
              std::vector<std::string>* notes) {
  bool set_ok = true;
  auto fail_set = [&](const std::string& why) {
    notes->push_back("set check failed: " + why);
    set_ok = false;
  };
  if (!check.ok) {
    fail_set("check run " + check.error);
  }
  const std::string reference = check.Raw("reference");
  if (check.ok && check.Raw("nonoise_released") != reference) {
    fail_set("release at alpha 1e-12 is " + check.Raw("nonoise_released") +
             ", reference is " + reference);
  }
  if (check.ok && check.Raw("engine_reference") != reference) {
    fail_set("engine reference " + check.Raw("engine_reference") + " != driver reference " +
             reference);
  }
  std::optional<std::string> figure = Majority(*samples, "released");
  std::optional<std::string> digest = Majority(*samples, "digest");
  if (!figure || !digest) {
    fail_set("no majority figure/digest among samples");
  }
  const int64_t bound = TailBound(NoiseAlpha(spec));
  const int64_t ref = std::strtoll(reference.c_str(), nullptr, 10);
  for (Sample& s : *samples) {
    if (!s.ok) {
      notes->push_back("sample failed: " + s.error);
      continue;
    }
    std::string why;
    if (figure && s.Raw("released") != *figure) {
      why = "released " + s.Raw("released") + " != majority " + *figure;
    } else if (digest && s.Raw("digest") != *digest) {
      why = "traffic digest differs from majority";
    } else if (check.ok &&
               std::llabs(std::strtoll(s.Raw("released").c_str(), nullptr, 10) - ref) > bound) {
      why = "released " + s.Raw("released") + " outside reference " + reference + " +- " +
            std::to_string(bound);
    }
    if (!why.empty()) {
      s.failed = true;
      notes->push_back("sample failed: " + why);
    }
  }
  if (!set_ok) {
    for (Sample& s : *samples) {
      s.failed = true;
    }
  }
  return set_ok;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Human-readable timing summary: the median, plus the highest percentile
// that has at least ten samples beyond it. Below 21 samples there is none,
// and the maximum is shown instead.
void PrintTiming(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) {
    return;
  }
  if (n >= 21) {
    std::printf("  %-14s median %.4f s  p%.0f %.4f s  (n=%zu)\n", name, Median(v),
                100.0 * static_cast<double>(n - 10) / static_cast<double>(n), v[n - 11], n);
  } else {
    std::printf("  %-14s median %.4f s  max %.4f s  (n=%zu, too few for a tail percentile)\n",
                name, Median(v), v.back(), n);
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

// Samples run back to back until the next one would end past the window;
// at least kMinSamples always run.
constexpr int kMinSamples = 3;

std::vector<Sample> RunTimedSamples(const engine::RunSpec& spec, double window_s,
                                    const std::vector<Corrupt>& corrupt = {}) {
  std::vector<Sample> samples;
  const double deadline = Now() + window_s;
  std::vector<double> walls;
  while (true) {
    size_t i = samples.size();
    bool must = static_cast<int>(i) < kMinSamples || i < corrupt.size();
    if (!must && Now() + Median(walls) > deadline) {
      break;
    }
    samples.push_back(
        RunInChild(spec, Kind::kTimed, i < corrupt.size() ? corrupt[i] : Corrupt::kNone));
    walls.push_back(samples.back().wall_s);
  }
  return samples;
}

int Benchmark(const Options& opt) {
  const Workload* w = FindWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", opt.workload.c_str());
    for (const Workload& k : Workloads()) {
      std::fprintf(stderr, " %s", k.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  engine::RunSpec spec = w->make(false, opt.seed);
  spec.max_parallel_tasks = kThreads;

  std::vector<std::string> notes;
  Sample check = RunInChild(spec, Kind::kCheck);

  // The traced and 1-thread samples run first, so the window's remainder
  // goes to untraced samples.
  const double window_start = Now();
  std::vector<Sample> samples;
  if (opt.trace) {
    samples.push_back(RunInChild(spec, Kind::kTraced));
    samples.push_back(RunInChild(spec, Kind::kCap1));
  }
  std::vector<Sample> timed =
      RunTimedSamples(spec, std::max(0.0, opt.seconds - (Now() - window_start)));
  samples.insert(samples.end(), timed.begin(), timed.end());

  const bool set_ok = CheckSet(spec, check, &samples, &notes);
  int failed = 0;
  for (const Sample& s : samples) {
    failed += s.failed ? 1 : 0;
  }
  const int attempted = static_cast<int>(samples.size());
  const bool correct = set_ok && failed == 0;

  std::vector<double> e2e, setup, run, bytes, rss, cpu_per_wall, threads;
  int overcap = 0;
  for (const Sample& s : samples) {
    if (!s.ok) {
      continue;
    }
    const double requested = s.kind == Kind::kCap1 ? 1 : kThreads;
    if (s.Get("cpu_per_wall") > requested * 1.1 || s.Get("rerun_cpu_per_wall") > requested * 1.1) {
      overcap++;
    }
    if (s.kind != Kind::kTimed) {
      continue;
    }
    setup.push_back(s.Get("setup_s"));
    run.push_back(s.Get("run_s"));
    e2e.push_back(s.Get("setup_s") + s.Get("run_s"));
    bytes.push_back(s.Get("bytes_per_bank"));
    rss.push_back(s.peak_rss_mb);
    cpu_per_wall.push_back(s.Get("cpu_per_wall"));
    threads.push_back(s.Get("threads"));
  }

  std::printf("workload %s seed %llu: %d attempted, %d failed (failed_frac %.4f), %s\n",
              w->name, static_cast<unsigned long long>(opt.seed), attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              correct ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& note : notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  e2e_s of each untraced sample:");
  for (double v : e2e) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
  PrintTiming("e2e_s", e2e);
  PrintTiming("setup_s", setup);
  PrintTiming("run_s", run);
  std::printf("  threads: requested %d, observed %.0f OS threads, cpu/wall %.2f (medians); "
              "%d sample(s) over their cap\n",
              kThreads, Median(threads), Median(cpu_per_wall), overcap);

  if (!opt.trace) {
    PrintJson(correct, attempted, failed,
              {{"e2e_s", Median(e2e), "s"},
               {"setup_s", Median(setup), "s"},
               {"run_s", Median(run), "s"},
               {"bytes_per_bank", Median(bytes), "B"},
               {"peak_rss_mb", Median(rss), "MB"}});
    return 0;
  }

  const Sample& t = samples[0];
  const Sample& cap1 = samples[1];
  // Spans in seconds from the traced sample's start.
  const double origin = t.spans.empty() ? 0 : t.spans.back().start;
  for (const Span& s : t.spans) {
    std::printf("span {\"name\": \"%s\", \"parent\": \"%s\", \"start\": %.6f, \"end\": %.6f}\n",
                s.name.c_str(), s.parent.c_str(), s.start - origin, s.end - origin);
  }
  auto span_s = [&t](const char* name) {
    for (const Span& s : t.spans) {
      if (s.name == name) {
        return s.end - s.start;
      }
    }
    return 0.0;
  };
  const double n = std::max(1.0, t.Get("nodes"));
  const double stage_sum = span_s("engine.graph") + span_s("engine.workload") +
                           span_s("engine.compile") + span_s("engine.initial_states") +
                           span_s("engine.reference");
  const double phase_sum =
      t.Get("init_s") + t.Get("compute_s") + t.Get("communicate_s") + t.Get("aggregate_s");
  const double triples = t.Get("triples");
  const double edge_iters = t.Get("edges") * t.Get("iterations");
  const double messages = t.Get("messages");
  const double traced_e2e = t.Get("setup_s") + t.Get("run_s");
  std::vector<Metric> m = {
      {"engine.graph_s", span_s("engine.graph"), "s"},
      {"engine.workload_s", span_s("engine.workload"), "s"},
      {"engine.compile_s", span_s("engine.compile"), "s"},
      {"engine.initial_states_s", span_s("engine.initial_states"), "s"},
      {"engine.reference_s", span_s("engine.reference"), "s"},
      {"engine.setup_other_s", t.Get("setup_s") - stage_sum, "s"},
      {"engine.unattributed_s", t.Get("run_s") - phase_sum, "s"},
      {"engine.rerun_s", t.Get("rerun_s"), "s"},
      {"core.init_s", t.Get("init_s"), "s"},
      {"core.compute_s", t.Get("compute_s"), "s"},
      {"core.communicate_s", t.Get("communicate_s"), "s"},
      {"core.aggregate_s", t.Get("aggregate_s"), "s"},
      {"core.threads", Median(threads), "count"},
      {"core.cpu_per_wall", Median(cpu_per_wall), "ratio"},
      {"core.scaling_4v1", Median(run) > 0 ? cap1.Get("run_s") / Median(run) : 0, "ratio"},
      {"core.cap1_cpu_per_wall", cap1.Get("cpu_per_wall"), "ratio"},
      {"core.cap1_rerun_cpu_per_wall", cap1.Get("rerun_cpu_per_wall"), "ratio"},
      {"core.overcap_samples", static_cast<double>(overcap), "count"},
      {"net.msgs_per_bank", messages / n, "count"},
      {"net.bytes_max_bank", t.Get("bytes_max_bank"), "B"},
      {"net.bytes_per_msg", messages > 0 ? t.Get("total_bytes") / messages : 0, "B"},
      {"net.init_bytes", t.Get("init_bytes") / n, "B"},
      {"net.mpc_bytes", t.Get("mpc_bytes") / n, "B"},
      {"net.transfer_bytes", t.Get("transfer_bytes") / n, "B"},
      {"net.agg_bytes", t.Get("agg_bytes") / n, "B"},
      {"net.offline_bytes", t.Get("offline_bytes") / n, "B"},
      {"mpc.and_gates", t.Get("and_gates"), "count"},
      {"mpc.and_depth", t.Get("and_depth"), "count"},
      {"mpc.rounds", t.Get("rounds"), "count"},
      {"mpc.triples", triples, "count"},
      {"mpc.ns_per_triple", triples > 0 ? t.Get("compute_s") / triples * 1e9 : 0, "ns"},
      {"transfer.us_per_edge_iter",
       edge_iters > 0 ? t.Get("communicate_s") / edge_iters * 1e6 : 0, "us"},
      {"ot.offline_s", t.Get("offline_s"), "s"},
      {"ot.offline_wait_s", t.Get("offline_wait_s"), "s"},
      {"ot.base_ots", t.Get("base_ots"), "count"},
      {"trace.e2e_s", traced_e2e, "s"},
      {"trace.overhead_s", traced_e2e - Median(e2e), "s"},
  };
  std::printf("  traced sample: setup %.4f s (stages %.4f, other %.4f), run %.4f s (phases "
              "%.4f, unattributed %.4f); untraced e2e median %.4f s over n=%zu\n",
              t.Get("setup_s"), stage_sum, t.Get("setup_s") - stage_sum, t.Get("run_s"),
              phase_sum, t.Get("run_s") - phase_sum, Median(e2e), e2e.size());
  PrintJson(correct, attempted, failed, m);
  return 0;
}

// Smoke-sized run of every workload with deliberately corrupted samples:
// each corruption must be counted as a failed sample, every clean sample
// (traced included) must pass, and the check run must hold.
int SelfTest() {
  bool all_ok = true;
  for (const Workload& w : Workloads()) {
    engine::RunSpec spec = w.make(true, 3);
    spec.max_parallel_tasks = kThreads;
    Sample check = RunInChild(spec, Kind::kCheck);
    std::vector<Sample> samples = RunTimedSamples(
        spec, 0, {Corrupt::kNone, Corrupt::kFigure, Corrupt::kNone, Corrupt::kDigest});
    samples.push_back(RunInChild(spec, Kind::kTraced));
    std::vector<std::string> notes;
    bool set_ok = CheckSet(spec, check, &samples, &notes);
    bool ok = set_ok && samples.size() == 5;
    for (size_t i = 0; ok && i < samples.size(); i++) {
      bool should_fail = i == 1 || i == 3;
      ok = samples[i].ok && samples[i].failed == should_fail;
    }
    std::printf("self-test %-18s %s\n", w.name, ok ? "PASS" : "FAIL");
    for (const std::string& note : notes) {
      std::printf("  %s\n", note.c_str());
    }
    all_ok = all_ok && ok;
  }
  // A set whose check run released a figure other than the reference must
  // fail as a whole.
  {
    const Workload& w = Workloads()[1];
    engine::RunSpec spec = w.make(true, 3);
    spec.max_parallel_tasks = kThreads;
    Sample check = RunInChild(spec, Kind::kCheck);
    check.values["nonoise_released"] = "-1";
    std::vector<Sample> samples = RunTimedSamples(spec, 0);
    std::vector<std::string> notes;
    bool set_ok = CheckSet(spec, check, &samples, &notes);
    bool ok = !set_ok && std::all_of(samples.begin(), samples.end(),
                                     [](const Sample& s) { return s.failed; });
    std::printf("self-test %-18s %s\n", "bad-check-run", ok ? "PASS" : "FAIL");
    all_ok = all_ok && ok;
  }
  std::printf("self-test %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  // Any process a killed sample left behind is re-parented here, so
  // ReapAll can wait for every one of them.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  if (opt.self_test) {
    return SelfTest();
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> | --self-test\n");
    return 2;
  }
  return Benchmark(opt);
}
