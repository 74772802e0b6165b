// Shared machinery of the perfbench workloads.
//
// The benchmark is a closed loop in one process: each caller thread owns a
// seeded list of operations (one "round") and replays it until the run's
// time is up, waiting for every reply before issuing the next operation.
// Every thread stops on a round boundary, so a run attempts whole rounds
// and the share of failed operations does not depend on the run length.
//
// Correctness is checked by the workloads themselves against models kept
// apart from the program (policy models with per-object write versions,
// shadow copies of file contents, the benchmark's own operation counts).
//
// Tracing is the benchmark's own: spans are recorded around the calls the
// benchmark makes into each layer, and around proxies it installs at the
// program's public seams (an AuthorizationEngine forwarding to the engine,
// a PortHandler forwarding to the file server, timestamp interceptors at
// both ends of interceptor chains, an Authority wrapping the quorum). Spans
// stay in per-thread memory and are written out when the run ends.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/nexus.h"
#include "kernel/kernel.h"
#include "nal/formula.h"
#include "nal/proof.h"
#include "tpm/tpm.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using nexus::Status;
using nexus::kernel::ObjectId;
using nexus::kernel::OpId;
using nexus::kernel::PortId;
using nexus::kernel::ProcessId;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// ------------------------------------------------------------------ spans

enum class Layer : uint8_t {
  kOp,           // Root: one sampled benchmark operation.
  kAuthorize,    // Kernel::Authorize, called by the benchmark.
  kCall,         // Kernel::Call / Kernel::Invoke, called by the benchmark.
  kCallMany,     // Kernel::CallMany, called by the benchmark.
  kEngine,       // AuthorizationEngine proxy -> core::Engine.
  kStoreHandler, // The benchmark's guarded object store (a PortHandler).
  kFsHandler,    // PortHandler proxy -> kernel::FileServer.
  kChain,        // Timestamp interceptors: one interceptor chain direction.
  kSetGoal,      // Engine::SetGoal, called by the benchmark.
  kSetProof,     // Engine::SetProof, called by the benchmark.
  kVouch,        // Authority wrapper -> net::mesh::QuorumAuthority.
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t extra = 0;  // Batch size (kCallMany), simulated us (kVouch).
  Layer layer = Layer::kOp;
};

// Per-thread span recorder. Spans are recorded only while an operation
// chosen for sampling is open on the thread; every call is a no-op
// otherwise, so proxies cost one thread-local load on unsampled calls.
class SpanRecorder {
 public:
  static constexpr size_t kMaxDepth = 8;

  void Bind(std::vector<Span>* sink, uint64_t thread_index) {
    sink_ = sink;
    next_id_ = (thread_index + 1) << 40;
  }
  bool active() const { return depth_ > 0; }
  // Opens a span; returns its slot or -1 when not recording.
  int Open(Layer layer);
  void Close(int slot, uint64_t extra = 0);
  // A span whose bounds were measured elsewhere (interceptor stamps).
  void Add(Layer layer, uint64_t start_ns, uint64_t end_ns, uint64_t extra = 0);
  // Root span control: the benchmark loop opens one per sampled op.
  void BeginOp() { root_ = Open(Layer::kOp); }
  void EndOp() { Close(root_); }

 private:
  std::vector<Span>* sink_ = nullptr;
  uint64_t next_id_ = 1;
  Span stack_[kMaxDepth];
  size_t depth_ = 0;
  int root_ = -1;
};

SpanRecorder& Spans();  // The calling thread's recorder.

// RAII span around one call into a layer.
class SpanScope {
 public:
  explicit SpanScope(Layer layer) : slot_(Spans().Open(layer)) {}
  ~SpanScope() { Spans().Close(slot_, extra_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_extra(uint64_t extra) { extra_ = extra; }

 private:
  int slot_;
  uint64_t extra_ = 0;
};

// ------------------------------------------------------------- operations

// One operation of a round. `kind` and the two indices are workload-
// defined; the flags are drawn from the seed like everything else.
struct Op {
  uint8_t kind = 0;
  bool timed = false;    // Latency sample (untraced runs).
  bool sampled = false;  // Span sample (traced slices).
  uint32_t a = 0;
  uint32_t b = 0;
};

// Latency samples of one caller, kept per time window of the timed phase:
// a fixed-size uniform reservoir per window, so the benchmark's memory does
// not grow with the program's throughput. Samples past the last window
// (the final round's overshoot) are not kept.
class WindowedSamples {
 public:
  static constexpr size_t kReservoir = 2048;

  // One window spanning everything (the post-run mutation probe).
  WindowedSamples() { Start(0, UINT64_MAX, 1); }
  void Start(uint64_t origin_ns, uint64_t window_ns, size_t windows);
  void Record(uint64_t at_ns, uint32_t value);
  size_t windows() const { return windows_.size(); }
  // The kept samples of window `w`.
  const std::vector<uint32_t>& kept(size_t w) const { return windows_[w].kept; }

 private:
  struct Window {
    uint64_t seen = 0;
    std::vector<uint32_t> kept;
  };
  std::vector<Window> windows_;
  uint64_t origin_ns_ = 0;
  uint64_t window_ns_ = 1;
  uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

// Per-window quantile `q` over every part's samples of that window, for
// the windows that have samples.
std::vector<double> WindowQuantiles(const std::vector<const WindowedSamples*>& parts, double q);

// One round: when it ran, and what it completed.
struct RoundMark {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t ops = 0;
  uint64_t payload_bytes = 0;
};

// What one caller thread did. Owned by the thread while it runs.
struct ThreadStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t overlapped = 0;  // Verdicts bracketed by a write: either accepted.
  uint64_t writes = 0;       // SetGoal / SetProof.
  uint64_t goal_flips = 0;
  uint64_t authz_requests = 0;  // Kernel authorization requests caused.
  uint64_t syscalls = 0;        // Kernel::Invoke dispatches caused.
  uint64_t payload_bytes = 0;   // Reply data bytes received by the caller.
  uint64_t expected_payload_bytes = 0;  // What the shadow model delivers.
  uint64_t engine_misses = 0;   // Counted by the engine proxy.
  uint64_t vouches = 0;         // Counted by the authority wrapper.
  WindowedSamples read_latency;   // Read-path ops (latency samples).
  WindowedSamples write_latency;  // Every SetGoal / SetProof.
  std::vector<RoundMark> rounds;
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;

  // Sums the counters and appends the spans; windowed samples and round
  // marks stay per thread.
  void Merge(const ThreadStats& other);
  // Times `f()` into `samples` (window chosen by the end time).
  template <class F>
  static auto Timed(WindowedSamples& samples, F&& f) {
    uint64_t start = NowNs();
    auto result = f();
    uint64_t end = NowNs();
    samples.Record(end, static_cast<uint32_t>(std::min<uint64_t>(end - start, UINT32_MAX)));
    return result;
  }
};

ThreadStats& CurrentStats();  // The calling thread's stats (bound by the loop).
void BindCurrentStats(ThreadStats* stats);

// Records the latency of `f()` when the op is a latency sample. Returns
// f()'s result.
template <class F>
auto TimedRead(ThreadStats& ts, const Op& op, F&& f) {
  return op.timed ? ThreadStats::Timed(ts.read_latency, f) : f();
}

// ------------------------------------------------------------ the policy

// NAL vocabulary shared by the workloads: depth-d goals are conjunctions of
// d certifier statements, each discharged by a premise label the setup
// says in the system labelstore; the deny goal is unprovable.
struct Vocabulary {
  static constexpr size_t kMaxDepth = 8;
  std::vector<nexus::nal::Formula> statements;  // "C<i> says ok(subject)".
  nexus::nal::Formula other;                     // Said, but proves no goal.
  nexus::nal::Formula deny_goal;                 // Never said.

  Vocabulary();
  // Says every statement (and `other`) as system labels.
  void SayAll(nexus::core::Engine& engine) const;
  nexus::nal::Formula Goal(size_t depth) const;
  nexus::nal::Proof ValidProof(size_t depth) const;
  nexus::nal::Proof InvalidProof() const;
};

// Per-object write version for bracketing verdicts (odd = write open).
// A verdict whose op read the same even version before and after saw no
// write and must equal the model; otherwise it may be either.
struct VersionedObject {
  std::atomic<uint64_t> version{0};
  std::atomic<bool> goal_allow{true};
  std::atomic<bool> lock{false};  // Writers only (spin: writes are short).

  void LockWriter() {
    while (lock.exchange(true, std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    version.fetch_add(1);
  }
  void UnlockWriter() {
    version.fetch_add(1);
    lock.store(false, std::memory_order_release);
  }
};

// ---------------------------------------------------------- guarded store

// A user-level object store behind one port: every request authorizes
// (caller, op, object) through the kernel, as the file server does, and an
// allowed read replies with the object's contents as a zero-copy slice.
class GuardedStore : public nexus::kernel::PortHandler {
 public:
  GuardedStore(nexus::kernel::Kernel* kernel, size_t objects, uint64_t seed);
  nexus::kernel::IpcReply Handle(const nexus::kernel::IpcContext& context,
                                 const nexus::kernel::IpcMessage& message) override;
  // Object `object` holds BlobFor(seed, index, kBlobSize); the benchmark's
  // shadow copies are built from the same seed independently.
  void Register(ObjectId object, size_t index) { index_[object] = index; }

  static constexpr size_t kBlobSize = 64;

 private:
  nexus::kernel::Kernel* kernel_;
  std::shared_ptr<nexus::Bytes> arena_;
  std::unordered_map<ObjectId, size_t> index_;  // Immutable after setup.
};

// Deterministic object contents from (seed, index).
nexus::Bytes BlobFor(uint64_t seed, size_t index, size_t size);

// Checks a store reply against the model: the verdict, and for an allowed
// read the exact bytes of the benchmark's shadow copy. Counts payload.
bool CheckStoreReply(ThreadStats& ts, const nexus::kernel::IpcReply& reply, bool allow,
                     const nexus::Bytes& shadow);

// --------------------------------------------------------------- proxies

// AuthorizationEngine proxy: spans and counts every engine consultation.
class TracingEngine : public nexus::kernel::AuthorizationEngine {
 public:
  explicit TracingEngine(nexus::kernel::AuthorizationEngine* inner) : inner_(inner) {}
  nexus::kernel::AuthzDecision Authorize(const nexus::kernel::AuthzRequest& request) override;
  std::vector<nexus::kernel::AuthzDecision> AuthorizeBatch(
      std::span<const nexus::kernel::AuthzRequest> requests) override;

 private:
  nexus::kernel::AuthorizationEngine* inner_;
};

// PortHandler proxy with a span per Handle / HandleMany.
class TracingHandler : public nexus::kernel::PortHandler {
 public:
  TracingHandler(nexus::kernel::PortHandler* inner, Layer layer) : inner_(inner), layer_(layer) {}
  nexus::kernel::IpcReply Handle(const nexus::kernel::IpcContext& context,
                                 const nexus::kernel::IpcMessage& message) override;
  void HandleMany(const nexus::kernel::IpcContext& context,
                  std::span<const nexus::kernel::IpcMessage> messages,
                  std::span<nexus::kernel::IpcReply> replies) override;

 private:
  nexus::kernel::PortHandler* inner_;
  Layer layer_;
};

// Timestamp interceptor: installed at both ends of a chain that already
// carries monitors. The outer one runs first on the call and last on the
// reply, the inner one the other way round; together they bound each
// direction of the chain as a kChain span.
class StampInterceptor : public nexus::kernel::Interceptor {
 public:
  explicit StampInterceptor(bool outer) : outer_(outer) {}
  nexus::kernel::InterposeVerdict OnCall(const nexus::kernel::IpcContext& context,
                                         nexus::kernel::IpcMessage& message) override;
  nexus::kernel::InterposeVerdict OnReply(const nexus::kernel::IpcContext& context,
                                          const nexus::kernel::IpcMessage& request,
                                          nexus::kernel::IpcReply& reply) override;

 private:
  bool outer_;
};

// ------------------------------------------------------------- instances

// One booted Nexus. Keys come from fixed seeds, not the workload seed: the
// run's inputs vary with --seed, the machine it boots on does not, so the
// set-up time does not depend on how fast a seeded prime search ends.
struct Instance {
  explicit Instance(uint64_t key_seed)
      : tpm_rng(0x7e57 + key_seed),
        tpm(tpm_rng),
        nexus(&tpm, nexus::core::NexusOptions{.seed = key_seed}) {}
  nexus::Rng tpm_rng;
  nexus::tpm::Tpm tpm;
  nexus::core::Nexus nexus;
};

// Inputs for the layer-isolated sweep, captured from a workload's state.
struct SweepTuple {
  nexus::kernel::AuthzRequest request;
  nexus::nal::Formula goal;  // Local (authority-free) goal.
  nexus::nal::Proof proof;
};

// Control-plane writes on objects outside every working set, timed one at
// a time, three seconds a run: in bursts between slices of the timed phase
// (untraced runs) or after it (traced runs). Workloads whose timed phase
// does not write report mutation latency from here: goal flips and proof
// re-submissions against the state the run has built (warm cache, full
// tables).
class MutationProber {
 public:
  static constexpr size_t kObjects = 64;
  static constexpr double kSeconds = 3.0;

  Status Setup(nexus::core::Nexus* nexus, const Vocabulary* vocab, ProcessId owner);
  // Three goal flips per proof re-submission, each flipping its target's
  // state, in whole passes over the probe objects; samples go to windows
  // like the timed phase's.
  void Run(ThreadStats& ts, bool traced, double seconds, size_t windows);
  // Every probe object's verdict for the probe subject equals the model.
  bool Check(ThreadStats& ts, std::string* why);
  // The probe subject's valid-proof inputs on every probe object.
  std::vector<SweepTuple> SweepInputs() const;

 private:
  nexus::core::Nexus* nexus_ = nullptr;
  const Vocabulary* vocab_ = nullptr;
  ProcessId owner_ = 0;
  ProcessId subject_ = 0;
  OpId op_ = 0;
  std::vector<ObjectId> objects_;
  std::vector<bool> goal_allow_;
  std::vector<bool> proof_valid_;
};

// ------------------------------------------------------------- workloads

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Oracle self-test: deliberately wrong expectations the run must catch.
  bool flip_one_verdict = false;
  bool corrupt_one_shadow_byte = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t threads() const = 0;
  // One latency sample per this many read-path ops (seeded choice).
  virtual uint32_t latency_sample_every() const = 0;
  // Whether MakeRound marks the latency samples itself (Op::timed), at the
  // rate above, instead of leaving the choice to the seed.
  virtual bool marks_samples() const { return false; }
  // One span-traced op per this many ops in traced slices.
  virtual uint32_t span_sample_every() const = 0;
  // Builds the world: boot, population, proofs, warm-up.
  virtual Status Setup(const RunConfig& config) = 0;
  // One round of operations for caller `thread`.
  virtual std::vector<Op> MakeRound(size_t thread, nexus::Rng& rng) = 0;
  // Whether every round is drawn afresh from the caller's seeded stream.
  // A workload whose working set must exceed a cache cannot replay one
  // round: the round would be its whole working set.
  virtual bool fresh_rounds() const { return false; }
  // Executes one op, checks it against the oracle, counts into `ts`.
  virtual void Run(ThreadStats& ts, const Op& op) = 0;
  // Installs / removes the tracing proxies. Called with callers parked.
  virtual void SetTracing(bool on) = 0;
  // `seconds` of control-plane writes (MutationProber) on workloads whose
  // timed phase does not write, with callers parked. Fills
  // `ts.write_latency` in `windows` windows.
  virtual void MutationProbe(ThreadStats& ts, bool traced, double seconds, size_t windows) {
    (void)ts;
    (void)traced;
    (void)seconds;
    (void)windows;
  }
  // Quiescent check of the final state against the model.
  virtual bool PostCheck(ThreadStats& ts, std::string* why) = 0;
  // Oracle self-test: make one expectation that caller 0's round checks
  // wrong, or corrupt one byte of a shadow copy that round reads.
  virtual void InjectOracleFault(const std::vector<Op>& round0, const RunConfig& config) = 0;
  // Structural checks made at setup (mesh convergence) that failed.
  virtual std::string setup_fault() const { return {}; }
  virtual nexus::core::Nexus& nexus() = 0;
  virtual std::vector<SweepTuple> SweepInputs() = 0;
  // Workload-specific per-layer metrics (traced runs).
  virtual void LayerMetrics(const ThreadStats& total,
                            std::map<std::string, std::pair<double, std::string>>* out) {
    (void)total;
    (void)out;
  }
};

std::unique_ptr<Workload> MakeHotAuthz();
std::unique_ptr<Workload> MakeColdMutate();
std::unique_ptr<Workload> MakeInterposedIo();
std::unique_ptr<Workload> MakeFederatedQuorum();

// ---------------------------------------------------------------- helpers

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus();
// Moves the calling thread to one CPU. Callers move to the next CPU every
// window, so each run samples every CPU it may use: on a shared host one
// CPU can be slowed by its neighbours for tens of seconds, which would
// otherwise set a single-caller run's figure.
void PinTo(int cpu);

// While it lives, moves the process's only thread to the next allowed CPU
// every kPeriodNs (from a SIGALRM handler; a helper thread would turn on
// the C and C++ runtimes' multi-threaded paths, which made the set-up run
// about 1.7x slower); then lets it run on every allowed CPU again. The
// set-up runs under one: it is single-threaded and short, and the host's
// CPUs each switch between two speeds, so on one CPU its time would fall in
// two clusters from run to run instead of taking the CPUs' average.
class CpuRotator {
 public:
  static constexpr uint64_t kPeriodNs = 5'000'000;
  CpuRotator();
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  std::vector<int> cpus_;
  struct sigaction previous_ = {};
  bool armed_ = false;
};

// Exact quantile of `values` (nearest rank on the sorted copy); 0 if empty.
double Quantile(std::vector<uint32_t> values, double q);
double QuantileD(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
