#include <algorithm>
#include <cstdio>

#include <sched.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include "bench.h"
#include "kernel/payload.h"
#include "nal/parser.h"

namespace perfbench {

namespace nk = nexus::kernel;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "bench.op";
    case Layer::kAuthorize: return "kernel.authorize";
    case Layer::kCall: return "kernel.call";
    case Layer::kCallMany: return "kernel.callmany";
    case Layer::kEngine: return "core.engine";
    case Layer::kStoreHandler: return "bench.store_handler";
    case Layer::kFsHandler: return "kernel.fs";
    case Layer::kChain: return "kernel.interpose";
    case Layer::kSetGoal: return "core.engine.setgoal";
    case Layer::kSetProof: return "core.engine.setproof";
    case Layer::kVouch: return "net.vouch";
    case Layer::kCount: break;
  }
  return "?";
}

// ------------------------------------------------------------------ spans

int SpanRecorder::Open(Layer layer) {
  if ((depth_ == 0 && layer != Layer::kOp) || depth_ >= kMaxDepth || sink_ == nullptr) {
    return -1;
  }
  Span& span = stack_[depth_];
  span.id = next_id_++;
  span.parent = depth_ == 0 ? 0 : stack_[depth_ - 1].id;
  span.layer = layer;
  span.extra = 0;
  span.start_ns = NowNs();
  return static_cast<int>(depth_++);
}

void SpanRecorder::Close(int slot, uint64_t extra) {
  if (slot < 0) {
    return;
  }
  // Spans nest strictly (one thread, synchronous calls), so the slot being
  // closed is the innermost one.
  depth_ = static_cast<size_t>(slot);
  Span& span = stack_[depth_];
  span.end_ns = NowNs();
  span.extra = extra;
  sink_->push_back(span);
}

void SpanRecorder::Add(Layer layer, uint64_t start_ns, uint64_t end_ns, uint64_t extra) {
  if (depth_ == 0 || sink_ == nullptr) {
    return;
  }
  Span span;
  span.id = next_id_++;
  span.parent = stack_[depth_ - 1].id;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.extra = extra;
  sink_->push_back(span);
}

SpanRecorder& Spans() {
  static thread_local SpanRecorder recorder;
  return recorder;
}

namespace {
thread_local ThreadStats* tls_stats = nullptr;
ThreadStats g_orphan_stats;  // Calls made outside any bound caller.
}  // namespace

ThreadStats& CurrentStats() { return tls_stats != nullptr ? *tls_stats : g_orphan_stats; }
void BindCurrentStats(ThreadStats* stats) { tls_stats = stats; }

void ThreadStats::Merge(const ThreadStats& o) {
  attempted += o.attempted;
  failed += o.failed;
  overlapped += o.overlapped;
  writes += o.writes;
  goal_flips += o.goal_flips;
  authz_requests += o.authz_requests;
  syscalls += o.syscalls;
  payload_bytes += o.payload_bytes;
  expected_payload_bytes += o.expected_payload_bytes;
  engine_misses += o.engine_misses;
  vouches += o.vouches;
  spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  spans_dropped += o.spans_dropped;
}

void WindowedSamples::Start(uint64_t origin_ns, uint64_t window_ns, size_t windows) {
  origin_ns_ = origin_ns;
  window_ns_ = window_ns;
  windows_.assign(windows, Window{});
}

void WindowedSamples::Record(uint64_t at_ns, uint32_t value) {
  if (at_ns < origin_ns_) {
    return;
  }
  uint64_t w = (at_ns - origin_ns_) / window_ns_;
  if (w >= windows_.size()) {
    return;
  }
  Window& window = windows_[w];
  window.seen += 1;
  if (window.kept.size() < kReservoir) {
    window.kept.push_back(value);
    return;
  }
  // Reservoir sampling: each sample seen so far is kept with equal chance.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  uint64_t slot = rng_ % window.seen;
  if (slot < kReservoir) {
    window.kept[slot] = value;
  }
}

std::vector<double> WindowQuantiles(const std::vector<const WindowedSamples*>& parts, double q) {
  std::vector<double> per_window;
  size_t windows = parts.empty() ? 0 : parts[0]->windows();
  for (size_t w = 0; w < windows; ++w) {
    std::vector<uint32_t> merged;
    for (const WindowedSamples* part : parts) {
      merged.insert(merged.end(), part->kept(w).begin(), part->kept(w).end());
    }
    if (!merged.empty()) {
      per_window.push_back(Quantile(std::move(merged), q));
    }
  }
  return per_window;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

namespace {
void PinThread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  (void)sched_setaffinity(tid, sizeof(set), &set);
}
}  // namespace

void PinTo(int cpu) { PinThread(0, {cpu}); }

namespace {
// The rotation state the signal handler reads; set before the timer is
// armed, cleared after it is disarmed.
const std::vector<int>* g_rotation_cpus = nullptr;
volatile sig_atomic_t g_rotation_next = 0;

void OnRotationTick(int) {
  const int saved_errno = errno;
  const std::vector<int>& cpus = *g_rotation_cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(g_rotation_next) % cpus.size()], &set);
  g_rotation_next = g_rotation_next + 1;
  (void)syscall(SYS_sched_setaffinity, 0, sizeof(set), &set);
  errno = saved_errno;
}
}  // namespace

CpuRotator::CpuRotator() : cpus_(AllowedCpus()) {
  if (cpus_.size() < 2 || g_rotation_cpus != nullptr) {
    return;
  }
  g_rotation_cpus = &cpus_;
  g_rotation_next = 1;
  PinTo(cpus_[0]);
  struct sigaction action = {};
  action.sa_handler = OnRotationTick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, &previous_);
  itimerval timer = {};
  timer.it_interval.tv_usec = static_cast<suseconds_t>(kPeriodNs / 1000);
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_REAL, &timer, nullptr);
  armed_ = true;
}

CpuRotator::~CpuRotator() {
  if (!armed_) {
    return;
  }
  itimerval off = {};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &previous_, nullptr);
  g_rotation_cpus = nullptr;
  PinThread(0, cpus_);
}

// ------------------------------------------------------------ the policy

namespace {
nexus::nal::Formula Parse(const std::string& text) {
  nexus::Result<nexus::nal::Formula> f = nexus::nal::ParseFormula(text);
  if (!f.ok()) {
    std::fprintf(stderr, "perfbench: bad formula %s: %s\n", text.c_str(),
                 f.status().ToString().c_str());
    std::abort();
  }
  return *f;
}
}  // namespace

Vocabulary::Vocabulary() {
  for (size_t i = 0; i < kMaxDepth; ++i) {
    statements.push_back(Parse("C" + std::to_string(i) + " says ok(subject)"));
  }
  other = Parse("C0 says other(subject)");
  deny_goal = Parse("C0 says revoked(subject)");
}

void Vocabulary::SayAll(nexus::core::Engine& engine) const {
  // SayAs records "<speaker> says <body>".
  for (const nexus::nal::Formula& statement : statements) {
    engine.SayAs(statement->speaker(), statement->child1());
  }
  engine.SayAs(other->speaker(), other->child1());
}

nexus::nal::Formula Vocabulary::Goal(size_t depth) const {
  nexus::nal::Formula goal = statements[depth - 1];
  for (size_t i = depth - 1; i-- > 0;) {
    goal = nexus::nal::FormulaNode::And(statements[i], goal);
  }
  return goal;
}

nexus::nal::Proof Vocabulary::ValidProof(size_t depth) const {
  nexus::nal::Proof proof = nexus::nal::proof::Premise(statements[depth - 1]);
  for (size_t i = depth - 1; i-- > 0;) {
    proof = nexus::nal::proof::AndIntro(nexus::nal::proof::Premise(statements[i]), proof);
  }
  return proof;
}

nexus::nal::Proof Vocabulary::InvalidProof() const { return nexus::nal::proof::Premise(other); }

// ---------------------------------------------------------- guarded store

nexus::Bytes BlobFor(uint64_t seed, size_t index, size_t size) {
  nexus::Rng rng(nk::Mix64(seed * 0x9e3779b97f4a7c15ULL + index + 1));
  return rng.RandomBytes(size);
}

GuardedStore::GuardedStore(nk::Kernel* kernel, size_t objects, uint64_t seed)
    : kernel_(kernel), arena_(std::make_shared<nexus::Bytes>()) {
  arena_->reserve(objects * kBlobSize);
  for (size_t i = 0; i < objects; ++i) {
    nexus::Bytes blob = BlobFor(seed, i, kBlobSize);
    arena_->insert(arena_->end(), blob.begin(), blob.end());
  }
}

nk::IpcReply GuardedStore::Handle(const nk::IpcContext& context, const nk::IpcMessage& message) {
  SpanScope span(Layer::kStoreHandler);
  nexus::Result<ObjectId> obj = message.ArgObject(0);
  if (!obj.ok()) {
    return nk::IpcReply(obj.status());
  }
  Status verdict = kernel_->Authorize(nk::AuthzRequest{context.caller, message.op, *obj});
  if (!verdict.ok()) {
    return nk::IpcReply(verdict);
  }
  auto it = index_.find(*obj);
  if (it == index_.end()) {
    return nk::IpcReply(nexus::NotFound("no such object"));
  }
  nk::IpcReply reply = nk::IpcReply::Ok();
  reply.data = nk::Payload::Slice(arena_, it->second * kBlobSize, kBlobSize);
  return reply;
}

// --------------------------------------------------------------- proxies

nk::AuthzDecision TracingEngine::Authorize(const nk::AuthzRequest& request) {
  CurrentStats().engine_misses += 1;
  SpanScope span(Layer::kEngine);
  span.set_extra(1);
  return inner_->Authorize(request);
}

std::vector<nk::AuthzDecision> TracingEngine::AuthorizeBatch(
    std::span<const nk::AuthzRequest> requests) {
  CurrentStats().engine_misses += requests.size();
  SpanScope span(Layer::kEngine);
  span.set_extra(requests.size());
  return inner_->AuthorizeBatch(requests);
}

nk::IpcReply TracingHandler::Handle(const nk::IpcContext& context, const nk::IpcMessage& message) {
  SpanScope span(layer_);
  span.set_extra(1);
  return inner_->Handle(context, message);
}

void TracingHandler::HandleMany(const nk::IpcContext& context,
                                std::span<const nk::IpcMessage> messages,
                                std::span<nk::IpcReply> replies) {
  SpanScope span(layer_);
  span.set_extra(messages.size());
  inner_->HandleMany(context, messages, replies);
}

namespace {
thread_local uint64_t tls_forward_start = 0;
thread_local uint64_t tls_reply_start = 0;
}  // namespace

nk::InterposeVerdict StampInterceptor::OnCall(const nk::IpcContext&, nk::IpcMessage&) {
  if (Spans().active()) {
    if (outer_) {
      tls_forward_start = NowNs();
    } else if (tls_forward_start != 0) {
      Spans().Add(Layer::kChain, tls_forward_start, NowNs());
      tls_forward_start = 0;
    }
  }
  return nk::InterposeVerdict::kAllow;
}

nk::InterposeVerdict StampInterceptor::OnReply(const nk::IpcContext&, const nk::IpcMessage&,
                                               nk::IpcReply&) {
  if (Spans().active()) {
    if (!outer_) {
      tls_reply_start = NowNs();
    } else if (tls_reply_start != 0) {
      Spans().Add(Layer::kChain, tls_reply_start, NowNs());
      tls_reply_start = 0;
    }
  }
  return nk::InterposeVerdict::kAllow;
}

// ---------------------------------------------------------------- helpers

double Quantile(std::vector<uint32_t> values, double q) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank), values.end());
  return values[rank];
}

double QuantileD(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank), values.end());
  return values[rank];
}

}  // namespace perfbench

namespace perfbench {

// ------------------------------------------------------- mutation prober

Status MutationProber::Setup(nexus::core::Nexus* nexus, const Vocabulary* vocab,
                             ProcessId owner) {
  nexus_ = nexus;
  vocab_ = vocab;
  owner_ = owner;
  op_ = nk::InternOp("read");
  nexus::Result<ProcessId> subject = nexus->CreateProcess("probe-subject", nexus::ToBytes("p"));
  if (!subject.ok()) {
    return subject.status();
  }
  subject_ = *subject;
  nexus::core::Engine& engine = nexus->engine();
  for (size_t i = 0; i < kObjects; ++i) {
    ObjectId obj = nk::InternObject("probe:" + std::to_string(i));
    objects_.push_back(obj);
    NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, owner, owner));
    NEXUS_RETURN_IF_ERROR(engine.SetGoal(owner, op_, obj, vocab->Goal(1)));
    NEXUS_RETURN_IF_ERROR(
        engine.SetProof(nk::AuthzRequest{subject_, op_, obj}, vocab->ValidProof(1)));
  }
  goal_allow_.assign(kObjects, true);
  proof_valid_.assign(kObjects, true);
  return nexus::OkStatus();
}

void MutationProber::Run(ThreadStats& ts, bool traced, double seconds, size_t windows) {
  nexus::core::Engine& engine = nexus_->engine();
  const uint64_t origin = NowNs();
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9) / windows;
  ts.write_latency.Start(origin, window_ns, windows);
  const std::vector<int> cpus = AllowedCpus();
  uint64_t window = UINT64_MAX;
  for (size_t i = 0; i % kObjects != 0 || NowNs() < origin + window_ns * windows; ++i) {
    if (!cpus.empty() && (NowNs() - origin) / window_ns != window) {
      window = (NowNs() - origin) / window_ns;
      PinTo(cpus[window % cpus.size()]);
    }
    // Three goal flips per proof re-submission: the median then falls
    // inside one kind's distribution instead of between the two.
    size_t o = i % kObjects;
    bool goal_write = i % 4 != 3;
    if (traced) {
      Spans().BeginOp();
    }
    Status status;
    const uint64_t start = NowNs();
    if (goal_write) {
      SpanScope span(Layer::kSetGoal);
      goal_allow_[o] = !goal_allow_[o];
      status = engine.SetGoal(owner_, op_, objects_[o],
                              goal_allow_[o] ? vocab_->Goal(1) : vocab_->deny_goal);
    } else {
      SpanScope span(Layer::kSetProof);
      proof_valid_[o] = !proof_valid_[o];
      status = engine.SetProof(nk::AuthzRequest{subject_, op_, objects_[o]},
                               proof_valid_[o] ? vocab_->ValidProof(1) : vocab_->InvalidProof());
    }
    const uint64_t end = NowNs();
    ts.write_latency.Record(end, static_cast<uint32_t>(end - start));
    if (traced) {
      Spans().EndOp();
    }
    ts.writes += 1;
    if (!status.ok()) {
      ts.failed += 1;
    }
  }
}

std::vector<SweepTuple> MutationProber::SweepInputs() const {
  std::vector<SweepTuple> inputs;
  for (ObjectId obj : objects_) {
    inputs.push_back(
        SweepTuple{nk::AuthzRequest{subject_, op_, obj}, vocab_->Goal(1), vocab_->ValidProof(1)});
  }
  return inputs;
}

bool MutationProber::Check(ThreadStats& ts, std::string* why) {
  for (size_t o = 0; o < kObjects; ++o) {
    Status verdict = nexus_->kernel().Authorize(nk::AuthzRequest{subject_, op_, objects_[o]});
    ts.authz_requests += 1;
    if (verdict.ok() != (goal_allow_[o] && proof_valid_[o])) {
      *why = "probe object " + std::to_string(o) + " verdict differs from the model";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

namespace perfbench {

bool CheckStoreReply(ThreadStats& ts, const nk::IpcReply& reply, bool allow,
                     const nexus::Bytes& shadow) {
  if (reply.status.ok() != allow) {
    return false;
  }
  if (!allow) {
    return reply.data.empty();
  }
  ts.payload_bytes += reply.data.size();
  ts.expected_payload_bytes += shadow.size();
  return reply.data.size() == shadow.size() &&
         std::equal(shadow.begin(), shadow.end(), reply.data.begin());
}

}  // namespace perfbench
