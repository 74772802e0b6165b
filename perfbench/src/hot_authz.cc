// hot-authz: cached authorization under 4-way contention.
//
// Four callers replay ~80% direct Kernel::Authorize and ~20% guarded IPC
// Calls (an un-interposed object-store port) over a warmed set of 8192
// (subject, object) tuples that fits the decision cache. The tuples are
// drawn at random from 1024 holder processes x 2048 guarded objects, so
// each (shard, subregion) of the 8 x 64 x 64 cache holds ~16 of them and
// none overflows its 64 slots. Nothing writes in the timed phase: nearly
// every operation is a cache hit, and the time goes to the cache probe and
// to bare dispatch.
#include "bench.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;

constexpr size_t kThreads = 4;
constexpr size_t kHolders = 1024;
constexpr size_t kVirtualSubjects = 256;
constexpr size_t kGuarded = 2048;
constexpr size_t kUnregistered = 256;
constexpr size_t kTuples = 8192;
constexpr size_t kRoundOps = 4096;
constexpr ProcessId kVirtualBase = 1ULL << 32;

enum Kind : uint8_t { kAuthz, kCallStore };

class HotAuthz : public Workload {
 public:
  HotAuthz() : instance_(1) {}

  size_t threads() const override { return kThreads; }
  uint32_t latency_sample_every() const override { return 64; }
  uint32_t span_sample_every() const override { return 256; }
  nexus::core::Nexus& nexus() override { return instance_.nexus; }

  Status Setup(const RunConfig& config) override {
    nexus::core::Nexus& nx = instance_.nexus;
    nk::Kernel& kernel = nx.kernel();
    nexus::core::Engine& engine = nx.engine();
    vocab_.SayAll(engine);
    read_op_ = nk::InternOp("read");
    original_engine_ = kernel.engine();
    tracing_engine_ = std::make_unique<TracingEngine>(original_engine_);

    nexus::Result<ProcessId> server = nx.CreateProcess("store", nexus::ToBytes("store"));
    NEXUS_RETURN_IF_ERROR(server.status());
    server_ = *server;
    nexus::Result<PortId> port = nx.CreatePort(server_);
    NEXUS_RETURN_IF_ERROR(port.status());
    port_ = *port;
    store_ = std::make_unique<GuardedStore>(&kernel, kGuarded + kUnregistered, config.seed);
    NEXUS_RETURN_IF_ERROR(kernel.BindHandler(port_, store_.get()));

    // Objects: [0, kGuarded) guarded by a depth-1 goal, the rest never
    // registered (the bootstrap policy allows them).
    for (size_t i = 0; i < kGuarded + kUnregistered; ++i) {
      ObjectId obj = nk::InternObject("hot:" + std::to_string(i));
      objects_.push_back(obj);
      store_->Register(obj, i);
      shadow_.push_back(BlobFor(config.seed, i, GuardedStore::kBlobSize));
      if (i < kGuarded) {
        NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, server_, server_));
        NEXUS_RETURN_IF_ERROR(engine.SetGoal(server_, read_op_, obj, vocab_.Goal(1)));
      }
    }
    for (size_t i = 0; i < kHolders; ++i) {
      nexus::Result<ProcessId> pid =
          nx.CreateProcess("holder" + std::to_string(i), nexus::ToBytes("h"));
      NEXUS_RETURN_IF_ERROR(pid.status());
      holders_.push_back(*pid);
    }

    // Tuples: 70% holder on a guarded object with a proof (allow), 20% a
    // proofless virtual subject on a guarded object (deny), 10% a holder on
    // an unregistered object (bootstrap allow).
    nexus::Rng rng(nk::Mix64(config.seed ^ 0x401));
    nexus::nal::Proof proof = vocab_.ValidProof(1);
    for (size_t t = 0; t < kTuples; ++t) {
      uint64_t draw = rng.NextBelow(10);
      Tuple tuple;
      if (draw < 7) {
        tuple.subject = holders_[rng.NextBelow(kHolders)];
        tuple.object = rng.NextBelow(kGuarded);
        tuple.allow = true;
        NEXUS_RETURN_IF_ERROR(engine.SetProof(
            nk::AuthzRequest{tuple.subject, read_op_, objects_[tuple.object]}, proof));
      } else if (draw < 9) {
        tuple.subject = kVirtualBase + rng.NextBelow(kVirtualSubjects);
        tuple.object = rng.NextBelow(kGuarded);
        tuple.allow = false;
      } else {
        tuple.subject = holders_[rng.NextBelow(kHolders)];
        tuple.object = kGuarded + rng.NextBelow(kUnregistered);
        tuple.allow = true;
      }
      tuple.request = nk::AuthzRequest{tuple.subject, read_op_, objects_[tuple.object]};
      tuple.message = nk::IpcMessage::Of(read_op_);
      tuple.message.AddObject(objects_[tuple.object]);
      tuples_.push_back(std::move(tuple));
    }
    // Warm the decision cache.
    for (int pass = 0; pass < 2; ++pass) {
      for (const Tuple& tuple : tuples_) {
        (void)kernel.Authorize(tuple.request);
      }
    }
    return prober_.Setup(&nx, &vocab_, server_);
  }

  std::vector<Op> MakeRound(size_t, nexus::Rng& rng) override {
    std::vector<Op> round(kRoundOps);
    for (Op& op : round) {
      op.kind = rng.NextBelow(5) == 0 ? kCallStore : kAuthz;
      op.a = static_cast<uint32_t>(rng.NextBelow(kTuples));
    }
    return round;
  }

  void Run(ThreadStats& ts, const Op& op) override {
    Tuple& tuple = tuples_[op.a];
    nk::Kernel& kernel = instance_.nexus.kernel();
    ts.attempted += 1;
    ts.authz_requests += 1;
    if (op.kind == kAuthz) {
      Status verdict = TimedRead(ts, op, [&] {
        SpanScope span(Layer::kAuthorize);
        return kernel.Authorize(tuple.request);
      });
      if (verdict.ok() != tuple.allow) {
        ts.failed += 1;
      }
      return;
    }
    nk::IpcReply reply = TimedRead(ts, op, [&] {
      SpanScope span(Layer::kCall);
      return kernel.Call(tuple.subject, port_, tuple.message);
    });
    if (!CheckStoreReply(ts, reply, tuple.allow, shadow_[tuple.object])) {
      ts.failed += 1;
    }
  }

  void SetTracing(bool on) override {
    instance_.nexus.kernel().set_engine(on ? tracing_engine_.get() : original_engine_);
  }

  void MutationProbe(ThreadStats& ts, bool traced, double seconds, size_t windows) override {
    prober_.Run(ts, traced, seconds, windows);
  }

  bool PostCheck(ThreadStats& ts, std::string* why) override {
    for (size_t t = 0; t < tuples_.size(); ++t) {
      ts.authz_requests += 1;
      if (instance_.nexus.kernel().Authorize(tuples_[t].request).ok() != tuples_[t].allow) {
        *why = "tuple " + std::to_string(t) + " verdict differs from the model after the run";
        return false;
      }
    }
    return prober_.Check(ts, why);
  }

  void InjectOracleFault(const std::vector<Op>& round0, const RunConfig& config) override {
    if (config.flip_one_verdict) {
      tuples_[round0[0].a].allow = !tuples_[round0[0].a].allow;
    }
    if (config.corrupt_one_shadow_byte) {
      for (const Op& op : round0) {
        if (op.kind == kCallStore && tuples_[op.a].allow) {
          shadow_[tuples_[op.a].object][0] ^= 0x5a;
          break;
        }
      }
    }
  }

  std::vector<SweepTuple> SweepInputs() override {
    std::vector<SweepTuple> inputs;
    for (const Tuple& tuple : tuples_) {
      if (tuple.allow && tuple.object < kGuarded && inputs.size() < 256) {
        inputs.push_back(SweepTuple{tuple.request, vocab_.Goal(1), vocab_.ValidProof(1)});
      }
    }
    return inputs;
  }

 private:
  struct Tuple {
    ProcessId subject = 0;
    size_t object = 0;
    bool allow = false;
    nk::AuthzRequest request;
    nk::IpcMessage message;
  };

  Instance instance_;
  Vocabulary vocab_;
  OpId read_op_ = 0;
  ProcessId server_ = 0;
  PortId port_ = 0;
  std::unique_ptr<GuardedStore> store_;
  std::vector<ObjectId> objects_;
  std::vector<nexus::Bytes> shadow_;
  std::vector<ProcessId> holders_;
  std::vector<Tuple> tuples_;
  nk::AuthorizationEngine* original_engine_ = nullptr;
  std::unique_ptr<TracingEngine> tracing_engine_;
  MutationProber prober_;
};

}  // namespace

std::unique_ptr<Workload> MakeHotAuthz() { return std::make_unique<HotAuthz>(); }

}  // namespace perfbench
