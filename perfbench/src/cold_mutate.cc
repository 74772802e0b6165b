// cold-mutate: authorization misses beside control-plane writes.
//
// Four callers draw subjects from a zipf(0.99) population of 1M: the 2048
// hottest ranks are real processes, each holding proofs on 8 guarded
// objects; every other rank is a virtual subject with no process record
// and no proof. The 512 guarded objects carry goals of proof depth 1, 2,
// 4 or 8 (conjunctions of certifier statements); 256 more objects are
// never registered. The tuple space far exceeds the decision cache, so
// most reads miss and run the engine's goal lookup, credential snapshot,
// stripe lock, guard check and NAL checker.
//
// About a tenth of operations write: goal flips between the allow goal and
// an unprovable one, proof re-submissions alternating a valid and an
// invalid proof, and process spawn/kill. Each verdict is bracketed by its
// object's write version (see VersionedObject): one that overlapped no
// write must equal the model, one that did may be either.
#include "bench.h"
#include "harness/zipf.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;

constexpr size_t kThreads = 4;
constexpr uint64_t kPopulation = 1'000'000;
constexpr double kSubjectTheta = 0.99;
constexpr size_t kHolders = 2048;
constexpr size_t kSlots = 8;  // Proofs per holder.
constexpr size_t kSlotStride = 61;
constexpr size_t kGuarded = 512;
constexpr size_t kUnregistered = 256;
constexpr size_t kRoundOps = 128;
constexpr ProcessId kVirtualBase = 1ULL << 32;
constexpr size_t kDepths[] = {1, 2, 4, 8};

// Per mille of a round.
constexpr uint64_t kFlipPerMille = 25;
constexpr uint64_t kProofPerMille = 70;
constexpr uint64_t kChurnPerMille = 5;

enum Kind : uint8_t { kAuthz, kCallStore, kFlipGoal, kResubmitProof, kSpawnKill };

class ColdMutate : public Workload {
 public:
  ColdMutate() : instance_(2), zipf_(kPopulation, kSubjectTheta) {}

  size_t threads() const override { return kThreads; }
  uint32_t latency_sample_every() const override { return 8; }
  uint32_t span_sample_every() const override { return 16; }
  nexus::core::Nexus& nexus() override { return instance_.nexus; }
  bool fresh_rounds() const override { return true; }

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

    objects_state_ = std::make_unique<VersionedObject[]>(kGuarded);
    for (size_t i = 0; i < kGuarded + kUnregistered; ++i) {
      ObjectId obj = nk::InternObject("cold:" + std::to_string(i));
      objects_.push_back(obj);
      store_->Register(obj, i);
      shadow_.push_back(BlobFor(config.seed, i, GuardedStore::kBlobSize));
      nk::IpcMessage message = nk::IpcMessage::Of(read_op_);
      message.AddObject(obj);
      messages_.push_back(std::move(message));
      if (i < kGuarded) {
        NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, server_, server_));
        NEXUS_RETURN_IF_ERROR(engine.SetGoal(server_, read_op_, obj, vocab_.Goal(DepthOf(i))));
      }
    }
    for (size_t d : kDepths) {
      valid_proofs_.push_back(vocab_.ValidProof(d));
    }

    nexus::Rng rng(nk::Mix64(config.seed ^ 0xc01d));
    proof_valid_ = std::make_unique<std::atomic<bool>[]>(kHolders * kSlots);
    // Holders and churned processes are created through the kernel: a
    // process made by Nexus::CreateProcess leaves a launchHash label in the
    // system labelstore for good, and every engine miss copies that store,
    // so thousands of them would make the credential copy the whole miss
    // (see the FOUND note in CHANGES.md).
    for (size_t h = 0; h < kHolders; ++h) {
      nexus::Result<ProcessId> pid =
          kernel.CreateProcess("holder" + std::to_string(h), nexus::ToBytes("h"));
      NEXUS_RETURN_IF_ERROR(pid.status());
      holders_.push_back(*pid);
      slot_base_.push_back(static_cast<uint32_t>(rng.NextBelow(kGuarded)));
      for (size_t j = 0; j < kSlots; ++j) {
        size_t o = SlotObject(h, j);
        proof_valid_[h * kSlots + j].store(true);
        NEXUS_RETURN_IF_ERROR(engine.SetProof(nk::AuthzRequest{*pid, read_op_, objects_[o]},
                                              ValidProofFor(o)));
      }
    }
    // Warm-up: a zipf-drawn sample of reads, so the hot head is cached.
    for (size_t i = 0; i < 4096; ++i) {
      Op op = DrawRead(rng);
      (void)kernel.Authorize(nk::AuthzRequest{SubjectOf(op.a), read_op_, objects_[op.b]});
    }
    return nexus::OkStatus();
  }

  std::vector<Op> MakeRound(size_t, nexus::Rng& rng) override {
    std::vector<Op> round(kRoundOps);
    for (Op& op : round) {
      uint64_t draw = rng.NextBelow(1000);
      if (draw < kFlipPerMille) {
        op.kind = kFlipGoal;
        op.b = static_cast<uint32_t>(rng.NextBelow(kGuarded));
      } else if ((draw -= kFlipPerMille) < kProofPerMille) {
        op.kind = kResubmitProof;
        op.a = static_cast<uint32_t>(rng.NextBelow(kHolders));
        op.b = static_cast<uint32_t>(rng.NextBelow(kSlots));
      } else if ((draw -= kProofPerMille) < kChurnPerMille) {
        op.kind = kSpawnKill;
      } else {
        op = DrawRead(rng);
        // A fifth of reads are guarded IPC calls to the object store.
        op.kind = rng.NextBelow(5) == 0 ? kCallStore : kAuthz;
      }
    }
    return round;
  }

  void Run(ThreadStats& ts, const Op& op) override {
    ts.attempted += 1;
    switch (op.kind) {
      case kAuthz:
      case kCallStore: return Read(ts, op);
      case kFlipGoal: return FlipGoal(ts, op.b);
      case kResubmitProof: return ResubmitProof(ts, op.a, op.b);
      case kSpawnKill: return SpawnKill(ts);
    }
  }

  void SetTracing(bool on) override {
    instance_.nexus.kernel().set_engine(on ? tracing_engine_.get() : original_engine_);
  }

  bool PostCheck(ThreadStats& ts, std::string* why) override {
    nk::Kernel& kernel = instance_.nexus.kernel();
    auto check = [&](uint32_t rank, uint32_t object) {
      ts.authz_requests += 1;
      bool allowed =
          kernel.Authorize(nk::AuthzRequest{SubjectOf(rank), read_op_, objects_[object]}).ok();
      if (allowed != Expected(rank, object)) {
        *why = "subject rank " + std::to_string(rank) + " on object " + std::to_string(object) +
               " differs from the model after the run";
        return false;
      }
      return true;
    };
    for (uint32_t h = 0; h < kHolders; ++h) {
      for (size_t j = 0; j < kSlots; ++j) {
        if (!check(h, static_cast<uint32_t>(SlotObject(h, j)))) {
          return false;
        }
      }
    }
    nexus::Rng rng(0x5a3b1e);
    for (size_t i = 0; i < 4096; ++i) {
      uint32_t rank = static_cast<uint32_t>(kHolders + rng.NextBelow(kPopulation - kHolders));
      if (!check(rank, static_cast<uint32_t>(rng.NextBelow(kGuarded + kUnregistered)))) {
        return false;
      }
    }
    return true;
  }

  void InjectOracleFault(const std::vector<Op>&, const RunConfig& config) override {
    // Rounds are drawn afresh, so the faults target what every round hits
    // often: the hottest subject, and one unregistered object's contents.
    flip_hot_unregistered_ = config.flip_one_verdict;
    if (config.corrupt_one_shadow_byte) {
      shadow_[kGuarded][0] ^= 0x5a;
    }
  }

  std::vector<SweepTuple> SweepInputs() override {
    std::vector<SweepTuple> inputs;
    for (size_t h = 0; h < 256; ++h) {
      size_t o = SlotObject(h, h % kSlots);
      inputs.push_back(SweepTuple{nk::AuthzRequest{holders_[h], read_op_, objects_[o]},
                                  vocab_.Goal(DepthOf(o)), ValidProofFor(o)});
    }
    return inputs;
  }

 private:
  static size_t DepthOf(size_t object) { return kDepths[object % 4]; }
  const nexus::nal::Proof& ValidProofFor(size_t object) const {
    return valid_proofs_[object % 4];
  }
  size_t SlotObject(size_t holder, size_t slot) const {
    return (slot_base_[holder] + kSlotStride * slot) % kGuarded;
  }
  ProcessId SubjectOf(uint32_t rank) const {
    return rank < kHolders ? holders_[rank] : kVirtualBase + rank;
  }

  Op DrawRead(nexus::Rng& rng) const {
    Op op;
    op.kind = kAuthz;
    uint64_t rank = zipf_.Sample(rng);
    op.a = static_cast<uint32_t>(rank);
    uint64_t draw = rng.NextBelow(10);
    if (rank < kHolders && draw < 7) {
      op.b = static_cast<uint32_t>(SlotObject(rank, rng.NextBelow(kSlots)));
    } else if (draw < 9) {
      op.b = static_cast<uint32_t>(rng.NextBelow(kGuarded));
    } else {
      op.b = static_cast<uint32_t>(kGuarded + rng.NextBelow(kUnregistered));
    }
    return op;
  }

  // The policy model: unregistered objects are allowed by the bootstrap
  // policy; a guarded object allows exactly the holders whose current
  // proof is valid, and only while its allow goal is installed.
  bool Expected(uint32_t rank, uint32_t object) const {
    bool expect;
    if (object >= kGuarded) {
      expect = true;
    } else if (!objects_state_[object].goal_allow.load() || rank >= kHolders) {
      expect = false;
    } else {
      expect = false;
      for (size_t j = 0; j < kSlots; ++j) {
        if (SlotObject(rank, j) == object) {
          expect = proof_valid_[rank * kSlots + j].load();
        }
      }
    }
    return flip_hot_unregistered_ && rank == 0 && object >= kGuarded ? !expect : expect;
  }

  void Read(ThreadStats& ts, const Op& op) {
    nk::Kernel& kernel = instance_.nexus.kernel();
    ts.authz_requests += 1;
    const bool guarded = op.b < kGuarded;
    const uint64_t before = guarded ? objects_state_[op.b].version.load() : 0;
    const bool expect = Expected(op.a, op.b);
    const ProcessId subject = SubjectOf(op.a);
    bool allowed;
    bool ok = true;
    if (op.kind == kAuthz) {
      allowed = TimedRead(ts, op, [&] {
        SpanScope span(Layer::kAuthorize);
        return kernel.Authorize(nk::AuthzRequest{subject, read_op_, objects_[op.b]});
      }).ok();
    } else {
      nk::IpcReply reply = TimedRead(ts, op, [&] {
        SpanScope span(Layer::kCall);
        return kernel.Call(subject, port_, messages_[op.b]);
      });
      allowed = reply.status.ok();
      // The payload must match whatever the verdict was.
      ok = CheckStoreReply(ts, reply, allowed, shadow_[op.b]);
    }
    const uint64_t after = guarded ? objects_state_[op.b].version.load() : 0;
    if (before != after || (before & 1) != 0) {
      ts.overlapped += 1;
    } else if (allowed != expect) {
      ok = false;
    }
    if (!ok) {
      ts.failed += 1;
    }
  }

  void FlipGoal(ThreadStats& ts, uint32_t o) {
    VersionedObject& state = objects_state_[o];
    state.LockWriter();
    const bool allow = !state.goal_allow.load();
    state.goal_allow.store(allow);
    const uint64_t start = NowNs();
    Status status;
    {
      SpanScope span(Layer::kSetGoal);
      status = instance_.nexus.engine().SetGoal(server_, read_op_, objects_[o],
                                                allow ? vocab_.Goal(DepthOf(o)) : vocab_.deny_goal);
    }
    const uint64_t end = NowNs();
    ts.write_latency.Record(end, static_cast<uint32_t>(end - start));
    state.UnlockWriter();
    ts.writes += 1;
    ts.goal_flips += 1;
    ts.authz_requests += 1;  // SetGoal authorizes the caller's setgoal right.
    if (!status.ok()) {
      ts.failed += 1;
    }
  }

  void ResubmitProof(ThreadStats& ts, uint32_t h, uint32_t slot) {
    const size_t o = SlotObject(h, slot);
    VersionedObject& state = objects_state_[o];
    std::atomic<bool>& valid = proof_valid_[h * kSlots + slot];
    state.LockWriter();
    const bool now_valid = !valid.load();
    valid.store(now_valid);
    const uint64_t start = NowNs();
    Status status;
    {
      SpanScope span(Layer::kSetProof);
      status = instance_.nexus.engine().SetProof(
          nk::AuthzRequest{holders_[h], read_op_, objects_[o]},
          now_valid ? ValidProofFor(o) : vocab_.InvalidProof());
    }
    const uint64_t end = NowNs();
    ts.write_latency.Record(end, static_cast<uint32_t>(end - start));
    state.UnlockWriter();
    ts.writes += 1;
    if (!status.ok()) {
      ts.failed += 1;
    }
  }

  void SpawnKill(ThreadStats& ts) {
    nexus::Result<ProcessId> pid =
        instance_.nexus.kernel().CreateProcess("churn", nexus::ToBytes("churn"));
    if (!pid.ok() || !instance_.nexus.kernel().KillProcess(*pid).ok()) {
      ts.failed += 1;
    }
  }

  Instance instance_;
  nexus::harness::ZipfSampler zipf_;
  Vocabulary vocab_;
  OpId read_op_ = 0;
  ProcessId server_ = 0;
  PortId port_ = 0;
  std::unique_ptr<GuardedStore> store_;
  std::vector<ObjectId> objects_;
  std::vector<nk::IpcMessage> messages_;
  std::vector<nexus::Bytes> shadow_;
  std::vector<nexus::nal::Proof> valid_proofs_;  // By depth class.
  std::vector<ProcessId> holders_;
  std::vector<uint32_t> slot_base_;
  std::unique_ptr<VersionedObject[]> objects_state_;
  std::unique_ptr<std::atomic<bool>[]> proof_valid_;
  // Oracle self-test: the hottest subject's verdicts on unregistered
  // objects are expected inverted.
  bool flip_hot_unregistered_ = false;
  nk::AuthorizationEngine* original_engine_ = nullptr;
  std::unique_ptr<TracingEngine> tracing_engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeColdMutate() { return std::make_unique<ColdMutate>(); }

}  // namespace perfbench
