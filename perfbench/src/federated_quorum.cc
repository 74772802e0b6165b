// federated-quorum: authorization that crosses the simulated fabric.
//
// Two callers drive a provider Nexus meshed with three home instances. The
// fabric delivers one pass at a time (Transport's pump lock), so callers
// past the second only queue there: four gave the same throughput as two
// at twice the median latency, and a tail set by lock hand-offs.
// The guarded objects' allow goal conjoins a certifier statement with a
// session-liveness leaf, "Session says sessionActive(s<k>)", that the
// provider's guard sends to a 2-of-3 QuorumAuthority over RemoteAuthority
// legs to the homes. Authority answers are never cached (§2.7), so every
// holder authorization crosses the fabric. Home 2 does not vouch for odd
// sessions (the other two still make the quorum) and no home vouches for
// session 15, so a share of requests gets deny votes. Goal flips on the
// provider broadcast cross-node invalidations through the mesh.
#include "bench.h"
#include "net/mesh/mesh.h"
#include "net/mesh/quorum.h"
#include "net/node.h"
#include "net/remote_authority.h"
#include "net/transport.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;
namespace nnet = nexus::net;
namespace nal = nexus::nal;

constexpr size_t kThreads = 2;
constexpr size_t kHomes = 3;
constexpr size_t kQuorum = 2;
constexpr size_t kHolders = 256;
constexpr size_t kSlots = 8;
constexpr size_t kSlotStride = 13;
constexpr size_t kGuarded = 128;
constexpr size_t kUnregistered = 32;
constexpr size_t kSessions = 16;
constexpr size_t kDeadSession = 15;
constexpr uint64_t kVirtualSubjects = 100'000;
constexpr uint64_t kTimeoutUs = 10000;
constexpr size_t kRoundOps = 256;
constexpr uint64_t kFlipPerMille = 50;
constexpr ProcessId kVirtualBase = 1ULL << 32;

enum Kind : uint8_t { kAuthz, kCallStore, kFlipGoal };

bool IsSessionStatement(const nal::Formula& f) {
  return f->kind() == nal::FormulaKind::kSays && f->speaker().base() == "Session";
}

bool HomeVouches(size_t home, size_t session) {
  return session != kDeadSession && !(home == 2 && session % 2 == 1);
}

// The quorum as the guard sees it, with a span and a count per vouch:
// wall time, and simulated fabric time as the span's extra.
class TracedAuthority : public nexus::core::Authority {
 public:
  TracedAuthority(nexus::core::Authority* inner, nnet::Transport* transport)
      : inner_(inner), transport_(transport) {}

  bool Handles(const nal::Formula& statement) const override { return inner_->Handles(statement); }
  bool IsRemote() const override { return inner_->IsRemote(); }
  bool Vouches(const nal::Formula& statement) override {
    return VouchesWithin(statement, kTimeoutUs);
  }
  bool VouchesWithin(const nal::Formula& statement, uint64_t timeout_us) override {
    Count(1);
    const uint64_t sim_start = transport_->now_us();
    SpanScope span(Layer::kVouch);
    bool answer = inner_->VouchesWithin(statement, timeout_us);
    span.set_extra(transport_->now_us() - sim_start);
    return answer;
  }
  std::vector<bool> VouchBatch(std::span<const nal::Formula> statements,
                               uint64_t timeout_us) override {
    return VouchBatchAsync(statements, timeout_us)->Wait();
  }
  std::unique_ptr<nexus::core::VouchFuture> VouchBatchAsync(
      std::span<const nal::Formula> statements, uint64_t timeout_us) override {
    Count(statements.size());
    return std::make_unique<TimedFuture>(inner_->VouchBatchAsync(statements, timeout_us),
                                         transport_);
  }

  uint64_t vouches() const { return vouches_.load(); }

 private:
  class TimedFuture : public nexus::core::VouchFuture {
   public:
    TimedFuture(std::unique_ptr<nexus::core::VouchFuture> inner, nnet::Transport* transport)
        : inner_(std::move(inner)),
          transport_(transport),
          start_(NowNs()),
          sim_start_(transport->now_us()) {}
    std::vector<bool> Wait() override {
      std::vector<bool> answers = inner_->Wait();
      Spans().Add(Layer::kVouch, start_, NowNs(), transport_->now_us() - sim_start_);
      return answers;
    }

   private:
    std::unique_ptr<nexus::core::VouchFuture> inner_;
    nnet::Transport* transport_;
    uint64_t start_;
    uint64_t sim_start_;
  };

  void Count(uint64_t n) {
    vouches_.fetch_add(n, std::memory_order_relaxed);
    CurrentStats().vouches += n;
  }

  nexus::core::Authority* inner_;
  nnet::Transport* transport_;
  std::atomic<uint64_t> vouches_{0};
};

class FederatedQuorum : public Workload {
 public:
  FederatedQuorum() : transport_(7), provider_(4) {
    for (size_t i = 0; i < kHomes; ++i) {
      homes_.push_back(std::make_unique<Home>(5 + i));
    }
  }

  size_t threads() const override { return kThreads; }
  uint32_t latency_sample_every() const override { return 4; }
  uint32_t span_sample_every() const override { return 4; }
  nexus::core::Nexus& nexus() override { return provider_.nexus; }
  bool fresh_rounds() const override { return true; }
  std::string setup_fault() const override { return setup_fault_; }

  Status Setup(const RunConfig& config) override {
    NEXUS_RETURN_IF_ERROR(BuildMesh());
    nexus::core::Nexus& nx = provider_.nexus;
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
      ObjectId obj = nk::InternObject("fed:" + std::to_string(i));
      objects_.push_back(obj);
      store_->Register(obj, i);
      shadow_.push_back(BlobFor(config.seed, i, GuardedStore::kBlobSize));
      nk::IpcMessage message = nk::IpcMessage::Of(read_op_);
      message.AddObject(obj);
      messages_.push_back(std::move(message));
      if (i < kGuarded) {
        nal::Formula leaf = SessionLeaf(i % kSessions);
        allow_goals_.push_back(nal::FormulaNode::And(vocab_.Goal(1), leaf));
        proofs_.push_back(nal::proof::AndIntro(vocab_.ValidProof(1), nal::proof::Authority(leaf)));
        NEXUS_RETURN_IF_ERROR(engine.RegisterObject(obj, server_, server_));
        NEXUS_RETURN_IF_ERROR(engine.SetGoal(server_, read_op_, obj, allow_goals_[i]));
      }
    }
    nexus::Rng rng(nk::Mix64(config.seed ^ 0xfed));
    for (size_t h = 0; h < kHolders; ++h) {
      nexus::Result<ProcessId> pid =
          nx.CreateProcess("holder" + std::to_string(h), nexus::ToBytes("h"));
      NEXUS_RETURN_IF_ERROR(pid.status());
      holders_.push_back(*pid);
      slot_base_.push_back(static_cast<uint32_t>(rng.NextBelow(kGuarded)));
      for (size_t j = 0; j < kSlots; ++j) {
        size_t o = SlotObject(h, j);
        NEXUS_RETURN_IF_ERROR(
            engine.SetProof(nk::AuthzRequest{*pid, read_op_, objects_[o]}, proofs_[o]));
      }
    }
    transport_.DeliverAll();
    applied_baseline_ = InvalidationsApplied();
    return nexus::OkStatus();
  }

  std::vector<Op> MakeRound(size_t, nexus::Rng& rng) override {
    std::vector<Op> round(kRoundOps);
    for (Op& op : round) {
      if (rng.NextBelow(1000) < kFlipPerMille) {
        op.kind = kFlipGoal;
        op.b = static_cast<uint32_t>(rng.NextBelow(kGuarded));
        continue;
      }
      // A fifth of reads are guarded IPC calls to the object store.
      op.kind = rng.NextBelow(5) == 0 ? kCallStore : kAuthz;
      uint64_t draw = rng.NextBelow(10);
      if (rng.NextBelow(5) != 0) {
        op.a = static_cast<uint32_t>(rng.NextBelow(kHolders));
        op.b = static_cast<uint32_t>(draw < 8   ? SlotObject(op.a, rng.NextBelow(kSlots))
                                     : draw < 9 ? rng.NextBelow(kGuarded)
                                                : kGuarded + rng.NextBelow(kUnregistered));
      } else {
        op.a = static_cast<uint32_t>(kHolders + rng.NextBelow(kVirtualSubjects));
        op.b = static_cast<uint32_t>(draw < 8 ? rng.NextBelow(kGuarded)
                                              : kGuarded + rng.NextBelow(kUnregistered));
      }
    }
    return round;
  }

  void Run(ThreadStats& ts, const Op& op) override {
    ts.attempted += 1;
    if (op.kind == kFlipGoal) {
      FlipGoal(ts, op.b);
      return;
    }
    nk::Kernel& kernel = provider_.nexus.kernel();
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

  void SetTracing(bool on) override {
    provider_.nexus.kernel().set_engine(on ? tracing_engine_.get() : original_engine_);
  }

  bool PostCheck(ThreadStats& ts, std::string* why) override {
    transport_.DeliverAll();
    const nnet::Transport::Stats fabric_before = transport_.stats();
    const uint64_t vouches_before = quorum_view_->vouches();
    nk::Kernel& kernel = provider_.nexus.kernel();
    auto check = [&](uint32_t a, uint32_t object) {
      ts.authz_requests += 1;
      bool allowed =
          kernel.Authorize(nk::AuthzRequest{SubjectOf(a), read_op_, objects_[object]}).ok();
      if (allowed != Expected(a, object)) {
        *why = "subject " + std::to_string(a) + " on object " + std::to_string(object) +
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
    // The quiescent holder sweep is pure vouching: its fabric traffic per
    // vouch is the network cost of one quorum consultation.
    const nnet::Transport::Stats fabric_after = transport_.stats();
    const uint64_t vouches = quorum_view_->vouches() - vouches_before;
    msgs_per_vouch_ = Ratio(fabric_after.sent - fabric_before.sent, vouches);
    bytes_per_vouch_ = Ratio(fabric_after.bytes_carried - fabric_before.bytes_carried, vouches);
    nexus::Rng rng(0xfed5);
    for (size_t i = 0; i < 1024; ++i) {
      uint32_t a = static_cast<uint32_t>(kHolders + rng.NextBelow(kVirtualSubjects));
      if (!check(a, static_cast<uint32_t>(rng.NextBelow(kGuarded + kUnregistered)))) {
        return false;
      }
    }
    return true;
  }

  void InjectOracleFault(const std::vector<Op>&, const RunConfig& config) override {
    // Rounds are drawn afresh, so the faults target what rounds hit often:
    // holder 0 on unregistered objects, and one unregistered object's
    // contents.
    flip_hot_unregistered_ = config.flip_one_verdict;
    if (config.corrupt_one_shadow_byte) {
      shadow_[kGuarded][0] ^= 0x5a;
    }
  }

  std::vector<SweepTuple> SweepInputs() override {
    // The local conjunct: the guard sweep measures proof checking, not the
    // fabric (the vouch has its own span).
    std::vector<SweepTuple> inputs;
    for (size_t h = 0; h < kHolders; ++h) {
      size_t o = SlotObject(h, h % kSlots);
      inputs.push_back(SweepTuple{nk::AuthzRequest{holders_[h], read_op_, objects_[o]},
                                  vocab_.Goal(1), vocab_.ValidProof(1)});
    }
    return inputs;
  }

  void LayerMetrics(const ThreadStats& total,
                    std::map<std::string, std::pair<double, std::string>>* out) override {
    transport_.DeliverAll();
    (*out)["net.msgs_per_vouch"] = {msgs_per_vouch_, "count"};
    (*out)["net.bytes_per_vouch"] = {bytes_per_vouch_, "B"};
    (*out)["net.mesh.invalidations_per_flip"] = {
        Ratio(InvalidationsApplied() - applied_baseline_, total.goal_flips), "count"};
  }

 private:
  struct Home {
    explicit Home(uint64_t key_seed) : instance(key_seed) {}
    Instance instance;
    std::unique_ptr<nnet::NetNode> net;
    std::unique_ptr<nnet::mesh::MeshNode> mesh;
    std::unique_ptr<nexus::core::LambdaAuthority> liveness;
    std::unique_ptr<nnet::AuthorityService> service;
    std::unique_ptr<nnet::RemoteAuthority> leg;  // Provider side.
  };

  static double Ratio(uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }

  static nal::Formula SessionLeaf(size_t session) {
    return nal::FormulaNode::Says(
        nal::Principal("Session"),
        nal::FormulaNode::Pred("sessionActive",
                               {nal::Term::Symbol("s" + std::to_string(session))}));
  }

  // Star of attested channels, mesh join, then anti-entropy until every
  // registry digest agrees (the convergence check the setup must pass).
  Status BuildMesh() {
    nexus::core::Nexus& provider = provider_.nexus;
    provider_net_ = std::make_unique<nnet::NetNode>(&provider, &transport_, "provider");
    nnet::mesh::MeshNode::Options options;
    options.stamp_observability = false;
    provider_mesh_ = std::make_unique<nnet::mesh::MeshNode>(provider_net_.get(), options);
    nnet::mesh::QuorumPolicy policy;
    policy.quorum = kQuorum;
    quorum_ = std::make_unique<nnet::mesh::QuorumAuthority>(&transport_, policy,
                                                            IsSessionStatement);
    for (size_t i = 0; i < kHomes; ++i) {
      Home& home = *homes_[i];
      const std::string name = "home" + std::to_string(i);
      NEXUS_RETURN_IF_ERROR(
          provider.RegisterPeer(name, home.instance.nexus.tpm().endorsement_public_key()));
      NEXUS_RETURN_IF_ERROR(home.instance.nexus.RegisterPeer(
          "provider", provider.tpm().endorsement_public_key()));
      home.net = std::make_unique<nnet::NetNode>(&home.instance.nexus, &transport_, name);
      nnet::mesh::MeshNode::Options home_options;
      home_options.stamp_observability = false;
      home.mesh = std::make_unique<nnet::mesh::MeshNode>(home.net.get(), home_options);
      home.liveness = std::make_unique<nexus::core::LambdaAuthority>(
          [](const nal::Formula& f) { return IsSessionStatement(f); },
          [i](const nal::Formula& f) {
            const auto& args = f->child1()->args();
            if (args.size() != 1 || args[0].text().size() < 2) {
              return false;
            }
            return HomeVouches(i, std::strtoul(args[0].text().c_str() + 1, nullptr, 10));
          });
      home.service = std::make_unique<nnet::AuthorityService>(home.net.get());
      home.service->AddAuthority(home.liveness.get());
      home.leg = std::make_unique<nnet::RemoteAuthority>(provider_net_.get(), name,
                                                         IsSessionStatement, kTimeoutUs);
      quorum_->AddMember(home.leg.get());
    }
    quorum_view_ = std::make_unique<TracedAuthority>(quorum_.get(), &transport_);
    provider.guard().AddRemoteAuthority(quorum_view_.get());
    provider.guard().set_remote_query_timeout_us(kTimeoutUs);

    for (size_t i = 0; i < kHomes; ++i) {
      NEXUS_RETURN_IF_ERROR(provider_net_->Connect("home" + std::to_string(i)).status());
      NEXUS_RETURN_IF_ERROR(homes_[i]->mesh->Join("provider"));
      transport_.DeliverAll();
    }
    for (size_t round = 0; round < kHomes + 4; ++round) {
      provider_mesh_->AntiEntropy();
      for (auto& home : homes_) {
        home->mesh->AntiEntropy();
      }
      transport_.DeliverAll();
    }
    const std::string digest = provider_mesh_->Digest();
    for (size_t i = 0; i < kHomes; ++i) {
      if (homes_[i]->mesh->Digest() != digest) {
        setup_fault_ = "mesh registry of home" + std::to_string(i) +
                       " did not converge with the provider's";
      }
    }
    return nexus::OkStatus();
  }

  uint64_t InvalidationsApplied() const {
    uint64_t applied = 0;
    for (const auto& home : homes_) {
      applied += home->mesh->invalidation().stats().applied;
    }
    return applied;
  }

  size_t SlotObject(size_t holder, size_t slot) const {
    return (slot_base_[holder] + kSlotStride * slot) % kGuarded;
  }
  ProcessId SubjectOf(uint32_t a) const {
    return a < kHolders ? holders_[a] : kVirtualBase + a;
  }

  // The model: unregistered objects allow; a guarded one allows a holder
  // with a proof on it while its allow goal is installed and a quorum of
  // homes vouches for its session.
  bool Expected(uint32_t a, uint32_t object) const {
    bool expect = true;
    if (object < kGuarded) {
      expect = false;
      if (a < kHolders && objects_state_[object].goal_allow.load() &&
          object % kSessions != kDeadSession) {
        for (size_t j = 0; j < kSlots; ++j) {
          expect = expect || SlotObject(a, j) == object;
        }
      }
    }
    return flip_hot_unregistered_ && a == 0 && object >= kGuarded ? !expect : expect;
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
      status = provider_.nexus.engine().SetGoal(server_, read_op_, objects_[o],
                                                allow ? allow_goals_[o] : vocab_.deny_goal);
    }
    const uint64_t end = NowNs();
    ts.write_latency.Record(end, static_cast<uint32_t>(end - start));
    state.UnlockWriter();
    // Deliver the cross-node invalidations the flip broadcast.
    transport_.DeliverAll();
    ts.writes += 1;
    ts.goal_flips += 1;
    ts.authz_requests += 1;  // SetGoal authorizes the caller's setgoal right.
    if (!status.ok()) {
      ts.failed += 1;
    }
  }

  // Declaration order is teardown order in reverse: the quorum view and
  // legs go before the nodes they reference, the nodes before the
  // instances, the instances before the fabric.
  nnet::Transport transport_;
  Instance provider_;
  std::vector<std::unique_ptr<Home>> homes_;
  std::unique_ptr<nnet::NetNode> provider_net_;
  std::unique_ptr<nnet::mesh::MeshNode> provider_mesh_;
  std::unique_ptr<nnet::mesh::QuorumAuthority> quorum_;
  std::unique_ptr<TracedAuthority> quorum_view_;
  std::string setup_fault_;

  Vocabulary vocab_;
  OpId read_op_ = 0;
  ProcessId server_ = 0;
  PortId port_ = 0;
  std::unique_ptr<GuardedStore> store_;
  std::vector<ObjectId> objects_;
  std::vector<nk::IpcMessage> messages_;
  std::vector<nexus::Bytes> shadow_;
  std::vector<nal::Formula> allow_goals_;
  std::vector<nal::Proof> proofs_;
  std::vector<ProcessId> holders_;
  std::vector<uint32_t> slot_base_;
  std::unique_ptr<VersionedObject[]> objects_state_;
  // Oracle self-test: the hottest subject's verdicts on unregistered
  // objects are expected inverted.
  bool flip_hot_unregistered_ = false;
  uint64_t applied_baseline_ = 0;
  double msgs_per_vouch_ = 0;
  double bytes_per_vouch_ = 0;
  nk::AuthorizationEngine* original_engine_ = nullptr;
  std::unique_ptr<TracingEngine> tracing_engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeFederatedQuorum() { return std::make_unique<FederatedQuorum>(); }

}  // namespace perfbench
