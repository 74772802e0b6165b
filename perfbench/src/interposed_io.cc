// interposed-io: the Table-1 syscall mix and the Fig.-7 echo path, with
// monitors on the call path.
//
// One caller (the file server and the monitors are single-dispatcher
// servers, and Table 1 and Fig. 7 are single-caller rows) replays null,
// getppid, open/close, and reads and writes of 100 B, 1500 B, 4 KiB and
// 64 KiB over an existing file set, plus driver -> server echoes of 100 B
// and 1500 B. A share of reads go as CallMany batches of 8 straight to the
// file server's port. A ReadRedactionMonitor on the file server's port
// clamps read replies to 32 KiB and masks bytes [4096, 4160) of what is
// left, so 64 KiB reads are rewritten and the smaller ones pass zero-copy;
// a DDRM (kernel reference monitor, decision memo on) sits on the echo
// driver's port. Authorization here is almost all decision-cache hits; the
// time goes to dispatch, marshaling, the interceptor chains, payload
// handling and reply interposition.
//
// Every reply is checked byte for byte against the benchmark's shadow of
// the file contents (with its own writes, clamp and mask applied) or the
// echoed packet.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "kernel/syscall_ports.h"
#include "services/ddrm.h"
#include "services/read_redactor.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;
using nexus::kernel::Syscall;

constexpr size_t kSizes[] = {100, 1500, 4096, 65536};
constexpr size_t kFilesPerSize = 4;
constexpr size_t kFiles = 4 * kFilesPerSize;
constexpr size_t kWriteBuffers = 4;  // Per size class.
constexpr size_t kEchoSizes[] = {100, 1500};
constexpr size_t kEchoBuffers = 4;
constexpr size_t kBatch = 8;
constexpr size_t kBatches = 16;
constexpr uint32_t kSampleEvery = 4;
constexpr uint64_t kClamp = 32768;
constexpr uint64_t kMaskBegin = 4096;
constexpr uint64_t kMaskEnd = 4160;
constexpr uint8_t kMaskFill = '#';

enum Kind : uint8_t { kNull, kGetPpid, kOpenClose, kRead, kWrite, kEcho, kReadBatch };

// One round: how many ops of each kind, per stratum of the kind (a read's
// size class and half, a write's size class, an echo's size). The counts
// are fixed, so every seed replays the same mix; the seed picks the order
// and the file or buffer within each stratum.
constexpr size_t kPerNull = 80, kPerGetPpid = 80, kPerOpenClose = 80;
constexpr size_t kPerReadStratum = 45;   // x 4 sizes x 2 halves = 360.
constexpr size_t kPerWriteStratum = 35;  // x 4 sizes = 140.
constexpr size_t kPerEchoStratum = 100;  // x 2 sizes = 200.
constexpr size_t kPerBatch = 60;
constexpr size_t kRoundOps = kPerNull + kPerGetPpid + kPerOpenClose + 8 * kPerReadStratum +
                             4 * kPerWriteStratum + 2 * kPerEchoStratum + kPerBatch;
static_assert(kRoundOps == 1000);

class EchoServer : public nk::PortHandler {
 public:
  nk::IpcReply Handle(const nk::IpcContext&, const nk::IpcMessage& message) override {
    nk::IpcReply reply = nk::IpcReply::Ok();
    reply.data = message.data;
    return reply;
  }
};

// The user-level driver: forwards the packet to the server over IPC.
class EchoDriver : public nk::PortHandler {
 public:
  EchoDriver(nk::Kernel* kernel, ProcessId self, PortId server, OpId send)
      : kernel_(kernel), self_(self), server_(server), send_(send) {}
  nk::IpcReply Handle(const nk::IpcContext&, const nk::IpcMessage& message) override {
    nk::IpcMessage forwarded = nk::IpcMessage::Of(send_);
    forwarded.data = message.data;
    return kernel_->Call(self_, server_, forwarded);
  }

 private:
  nk::Kernel* kernel_;
  ProcessId self_;
  PortId server_;
  OpId send_;
};

class InterposedIo : public Workload {
 public:
  InterposedIo() : instance_(3) {}

  size_t threads() const override { return 1; }
  uint32_t latency_sample_every() const override { return kSampleEvery; }
  bool marks_samples() const override { return true; }
  uint32_t span_sample_every() const override { return 16; }
  nexus::core::Nexus& nexus() override { return instance_.nexus; }

  Status Setup(const RunConfig& config) override {
    nexus::core::Nexus& nx = instance_.nexus;
    nk::Kernel& kernel = nx.kernel();
    vocab_.SayAll(nx.engine());
    original_engine_ = kernel.engine();
    tracing_engine_ = std::make_unique<TracingEngine>(original_engine_);
    fs_proxy_ = std::make_unique<TracingHandler>(&nx.fs(), Layer::kFsHandler);

    nexus::Result<ProcessId> client = nx.CreateProcess("io-client", nexus::ToBytes("client"));
    NEXUS_RETURN_IF_ERROR(client.status());
    client_ = *client;

    // The file set, its shadow, and the write payloads (the program gets
    // one copy of each buffer, the shadow keeps another).
    for (size_t f = 0; f < kFiles; ++f) {
      const size_t size = kSizes[f / kFilesPerSize];
      paths_.push_back("/io/" + std::to_string(size) + "/" + std::to_string(f));
      nexus::Bytes content = BlobFor(config.seed, 1000 + f, size);
      NEXUS_RETURN_IF_ERROR(nx.fs().CreateFile(paths_[f], content));
      initial_.push_back(content);
      current_.push_back(-1);
    }
    for (size_t s = 0; s < 4; ++s) {
      for (size_t b = 0; b < kWriteBuffers; ++b) {
        write_shadow_[s].push_back(BlobFor(config.seed, 2000 + s * 16 + b, kSizes[s]));
      }
    }
    for (size_t f = 0; f < kFiles; ++f) {
      nk::IpcMessage open = nk::IpcMessage::Of(nk::InternOp("open"));
      open.AddString(paths_[f]);
      nk::IpcReply opened = kernel.Invoke(client_, Syscall::kOpen, open);
      NEXUS_RETURN_IF_ERROR(opened.status);
      fds_.push_back(static_cast<uint64_t>(opened.value()));
      open_messages_.push_back(open);
      for (size_t half = 0; half < 2; ++half) {
        nk::IpcMessage read = nk::IpcMessage::Of(nk::InternOp("read"));
        read.AddU64(fds_[f]).AddU64(OffsetOf(f, half)).AddU64(SizeOf(f));
        read_messages_.push_back(read);
      }
      for (size_t b = 0; b < kWriteBuffers; ++b) {
        nk::IpcMessage write = nk::IpcMessage::Of(nk::InternOp("write"));
        write.AddU64(fds_[f]).AddU64(0);
        write.data = nexus::Bytes(write_shadow_[f / kFilesPerSize][b]);
        write_messages_.push_back(write);
      }
    }
    for (size_t s = 0; s < 2; ++s) {
      for (size_t b = 0; b < kEchoBuffers; ++b) {
        nexus::Bytes packet = BlobFor(config.seed, 3000 + s * 16 + b, kEchoSizes[s]);
        echo_shadow_.push_back(packet);
        nk::IpcMessage message = nk::IpcMessage::Of(nk::InternOp("send"));
        message.data = std::move(packet);
        echo_messages_.push_back(message);
      }
    }
    // Every batch reads each (size, half) stratum once, from a seeded file
    // of that size, so all batches carry the same payload.
    nexus::Rng rng(nk::Mix64(config.seed ^ 0x10));
    static_assert(kBatch == 8);
    for (size_t i = 0; i < kBatches; ++i) {
      std::vector<uint32_t> reads;
      std::vector<nk::IpcMessage> messages;
      for (size_t k = 0; k < kBatch; ++k) {
        uint32_t r = ReadIndex(k / 2, k % 2, rng);
        reads.push_back(r);
        messages.push_back(read_messages_[r]);
      }
      batch_reads_.push_back(reads);
      batch_messages_.push_back(std::move(messages));
    }
    batch_replies_.resize(kBatch);

    // Echo path (Fig. 7): client -> driver port -> server port.
    const OpId send = nk::InternOp("send");
    nexus::Result<ProcessId> server = nx.CreateProcess("echo-server", nexus::ToBytes("echo"));
    NEXUS_RETURN_IF_ERROR(server.status());
    nexus::Result<ProcessId> driver = nx.CreateProcess("netdriver", nexus::ToBytes("e1000"));
    NEXUS_RETURN_IF_ERROR(driver.status());
    driver_pid_ = *driver;
    nexus::Result<PortId> server_port = nx.CreatePort(*server);
    NEXUS_RETURN_IF_ERROR(server_port.status());
    nexus::Result<PortId> driver_port = nx.CreatePort(driver_pid_);
    NEXUS_RETURN_IF_ERROR(driver_port.status());
    driver_port_ = *driver_port;
    NEXUS_RETURN_IF_ERROR(kernel.BindHandler(*server_port, &echo_server_));
    echo_driver_ = std::make_unique<EchoDriver>(&kernel, driver_pid_, *server_port, send);
    NEXUS_RETURN_IF_ERROR(kernel.BindHandler(driver_port_, echo_driver_.get()));

    nexus::services::DdrmPolicy policy;
    policy.allowed_operations = {"send", "recv"};
    ddrm_ = std::make_unique<nexus::services::DeviceDriverMonitor>(policy, true);
    nexus::services::RedactionPolicy redaction;
    redaction.max_read_length = kClamp;
    redaction.redact_begin = kMaskBegin;
    redaction.redact_end = kMaskEnd;
    redaction.fill = kMaskFill;
    redactor_ = std::make_unique<nexus::services::ReadRedactionMonitor>(redaction);
    nexus::Result<ProcessId> monitor = nx.CreateProcess("redactor", nexus::ToBytes("redact"));
    NEXUS_RETURN_IF_ERROR(monitor.status());
    redactor_pid_ = *monitor;
    chains_ = {Chain{redactor_pid_, nk::kFsBootPort, redactor_.get()},
               Chain{driver_pid_, driver_port_, ddrm_.get()}};
    for (Chain& chain : chains_) {
      NEXUS_RETURN_IF_ERROR(Install(chain, chain.monitor, &chain.monitor_token));
    }

    // Warm the decision cache and the monitors' memos.
    for (size_t i = 0; i < read_messages_.size(); ++i) {
      (void)kernel.Invoke(client_, Syscall::kRead, read_messages_[i]);
    }
    for (const nk::IpcMessage& echo : echo_messages_) {
      (void)kernel.Call(client_, driver_port_, echo);
    }
    return prober_.Setup(&nx, &vocab_, redactor_pid_);
  }

  std::vector<Op> MakeRound(size_t, nexus::Rng& rng) override {
    std::vector<Op> round;
    round.reserve(kRoundOps);
    // Adds `count` ops of one stratum; every kSampleEvery-th is a latency
    // sample, so the timed ops have the same mix on every seed.
    auto add = [&](size_t count, Kind kind, auto pick) {
      for (size_t i = 0; i < count; ++i) {
        Op op;
        op.kind = kind;
        op.a = pick(i);
        op.timed = i % kSampleEvery == 0;
        round.push_back(op);
      }
    };
    auto none = [](size_t) { return uint32_t{0}; };
    add(kPerNull, kNull, none);
    add(kPerGetPpid, kGetPpid, none);
    add(kPerOpenClose, kOpenClose, [](size_t i) { return static_cast<uint32_t>(i % kFiles); });
    for (size_t s = 0; s < 4; ++s) {
      for (size_t half = 0; half < 2; ++half) {
        add(kPerReadStratum, kRead, [&](size_t) { return ReadIndex(s, half, rng); });
      }
      add(kPerWriteStratum, kWrite, [&](size_t) {
        const size_t f = s * kFilesPerSize + rng.NextBelow(kFilesPerSize);
        return static_cast<uint32_t>(f * kWriteBuffers + rng.NextBelow(kWriteBuffers));
      });
    }
    for (size_t s = 0; s < 2; ++s) {
      add(kPerEchoStratum, kEcho, [&](size_t) {
        return static_cast<uint32_t>(s * kEchoBuffers + rng.NextBelow(kEchoBuffers));
      });
    }
    add(kPerBatch, kReadBatch, [&](size_t) { return static_cast<uint32_t>(rng.NextBelow(kBatches)); });
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng.NextBelow(i)]);
    }
    return round;
  }

  void Run(ThreadStats& ts, const Op& op) override {
    nk::Kernel& kernel = instance_.nexus.kernel();
    bool ok = true;
    switch (op.kind) {
      case kNull:
      case kGetPpid: {
        nk::IpcReply reply = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCall);
          return kernel.Invoke(client_, op.kind == kNull ? Syscall::kNull : Syscall::kGetPpid,
                               empty_);
        });
        ts.attempted += 1;
        ts.syscalls += 1;
        ok = reply.status.ok() &&
             (op.kind == kNull || reply.value() == static_cast<int64_t>(nk::kKernelProcessId));
        break;
      }
      case kOpenClose: {
        ok = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCall);
          nk::IpcReply opened = kernel.Invoke(client_, Syscall::kOpen, open_messages_[op.a]);
          if (!opened.status.ok()) {
            return false;
          }
          nk::IpcMessage close = nk::IpcMessage::Of(close_op_);
          close.AddU64(static_cast<uint64_t>(opened.value()));
          return kernel.Invoke(client_, Syscall::kClose, close).status.ok();
        });
        ts.attempted += 2;
        ts.syscalls += 2;
        ts.authz_requests += 1;
        break;
      }
      case kRead: {
        nk::IpcReply reply = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCall);
          return kernel.Invoke(client_, Syscall::kRead, read_messages_[op.a]);
        });
        ts.attempted += 1;
        ts.syscalls += 1;
        ts.authz_requests += 1;
        ok = CheckRead(ts, op.a, reply);
        break;
      }
      case kWrite: {
        const size_t f = op.a / kWriteBuffers;
        const size_t b = op.a % kWriteBuffers;
        nk::IpcReply reply = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCall);
          return kernel.Invoke(client_, Syscall::kWrite, write_messages_[op.a]);
        });
        ts.attempted += 1;
        ts.syscalls += 1;
        ts.authz_requests += 1;
        ok = reply.status.ok() && reply.value() == static_cast<int64_t>(SizeOf(f));
        if (ok) {
          current_[f] = static_cast<int>(b);
        }
        break;
      }
      case kEcho: {
        nk::IpcReply reply = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCall);
          return kernel.Call(client_, driver_port_, echo_messages_[op.a]);
        });
        ts.attempted += 1;
        const nexus::Bytes& expect = echo_shadow_[op.a];
        ts.payload_bytes += reply.data.size();
        ts.expected_payload_bytes += expect.size();
        ok = reply.status.ok() && reply.data.size() == expect.size() &&
             std::equal(expect.begin(), expect.end(), reply.data.begin());
        break;
      }
      case kReadBatch: {
        const std::vector<nk::IpcMessage>& messages = batch_messages_[op.a];
        size_t oks = TimedRead(ts, op, [&] {
          SpanScope span(Layer::kCallMany);
          span.set_extra(kBatch);
          return kernel.CallMany(client_, nk::kFsBootPort, messages, batch_replies_);
        });
        ts.attempted += kBatch;
        ts.authz_requests += kBatch;
        ok = oks == kBatch;
        for (size_t k = 0; k < kBatch; ++k) {
          if (!CheckRead(ts, batch_reads_[op.a][k], batch_replies_[k])) {
            ok = false;
          }
        }
        break;
      }
    }
    if (!ok) {
      ts.failed += 1;
    }
  }

  void SetTracing(bool on) override {
    nk::Kernel& kernel = instance_.nexus.kernel();
    kernel.set_engine(on ? tracing_engine_.get() : original_engine_);
    (void)kernel.BindHandler(nk::kFsBootPort, on ? static_cast<nk::PortHandler*>(fs_proxy_.get())
                                                 : &instance_.nexus.fs());
    // Stamp interceptors bracket each monitor: the inner one must be older
    // than the monitor (it runs after it on the call, before it on the
    // reply), the outer one newer, so the monitor is re-installed between.
    for (Chain& chain : chains_) {
      (void)kernel.RemoveInterposition(chain.monitor_token);
      if (on) {
        (void)Install(chain, &inner_stamp_, &chain.inner_token);
        (void)Install(chain, chain.monitor, &chain.monitor_token);
        (void)Install(chain, &outer_stamp_, &chain.outer_token);
      } else {
        (void)kernel.RemoveInterposition(chain.outer_token);
        (void)kernel.RemoveInterposition(chain.inner_token);
        (void)Install(chain, chain.monitor, &chain.monitor_token);
      }
    }
  }

  void MutationProbe(ThreadStats& ts, bool traced, double seconds, size_t windows) override {
    prober_.Run(ts, traced, seconds, windows);
  }

  bool PostCheck(ThreadStats& ts, std::string* why) override {
    // Straight from the server's store, past every monitor: the writes
    // landed exactly as the shadow model applied them.
    for (size_t f = 0; f < kFiles; ++f) {
      nexus::Result<nexus::Bytes> content = instance_.nexus.fs().ReadFile(paths_[f]);
      if (!content.ok() || *content != Content(f)) {
        *why = "file " + paths_[f] + " differs from the shadow after the run";
        return false;
      }
    }
    return prober_.Check(ts, why);
  }

  void InjectOracleFault(const std::vector<Op>& round0, const RunConfig& config) override {
    for (const Op& op : round0) {
      if (op.kind != kRead) {
        continue;
      }
      const size_t f = op.a / 2;
      if (config.flip_one_verdict) {
        flipped_read_ = op.a;  // Expect a deny where the model allows.
      }
      if (config.corrupt_one_shadow_byte) {
        const size_t byte = OffsetOf(f, op.a % 2);
        initial_[f][byte] ^= 0x5a;
        for (nexus::Bytes& buffer : write_shadow_[f / kFilesPerSize]) {
          buffer[byte] ^= 0x5a;
        }
      }
      return;
    }
  }

  std::vector<SweepTuple> SweepInputs() override {
    // The probe objects carry the only goals in this world.
    return prober_.SweepInputs();
  }

 private:
  struct Chain {
    ProcessId monitor_pid;
    PortId port;
    nk::Interceptor* monitor;
    uint64_t monitor_token = 0;
    uint64_t inner_token = 0;
    uint64_t outer_token = 0;
  };

  Status Install(const Chain& chain, nk::Interceptor* interceptor, uint64_t* token) {
    nexus::Result<uint64_t> installed =
        instance_.nexus.kernel().Interpose(chain.monitor_pid, chain.port, interceptor);
    NEXUS_RETURN_IF_ERROR(installed.status());
    *token = *installed;
    return nexus::OkStatus();
  }

  // A read of one half of a seeded file of size class `s`.
  static uint32_t ReadIndex(size_t s, size_t half, nexus::Rng& rng) {
    return static_cast<uint32_t>((s * kFilesPerSize + rng.NextBelow(kFilesPerSize)) * 2 + half);
  }
  static size_t SizeOf(size_t f) { return kSizes[f / kFilesPerSize]; }
  static uint64_t OffsetOf(size_t f, size_t half) { return half == 0 ? 0 : SizeOf(f) / 2; }
  const nexus::Bytes& Content(size_t f) const {
    return current_[f] < 0 ? initial_[f] : write_shadow_[f / kFilesPerSize][current_[f]];
  }

  // A read reply against the shadow: the file's current content from the
  // offset, clamped to kClamp, with [kMaskBegin, kMaskEnd) masked.
  bool CheckRead(ThreadStats& ts, size_t read, const nk::IpcReply& reply) {
    const size_t f = read / 2;
    const nexus::Bytes& content = Content(f);
    const uint64_t offset = OffsetOf(f, read % 2);
    const uint64_t length = std::min<uint64_t>(content.size() - offset, kClamp);
    ts.payload_bytes += reply.data.size();
    ts.expected_payload_bytes += length;
    if (flipped_read_ == read) {
      return !reply.status.ok();
    }
    if (!reply.status.ok() || reply.data.size() != length ||
        reply.value() != static_cast<int64_t>(length)) {
      return false;
    }
    // Three stretches: content before the mask, the mask, content after
    // it. Compared with memcmp, so the check costs little beside the read.
    const uint8_t* got = reply.data.data();
    const uint8_t* want = content.data() + offset;
    const uint64_t mask_begin = std::min(length, kMaskBegin);
    const uint64_t mask_end = std::min(length, kMaskEnd);
    if (std::memcmp(got, want, mask_begin) != 0 ||
        std::memcmp(got + mask_end, want + mask_end, length - mask_end) != 0) {
      return false;
    }
    return std::all_of(got + mask_begin, got + mask_end,
                       [](uint8_t b) { return b == kMaskFill; });
  }

  Instance instance_;
  Vocabulary vocab_;
  ProcessId client_ = 0;
  ProcessId driver_pid_ = 0;
  ProcessId redactor_pid_ = 0;
  PortId driver_port_ = 0;
  OpId close_op_ = nk::InternOp("close");
  nk::IpcMessage empty_;
  std::vector<std::string> paths_;
  std::vector<uint64_t> fds_;
  std::vector<nexus::Bytes> initial_;
  std::vector<int> current_;  // Write buffer now in each file; -1 = initial.
  std::vector<nexus::Bytes> write_shadow_[4];
  std::vector<nexus::Bytes> echo_shadow_;
  std::vector<nk::IpcMessage> open_messages_, read_messages_, write_messages_, echo_messages_;
  std::vector<std::vector<uint32_t>> batch_reads_;
  std::vector<std::vector<nk::IpcMessage>> batch_messages_;
  std::vector<nk::IpcReply> batch_replies_;
  size_t flipped_read_ = SIZE_MAX;
  EchoServer echo_server_;
  std::unique_ptr<EchoDriver> echo_driver_;
  std::unique_ptr<nexus::services::DeviceDriverMonitor> ddrm_;
  std::unique_ptr<nexus::services::ReadRedactionMonitor> redactor_;
  std::vector<Chain> chains_;
  StampInterceptor inner_stamp_{false};
  StampInterceptor outer_stamp_{true};
  nk::AuthorizationEngine* original_engine_ = nullptr;
  std::unique_ptr<TracingEngine> tracing_engine_;
  std::unique_ptr<TracingHandler> fs_proxy_;
  MutationProber prober_;
};

}  // namespace

std::unique_ptr<Workload> MakeInterposedIo() { return std::make_unique<InterposedIo>(); }

}  // namespace perfbench
