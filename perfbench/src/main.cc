// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--selftest flip-verdict|corrupt-byte]
//
// Prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics, derived from spans it keeps in memory and writes to
// perfbench-results/spans-<workload>.jsonl when it ends. Every run also
// writes its result line and its cross-check totals to
// perfbench-results/<workload>-seed<n>-trace<t>.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "kernel/payload.h"
#include "sweep.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

constexpr size_t kMaxSpansPerThread = 200000;
// The timed phase is cut into this many equal windows; rates and latency
// quantiles are taken per window and reported as the mean over windows.
constexpr size_t kWindows = 20;
// Every caller runs this long, untimed, before the timed phase: the first
// second after set-up (single-threaded) runs well below the steady rate on
// a virtual machine whose idle vCPUs have to be woken.
constexpr double kWarmupSeconds = 1.0;
// Untraced runs: slices of the timed phase, each followed by a probe burst,
// and the warm-up before every slice after the first.
constexpr size_t kBursts = 5;
constexpr double kRewarmSeconds = 0.25;
const char* kResultsDir = "perfbench-results";

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload hot-authz|cold-mutate|interposed-io|"
               "federated-quorum --seed N --seconds S --trace 0|1 "
               "[--selftest flip-verdict|corrupt-byte]\n",
               why);
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "hot-authz") return MakeHotAuthz();
  if (name == "cold-mutate") return MakeColdMutate();
  if (name == "interposed-io") return MakeInterposedIo();
  if (name == "federated-quorum") return MakeFederatedQuorum();
  return nullptr;
}

// Registry totals the benchmark compares against its own counts, and the
// per-layer counters it differences. Read only while callers are parked.
struct Counters {
  uint64_t authorize_requests = 0;
  uint64_t syscalls = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidated = 0;
  uint64_t guard_checks = 0;
  uint64_t guard_hits = 0;
  uint64_t payload_copies = 0;
  uint64_t text_payloads = 0;

  static Counters Read() {
    nexus::metrics::Snapshot s = nexus::metrics::Registry::Global().TakeSnapshot();
    auto get = [&s](const char* name) -> uint64_t {
      auto it = s.find(name);
      return it == s.end() ? 0 : static_cast<uint64_t>(it->second.value);
    };
    Counters c;
    c.authorize_requests = get("kernel.authorize_requests");
    c.syscalls = get("kernel.syscalls");
    c.cache_hits = get("cache.hits");
    c.cache_misses = get("cache.misses");
    c.cache_invalidated = get("cache.invalidated_entries");
    c.guard_checks = get("guard.checks");
    c.guard_hits = get("guard.cache_hits");
    c.payload_copies = nk::IpcPayloadCopyCount();
    c.text_payloads = nk::IpcTextPayloadCount();
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    authorize_requests += after.authorize_requests - before.authorize_requests;
    syscalls += after.syscalls - before.syscalls;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    cache_invalidated += after.cache_invalidated - before.cache_invalidated;
    guard_checks += after.guard_checks - before.guard_checks;
    guard_hits += after.guard_hits - before.guard_hits;
    payload_copies += after.payload_copies - before.payload_copies;
    text_payloads += after.text_payloads - before.text_payloads;
  }
};

// One caller's operation stream: its seeded generator, and the rounds it
// replays when the workload does not draw each round afresh.
struct Caller {
  explicit Caller(uint64_t seed) : rng(seed) {}
  nexus::Rng rng;
  std::vector<Op> untraced_round;
  std::vector<Op> traced_round;
};

// Draws one round and its per-op flags: latency samples for untraced
// slices, span samples for traced ones.
void FillRound(Workload& workload, size_t t, bool traced, Caller* caller) {
  std::vector<Op>& round = traced ? caller->traced_round : caller->untraced_round;
  round = workload.MakeRound(t, caller->rng);
  for (Op& op : round) {
    if (!workload.marks_samples()) {
      op.timed = caller->rng.NextBelow(workload.latency_sample_every()) == 0;
    }
    op.timed = op.timed && !traced;
    op.sampled = traced && caller->rng.NextBelow(workload.span_sample_every()) == 0;
  }
}

// Runs every caller for `seconds`, each on whole rounds; returns the wall
// time from the common start to the last caller's end.
uint64_t RunSlice(Workload& workload, std::vector<Caller>& callers_state,
                  std::vector<ThreadStats>& stats, double seconds, bool traced,
                  uint64_t* origin_ns) {
  const size_t n = callers_state.size();
  const std::vector<int> cpus = AllowedCpus();
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> origin{0};
  std::vector<uint64_t> ends(n, 0);
  std::vector<std::thread> callers;
  callers.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    callers.emplace_back([&, t] {
      ThreadStats& ts = stats[t];
      BindCurrentStats(&ts);
      Spans().Bind(&ts.spans, t);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t start = origin.load();
      const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9) / kWindows;
      const uint64_t stop = start + window_ns * kWindows;
      ts.read_latency.Start(start, window_ns, kWindows);
      ts.write_latency.Start(start, window_ns, kWindows);
      ts.rounds.clear();
      uint64_t now = start;
      uint64_t window = UINT64_MAX;
      Caller& caller = callers_state[t];
      const std::vector<Op>& round = traced ? caller.traced_round : caller.untraced_round;
      do {
        if (!cpus.empty() && (now - start) / window_ns != window) {
          window = (now - start) / window_ns;
          PinTo(cpus[(t + window) % cpus.size()]);
        }
        const uint64_t round_start = now;
        if (workload.fresh_rounds()) {
          FillRound(workload, t, traced, &caller);
        }
        const uint64_t ops_before = ts.attempted;
        const uint64_t payload_before = ts.payload_bytes;
        for (const Op& op : round) {
          if (traced && op.sampled) {
            if (ts.spans.size() < kMaxSpansPerThread) {
              Spans().BeginOp();
              workload.Run(ts, op);
              Spans().EndOp();
              continue;
            }
            ts.spans_dropped += 1;
          }
          workload.Run(ts, op);
        }
        now = NowNs();
        ts.rounds.push_back(RoundMark{round_start, now, ts.attempted - ops_before,
                                      ts.payload_bytes - payload_before});
      } while (now < stop);
      ends[t] = now;
      Spans().Bind(nullptr, t);
      BindCurrentStats(nullptr);
    });
  }
  while (ready.load() < n) {
    std::this_thread::yield();
  }
  const uint64_t start = NowNs();
  *origin_ns = start;
  origin.store(start);
  go.store(true, std::memory_order_release);
  for (std::thread& caller : callers) {
    caller.join();
  }
  uint64_t end = start;
  for (uint64_t e : ends) {
    end = std::max(end, e);
  }
  return end - start;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(value.first) + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  return out;
}

// Per-layer metrics from the traced slices' spans: self time of a span is
// its duration minus its direct children's.
void SpanMetrics(const std::vector<Span>& spans, MetricMap* out) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<uint64_t> child(spans.size(), 0);
  std::vector<uint64_t> chain(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent == 0) {
      continue;
    }
    auto it = index.find(span.parent);
    if (it == index.end()) {
      continue;
    }
    child[it->second] += span.end_ns - span.start_ns;
    if (span.layer == Layer::kChain) {
      chain[it->second] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> authorize_self, call_self, chain_ns, fs_ns, callmany, engine, setgoal,
      setproof, vouch, vouch_sim;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    double self = dur - static_cast<double>(child[i]);
    switch (s.layer) {
      case Layer::kAuthorize: authorize_self.push_back(self); break;
      case Layer::kCall:
        call_self.push_back(self);
        if (chain[i] > 0) {
          chain_ns.push_back(static_cast<double>(chain[i]));
        }
        break;
      case Layer::kCallMany:
        callmany.push_back(dur / static_cast<double>(std::max<uint64_t>(s.extra, 1)));
        break;
      case Layer::kFsHandler:
        if (s.extra == 1) {
          fs_ns.push_back(dur);
        }
        break;
      case Layer::kEngine:
        engine.push_back(dur / static_cast<double>(std::max<uint64_t>(s.extra, 1)));
        break;
      case Layer::kSetGoal: setgoal.push_back(dur); break;
      case Layer::kSetProof: setproof.push_back(dur); break;
      case Layer::kVouch:
        vouch.push_back(dur);
        vouch_sim.push_back(static_cast<double>(s.extra));
        break;
      default: break;
    }
  }
  (*out)["kernel.authorize.self_ns"] = {QuantileD(authorize_self, 0.5), "ns"};
  (*out)["kernel.call.self_ns"] = {QuantileD(call_self, 0.5), "ns"};
  (*out)["kernel.interpose.chain_ns"] = {QuantileD(chain_ns, 0.5), "ns"};
  (*out)["kernel.fs.handler_ns"] = {QuantileD(fs_ns, 0.5), "ns"};
  (*out)["kernel.callmany.ns_per_msg"] = {QuantileD(callmany, 0.5), "ns"};
  (*out)["core.engine.miss_ns"] = {QuantileD(engine, 0.5), "ns"};
  (*out)["core.engine.setgoal_ns"] = {QuantileD(setgoal, 0.5), "ns"};
  (*out)["core.engine.setproof_ns"] = {QuantileD(setproof, 0.5), "ns"};
  (*out)["net.vouch_ns"] = {QuantileD(vouch, 0.5), "ns"};
  (*out)["net.vouch_sim_us"] = {QuantileD(vouch_sim, 0.5), "us"};
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path, std::ios::trunc);
  for (const Span& s : spans) {
    file << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"layer\": \""
         << LayerName(s.layer) << "\", \"start_ns\": " << s.start_ns
         << ", \"end_ns\": " << s.end_ns << ", \"extra\": " << s.extra << "}\n";
  }
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void Append(std::vector<double>* to, const std::vector<double>& values) {
  to->insert(to->end(), values.begin(), values.end());
}

// Runs the workload's mutation probe for `seconds` on its own thread: the
// probe moves between CPUs, and threads started later from this one must
// not inherit a pinned CPU.
void RunProbe(Workload& workload, ThreadStats* stats, bool traced, double seconds,
              size_t thread_index) {
  std::thread([&] {
    BindCurrentStats(stats);
    Spans().Bind(&stats->spans, thread_index);
    workload.MutationProbe(*stats, traced, seconds, kWindows);
  }).join();
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// What was completed per second in each window;
// `field` picks ops or payload bytes. A round's work is spread evenly over
// the time it ran, so a window's figure does not jump by whole rounds.
std::vector<double> WindowRates(const std::vector<ThreadStats>& stats, uint64_t origin_ns,
                                double seconds, uint64_t RoundMark::*field) {
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9) / kWindows;
  std::vector<double> per_window(kWindows, 0.0);
  for (const ThreadStats& ts : stats) {
    for (const RoundMark& mark : ts.rounds) {
      const double span = static_cast<double>(std::max<uint64_t>(mark.end_ns - mark.start_ns, 1));
      const double work = static_cast<double>(mark.*field);
      for (uint64_t w = (mark.start_ns - origin_ns) / window_ns; w < kWindows; ++w) {
        const uint64_t lo = std::max(mark.start_ns, origin_ns + w * window_ns);
        const uint64_t hi = std::min(mark.end_ns, origin_ns + (w + 1) * window_ns);
        if (lo >= hi) {
          break;
        }
        per_window[w] += work * static_cast<double>(hi - lo) / span;
      }
    }
  }
  for (double& v : per_window) {
    v /= static_cast<double>(window_ns) / 1e9;
  }
  return per_window;
}

int Main(int argc, char** argv) {
  const uint64_t process_start = NowNs();
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--selftest") {
      config.flip_one_verdict = value == "flip-verdict";
      config.corrupt_one_shadow_byte = value == "corrupt-byte";
      if (!config.flip_one_verdict && !config.corrupt_one_shadow_byte) {
        return Usage("unknown self-test");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // ---------------------------------------------------------------- setup
  // Constructing the workload boots its Nexus instances.
  auto rotator = std::make_unique<CpuRotator>();
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  if (workload == nullptr) {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  Status setup = workload->Setup(config);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  const size_t n = workload->threads();
  std::vector<Caller> callers;
  for (size_t t = 0; t < n; ++t) {
    callers.emplace_back(nk::Mix64(config.seed * 0x100000001b3ULL + t + 1));
    FillRound(*workload, t, false, &callers[t]);
    FillRound(*workload, t, true, &callers[t]);
  }
  if (config.flip_one_verdict || config.corrupt_one_shadow_byte) {
    workload->InjectOracleFault(callers[0].untraced_round, config);
  }
  const double setup_s = static_cast<double>(NowNs() - process_start) / 1e9;
  rotator.reset();

  // ----------------------------------------------------------- timed phase
  // An untraced run is kBursts slices, each followed by a burst of the
  // mutation probe, so the probe's writes are timed across the whole run
  // as the callers' operations are; every slice but the first gets a short
  // warm-up, since the probe leaves all CPUs but one idle. A traced run
  // alternates untraced and traced slices U T T U, so a drift over the run
  // cancels out of the tracing overhead, and probes once after them.
  std::vector<bool> plan = config.trace ? std::vector<bool>{false, true, true, false}
                                        : std::vector<bool>(kBursts, false);
  const double slice_seconds = config.seconds / static_cast<double>(plan.size());
  std::vector<ThreadStats> untraced(n), traced(n);
  std::map<std::string, std::vector<double>> series;  // Per window.
  Counters deltas;
  uint64_t untraced_ns = 0, traced_ns = 0, origin_ns = 0;
  for (size_t slice = 0; slice < plan.size(); ++slice) {
    const bool traced_slice = plan[slice];
    {
      std::vector<ThreadStats> warmup(n);
      uint64_t warmup_origin = 0;
      RunSlice(*workload, callers, warmup, slice == 0 ? kWarmupSeconds : kRewarmSeconds, false,
               &warmup_origin);
    }
    if (traced_slice) {
      workload->SetTracing(true);
    }
    uint64_t writes_before = 0;
    for (const ThreadStats& ts : untraced) {
      writes_before += ts.writes;
    }
    Counters before = Counters::Read();
    uint64_t elapsed = RunSlice(*workload, callers, traced_slice ? traced : untraced,
                                slice_seconds, traced_slice, &origin_ns);
    deltas.AddDelta(before, Counters::Read());
    if (traced_slice) {
      workload->SetTracing(false);
      traced_ns += elapsed;
    } else {
      untraced_ns += elapsed;
    }
    if (config.trace) {
      continue;
    }
    std::vector<const WindowedSamples*> reads, writes;
    uint64_t slice_writes = 0;
    for (const ThreadStats& ts : untraced) {
      reads.push_back(&ts.read_latency);
      writes.push_back(&ts.write_latency);
      slice_writes += ts.writes;
    }
    slice_writes -= writes_before;
    ThreadStats burst;
    RunProbe(*workload, &burst, false, MutationProber::kSeconds / kBursts, n);
    if (slice_writes == 0) {
      writes = {&burst.write_latency};
    }
    Append(&series["ops_per_s"], WindowRates(untraced, origin_ns, slice_seconds, &RoundMark::ops));
    Append(&series["payload_bytes_per_s"],
           WindowRates(untraced, origin_ns, slice_seconds, &RoundMark::payload_bytes));
    Append(&series["latency_p50_ns"], WindowQuantiles(reads, 0.50));
    Append(&series["latency_p99_ns"], WindowQuantiles(reads, 0.99));
    Append(&series["mutation_p50_ns"], WindowQuantiles(writes, 0.50));
  }
  ThreadStats u, tr, all;
  for (size_t t = 0; t < n; ++t) {
    u.Merge(untraced[t]);
    tr.Merge(traced[t]);
  }
  all.Merge(u);
  all.Merge(tr);

  // ------------------------------------------------------------- checking
  ThreadStats probe;
  const uint64_t invalidated_before_probe = Counters::Read().cache_invalidated;
  if (config.trace) {
    RunProbe(*workload, &probe, true, MutationProber::kSeconds, n);
  }
  const uint64_t probe_invalidated = Counters::Read().cache_invalidated - invalidated_before_probe;

  std::vector<std::string> faults;
  if (std::string fault = workload->setup_fault(); !fault.empty()) {
    faults.push_back(fault);
  }
  ThreadStats post;
  BindCurrentStats(&post);
  std::string why;
  if (!workload->PostCheck(post, &why)) {
    faults.push_back("post-run check: " + why);
  }
  if (all.authz_requests != deltas.authorize_requests) {
    faults.push_back("authorization requests: benchmark counted " +
                     std::to_string(all.authz_requests) + ", kernel.authorize_requests moved " +
                     std::to_string(deltas.authorize_requests));
  }
  if (all.syscalls != deltas.syscalls) {
    faults.push_back("syscalls: benchmark counted " + std::to_string(all.syscalls) +
                     ", kernel.syscalls moved " + std::to_string(deltas.syscalls));
  }
  if (all.payload_bytes != all.expected_payload_bytes) {
    faults.push_back("payload bytes: received " + std::to_string(all.payload_bytes) +
                     ", shadow model delivered " + std::to_string(all.expected_payload_bytes));
  }
  for (const std::string& fault : faults) {
    std::fprintf(stderr, "perfbench: FAULT: %s\n", fault.c_str());
  }
  const bool correct = faults.empty();
  const uint64_t attempted = all.attempted;
  const uint64_t failed = all.failed;

  // -------------------------------------------------------------- metrics
  MetricMap metrics;
  const double untraced_s = static_cast<double>(untraced_ns) / 1e9;
  if (!config.trace) {
    // Means over the windows: throughput and payload rate are then the
    // work completed over the timed phase's elapsed time. The host's CPUs
    // run at two speeds for seconds at a time, so window figures fall in two
    // clusters; the median of windows jumps between them as the share of
    // slow windows crosses one half, while the mean moves with that share.
    metrics["throughput_ops"] = {Mean(series["ops_per_s"]), "ops/s"};
    metrics["latency_p50_us"] = {Mean(series["latency_p50_ns"]) / 1000.0, "us"};
    metrics["latency_p99_us"] = {Mean(series["latency_p99_ns"]) / 1000.0, "us"};
    metrics["mutation_p50_us"] = {Mean(series["mutation_p50_ns"]) / 1000.0, "us"};
    metrics["payload_mb_per_s"] = {Mean(series["payload_bytes_per_s"]) / 1e6, "MB/s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    std::vector<Span> spans = tr.spans;
    spans.insert(spans.end(), probe.spans.begin(), probe.spans.end());
    SpanMetrics(spans, &metrics);
    std::filesystem::create_directories(kResultsDir);
    WriteSpans(std::string(kResultsDir) + "/spans-" + config.workload + ".jsonl", spans);

    metrics["kernel.cache.hit_ratio"] = {
        Ratio(deltas.cache_hits, deltas.cache_hits + deltas.cache_misses), "ratio"};
    metrics["kernel.cache.invalidated_per_write"] = {
        all.writes > 0 ? Ratio(deltas.cache_invalidated, all.writes)
                       : Ratio(probe_invalidated, probe.writes),
        "count"};
    metrics["core.guard.proof_cache_hit_ratio"] = {Ratio(deltas.guard_hits, deltas.guard_checks),
                                                   "ratio"};
    metrics["kernel.payload.copies_per_op"] = {Ratio(deltas.payload_copies, all.attempted),
                                               "count"};
    metrics["kernel.ipc.text_payloads_per_op"] = {Ratio(deltas.text_payloads, all.attempted),
                                                  "count"};
    metrics["core.engine.misses_per_op"] = {Ratio(tr.engine_misses, tr.attempted), "count"};
    const double traced_tput = static_cast<double>(tr.attempted) / (traced_ns / 1e9);
    const double untraced_tput = static_cast<double>(u.attempted) / untraced_s;
    metrics["bench.trace_overhead_pct"] = {(1.0 - traced_tput / untraced_tput) * 100.0, "%"};
    // Fabric metrics read zero where the workload sends nothing over it.
    metrics["net.msgs_per_vouch"] = {0, "count"};
    metrics["net.bytes_per_vouch"] = {0, "B"};
    metrics["net.mesh.invalidations_per_flip"] = {0, "count"};
    workload->LayerMetrics(all, &metrics);
    RunSweep(*workload, &metrics);
  }

  std::string result = ResultJson(correct, attempted, failed, metrics);
  std::filesystem::create_directories(kResultsDir);
  {
    std::ofstream file(std::string(kResultsDir) + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json",
                       std::ios::trunc);
    file << "{\"result\": " << result << ",\n \"checks\": {\"authz_requests\": "
         << all.authz_requests << ", \"kernel.authorize_requests\": "
         << deltas.authorize_requests << ", \"syscalls\": " << all.syscalls
         << ", \"kernel.syscalls\": " << deltas.syscalls
         << ", \"payload_bytes\": " << all.payload_bytes
         << ", \"shadow_payload_bytes\": " << all.expected_payload_bytes
         << ", \"overlapped_verdicts\": " << all.overlapped
         << ", \"spans_dropped\": " << all.spans_dropped << "},\n \"windows\": {";
    for (auto it = series.begin(); it != series.end(); ++it) {
      file << (it == series.begin() ? "" : ", ") << "\"" << it->first << "\": [";
      for (size_t w = 0; w < it->second.size(); ++w) {
        file << (w == 0 ? "" : ", ") << FormatNumber(it->second[w]);
      }
      file << "]";
    }
    file << "}}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
