#include "sweep.h"

#include <functional>
#include <thread>

#include "nal/checker.h"
#include "nal/interner.h"

namespace perfbench {
namespace {

namespace nk = nexus::kernel;

constexpr uint64_t kWindowNs = 80'000'000;  // Per (layer, thread count).

// Runs `call(i)` over the inputs on `threads` threads for one window and
// returns the mean time of one call on one thread.
double PerCallNs(size_t threads, size_t inputs, const std::function<void(size_t)>& call) {
  std::vector<uint64_t> calls(threads, 0);
  std::vector<uint64_t> busy(threads, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t start = NowNs();
      uint64_t now = start;
      size_t i = t * 7919;
      while (now - start < kWindowNs) {
        for (size_t k = 0; k < 64; ++k) {
          call(i++ % inputs);
        }
        calls[t] += 64;
        now = NowNs();
      }
      busy[t] = now - start;
    });
  }
  while (ready.load() < threads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) {
    worker.join();
  }
  double total = 0;
  for (size_t t = 0; t < threads; ++t) {
    total += static_cast<double>(busy[t]) / static_cast<double>(calls[t]);
  }
  return total / static_cast<double>(threads);
}

}  // namespace

void RunSweep(Workload& workload, std::map<std::string, std::pair<double, std::string>>* out) {
  std::vector<SweepTuple> inputs = workload.SweepInputs();
  if (inputs.empty()) {
    return;
  }
  nexus::core::Nexus& nx = workload.nexus();
  nexus::core::Engine& engine = nx.engine();
  nk::DecisionCache& cache = nx.kernel().decision_cache();
  std::vector<std::vector<nexus::nal::Formula>> credentials;
  std::vector<nexus::nal::FormulaId> goal_ids;
  for (const SweepTuple& input : inputs) {
    credentials.push_back(engine.CollectCredentials(input.request.subject, input.request.obj));
    goal_ids.push_back(nexus::nal::Interner::Global().Intern(input.goal));
  }
  const std::pair<const char*, std::function<void(size_t)>> layers[] = {
      {"kernel.cache.probe_ns",
       [&](size_t i) { (void)cache.Lookup(inputs[i].request); }},
      {"core.goalstore.get_ns",
       [&](size_t i) { (void)engine.goals().Get(inputs[i].request.op, inputs[i].request.obj); }},
      {"core.engine.snapshot_ns",
       [&](size_t i) {
         (void)engine.CollectCredentials(inputs[i].request.subject, inputs[i].request.obj);
       }},
      // state_version 0: no proof-cache reuse, so each call is a full check.
      {"core.guard.check_ns",
       [&](size_t i) {
         (void)engine.default_guard().Check(inputs[i].request, inputs[i].goal, inputs[i].proof,
                                            credentials[i], 0, goal_ids[i]);
       }},
  };
  for (const auto& [name, call] : layers) {
    for (size_t threads : {1, 2, 4}) {
      (*out)[std::string(name) + ".t" + std::to_string(threads)] = {
          PerCallNs(threads, inputs.size(), call), "ns"};
    }
  }
  Vocabulary vocab;
  for (size_t depth : {1, 2, 4, 8}) {
    nexus::nal::Formula goal = vocab.Goal(depth);
    nexus::nal::Proof proof = vocab.ValidProof(depth);
    const std::vector<nexus::nal::Formula>& creds = credentials[0];
    (*out)["nal.check_ns.d" + std::to_string(depth)] = {
        PerCallNs(1, 1, [&](size_t) { (void)nexus::nal::CheckProof(proof, goal, creds); }),
        "ns"};
  }
}

}  // namespace perfbench
