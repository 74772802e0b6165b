// The layer-isolated thread sweep (traced runs).
//
// Each layer a cached or missing authorization crosses is driven alone,
// on 1, 2 and 4 threads, with inputs captured from the workload's state:
// the decision-cache probe, the goalstore lookup, the engine's credential
// snapshot and the guard's proof check; plus the NAL checker alone per
// proof depth. A layer whose per-call time grows with the thread count is
// one that stops scaling.
#ifndef PERFBENCH_SWEEP_H_
#define PERFBENCH_SWEEP_H_

#include <map>
#include <string>
#include <utility>

#include "bench.h"

namespace perfbench {

void RunSweep(Workload& workload, std::map<std::string, std::pair<double, std::string>>* out);

}  // namespace perfbench

#endif  // PERFBENCH_SWEEP_H_
