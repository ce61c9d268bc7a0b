// The traced run: per-layer figures from spans the benchmark records
// around calls into each module, from the served span trees of
// "trace": true requests, and from the servers' counters.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "run.h"

namespace perfbench {

/// Every per-layer metric of the workload; also prints the traced run's
/// end-to-end figures (`traced`) against the saved untraced ones.
std::map<std::string, Metric> LayerMetrics(const Args& args, const Plan& plan,
                                           const RunResult& run,
                                           const std::map<std::string, Metric>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
