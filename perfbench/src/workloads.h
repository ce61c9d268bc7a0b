// The four workloads: how each run's operations derive from the seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog.h"

namespace perfbench {

/// One closed-loop exchange: a /v1/compute single or a /v1/batch post.
struct Post {
  bool batch = false;
  std::vector<Op> ops;
  std::string body;  ///< Filled by SetBodies before anything is timed.
};

struct WorkloadSpec {
  std::string name;
  bool routed = false;   ///< Through `route` over two `serve` backends.
  /// Rounds per block. The timed end-to-end figures are computed per block
  /// of this many consecutive rounds; latency_tail_ms is the highest
  /// percentile with ten operations beyond it within a block.
  size_t block_rounds = 1;
  /// Blocks per second of --seconds; fixes the operation count of a run,
  /// always a whole number of blocks.
  double blocks_per_second = 1.0;
};

struct Plan {
  WorkloadSpec spec;
  std::vector<Instance> bases;
  std::vector<Post> warmup;               ///< Not measured.
  std::vector<std::vector<Post>> rounds;  ///< Measured, in order.
};

/// The specs of the workloads, by name; empty name when unknown.
WorkloadSpec FindWorkload(const std::string& name);

/// Generates every input of a run before anything is timed.
Plan BuildPlan(const WorkloadSpec& spec, uint64_t seed, int seconds);

/// Writes each post's request body, with "trace": true on every request
/// when `trace`.
void SetBodies(Plan* plan, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
