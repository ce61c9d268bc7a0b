// What one run of a workload produces: timestamps and bodies of every
// operation, the servers' CPU and memory, and the check verdicts.
#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "reference.h"
#include "shapley/net/json.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

struct Args {
  std::string cli;   ///< The example_cli binary.
  std::string out;   ///< Directory for spans and saved untraced figures.
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The serving processes of a run: one `serve`, or two `serve` backends
/// and the `route` in front of them (last).
struct Front {
  std::vector<Server> procs;
  uint16_t port = 0;
};

/// One answered operation.
struct Sample {
  const Post* post = nullptr;
  size_t op = 0;  ///< Index into post->ops (a batch item's id, once read).
  Clock::time_point sent;
  Clock::time_point arrival;
  std::string body;  ///< The response, or the batch item's ndjson line.
};

struct RunResult {
  std::string error;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  size_t attempted = 0;  ///< Operations of the rounds sent.
  /// The start of the measured loop, then the end of each round: answers
  /// so far, time, and the serving processes' CPU seconds.
  struct Checkpoint {
    size_t samples = 0;
    Clock::time_point at;
    double cpu_s = 0.0;
  };
  std::vector<Checkpoint> checkpoints;
  /// The host's CPU ticks around the measured loop, for its steal share.
  HostTicks host_start, host_end;
  std::vector<Sample> warmup;
  std::vector<Sample> samples;
  std::optional<shapley::net::Json> stats_before, stats_after, cluster;
  std::optional<Front> front;
};

struct CheckResult {
  bool correct = true;
  size_t failed = 0;
  size_t sampled_facts = 0;
  size_t outside = 0;
  std::vector<std::string> errors;
};

/// GET /v1/stats and GET /v1/cluster through `client`.
std::optional<shapley::net::Json> FetchStats(shapley::net::ShapleyClient* client);
std::optional<shapley::net::Json> FetchCluster(shapley::net::ShapleyClient* client);

/// Keeps an untraced run's end-to-end figures, so the traced run over the
/// same workload and seed can print its own overhead.
void SaveUntraced(const Args& args, const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
