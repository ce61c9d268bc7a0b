// The repository benchmark: one closed-loop client over real TCP against
// the shipped `example_cli serve` (and, for fleet, `route` over two
// backends), with every answer checked apart from the serving path.
//
//   shapbench --cli PATH --out DIR --workload NAME --seed N --seconds S
//             --trace 0|1
//
// The last line of standard output is the result object. With --trace 0 it
// holds the end-to-end metrics; with --trace 1 the per-layer metrics of a
// traced run over the same inputs (see layers.h).
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>

#include "layers.h"
#include "reference.h"
#include "run.h"
#include "shapley/net/json.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

using shapley::net::Json;

constexpr int kColdStarts = 41;

// Every serving process runs its service with one worker thread: requests
// one at a time in arrival order, engine work serial (ServiceOptions::threads
// = 1). With the whole run pinned to one CPU, one thread has work at a time.
std::optional<Server> StartServe(const std::string& cli) {
  return Server::Start(cli, {"serve", "--port", "0", "--threads", "1"});
}

std::optional<Front> StartFront(const std::string& cli, bool routed) {
  Front front;
  if (!routed) {
    auto server = StartServe(cli);
    if (!server) return std::nullopt;
    front.port = server->port();
    front.procs.push_back(std::move(*server));
    return front;
  }
  std::string backends;
  for (int i = 0; i < 2; ++i) {
    auto server = StartServe(cli);
    if (!server) return std::nullopt;
    backends += (i > 0 ? "," : "") + std::string("127.0.0.1:") +
                std::to_string(server->port());
    front.procs.push_back(std::move(*server));
  }
  auto router = Server::Start(cli, {"route", "--port", "0", "--backends", backends});
  if (!router) return std::nullopt;
  front.port = router->port();
  front.procs.push_back(std::move(*router));
  return front;
}

// The set-up probe: a fixed small instance, the same in every run.
struct Probe {
  Instance instance;
  Op op;
  Reference reference;
  std::string body;
};

Probe MakeProbe() {
  Probe probe;
  Rng rng(20240601);
  probe.instance = GenerateInstance(kHierRS, 6, 1, rng);
  probe.reference = SubsetReference(probe.instance);
  probe.body = RequestJson(probe.op, probe.instance, false);
  return probe;
}

bool ProbeAnswers(const Probe& probe, uint16_t port) {
  std::string body;
  try {
    body = Connect(port)->RawCompute(probe.body, nullptr);
  } catch (const std::exception& e) {
    std::cerr << "probe: " << e.what() << "\n";
    return false;
  }
  auto json = Json::Parse(body);
  auto answer = json ? ReadAnswer(*json) : std::nullopt;
  if (!answer) return false;
  SampleTally tally;
  const std::string error =
      CheckAnswer(*answer, probe.op, probe.instance, probe.reference, nullptr, &tally);
  if (!error.empty()) std::cerr << "probe: " << error << "\n";
  return error.empty();
}

// Median of several cold starts: spawn → listening → first correct answer.
std::optional<double> MeasureSetup(const std::string& cli, bool routed) {
  const Probe probe = MakeProbe();
  std::vector<double> starts;
  for (int i = 0; i < kColdStarts; ++i) {
    const auto t0 = Clock::now();
    auto front = StartFront(cli, routed);
    if (!front || !ProbeAnswers(probe, front->port)) return std::nullopt;
    starts.push_back(MsSince(t0, Clock::now()) / 1000.0);
  }
  return Median(starts);
}

std::vector<Reference> ComputeReferences(const Plan& plan) {
  std::vector<bool> sampled(plan.bases.size(), false);
  auto mark = [&](const std::vector<Post>& posts) {
    for (const Post& post : posts) {
      for (const Op& op : post.ops) {
        if (op.sampled) sampled[static_cast<size_t>(op.base)] = true;
      }
    }
  };
  mark(plan.warmup);
  for (const auto& round : plan.rounds) mark(round);
  std::vector<Reference> references;
  for (size_t i = 0; i < plan.bases.size(); ++i) {
    const Instance& instance = plan.bases[i];
    const size_t core = instance.endogenous.size() - instance.null_padding;
    if (core <= kSubsetMax) {
      references.push_back(SubsetReference(instance));
    } else if (sampled[i]) {
      references.push_back(EngineReference(
          instance, Catalog()[instance.query].lifted ? "lifted" : "ddnnf"));
    } else {
      references.push_back(SatReference(instance));
    }
  }
  return references;
}

double CpuSeconds(const Front& front) {
  double total = 0;
  for (const Server& server : front.procs) total += server.CpuSeconds();
  return total;
}

double PeakRssMb(const Front& front) {
  double total = 0;
  for (const Server& server : front.procs) total += server.PeakRssMb();
  return total;
}

// Sends the posts in order through one client, appending one Sample per
// answer: a single's response, or a batch item's ndjson line as it
// arrives (its id is read after the run, by CheckRun). False on a
// transport failure.
bool Drive(shapley::net::ShapleyClient* client, const std::vector<Post>& posts,
           std::vector<Sample>* samples) {
  try {
    for (const Post& post : posts) {
      const auto sent = Clock::now();
      if (!post.batch) {
        std::string body = client->RawCompute(post.body, nullptr);
        samples->push_back({&post, 0, sent, Clock::now(), std::move(body)});
        continue;
      }
      client->RawBatch(post.body, [&](const std::string& line) {
        samples->push_back({&post, 0, sent, Clock::now(), line});
      });
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return false;
  }
  return true;
}

RunResult RunWorkload(const Args& args, const Plan& plan) {
  RunResult run;
  const auto setup = MeasureSetup(args.cli, plan.spec.routed);
  if (!setup) {
    run.error = "servers did not start or answered the probe wrongly";
    return run;
  }
  run.setup_s = *setup;
  auto front = StartFront(args.cli, plan.spec.routed);
  if (!front) {
    run.error = "could not start the servers";
    return run;
  }
  const auto client = Connect(front->port);
  std::vector<Sample> warm;
  if (!Drive(client.get(), plan.warmup, &warm)) {
    run.error = "transport failure during warm-up";
    return run;
  }
  run.warmup = std::move(warm);
  if (args.trace) run.stats_before = FetchStats(client.get());
  const auto t0 = Clock::now();
  run.host_start = ReadHostTicks();
  run.checkpoints.push_back({0, t0, CpuSeconds(*front)});
  for (const auto& round : plan.rounds) {
    for (const Post& post : round) run.attempted += post.ops.size();
    if (!Drive(client.get(), round, &run.samples)) {
      run.error = "transport failure";
      return run;
    }
    run.checkpoints.push_back({run.samples.size(), Clock::now(), CpuSeconds(*front)});
    // A machine far slower than the one the operation counts were set on
    // ends the run early, after a whole round.
    if (MsSince(t0, run.checkpoints.back().at) > 3000.0 * args.seconds) break;
  }
  run.host_end = ReadHostTicks();
  if (args.trace) {
    run.stats_after = FetchStats(client.get());
    if (plan.spec.routed) run.cluster = FetchCluster(client.get());
  }
  run.rss_mb = PeakRssMb(*front);
  run.front = std::move(front);
  return run;
}

// Reads the id each batch line leads with into Sample::op. A line whose id
// is missing or outside its post is dropped from `samples`, so no check
// indexes a post's operations with it; CheckBatchIds reports it.
std::map<const Post*, std::vector<int64_t>> ResolveBatchIds(std::vector<Sample>* samples) {
  std::map<const Post*, std::vector<int64_t>> batch_ids;
  std::vector<Sample> kept;
  for (Sample& sample : *samples) {
    if (sample.post->batch) {
      const auto json = Json::Parse(sample.body);
      const int64_t id = json ? BatchLineId(*json) : -1;
      batch_ids[sample.post].push_back(id);
      if (id < 0 || static_cast<size_t>(id) >= sample.post->ops.size()) continue;
      sample.op = static_cast<size_t>(id);
    }
    kept.push_back(std::move(sample));
  }
  *samples = std::move(kept);
  return batch_ids;
}

CheckResult CheckRun(const Plan& plan, const std::vector<Reference>& references,
                     std::vector<Sample>* samples) {
  CheckResult check;
  SampleTally tally;
  const auto batch_ids = ResolveBatchIds(samples);
  for (const Sample& sample : *samples) {
    const Op& op = sample.post->ops[sample.op];
    const Instance& instance = plan.bases[static_cast<size_t>(op.base)];
    auto json = Json::Parse(sample.body);
    auto answer = json ? ReadAnswer(*json) : std::nullopt;
    std::string error;
    if (!answer) {
      error = "unreadable response";
    } else if (answer->status != 200) {
      ++check.failed;
      if (check.errors.size() < 5) {
        check.errors.push_back("failed: status " + std::to_string(answer->status) + " " +
                               answer->error);
      }
      continue;
    } else {
      std::vector<std::string> order;
      if (op.sampled) order = ServerFactOrder(instance, op.suffix);
      error = CheckAnswer(*answer, op, instance, references[static_cast<size_t>(op.base)],
                          op.sampled ? &order : nullptr, &tally);
    }
    if (!error.empty()) {
      check.correct = false;
      if (check.errors.size() < 5) {
        check.errors.push_back(Catalog()[instance.query].id + " " + ModeName(op.mode) +
                               ": " + error);
      }
    }
  }
  for (const auto& [post, ids] : batch_ids) {
    const std::string error = CheckBatchIds(ids, post->ops.size());
    if (!error.empty()) {
      check.correct = false;
      check.errors.push_back(error);
    }
  }
  check.sampled_facts = tally.facts;
  check.outside = tally.outside;
  if (const std::string error = CheckSampleShare(tally); !error.empty()) {
    check.correct = false;
    check.errors.push_back(error);
  }
  return check;
}

std::map<std::string, Metric> EndToEnd(const Plan& plan, const RunResult& run) {
  std::vector<double> latencies;
  for (const Sample& s : run.samples) latencies.push_back(MsSince(s.sent, s.arrival));
  // The run is cut into blocks of block_rounds consecutive rounds, and the
  // four timed figures are medians over the blocks: a burst of load from
  // other guests of the host that meets fewer than half of the blocks moves
  // none of them.
  struct Block {
    double p50, tail, rate, cpu_ms;
  };
  std::vector<Block> blocks;
  const size_t rounds = run.checkpoints.size() - 1;
  const size_t per_block = std::min(rounds, plan.spec.block_rounds);
  for (size_t first = 0; first + per_block <= rounds; first += per_block) {
    const auto& from = run.checkpoints[first];
    const auto& to = run.checkpoints[first + per_block];
    const size_t lo = std::min(from.samples, latencies.size());
    const size_t hi = std::min(to.samples, latencies.size());
    if (hi == lo) continue;
    const std::vector<double> block(latencies.begin() + static_cast<long>(lo),
                                    latencies.begin() + static_cast<long>(hi));
    const double ops = static_cast<double>(block.size());
    blocks.push_back({Median(block), Quantile(block, std::max(0.5, 1.0 - 10.0 / ops)),
                      ops * 1000.0 / MsSince(from.at, to.at),
                      (to.cpu_s - from.cpu_s) * 1000.0 / ops});
  }
  for (const Block& b : blocks) {
    std::cerr << "block p50 " << b.p50 << " tail " << b.tail << " rate " << b.rate << " cpu "
              << b.cpu_ms << "\n";
  }
  auto median_of = [&](double Block::*field) {
    std::vector<double> values;
    for (const Block& block : blocks) values.push_back(block.*field);
    return Median(values);
  };
  const double steal = (run.host_end.steal - run.host_start.steal) /
                       std::max(1.0, run.host_end.total - run.host_start.total);
  std::cerr << "timed figures over " << blocks.size() << " blocks; host steal "
            << 100.0 * steal << "%\n";
  return {
      {"latency_p50_ms", {median_of(&Block::p50), "ms"}},
      {"latency_tail_ms", {median_of(&Block::tail), "ms"}},
      {"throughput_ops", {median_of(&Block::rate), "ops/s"}},
      {"cpu_ms_per_op", {median_of(&Block::cpu_ms), "ms"}},
      {"setup_s", {run.setup_s, "s"}},
      {"rss_peak_mb", {run.rss_mb, "MB"}},
  };
}

std::string ResultLine(bool correct, size_t attempted, size_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << JsonQuote(name) << ": {\"value\": " << metric.value
        << ", \"unit\": " << JsonQuote(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--cli") args.cli = value;
    else if (key == "--out") args.out = value;
    else if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atoi(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  const WorkloadSpec spec = FindWorkload(args.workload);
  if (spec.name.empty() || args.cli.empty() || args.seconds < 1) {
    std::cerr << "usage: shapbench --cli PATH --out DIR --workload "
                 "interactive|batch|approx|fleet --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  // The client and every serving process share one CPU. In a closed loop
  // with one operation in flight, the CPU then never idles between the
  // hand-offs of an operation, and no hand-off waits for another CPU to
  // wake: on a shared host how long those wake-ups take depends on the
  // host, not on the program.
  if (!PinToOneCpu()) std::cerr << "could not pin the run to one CPU\n";
  Plan plan = BuildPlan(spec, args.seed, args.seconds);
  SetBodies(&plan, args.trace);
  const auto prep0 = Clock::now();
  const std::vector<Reference> references = ComputeReferences(plan);
  std::cerr << "references for " << plan.bases.size() << " instances in "
            << MsSince(prep0, Clock::now()) << " ms\n";

  RunResult run = RunWorkload(args, plan);
  if (!run.error.empty()) {
    std::cerr << "error: " << run.error << "\n";
    return 1;
  }
  CheckResult check = CheckRun(plan, references, &run.samples);
  const CheckResult warm_check = CheckRun(plan, references, &run.warmup);
  for (const std::string& error : warm_check.errors) std::cerr << "warm-up: " << error << "\n";
  check.correct = check.correct && warm_check.correct && warm_check.failed == 0;
  for (const std::string& error : check.errors) std::cerr << "check: " << error << "\n";
  std::cerr << "checked " << run.samples.size() << " operations";
  if (check.sampled_facts > 0) {
    std::cerr << "; " << check.outside << " of " << check.sampled_facts
              << " sampled facts outside their half-width";
  }
  std::cerr << "\n";

  const size_t attempted = run.attempted;
  const size_t failed = check.failed + (attempted - run.samples.size());
  std::map<std::string, Metric> metrics = EndToEnd(plan, run);
  if (args.trace) {
    metrics = LayerMetrics(args, plan, run, metrics);
  } else {
    SaveUntraced(args, metrics);
  }
  for (auto& server : run.front->procs) server.Stop();
  std::cout << ResultLine(check.correct, attempted, failed, metrics) << std::endl;
  return 0;
}
