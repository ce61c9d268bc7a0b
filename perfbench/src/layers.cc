#include "layers.h"

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>

#include "shapley/analysis/classifier.h"
#include "shapley/approx/sampling.h"
#include "shapley/cluster/shard_map.h"
#include "shapley/engines/fgmc.h"
#include "shapley/engines/svc.h"
#include "shapley/lineage/ddnnf.h"
#include "shapley/lineage/lineage.h"
#include "shapley/net/codec.h"
#include "shapley/obs/flight.h"
#include "shapley/obs/heavy.h"
#include "shapley/obs/slowlog.h"
#include "shapley/service/shapley_service.h"

namespace perfbench {

using shapley::net::Json;

namespace {

// The spans of the span tree a traced response carries, by name.
const char* const kServedSpans[] = {"decode",  "route", "cache",      "engine", "compile",
                                    "delta",   "accumulate", "round", "encode"};

// Most operations the in-process pass times, and its wall-time budget.
constexpr size_t kLayerOps = 40;
constexpr double kLayerBudgetS = 8.0;

/// One timed call: name, start, end, parent span and operation id, kept in
/// memory and written out when the run ends.
class SpanLog {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t Begin(const std::string& name, long op, size_t parent = kNone) {
    spans_.push_back({name, op, parent, Clock::now(), {}});
    return spans_.size() - 1;
  }
  double EndUs(size_t span) {
    spans_[span].end = Clock::now();
    return UsSince(spans_[span].start, spans_[span].end);
  }
  void Add(const std::string& name, long op, Clock::time_point start,
           Clock::time_point end) {
    spans_.push_back({name, op, kNone, start, end});
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (spans_.empty()) return;
    const auto epoch = spans_.front().start;
    for (const Span& s : spans_) {
      out << "{\"name\":" << JsonQuote(s.name) << ",\"op\":" << s.op << ",\"parent\":"
          << (s.parent == kNone ? -1L : static_cast<long>(s.parent))
          << ",\"start_us\":" << UsSince(epoch, s.start) << ",\"end_us\":" << UsSince(epoch, s.end)
          << "}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    long op;
    size_t parent;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
};

std::optional<Json> Get(shapley::net::ShapleyClient* client, const std::string& target) {
  try {
    int status = 0;
    const std::string body = client->RawGet(target, &status);
    if (status != 200) return std::nullopt;
    return Json::Parse(body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double Number(const Json* json) {
  return json != nullptr ? json->IfDouble().value_or(0.0) : 0.0;
}

double StatDelta(const RunResult& run, const char* key) {
  auto field = [&](const std::optional<Json>& stats) {
    const Json* service = stats ? stats->Find("service") : nullptr;
    return Number(service != nullptr ? service->Find(key) : nullptr);
  };
  return field(run.stats_after) - field(run.stats_before);
}

double Retries(const std::optional<Json>& cluster) {
  double total = 0;
  const Json* shards = cluster ? cluster->Find("shards") : nullptr;
  if (shards != nullptr && shards->IfArray()) {
    for (const Json& shard : *shards->IfArray()) total += Number(shard.Find("retried"));
  }
  return total;
}

// Self time of every span of a trace tree, collected by span name.
void CollectSelfTimes(const shapley::obs::TraceSpan& span,
                      std::map<std::string, std::vector<double>>* out) {
  double children_ms = 0;
  for (const auto& child : span.children) {
    children_ms += child.ms;
    CollectSelfTimes(child, out);
  }
  (*out)[span.name].push_back(span.ms - children_ms);
}

std::shared_ptr<shapley::SvcEngine> EngineByName(const std::string& name,
                                                 const shapley::ApproxParams& params) {
  if (name == "brute-force") return std::make_shared<shapley::BruteForceSvc>();
  if (name == "via-fgmc(lifted-safe-plan)") {
    return std::make_shared<shapley::SvcViaFgmc>(std::make_shared<shapley::LiftedFgmc>());
  }
  if (name == "via-fgmc(lineage-ddnnf)") {
    return std::make_shared<shapley::SvcViaFgmc>(std::make_shared<shapley::LineageFgmc>());
  }
  if (name == "sampling") return std::make_shared<shapley::SamplingSvc>(params);
  return nullptr;
}

// The in-process half of the traced run.
class LayerPass {
 public:
  LayerPass(const Args& args, const Plan& plan, const Front& front, SpanLog* spans,
            std::map<std::string, std::vector<double>>* values)
      : args_(args),
        plan_(plan),
        front_(front),
        spans_(spans),
        values_(values),
        cached_({.threads = 1}),
        uncached_({.threads = 1, .use_cache = false}),
        flight_(1024),
        hot_keys_(32),
        hot_classes_(32),
        slow_(250.0) {
    std::vector<std::string> backend_ids;
    if (plan.spec.routed) {
      for (size_t i = 0; i + 1 < front.procs.size(); ++i) {
        backend_ids.push_back("127.0.0.1:" + std::to_string(front.procs[i].port()));
        backends_.push_back(front.procs[i].port());
      }
      router_port_ = front.port;
    } else {
      backend_ids.push_back("127.0.0.1:" + std::to_string(front.port));
      backends_.push_back(front.port);
      // A router over the one backend, for the hop the workload skips.
      extra_router_ = Server::Start(args.cli, {"route", "--port", "0", "--backends",
                                               backend_ids.front()});
      if (extra_router_) router_port_ = extra_router_->port();
    }
    shard_map_ = std::make_unique<shapley::cluster::ShardMap>(backend_ids);
    front_client_ = Connect(front.port);
    router_client_ = Connect(router_port_);
    for (uint16_t port : backends_) backend_clients_.push_back(Connect(port));
  }

  void Record(const std::string& metric, double value) { (*values_)[metric].push_back(value); }

  // Times `reps` calls of f, each a span; returns the median in µs.
  template <class F>
  double Time(const std::string& name, long op, size_t parent, int reps, F&& f) {
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
      const size_t span = spans_->Begin(name, op, parent);
      f();
      us.push_back(spans_->EndUs(span));
    }
    return Median(us);
  }

  double RoundTripUs(shapley::net::ShapleyClient* client, const std::string& body) {
    const auto sent = Clock::now();
    try {
      client->RawCompute(body, nullptr);
    } catch (const std::exception&) {
      return 0.0;
    }
    return UsSince(sent, Clock::now());
  }

  void Classify(const std::set<int>& queries) {
    for (int q : queries) {
      auto json = Json::Parse(RequestJson(Op{}, Instance{q, {}, {}, 0}, false));
      shapley::net::DecodedRequest decoded;
      if (!json || shapley::net::DecodeRequest(*json, &decoded)) continue;
      Record("analysis.classify_us", Time("analysis.classify", -1, SpanLog::kNone, 20, [&] {
               shapley::ClassifySvcComplexity(*decoded.request.query);
             }));
    }
  }

  void Operation(long id, const Op& op, bool fill_round, bool fill_compile) {
    const Instance& instance = plan_.bases[static_cast<size_t>(op.base)];
    const QueryDef& q = Catalog()[instance.query];
    const std::string body = RequestJson(op, instance, false);
    const size_t root = spans_->Begin("operation", id);

    shapley::net::DecodedRequest decoded;
    Record("net.decode_us", Time("net.decode", id, root, 5, [&] {
             auto json = Json::Parse(body);
             decoded = {};
             if (json) shapley::net::DecodeRequest(*json, &decoded);
           }));
    if (decoded.request.query == nullptr) return;
    const shapley::SvcRequest& request = decoded.request;
    const auto& db = request.db;

    // The served stack in-process: cold, then warm (the loop warmed the
    // server's caches on these bytes the same way).
    shapley::SvcResponse response;
    Time("service.compute_cold", id, root, 1, [&] { response = cached_.Compute(request); });
    const double warm_us =
        Time("service.compute_warm", id, root, 1, [&] { response = cached_.Compute(request); });
    std::string encoded;
    Record("net.encode_us", Time("net.encode", id, root, 5, [&] {
             encoded = shapley::net::EncodeResponse(response, *decoded.schema).Dump();
           }));
    Record("net.response_bytes", static_cast<double>(encoded.size()));

    // Transport: the same bytes over the served front, warm.
    RoundTripUs(front_client_.get(), body);
    const size_t rtt_span = spans_->Begin("net.round_trip", id, root);
    const double rtt_us = RoundTripUs(front_client_.get(), body);
    spans_->EndUs(rtt_span);
    Record("net.transport_us", rtt_us - warm_us);

    // Router hop: the router's round trip minus the home backend's, on
    // identical bytes.
    const std::string key = shapley::cluster::ShardKeyFor(request);
    Record("cluster.shard_key_us", Time("cluster.shard_key", id, root, 20, [&] {
             shard_map_->Rank(shapley::cluster::ShardKeyFor(request));
           }));
    shapley::net::ShapleyClient* home = backend_clients_[shard_map_->Rank(key)[0]].get();
    RoundTripUs(router_client_.get(), body);
    RoundTripUs(home, body);
    const size_t hop_span = spans_->Begin("cluster.hop", id, root);
    const double routed_us = RoundTripUs(router_client_.get(), body);
    const double direct_us = RoundTripUs(home, body);
    spans_->EndUs(hop_span);
    Record("cluster.hop_us", routed_us - direct_us);

    // Service overhead: Compute minus the routed engine called directly,
    // both serial and uncached.
    const bool heavy = op.heavy || db.NumEndogenous() > 25;
    if (op.mode == Mode::kAllValues || op.mode == Mode::kClassifyOnly) {
      const int reps = heavy ? 1 : 3;
      const double compute_us = Time("service.compute_uncached", id, root, reps,
                                     [&] { uncached_.Compute(request); });
      double engine_us = 0;
      if (auto engine = EngineByName(response.engine, request.approx);
          engine && op.mode == Mode::kAllValues) {
        engine_us = Time("engine.direct", id, root, reps,
                         [&] { engine->AllValues(*request.query, db); });
      }
      Record("service.overhead_us", compute_us - engine_us);
    }

    // Engines on the operation's instance. Brute force past the guard runs
    // on the first 12 endogenous facts.
    shapley::PartitionedDatabase small = db;
    if (db.NumEndogenous() > 17) {
      small = shapley::PartitionedDatabase(db.schema());
      for (size_t i = 0; i < db.endogenous().size(); ++i) {
        if (i < 12) small.AddEndogenous(db.endogenous().facts()[i]);
      }
      for (const auto& fact : db.exogenous().facts()) small.AddExogenous(fact);
    }
    Record("engines.brute_ms", Time("engines.brute", id, root, 1, [&] {
                                 shapley::BruteForceSvc().AllValues(*request.query, small);
                               }) / 1000.0);
    if (q.lifted) {
      shapley::SvcViaFgmc lifted(std::make_shared<shapley::LiftedFgmc>());
      Record("engines.lifted_ms", Time("engines.lifted", id, root, 1, [&] {
                                    lifted.AllValues(*request.query, db);
                                  }) / 1000.0);
      Record("engines.oracle_calls", static_cast<double>(lifted.oracle_calls()));
    }
    if (q.monotone) {
      shapley::SvcViaFgmc ddnnf(std::make_shared<shapley::LineageFgmc>());
      Record("engines.ddnnf_ms", Time("engines.ddnnf", id, root, 1, [&] {
                                   ddnnf.AllValues(*request.query, db);
                                 }) / 1000.0);
      Record("engines.oracle_calls", static_cast<double>(ddnnf.oracle_calls()));
      shapley::Lineage lineage;
      Record("lineage.build_ms", Time("lineage.build", id, root, 1, [&] {
                                   lineage = shapley::BuildLineage(*request.query, db);
                                 }) / 1000.0);
      Record("lineage.clauses", static_cast<double>(lineage.clauses.size()));
      size_t nodes = 0;
      Record("lineage.compile_ms", Time("lineage.compile", id, root, 1, [&] {
                                     nodes = shapley::CompileDnf(lineage).size();
                                   }) / 1000.0);
      Record("lineage.circuit_nodes", static_cast<double>(nodes));
    }

    // Evaluate on sub-worlds: Dx plus a seeded half of Dn.
    Rng rng(SubSeed(args_.seed, 7000 + static_cast<uint64_t>(id)));
    for (int w = 0; w < 16; ++w) {
      std::vector<shapley::Fact> world = db.exogenous().facts();
      for (const auto& fact : db.endogenous().facts()) {
        if (rng.Next() & 1) world.push_back(fact);
      }
      const shapley::Database sub(db.schema(), std::move(world));
      Record("query.eval_us", Time("query.eval", id, root, 1,
                                   [&] { request.query->Evaluate(sub); }));
    }

    // The sampler, with the operation's (ε, δ) parameters (or the defaults).
    shapley::ApproxParams params;
    if (op.sampled) {
      params = request.approx;
    } else {
      params.seed = SubSeed(args_.seed, 9000 + static_cast<uint64_t>(id));
    }
    shapley::SamplingSvc sampler(params);
    const double sampling_us = Time("approx.sampling", id, root, 1,
                                    [&] { sampler.AllValues(*request.query, db); });
    const shapley::ApproxInfo info = sampler.last_info();
    if (info.samples > 0) {
      const double samples = static_cast<double>(info.samples);
      Record("approx.us_per_permutation", sampling_us / samples);
      Record("approx.samples_per_op", samples);
      Record("approx.samples_vs_baseline",
             samples / static_cast<double>(std::max<size_t>(info.hoeffding_baseline, 1)));
      Record("approx.memo_hits_per_permutation", static_cast<double>(info.memo_hits) / samples);
    }

    // The always-on digest path of one served request.
    const double wall_ms = warm_us / 1000.0;
    Record("obs.record_us", Time("obs.record", id, root, 20, [&] {
             shapley::obs::FlightDigest digest;
             digest.target = "/v1/compute";
             digest.shard_key_hash = shapley::cluster::StableHash64(key);
             digest.engine = response.engine;
             digest.mode = ModeName(op.mode);
             digest.latency_us = static_cast<uint64_t>(warm_us);
             flight_.Record(std::move(digest));
             hot_keys_.Record(key);
             hot_classes_.Record(response.verdict.query_class);
             slow_.ShouldCapture(wall_ms);
           }));

    // Spans the workload's served operations never carry come from an
    // in-process traced Compute whose engine emits them.
    auto traced = [&](const std::string& engine) {
      shapley::SvcRequest t = request;
      t.trace = true;
      t.mode = shapley::SvcMode::kAllValues;
      t.engine = engine;
      const shapley::SvcResponse r = cached_.Compute(std::move(t));
      if (r.trace) CollectSelfTimes(r.trace->root, &filled_);
    };
    if (fill_round) traced("sampling");
    if (fill_compile && q.monotone) traced(q.lifted ? "lifted" : "ddnnf");
    spans_->EndUs(root);
  }

  const std::map<std::string, std::vector<double>>& filled() const { return filled_; }
  double ExtraRouterRetries() {
    if (!extra_router_) return 0;
    return Retries(Get(Connect(extra_router_->port()).get(), "/v1/cluster"));
  }

 private:
  const Args& args_;
  const Plan& plan_;
  const Front& front_;
  SpanLog* spans_;
  std::map<std::string, std::vector<double>>* values_;
  std::map<std::string, std::vector<double>> filled_;
  shapley::ShapleyService cached_;
  shapley::ShapleyService uncached_;
  shapley::obs::FlightRecorder flight_;
  shapley::obs::SpaceSaving hot_keys_;
  shapley::obs::SpaceSaving hot_classes_;
  shapley::obs::SlowLog slow_;
  std::optional<Server> extra_router_;
  uint16_t router_port_ = 0;
  std::vector<uint16_t> backends_;
  std::unique_ptr<shapley::cluster::ShardMap> shard_map_;
  std::unique_ptr<shapley::net::ShapleyClient> front_client_, router_client_;
  std::vector<std::unique_ptr<shapley::net::ShapleyClient>> backend_clients_;
};

// Per-layer metric names and units (the trace.* spans follow them).
struct LayerDef {
  const char* name;
  const char* unit;
};
const LayerDef kLayers[] = {
    {"net.decode_us", "us"},
    {"net.encode_us", "us"},
    {"net.transport_us", "us"},
    {"net.response_bytes", "bytes"},
    {"net.batch_stream_wait_ms", "ms"},
    {"cluster.hop_us", "us"},
    {"cluster.shard_key_us", "us"},
    {"cluster.retries", "count"},
    {"service.overhead_us", "us"},
    {"service.queue_ms", "ms"},
    {"service.verdict_cache_hit_ratio", "ratio"},
    {"analysis.classify_us", "us"},
    {"exec.oracle_cache_hit_ratio", "ratio"},
    {"exec.cache_mb", "MB"},
    {"exec.pool_tasks_per_op", "count"},
    {"engines.brute_ms", "ms"},
    {"engines.lifted_ms", "ms"},
    {"engines.ddnnf_ms", "ms"},
    {"engines.oracle_calls", "count"},
    {"lineage.build_ms", "ms"},
    {"lineage.clauses", "count"},
    {"lineage.compile_ms", "ms"},
    {"lineage.circuit_nodes", "count"},
    {"query.eval_us", "us"},
    {"approx.us_per_permutation", "us"},
    {"approx.samples_per_op", "count"},
    {"approx.samples_vs_baseline", "ratio"},
    {"approx.memo_hits_per_permutation", "ratio"},
    {"obs.record_us", "us"},
};

}  // namespace

std::optional<Json> FetchStats(shapley::net::ShapleyClient* client) {
  return Get(client, "/v1/stats");
}
std::optional<Json> FetchCluster(shapley::net::ShapleyClient* client) {
  return Get(client, "/v1/cluster");
}

void SaveUntraced(const Args& args, const std::map<std::string, Metric>& metrics) {
  if (args.out.empty()) return;
  std::ofstream out(args.out + "/untraced-" + args.workload + "-" +
                    std::to_string(args.seed) + ".txt");
  out.precision(10);
  for (const auto& [name, metric] : metrics) out << name << " " << metric.value << "\n";
}

std::map<std::string, Metric> LayerMetrics(const Args& args, const Plan& plan,
                                           const RunResult& run,
                                           const std::map<std::string, Metric>& traced) {
  SpanLog spans;
  std::map<std::string, std::vector<double>> values;

  // From the served, traced loop.
  std::map<std::string, std::vector<double>> served;
  for (size_t i = 0; i < run.samples.size(); ++i) {
    const Sample& s = run.samples[i];
    spans.Add("client.operation", static_cast<long>(i), s.sent, s.arrival);
    auto json = Json::Parse(s.body);
    if (!json) continue;
    const Json* stats = json->Find("stats");
    const double queue_ms = Number(stats ? stats->Find("queue_ms") : nullptr);
    const double exec_ms = Number(stats ? stats->Find("exec_ms") : nullptr);
    values["service.queue_ms"].push_back(queue_ms);
    const Json* trace_json = json->Find("trace");
    const auto trace = trace_json ? shapley::net::DecodeTrace(*trace_json) : std::nullopt;
    if (!trace || trace->root.name.empty()) continue;
    CollectSelfTimes(trace->root, &served);
    const shapley::obs::TraceSpan* decode = trace->Find("decode");
    const double decode_ms = decode != nullptr ? decode->ms : 0.0;
    values["net.batch_stream_wait_ms"].push_back(MsSince(s.sent, s.arrival) - decode_ms -
                                                 queue_ms - exec_ms);
  }

  // From the servers' counters.
  const double ops = static_cast<double>(std::max<size_t>(run.samples.size(), 1));
  const double verdict_hits = StatDelta(run, "verdict_cache_hits");
  const double verdict_misses = StatDelta(run, "verdict_cache_misses");
  const double cache_hits = StatDelta(run, "cache_hits");
  const double cache_misses = StatDelta(run, "cache_misses");
  values["service.verdict_cache_hit_ratio"].push_back(
      verdict_hits / std::max(1.0, verdict_hits + verdict_misses));
  values["exec.oracle_cache_hit_ratio"].push_back(cache_hits /
                                                  std::max(1.0, cache_hits + cache_misses));
  const Json* service_after = run.stats_after ? run.stats_after->Find("service") : nullptr;
  values["exec.cache_mb"].push_back(
      Number(service_after ? service_after->Find("cache_bytes") : nullptr) / (1024.0 * 1024.0));
  values["exec.pool_tasks_per_op"].push_back(StatDelta(run, "pool_tasks_executed") / ops);

  // In-process: one operation per distinct (class, mode, kind), heavy items
  // first, within the time budget.
  const bool has_round = served.count("round") > 0;
  const bool has_compile = served.count("compile") > 0;
  std::vector<const Op*> chosen;
  std::set<std::string> kinds;
  std::set<int> queries;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Sample& s : run.samples) {
      const Op& op = s.post->ops[s.op];
      if ((pass == 0) != op.heavy || chosen.size() >= kLayerOps) continue;
      const Instance& instance = plan.bases[static_cast<size_t>(op.base)];
      queries.insert(instance.query);
      const std::string kind = std::to_string(instance.query) + ModeName(op.mode) +
                               (op.heavy ? "h" : "") + op.approx.strategy +
                               std::to_string(instance.endogenous.size() > 25);
      if (kinds.insert(kind).second) chosen.push_back(&op);
    }
  }
  LayerPass pass(args, plan, *run.front, &spans, &values);
  pass.Classify(queries);
  const auto start = Clock::now();
  for (size_t i = 0; i < chosen.size(); ++i) {
    if (MsSince(start, Clock::now()) > kLayerBudgetS * 1000.0 && i >= 4) break;
    pass.Operation(static_cast<long>(i), *chosen[i], !has_round, !has_compile);
  }
  values["cluster.retries"].push_back(Retries(run.cluster) + pass.ExtraRouterRetries());
  for (const char* span : kServedSpans) {
    const auto& source = served.count(span) ? served : pass.filled();
    auto it = source.find(span);
    if (it != source.end()) values[std::string("trace.") + span + "_ms"] = it->second;
  }

  if (!args.out.empty()) {
    spans.Write(args.out + "/spans-" + args.workload + "-" + std::to_string(args.seed) +
                ".jsonl");
  }

  // The traced run's own end-to-end figures against the untraced run's.
  std::map<std::string, double> untraced;
  std::ifstream saved(args.out + "/untraced-" + args.workload + "-" +
                      std::to_string(args.seed) + ".txt");
  std::string name;
  double value;
  while (saved >> name >> value) untraced[name] = value;
  for (const auto& [metric, m] : traced) {
    std::printf("traced %-16s %12.5g %s", metric.c_str(), m.value, m.unit.c_str());
    if (untraced.count(metric) && untraced[metric] != 0) {
      std::printf("   untraced %12.5g   overhead %+.1f%%", untraced[metric],
                  100.0 * (m.value / untraced[metric] - 1.0));
    }
    std::printf("\n");
  }

  std::map<std::string, Metric> metrics;
  for (const LayerDef& layer : kLayers) {
    const auto& v = values[layer.name];
    if (v.empty()) std::cerr << "layer metric " << layer.name << " has no observation\n";
    metrics[layer.name] = {Median(v), layer.unit};
  }
  for (const char* span : kServedSpans) {
    const std::string key = std::string("trace.") + span + "_ms";
    if (values[key].empty()) std::cerr << "layer metric " << key << " has no observation\n";
    metrics[key] = {Median(values[key]), "ms"};
  }
  return metrics;
}

}  // namespace perfbench
