#include "shapley/net/server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "shapley/cluster/shard_map.h"
#include "shapley/common/version.h"
#include "shapley/net/codec.h"
#include "shapley/net/json.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/obs/metrics.h"
#include "shapley/obs/phase_metrics.h"
#include "shapley/obs/reqlog.h"
#include "shapley/obs/stats_json.h"
#include "shapley/obs/trace.h"

namespace shapley::net {

namespace {

double MsSince(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - from)
      .count();
}

int HttpStatusOf(const SvcResponse& response) {
  return response.ok() ? 200 : HttpStatusFor(response.error->code);
}

/// A traced request's recorder, installed on it and rooted at its arrival
/// (the worker wait and the decode, timed before we knew, get honest
/// offsets); the context is the wire's, else derived from `bytes`.
std::unique_ptr<obs::TraceRecorder> StartTrace(
    SvcRequest* request, const std::string& bytes,
    std::chrono::steady_clock::time_point arrival, double decode_start_ms,
    double decode_ms) {
  obs::TraceContext context = request->trace_context;
  if (!context.valid()) context = obs::TraceContext::Derive(bytes);
  auto recorder =
      std::make_unique<obs::TraceRecorder>("backend", context, arrival);
  recorder->AddClosed("decode", decode_start_ms, decode_ms);
  request->recorder = recorder.get();
  return recorder;
}

}  // namespace

std::string FrontEndErrorBody(SvcErrorCode code, std::string message) {
  SvcResponse response;
  response.error = SvcError{code, std::move(message), ""};
  // No schema is needed: a front-end error has no facts to render.
  auto schema = Schema::Create();
  return EncodeResponse(response, *schema).Dump();
}

bool WriteJsonResponse(ResponseWriter* writer, int status,
                       const std::string& body, bool keep_alive) {
  return writer->SendAll(
      SerializeResponseHead(status, "application/json",
                            static_cast<long>(body.size()), keep_alive) +
      body);
}

// ---------------------------------------------------------------------------
// DebugDeck — always-on instruments and their /v1/debug/* renderings
// ---------------------------------------------------------------------------

void DebugDeck::Record(obs::FlightDigest digest, double wall_ms,
                       const std::string& shard_key,
                       const std::string& query_class,
                       const std::function<std::string()>& body) {
  digest.latency_us = static_cast<uint64_t>(wall_ms * 1000.0);
  if (!shard_key.empty()) hot_keys.Record(shard_key);
  if (!query_class.empty()) hot_classes.Record(query_class);
  if (body && slow.ShouldCapture(wall_ms)) {
    obs::SlowEntry entry;
    entry.target = digest.target;
    entry.body = body();
    entry.latency_ms = wall_ms;
    entry.status = digest.status;
    entry.engine = digest.engine;
    entry.mode = digest.mode;
    entry.strategy = digest.strategy;
    entry.shard_key_hash = digest.shard_key_hash;
    entry.trace_id = digest.trace_id;
    slow.Capture(std::move(entry));
  }
  flight.Record(std::move(digest));
}

void RecordServed(DebugDeck* deck, const SvcResponse& response,
                  double wall_ms, const std::string& shard_key,
                  const std::string& trace_id,
                  const std::function<std::string()>& body) {
  // Every response-derived field is read off the response here; the shard
  // key was taken from the request before it moved into the service. A
  // batch item captured as slow goes under /v1/compute with its own bytes,
  // so it replays standalone, without its batch siblings.
  const bool approx = response.approx.has_value();
  obs::FlightDigest digest;
  digest.target = "/v1/compute";
  digest.shard_key_hash =
      shard_key.empty() ? 0 : cluster::StableHash64(shard_key);
  digest.engine = response.engine;
  digest.mode = shapley::ToString(response.mode);
  digest.strategy = approx ? response.approx->strategy
                           : (response.engine.empty() ? "" : "exact");
  digest.status = HttpStatusOf(response);
  digest.samples = approx ? response.approx->samples : 0;
  digest.cache_hits = approx ? response.approx->memo_hits : 0;
  digest.trace_id = trace_id;
  deck->Record(std::move(digest), wall_ms, shard_key,
               response.verdict.query_class.empty()
                   ? "unclassified"
                   : response.verdict.query_class,
               body);
}

namespace {

/// The GET /v1/debug/* response bodies (canonical member order; every
/// timestamp a RELATIVE offset — see obs/replay.h on what comparisons
/// strip).
std::string DebugFlightBody(const DebugDeck& deck) {
  Json entries = Json::Arr();
  for (const obs::FlightRecorder::Entry& entry : deck.flight.Snapshot()) {
    Json line;
    line.Set("seq", Json::Number(entry.seq));
    line.Set("t_ms", Json::Number(entry.digest.t_ms));
    line.Set("target", Json::Str(entry.digest.target));
    line.Set("shard_key_hash", Json::Number(entry.digest.shard_key_hash));
    line.Set("engine", Json::Str(entry.digest.engine));
    line.Set("mode", Json::Str(entry.digest.mode));
    line.Set("strategy", Json::Str(entry.digest.strategy));
    line.Set("status", Json::Number(int64_t{entry.digest.status}));
    line.Set("latency_us", Json::Number(entry.digest.latency_us));
    line.Set("samples", Json::Number(entry.digest.samples));
    line.Set("cache_hits", Json::Number(entry.digest.cache_hits));
    line.Set("trace_id", Json::Str(entry.digest.trace_id));
    entries.Push(std::move(line));
  }
  Json body;
  body.Set("uptime_ms", Json::Number(deck.flight.UptimeMs()));
  body.Set("capacity", Json::Number(uint64_t{deck.flight.capacity()}));
  body.Set("recorded", Json::Number(deck.flight.total_recorded()));
  body.Set("dropped", Json::Number(deck.flight.dropped()));
  body.Set("entries", std::move(entries));
  return body.Dump();
}

/// A backend's own sketches; the router answers /v1/debug/hot with the
/// fleet merge instead.
std::string DebugHotBody(const DebugDeck& deck) {
  Json sketches;
  sketches.Set("shard_key",
               obs::HeavySummaryJson(deck.hot_keys.Summary()));
  sketches.Set("query_class",
               obs::HeavySummaryJson(deck.hot_classes.Summary()));
  Json body;
  body.Set("role", Json::Str("backend"));
  body.Set("sketches", std::move(sketches));
  return body.Dump();
}

std::string DebugSlowBody(const DebugDeck& deck) {
  Json entries = Json::Arr();
  for (const obs::SlowEntry& entry : deck.slow.Snapshot()) {
    entries.Push(obs::SlowEntryJson(entry));
  }
  Json body;
  body.Set("threshold_ms", Json::Number(deck.slow.threshold_ms()));
  body.Set("capacity", Json::Number(uint64_t{deck.slow.capacity()}));
  body.Set("captured", Json::Number(deck.slow.total_captured()));
  body.Set("entries", std::move(entries));
  return body.Dump();
}

/// The scrape-time collector exposing the deck as the shapley_flight_* /
/// shapley_heavy_* / shapley_slowlog_* families, role-labeled so a router
/// and a backend sharing a dashboard stay disjoint.
void RegisterDebugDeckMetrics(obs::MetricsRegistry* metrics, DebugDeck* deck,
                              const std::string& role) {
  metrics->AddCollector([metrics, deck, role] {
    const obs::Labels role_labels{{"role", role}};
    metrics
        ->GetCounter("shapley_flight_recorded_total",
                     "Request digests recorded by the flight recorder",
                     role_labels)
        ->Set(deck->flight.total_recorded());
    metrics
        ->GetCounter("shapley_flight_dropped_total",
                     "Digests overwritten before any snapshot (ring wrap)",
                     role_labels)
        ->Set(deck->flight.dropped());
    metrics
        ->GetGauge("shapley_flight_capacity",
                   "Digest slots of the flight ring", role_labels)
        ->Set(static_cast<double>(deck->flight.capacity()));
    auto expose_sketch = [&](const char* name,
                             const obs::SpaceSaving& sketch) {
      const obs::Labels labels{{"role", role}, {"sketch", name}};
      metrics
          ->GetCounter("shapley_heavy_recorded_total",
                       "Keys recorded into the heavy-hitter sketch", labels)
          ->Set(sketch.total());
      metrics
          ->GetCounter("shapley_heavy_evictions_total",
                       "Space-Saving admissions that displaced a tracked "
                       "key",
                       labels)
          ->Set(sketch.evictions());
      metrics
          ->GetGauge("shapley_heavy_keys_tracked",
                     "Keys currently tracked (≤ k)", labels)
          ->Set(static_cast<double>(sketch.keys_tracked()));
    };
    expose_sketch("shard_key", deck->hot_keys);
    expose_sketch("query_class", deck->hot_classes);
    metrics
        ->GetCounter("shapley_slowlog_captured_total",
                     "Requests past the slow threshold whose bodies were "
                     "captured",
                     role_labels)
        ->Set(deck->slow.total_captured());
    metrics
        ->GetGauge("shapley_slowlog_threshold_ms",
                   "Latency at or above which a request is captured",
                   role_labels)
        ->Set(deck->slow.threshold_ms());
    metrics
        ->GetGauge(
            "shapley_slowlog_entries",
            "Captured outliers resident in the slow-log ring", role_labels)
        ->Set(static_cast<double>(
            std::min<uint64_t>(deck->slow.total_captured(),
                               deck->slow.capacity())));
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// ServiceHandler
// ---------------------------------------------------------------------------

void ServiceHandler::Handle(std::shared_ptr<ResponseWriter> writer,
                            HttpRequest request, bool keep_alive,
                            const ServerCounters& counters,
                            HandlerDone done) {
  // Arrival: the loop just handed the request over. Latency, queue_ms and
  // the timeout_ms deadline all count from here.
  const Clock::time_point arrival = Clock::now();
  const bool compute = request.target == "/v1/compute";
  if (compute || request.target == "/v1/batch") {
    if (request.method != "POST") {
      done(WriteJsonResponse(
          writer.get(), 405,
          FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                            "use POST on " + request.target),
          keep_alive));
      return;
    }
    // One task on the service pool: parsing and decoding happen there,
    // never on the loop.
    service_->pool()->Submit([this, writer = std::move(writer),
                              request = std::move(request), keep_alive,
                              arrival, compute,
                              done = std::move(done)]() mutable {
      if (compute) {
        done(HandleCompute(writer.get(), request, keep_alive, arrival));
      } else {
        HandleBatch(std::move(writer), request, keep_alive, arrival,
                    std::move(done));
      }
    });
    return;
  }
  // The GET endpoints only read counters and rings: answered right here.
  if (request.target == "/v1/engines" || request.target == "/v1/stats" ||
      request.target == "/v1/debug/hot") {
    if (request.method != "GET") {
      done(WriteJsonResponse(
          writer.get(), 405,
          FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                            "use GET on " + request.target),
          keep_alive));
    } else if (request.target == "/v1/engines") {
      done(HandleEngines(writer.get(), keep_alive));
    } else if (request.target == "/v1/stats") {
      done(HandleStats(writer.get(), keep_alive, counters));
    } else {
      done(WriteJsonResponse(writer.get(), 200, DebugHotBody(*deck_),
                             keep_alive));
    }
    return;
  }
  done(WriteJsonResponse(
      writer.get(), 404,
      FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                        "unknown endpoint " + request.target),
      keep_alive));
}

ServiceHandler::ServiceHandler(ShapleyService* service,
                               obs::MetricsRegistry* metrics, DebugDeck* deck)
    : service_(service), metrics_(metrics), deck_(deck) {
  // Deep-path phase histograms (fed by traced requests) are registered
  // eagerly so the families are grep-able on a zero-traffic scrape.
  obs::RegisterPhaseMetrics(metrics_);
  // Per-table oracle-cache traffic, scraped straight off the cache's
  // lock-free counters (names disjoint from the shapley_service_cache_*
  // aggregates below, which stay for dashboard continuity).
  if (OracleCache* cache = service_->cache(); cache != nullptr) {
    obs::MetricsRegistry* cache_registry = metrics_;
    metrics_->AddCollector([cache, cache_registry] {
      const OracleCache::Stats stats = cache->PerTableStats();
      auto expose = [cache_registry](const char* table,
                                     const OracleCache::TableStats& t) {
        const obs::Labels labels = {{"table", table}};
        cache_registry
            ->GetCounter("shapley_cache_hits_total",
                         "Oracle-cache hits by table", labels)
            ->Set(t.hits);
        cache_registry
            ->GetCounter("shapley_cache_misses_total",
                         "Oracle-cache misses by table", labels)
            ->Set(t.misses);
        cache_registry
            ->GetCounter("shapley_cache_inserts_total",
                         "Oracle-cache entries made resident, by table",
                         labels)
            ->Set(t.inserts);
        cache_registry
            ->GetCounter("shapley_cache_evictions_total",
                         "Oracle-cache LRU evictions by table", labels)
            ->Set(t.evictions);
      };
      expose("counts", stats.counts);
      expose("circuits", stats.circuits);
      expose("memos", stats.memos);
    });
  }
  // The ServiceStats snapshot crosses into the exposition at scrape time:
  // counters mirror via Set() from ONE snapshot, so a scrape's components
  // are as coherent as Stats() itself, and the conservation gauge below is
  // computed from the same snapshot the components came from.
  obs::MetricsRegistry* registry = metrics_;
  metrics_->AddCollector([service, registry] {
    const ServiceStats s = service->Stats();
    registry
        ->GetCounter("shapley_service_requests_submitted_total",
                     "Requests accepted by the service")
        ->Set(s.requests_submitted);
    registry
        ->GetCounter("shapley_service_requests_completed_total",
                     "Requests finished successfully")
        ->Set(s.requests_completed);
    registry
        ->GetCounter("shapley_service_requests_failed_total",
                     "Requests finished with a structured error")
        ->Set(s.requests_failed);
    registry
        ->GetGauge("shapley_service_requests_inflight",
                   "Requests accepted but not yet finished")
        ->Set(static_cast<double>(s.requests_inflight));
    registry
        ->GetCounter("shapley_service_verdict_cache_hits_total",
                     "Classifications served from the verdict cache")
        ->Set(s.verdict_cache_hits);
    registry
        ->GetCounter("shapley_service_verdict_cache_misses_total",
                     "Classifications computed fresh")
        ->Set(s.verdict_cache_misses);
    registry
        ->GetGauge("shapley_service_pool_threads",
                   "Worker threads of the service pool")
        ->Set(static_cast<double>(s.pool_threads));
    registry
        ->GetCounter("shapley_service_pool_tasks_executed_total",
                     "Tasks executed by the service pool")
        ->Set(s.pool_tasks_executed);
    registry
        ->GetGauge("shapley_service_cache_entries",
                   "Entries resident in the shared oracle cache")
        ->Set(static_cast<double>(s.cache_entries));
    registry
        ->GetGauge("shapley_service_cache_bytes",
                   "Bytes resident in the shared oracle cache")
        ->Set(static_cast<double>(s.cache_bytes));
    registry
        ->GetCounter("shapley_service_cache_hits_total",
                     "Oracle-cache hits")
        ->Set(s.cache_hits);
    registry
        ->GetCounter("shapley_service_cache_misses_total",
                     "Oracle-cache misses")
        ->Set(s.cache_misses);
    registry
        ->GetCounter("shapley_service_cache_evictions_total",
                     "Oracle-cache evictions")
        ->Set(s.cache_evictions);
    registry
        ->GetGauge("shapley_service_stats_conservation_error",
                   "submitted - (completed + failed + inflight); 0 at "
                   "quiescence (self-check, from one snapshot)")
        ->Set(static_cast<double>(obs::StatsConservationError(s)));
  });
}

void ServiceHandler::ObserveArrival() {
  metrics_
      ->GetHistogram("shapley_queue_depth",
                     "Service inflight requests sampled at request arrival",
                     obs::DepthBuckets())
      ->Observe(static_cast<double>(service_->requests_inflight()));
}

Json ServiceHandler::Finish(const SvcResponse& response, const Schema& schema,
                            obs::TraceRecorder* recorder,
                            Clock::time_point arrival,
                            const std::string& shard_key,
                            const std::function<std::string()>& body) {
  if (recorder != nullptr) recorder->Begin("encode");
  Json encoded = EncodeResponse(response, schema);
  if (recorder != nullptr) {
    // The encode span can only close AFTER encoding — the finished tree is
    // patched into the already-built body, and its spans feed the
    // aggregate phase histograms so /metrics and the trace block agree.
    recorder->End();
    const obs::RequestTrace trace = recorder->Finish();
    obs::ObserveTracePhases(metrics_, trace.root);
    SetTraceBlock(&encoded, trace);
  }
  // A batch item's latency is CLIENT-OBSERVED: batch arrival to its line
  // streaming out (queueing behind siblings included).
  const double wall_ms = MsSince(arrival);
  // Labels describe what actually SERVED the request: "none" when no
  // engine ran (classify-only, refused, undecodable), "exact" when the
  // answer carries no approximation contract.
  const bool approx = response.approx.has_value();
  metrics_
      ->GetHistogram("shapley_request_latency_ms",
                     "Wall time from request decode to response encode",
                     obs::LatencyBucketsMs(),
                     {{"engine", response.engine.empty() ? "none"
                                                         : response.engine},
                      {"mode", shapley::ToString(response.mode)},
                      {"strategy", approx ? response.approx->strategy
                                          : "exact"}})
      ->Observe(wall_ms);
  RecordServed(deck_, response, wall_ms, shard_key,
               recorder != nullptr ? recorder->context().TraceIdHex() : "",
               body);
  return encoded;
}

bool ServiceHandler::HandleCompute(ResponseWriter* writer,
                                   const HttpRequest& request,
                                   bool keep_alive, Clock::time_point arrival) {
  const double decode_start_ms = MsSince(arrival);
  const obs::SpanTimer decode_timer;
  std::string parse_error;
  std::optional<Json> json = Json::Parse(request.body, &parse_error);
  if (!json.has_value()) {
    return WriteJsonResponse(writer, 400,
                             FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                                               "bad JSON: " + parse_error),
                             keep_alive);
  }
  DecodedRequest decoded;
  if (std::optional<SvcError> error =
          DecodeRequest(*json, &decoded, arrival)) {
    SvcResponse response;
    response.error = std::move(error);
    auto schema = Schema::Create();
    return WriteJsonResponse(writer, HttpStatusFor(response.error->code),
                             EncodeResponse(response, *schema).Dump(),
                             keep_alive);
  }
  const double decode_ms = decode_timer.ElapsedMs();
  // The shard key comes off the decoded request NOW — Compute consumes it.
  const std::string shard_key = cluster::ShardKeyFor(decoded.request);
  ObserveArrival();
  // Recorder allocated ONLY for traced requests — the untraced hot path
  // carries a null pointer end to end.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (decoded.request.trace) {
    recorder = StartTrace(&decoded.request, request.body, arrival,
                          decode_start_ms, decode_ms);
  }
  // The engine runs inline on this service-pool worker: one of the
  // service's `threads`, the only place a served request computes.
  const SvcResponse response =
      service_->Compute(std::move(decoded.request), arrival);
  const Json body = Finish(response, *decoded.schema, recorder.get(), arrival,
                           shard_key, [&request] { return request.body; });
  return WriteJsonResponse(writer, HttpStatusOf(response), body.Dump(),
                           keep_alive);
}

/// One /v1/batch in flight: what its items' completions share. Each
/// completion holds it, so it lives exactly as long as the batch does.
struct ServiceHandler::BatchStream {
  struct Slot {
    std::shared_ptr<Schema> schema;
    std::unique_ptr<obs::TraceRecorder> recorder;  // Traced items only.
    std::string shard_key;  // Taken before the request moves.
  };

  std::shared_ptr<ResponseWriter> writer;
  HandlerDone done;
  Clock::time_point arrival;
  std::optional<Json> json;             // The parsed batch body.
  const Json::Array* items = nullptr;   // Into `json`.
  std::vector<Slot> slots;
  /// Set once the connection is gone: items not yet started then fail
  /// fast instead of computing answers nobody can read.
  CancelToken cancel = MakeCancelToken();
  std::mutex mutex;  // Serializes lines onto the wire; guards the two below.
  size_t remaining = 0;
  bool write_ok = true;
};

void ServiceHandler::HandleBatch(std::shared_ptr<ResponseWriter> writer,
                                 const HttpRequest& request, bool keep_alive,
                                 Clock::time_point arrival, HandlerDone done) {
  auto batch = std::make_shared<BatchStream>();
  std::string parse_error;
  batch->json = Json::Parse(request.body, &parse_error);
  if (!batch->json.has_value()) {
    done(WriteJsonResponse(writer.get(), 400,
                           FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                                             "bad JSON: " + parse_error),
                           keep_alive));
    return;
  }
  const Json* requests = batch->json->Find("requests");
  batch->items = requests != nullptr ? requests->IfArray() : nullptr;
  if (batch->items == nullptr) {
    done(WriteJsonResponse(writer.get(), 400,
                           FrontEndErrorBody(
                               SvcErrorCode::kInvalidRequest,
                               "batch: expected {\"requests\": [...]}"),
                           keep_alive));
    return;
  }

  // Stream in COMPLETION order: chunked ndjson, each line tagged "id".
  if (!writer->SendAll(SerializeResponseHead(
          200, "application/x-ndjson", /*content_length=*/-1, keep_alive))) {
    done(false);
    return;
  }
  const Json::Array& items = *batch->items;
  batch->writer = std::move(writer);
  batch->done = std::move(done);
  batch->arrival = arrival;
  batch->slots.resize(items.size());
  batch->remaining = items.size();
  if (items.empty()) {
    batch->done(batch->writer->SendAll(ChunkFrame("")));  // Terminal chunk.
    return;
  }
  // Per-request decode failures become tagged error lines in the stream
  // (one bad request must not sink its batch).
  for (size_t i = 0; i < items.size(); ++i) {
    BatchStream::Slot& slot = batch->slots[i];
    const double decode_start_ms = MsSince(arrival);
    const obs::SpanTimer decode_timer;
    DecodedRequest decoded;
    if (std::optional<SvcError> error =
            DecodeRequest(items[i], &decoded, arrival)) {
      SvcResponse response;
      response.error = std::move(error);
      slot.schema = Schema::Create();
      StreamItem(*batch, i, response);
      continue;
    }
    const double decode_ms = decode_timer.ElapsedMs();
    slot.schema = decoded.schema;
    if (decoded.request.trace) {
      slot.recorder = StartTrace(&decoded.request, items[i].Dump(), arrival,
                                 decode_start_ms, decode_ms);
    }
    slot.shard_key = cluster::ShardKeyFor(decoded.request);
    decoded.request.cancel = batch->cancel;
    ObserveArrival();
    service_->Submit(
        std::move(decoded.request),
        [this, batch, i](SvcResponse response) {
          StreamItem(*batch, i, response);
        },
        arrival);
  }
}

void ServiceHandler::StreamItem(BatchStream& batch, size_t index,
                                const SvcResponse& response) {
  BatchStream::Slot& slot = batch.slots[index];
  // The item re-emits its bytes verbatim (raw number tokens and member
  // order are preserved), only when it was slow.
  const Json line =
      Finish(response, *slot.schema, slot.recorder.get(), batch.arrival,
             slot.shard_key,
             [&batch, index] { return (*batch.items)[index].Dump(); });
  // The id leads the object so a human tailing the stream sees it first.
  Json tagged;
  tagged.Set("id", Json::Number(uint64_t{index}));
  for (auto& [key, value] : *line.IfObject()) {
    tagged.Set(key, value);
  }
  const std::string chunk = ChunkFrame(tagged.Dump() + "\n");
  bool last = false;
  bool write_ok = false;
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    if (batch.write_ok) batch.write_ok = batch.writer->SendAll(chunk);
    last = --batch.remaining == 0;
    if (last && batch.write_ok) {
      batch.write_ok = batch.writer->SendAll(ChunkFrame(""));  // Terminal.
    }
    write_ok = batch.write_ok;
  }
  if (!write_ok) batch.cancel->store(true);
  if (last) batch.done(write_ok);
}

bool ServiceHandler::HandleEngines(ResponseWriter* writer, bool keep_alive) {
  Json engines = Json::Arr();
  const EngineRegistry& registry = service_->registry();
  for (const std::string& name : registry.Names()) {
    const EngineRegistry::Entry* entry = registry.Find(name);
    Json engine;
    engine.Set("name", Json::Str(entry->name));
    engine.Set("description", Json::Str(entry->description));
    Json caps;
    caps.Set("all_query_classes", Json::Bool(entry->caps.all_query_classes));
    caps.Set("monotone_only", Json::Bool(entry->caps.monotone_only));
    caps.Set("hierarchical_sjf_cq_only",
             Json::Bool(entry->caps.hierarchical_sjf_cq_only));
    caps.Set("approximate", Json::Bool(entry->caps.approximate));
    if (entry->caps.max_endogenous != std::numeric_limits<size_t>::max()) {
      caps.Set("max_endogenous",
               Json::Number(uint64_t{entry->caps.max_endogenous}));
    }
    if (!entry->caps.error_model.empty()) {
      caps.Set("error_model", Json::Str(entry->caps.error_model));
    }
    engine.Set("caps", std::move(caps));
    engines.Push(std::move(engine));
  }
  Json body;
  body.Set("engines", std::move(engines));
  return WriteJsonResponse(writer, 200, body.Dump(), keep_alive);
}

bool ServiceHandler::HandleStats(ResponseWriter* writer, bool keep_alive,
                                 const ServerCounters& counters) {
  // Serialization goes through the ONE shared stats codec (obs/stats_json)
  // — the same path the router's fleet-sum uses, with the key order pinned
  // byte-stable by a test.
  Json body;
  body.Set("service", obs::ServiceStatsJson(service_->Stats()));
  body.Set("server", obs::ServerCountersJson(counters));
  return WriteJsonResponse(writer, 200, body.Dump(), keep_alive);
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

namespace {

/// Reports one dispatched request's end to the loop exactly once. The first
/// Finish wins; a request whose handler dropped every copy of its done
/// callback uncalled (a throw on a pool thread, say) ends its connection
/// when the last copy goes.
struct Completion {
  EventLoop* loop;
  uint64_t conn_id;
  bool keep_alive;
  std::atomic<bool> finished{false};

  ~Completion() { Finish(false); }
  void Finish(bool keep_open) {
    if (finished.exchange(true)) return;
    loop->CompleteDispatch(conn_id, keep_open && keep_alive);
  }
};

}  // namespace

HttpServer::HttpServer(ShapleyService* service, ServerOptions options)
    : HttpServer(static_cast<HttpHandler*>(nullptr), std::move(options)) {
  owned_handler_ =
      std::make_unique<ServiceHandler>(service, metrics_, &deck_);
  handler_ = owned_handler_.get();
}

HttpServer::HttpServer(HttpHandler* handler, ServerOptions options)
    : handler_(handler), options_(std::move(options)), deck_(options_) {
  SetUpMetrics();
}

void HttpServer::SetUpMetrics() {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  metrics_
      ->GetGauge("shapley_build_info",
                 "Build identity; the value is always 1",
                 {{"version", kShapleyVersion}, {"role", options_.role}})
      ->Set(1.0);
  // Transport counters mirror into the scrape labeled by role, so a router
  // and a backend sharing a dashboard produce DISJOINT series even though
  // the family names coincide.
  metrics_->AddCollector([this] {
    const ServerCounters c = counters();
    const obs::Labels role{{"role", options_.role}};
    metrics_
        ->GetCounter("shapley_server_connections_accepted_total",
                     "Connections accepted by the HTTP front", role)
        ->Set(c.connections_accepted);
    metrics_
        ->GetCounter("shapley_server_connections_rejected_total",
                     "Connections refused at the connection limit", role)
        ->Set(c.connections_rejected);
    metrics_
        ->GetGauge("shapley_server_connections_live",
                   "Connections currently open", role)
        ->Set(static_cast<double>(c.connections_live));
    metrics_
        ->GetCounter("shapley_server_requests_served_total",
                     "HTTP requests served (all endpoints)", role)
        ->Set(c.requests_served);
  });
  // The readiness loop's own counters: wake-ups, dispatch depth,
  // backpressure events — the signals that distinguish "the loop is busy"
  // from "the workers are busy" from "a peer is not reading".
  metrics_->AddCollector([this] {
    EventLoop* loop = loop_ptr_.load();
    if (loop == nullptr) return;
    const EventLoopStats s = loop->stats();
    const obs::Labels role{{"role", options_.role}};
    metrics_
        ->GetCounter("shapley_server_eventloop_wakeups_total",
                     "Poller returns of the event loop", role)
        ->Set(s.wakeups);
    metrics_
        ->GetCounter("shapley_server_eventloop_events_total",
                     "Readiness events handled by the event loop", role)
        ->Set(s.events);
    metrics_
        ->GetCounter("shapley_server_eventloop_requests_parsed_total",
                     "Full HTTP requests parsed off the wire", role)
        ->Set(s.requests);
    metrics_
        ->GetCounter("shapley_server_eventloop_pipelined_requests_total",
                     "Requests served from buffered bytes with no new read "
                     "event (keep-alive pipelining)",
                     role)
        ->Set(s.pipelined);
    metrics_
        ->GetCounter("shapley_server_eventloop_dispatches_total",
                     "Requests handed to the handler", role)
        ->Set(s.dispatches);
    metrics_
        ->GetCounter("shapley_server_eventloop_deferred_writes_total",
                     "Response writes that hit EAGAIN and queued for the "
                     "loop to drain",
                     role)
        ->Set(s.deferred_writes);
    metrics_
        ->GetCounter("shapley_server_eventloop_slow_reader_disconnects_total",
                     "Connections cut for output past the queue cap or no "
                     "write progress with queued output",
                     role)
        ->Set(s.slow_reader_disconnects);
    metrics_
        ->GetCounter("shapley_server_eventloop_read_timeouts_total",
                     "Connections cut at the idle-read timeout", role)
        ->Set(s.read_timeouts);
    metrics_
        ->GetGauge("shapley_server_eventloop_dispatch_inflight",
                   "Requests handed to the handler and not yet completed",
                   role)
        ->Set(static_cast<double>(s.dispatch_inflight));
    metrics_
        ->GetGauge("shapley_server_eventloop_output_queue_bytes",
                   "Bytes queued across all per-connection output queues",
                   role)
        ->Set(static_cast<double>(s.output_queue_bytes));
  });
  // The always-on debug deck: flight ring + sketches + slow-log, recorded
  // on every request the handler serves.
  RegisterDebugDeckMetrics(metrics_, &deck_, options_.role);
}

HttpServer::~HttpServer() {
  Stop();
  loop_ptr_.store(nullptr);
}

void HttpServer::Start() {
  std::string error;
  Socket listener = ListenTcp(options_.host, options_.port, /*backlog=*/128,
                              &port_, &error);
  if (!listener.valid()) {
    throw std::runtime_error("HttpServer: " + error);
  }
  loop_ptr_.store(nullptr);
  loop_.reset();

  EventLoopOptions loop_options;
  loop_options.max_connections = options_.max_connections;
  loop_options.read_timeout_ms = options_.read_timeout_ms;
  loop_options.write_stall_timeout_ms = options_.write_stall_timeout_ms;
  loop_options.max_output_queue_bytes = options_.max_output_queue_bytes;
  loop_options.max_body_bytes = options_.max_body_bytes;
  // The loop answers protocol-level failures from prebuilt buffers — no
  // allocation, no handler, no pool round-trip — and each closes.
  auto prebuilt = [](int status, SvcErrorCode code, std::string message) {
    const std::string body = FrontEndErrorBody(code, std::move(message));
    return SerializeResponseHead(status, "application/json",
                                 static_cast<long>(body.size()),
                                 /*keep_alive=*/false) +
           body;
  };
  loop_options.response_400 = prebuilt(400, SvcErrorCode::kInvalidRequest,
                                       "malformed HTTP request");
  // capacity-exceeded, matching the 413 transport status and the README
  // table ("body over the server limit").
  loop_options.response_413 = prebuilt(
      413, SvcErrorCode::kCapacityExceeded,
      "request body exceeds the server limit of " +
          std::to_string(options_.max_body_bytes) + " bytes");
  loop_options.response_503 = prebuilt(
      503, SvcErrorCode::kCapacityExceeded,
      "server at its connection limit (" +
          std::to_string(options_.max_connections) + ") — retry");
  // A connection idle past the read timeout with a PARTIAL request gets
  // told so before the close; an idle keep-alive connection between
  // requests still closes silently (event_loop.cc SweepTimeouts).
  loop_options.response_408 = prebuilt(
      408, SvcErrorCode::kRequestTimeout,
      "no complete request within the read timeout of " +
          std::to_string(options_.read_timeout_ms) + " ms");

  loop_ = std::make_unique<EventLoop>(
      std::move(loop_options),
      [this](uint64_t conn_id, HttpRequest&& request,
             std::shared_ptr<ConnWriter> writer) {
        return OnRequest(conn_id, std::move(request), std::move(writer));
      });
  stopping_.store(false);
  // Throws when epoll_create1 or pipe() fails, leaving the server not
  // running.
  loop_->Start(std::move(listener));
  running_.store(true);
  loop_ptr_.store(loop_.get());
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Returns once every dispatched request reported completion and its
  // response drained.
  if (loop_ != nullptr) loop_->Stop();
}

void HttpServer::Abort() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Crash simulation: the loop shutdowns every connection RDWR, so the
  // in-flight response WRITE fails too — a client streaming a batch sees
  // the connection die mid-stream exactly as if the process had been
  // killed.
  if (loop_ != nullptr) loop_->Abort();
}

ServerCounters HttpServer::counters() const {
  ServerCounters counters;
  if (EventLoop* loop = loop_ptr_.load()) {
    const EventLoopStats s = loop->stats();
    counters.connections_accepted = s.accepted;
    counters.connections_rejected = s.rejected;
    counters.connections_live = s.connections_live;
  }
  counters.requests_served = served_.load();
  return counters;
}

EventLoop::Disposition HttpServer::OnRequest(
    uint64_t conn_id, HttpRequest&& request,
    std::shared_ptr<ConnWriter> writer) {
  // The drain contract: a request PARSED before Stop() is served and its
  // response written; the connection then closes instead of re-arming.
  const bool draining = stopping_.load();
  const std::string* connection = FindHeader(request.headers, "Connection");
  const bool client_wants_close =
      connection != nullptr &&
      (*connection == "close" || *connection == "Close");
  const bool keep_alive =
      !draining && !client_wants_close && request.version == "HTTP/1.1";

  // Counted BEFORE the response is written: a client that has read its
  // response (and then asks /v1/stats, or a test that asserts counters)
  // must already see this request in the tally.
  served_.fetch_add(1, std::memory_order_relaxed);

  // Record/replay capture: the VERBATIM body, before any decode — a
  // malformed request must replay to the identical error response.
  if (options_.request_log != nullptr && request.method == "POST") {
    options_.request_log->Append(request.target, request.body);
  }

  if (request.target == "/healthz" || request.target == "/metrics" ||
      request.target == "/v1/debug/flight" ||
      request.target == "/v1/debug/slow") {
    // Answered ON THE LOOP THREAD: a router probing a backend's health, or
    // a scrape, must get a response even when the service behind it (or
    // the fleet behind a router) is busy to the gills; the deck's rings
    // are read the same way.
    int status = 200;
    const char* content_type = "application/json";
    std::string text;
    if (request.method != "GET") {
      status = 405;
      text = FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                               "use GET on " + request.target);
    } else if (request.target == "/healthz") {
      Json body;
      body.Set("status", Json::Str("ok"));
      body.Set("version", Json::Str(kShapleyVersion));
      body.Set("role", Json::Str(options_.role));
      text = body.Dump();
    } else if (request.target == "/v1/debug/flight") {
      text = DebugFlightBody(deck_);
    } else if (request.target == "/v1/debug/slow") {
      text = DebugSlowBody(deck_);
    } else {
      content_type = "text/plain; version=0.0.4";
      text = metrics_->RenderPrometheus();
    }
    loop_->Respond(conn_id, SerializeResponseHead(
                                status, content_type,
                                static_cast<long>(text.size()), keep_alive) +
                                text);
    return keep_alive ? EventLoop::Disposition::kInlineKeep
                      : EventLoop::Disposition::kInlineClose;
  }

  // Everything else goes to the handler, which reports back to the loop
  // when the response is fully produced (possibly still queued in the
  // connection's output buffer — the loop drains that part).
  auto completion = std::shared_ptr<Completion>(
      new Completion{loop_.get(), conn_id, keep_alive});
  try {
    handler_->Handle(std::move(writer), std::move(request), keep_alive,
                     counters(), [completion](bool keep_open) {
                       completion->Finish(keep_open);
                     });
  } catch (...) {
    // A throwing handler must not take the loop down.
    completion->Finish(false);
  }
  return EventLoop::Disposition::kDispatched;
}

}  // namespace shapley::net
