#include "shapley/cluster/router.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "shapley/common/version.h"
#include "shapley/net/codec.h"
#include "shapley/net/json.h"
#include "shapley/obs/stats_json.h"
#include "shapley/obs/trace.h"

namespace shapley::cluster {

namespace {

using net::Json;

/// "id" first (humans tailing the stream see it first), every other
/// member of `parsed` verbatim in order.
Json RetagParsedLine(const Json& parsed, uint64_t new_id) {
  Json tagged;
  tagged.Set("id", Json::Number(new_id));
  if (const Json::Object* members = parsed.IfObject()) {
    for (const auto& [key, value] : *members) {
      if (key != "id") tagged.Set(key, value);
    }
  }
  return tagged;
}

/// One routed request — a /v1/compute single or one /v1/batch item — from
/// its routing to its record.
struct RoutedItem {
  /// The bytes forwarded: the client's own, verbatim, or re-stamped with
  /// the item's trace context when traced.
  std::string text;
  std::string key;   ///< Ranks the backends; its hash keys the digest.
  std::string mode;  ///< SvcMode wire name, for the digest.
  /// Traced items only: the item's OWN cluster-wide tree, rooted at
  /// "router". One thread touches it at a time.
  std::unique_ptr<obs::TraceRecorder> recorder;

  /// Opens a "hop" span for one forwarding attempt, tagged with the
  /// upstream identity: a failover leaves BOTH hops in the tree.
  void BeginHop(const std::string& backend, size_t attempt) {
    if (recorder == nullptr) return;
    recorder->Begin("hop");
    recorder->Attr("backend", backend);
    recorder->Attr("attempt", std::to_string(attempt));
  }

  /// Closes the open hop with the transport error that failed it.
  void FailHop(const char* error) {
    if (recorder == nullptr) return;
    recorder->Attr("error", error);
    recorder->End();
  }
};

}  // namespace

std::string RetagNdjsonLine(const std::string& line, uint64_t new_id) {
  std::string parse_error;
  std::optional<Json> json = Json::Parse(line, &parse_error);
  if (!json.has_value()) {
    throw std::runtime_error("RetagNdjsonLine: bad line: " + parse_error);
  }
  return RetagParsedLine(*json, new_id).Dump();
}

/// The HttpHandler behind the router's HttpServer. One instance, shared by
/// every forwarding task; all state lives in the ShardRouter.
class RouterHandler : public net::HttpHandler {
 public:
  explicit RouterHandler(ShardRouter* router) : router_(router) {}

  /// Forwarding blocks on backend sockets, so every request becomes one
  /// task on the router's pool.
  void Handle(std::shared_ptr<net::ResponseWriter> writer,
              net::HttpRequest request, bool keep_alive,
              const net::ServerCounters& counters,
              net::HandlerDone done) override {
    router_->pool_->Submit([this, writer = std::move(writer),
                            request = std::move(request), keep_alive,
                            counters, done = std::move(done)] {
      done(Serve(writer.get(), request, keep_alive, counters));
    });
  }

 private:
  bool Serve(net::ResponseWriter* writer, const net::HttpRequest& request,
             bool keep_alive, const net::ServerCounters& counters) {
    if (request.target == "/v1/compute") {
      if (request.method != "POST") {
        return MethodNotAllowed(writer, "use POST on /v1/compute",
                                keep_alive);
      }
      return HandleCompute(writer, request, keep_alive);
    }
    if (request.target == "/v1/batch") {
      if (request.method != "POST") {
        return MethodNotAllowed(writer, "use POST on /v1/batch", keep_alive);
      }
      return HandleBatch(writer, request, keep_alive);
    }
    if (request.target == "/v1/engines") {
      if (request.method != "GET") {
        return MethodNotAllowed(writer, "use GET on /v1/engines", keep_alive);
      }
      return HandleProxyGet(writer, "/v1/engines", keep_alive);
    }
    if (request.target == "/v1/stats") {
      if (request.method != "GET") {
        return MethodNotAllowed(writer, "use GET on /v1/stats", keep_alive);
      }
      return HandleStats(writer, keep_alive, counters);
    }
    if (request.target == "/v1/cluster") {
      if (request.method != "GET") {
        return MethodNotAllowed(writer, "use GET on /v1/cluster", keep_alive);
      }
      return HandleCluster(writer, keep_alive, counters);
    }
    if (request.target == "/v1/debug/hot") {
      if (request.method != "GET") {
        return MethodNotAllowed(writer, "use GET on /v1/debug/hot",
                                keep_alive);
      }
      return HandleHot(writer, keep_alive);
    }
    return net::WriteJsonResponse(
        writer, 404,
        net::FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                               "unknown endpoint " + request.target),
        keep_alive);
  }

  bool MethodNotAllowed(net::ResponseWriter* writer, const std::string& message,
                        bool keep_alive) {
    return net::WriteJsonResponse(
        writer, 405,
        net::FrontEndErrorBody(SvcErrorCode::kInvalidRequest, message),
        keep_alive);
  }

  /// The shard key of a decoded request; falls back to the raw body when
  /// the fingerprint is unavailable (still deterministic, just opaque).
  static std::string KeyFor(const SvcRequest& request,
                            const std::string& raw_body) {
    std::string key = ShardKeyFor(request);
    return key.empty() ? raw_body : key;
  }

  /// Healthy backends for `key` in rendezvous order — [0] is the home
  /// shard, the rest the failover sequence.
  std::vector<size_t> HealthyRank(const std::string& key) const {
    std::vector<size_t> healthy;
    for (size_t i : router_->shard_map_.Rank(key)) {
      if (router_->backends_[i]->healthy()) healthy.push_back(i);
    }
    return healthy;
  }

  /// Router-side latency (decode + route + upstream round trip) broken
  /// down by endpoint — the router's analogue of the backend's
  /// shapley_request_latency_ms.
  void ObserveLatency(const char* endpoint, double ms) {
    router_->metrics_
        ->GetHistogram("shapley_router_request_latency_ms",
                       "Router wall time per proxied request",
                       obs::LatencyBucketsMs(), {{"endpoint", endpoint}})
        ->Observe(ms);
  }

  /// Cluster-propagated tracing: a traced request gets a recorder rooted
  /// at "router" under ONE trace context (the client's own, when it sent
  /// the object form; derived from the request bytes otherwise), and its
  /// forwarded bytes are re-stamped with that context so the backend's
  /// span tree grafts into this one. Untraced requests keep the existing
  /// contract — the client's bytes are forwarded VERBATIM, no recorder,
  /// no re-encode.
  static RoutedItem Route(const SvcRequest& request, const Json& json,
                          std::string bytes) {
    RoutedItem item;
    item.key = KeyFor(request, bytes);
    item.mode = shapley::ToString(request.mode);
    if (request.trace) {
      obs::TraceContext context = request.trace_context;
      if (!context.valid()) context = obs::TraceContext::Derive(bytes);
      item.recorder = std::make_unique<obs::TraceRecorder>("router", context);
      Json stamped = json;
      net::SetRequestTraceContext(&stamped, item.recorder->context());
      bytes = stamped.Dump();
    }
    item.text = std::move(bytes);
    return item;
  }

  /// The one end of a routed item, served or not. Closes its open hop,
  /// grafting the backend's own span tree from `answer`'s trace block
  /// (offsets are parent-relative, so no clock comparison across
  /// processes is needed), installs the finished cluster-wide tree into
  /// `answer`, and records the item into the server's deck: a flight
  /// digest with engine = the backend that served it, and a slow capture
  /// of the forwarded bytes. `backend` "" means no backend could serve
  /// it: its hops are closed already, and nothing is captured. `answer`
  /// is null for an untraced single, whose bytes cross unparsed. The
  /// router records no sketch: /v1/debug/hot is the merged backend view,
  /// and recording here too would double-count every request. Thread-safe
  /// (batch shard workers call this concurrently).
  void Finish(RoutedItem& item, const std::string& backend, int status,
              double wall_ms, Json* answer) {
    if (item.recorder != nullptr) {
      if (!backend.empty()) {
        std::optional<obs::RequestTrace> backend_trace;
        if (const Json* trace_json =
                answer != nullptr ? answer->Find("trace") : nullptr) {
          backend_trace = net::DecodeTrace(*trace_json);
        }
        if (backend_trace.has_value()) {
          item.recorder->EndGraft(std::move(backend_trace->root));
        } else {
          item.recorder->End();
        }
      }
      if (answer != nullptr) {
        net::SetTraceBlock(answer, item.recorder->Finish());
      }
    }
    obs::FlightDigest digest;
    digest.target = "/v1/compute";
    digest.shard_key_hash = StableHash64(item.key);
    digest.engine = backend;
    digest.mode = item.mode;
    digest.status = status;
    digest.trace_id =
        item.recorder != nullptr ? item.recorder->context().TraceIdHex() : "";
    std::function<std::string()> body;
    if (!backend.empty()) body = [&item] { return item.text; };
    router_->server_->debug_deck()->Record(std::move(digest), wall_ms,
                                           /*shard_key=*/"",
                                           /*query_class=*/"", body);
  }

  /// The HTTP status a backend batch line reports: its "error" block
  /// carries the mapped status verbatim; no error block means 200.
  static int LineStatus(const Json& line) {
    const Json* error = line.Find("error");
    if (error == nullptr) return 200;
    const Json* status = error->Find("status");
    std::optional<int64_t> value =
        status != nullptr ? status->IfInt64() : std::nullopt;
    return value.has_value() ? static_cast<int>(*value) : 500;
  }

  bool HandleCompute(net::ResponseWriter* writer, const net::HttpRequest& request,
                     bool keep_alive) {
    const obs::SpanTimer wall_timer;
    std::string parse_error;
    std::optional<Json> json = Json::Parse(request.body, &parse_error);
    if (!json.has_value()) {
      return net::WriteJsonResponse(
          writer, 400,
          net::FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                                 "bad JSON: " + parse_error),
          keep_alive);
    }
    // Decoded for ROUTING only — the fingerprint needs the typed query and
    // database; the bytes that reach the backend are the client's own.
    net::DecodedRequest decoded;
    if (std::optional<SvcError> error = net::DecodeRequest(*json, &decoded)) {
      SvcResponse response;
      response.error = std::move(error);
      auto schema = Schema::Create();
      return net::WriteJsonResponse(
          writer, net::HttpStatusFor(response.error->code),
          net::EncodeResponse(response, *schema).Dump(), keep_alive);
    }

    router_->requests_routed_.fetch_add(1);
    RoutedItem item = Route(decoded.request, *json, request.body);
    // A traced answer is parsed to carry the cluster-wide tree; an
    // untraced one crosses verbatim.
    auto finish = [&](const std::string& backend, int status,
                      const std::string& body, double wall_ms) {
      std::optional<Json> parsed;
      if (item.recorder != nullptr) parsed = Json::Parse(body);
      Finish(item, backend, status, wall_ms,
             parsed.has_value() ? &*parsed : nullptr);
      return net::WriteJsonResponse(
          writer, status, parsed.has_value() ? parsed->Dump() : body,
          keep_alive);
    };

    std::vector<size_t> order = HealthyRank(item.key);
    const size_t tries = std::min<size_t>(order.size(), 2);
    for (size_t attempt = 0; attempt < tries; ++attempt) {
      BackendChannel* channel = router_->backends_[order[attempt]].get();
      channel->CountRouted(1);
      if (attempt > 0) {
        channel->CountRetried(1);
        router_->requests_failed_over_.fetch_add(1);
      }
      item.BeginHop(channel->id(), attempt);
      std::unique_ptr<net::ShapleyClient> client = channel->Acquire();
      int status = 0;
      std::string body;
      try {
        body = client->RawCompute(item.text, &status);
        channel->Release(std::move(client));
      } catch (const std::runtime_error& e) {
        // Transport failure (the client threw, so it is mid-protocol and
        // gets destroyed, not pooled): mark the shard down and fail over.
        channel->CountFailed(1);
        channel->set_healthy(false);
        item.FailHop(e.what());
        continue;
      }
      const double wall_ms = wall_timer.ElapsedMs();
      ObserveLatency("compute", wall_ms);
      return finish(channel->id(), status, body, wall_ms);
    }
    router_->requests_unserved_.fetch_add(1);
    // A traced unserved request still carries its (router-only) span tree:
    // the hops it burned are exactly what an operator wants to see on a
    // 503.
    return finish(/*backend=*/"", 503,
                  net::FrontEndErrorBody(SvcErrorCode::kUpstreamUnavailable,
                                         "no healthy backend for this shard"),
                  wall_timer.ElapsedMs());
  }

  bool HandleBatch(net::ResponseWriter* writer, const net::HttpRequest& request,
                   bool keep_alive) {
    const obs::SpanTimer wall_timer;
    std::string parse_error;
    std::optional<Json> json = Json::Parse(request.body, &parse_error);
    if (!json.has_value()) {
      return net::WriteJsonResponse(
          writer, 400,
          net::FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                                 "bad JSON: " + parse_error),
          keep_alive);
    }
    const Json* requests = json->Find("requests");
    const Json::Array* items =
        requests != nullptr ? requests->IfArray() : nullptr;
    if (items == nullptr) {
      return net::WriteJsonResponse(
          writer, 400,
          net::FrontEndErrorBody(SvcErrorCode::kInvalidRequest,
                                 "batch: expected {\"requests\": [...]}"),
          keep_alive);
    }

    // Route every request: decode failures are answered by the ROUTER
    // (tagged error lines, exactly as a backend would stream them); the
    // rest group by home shard, each traced one with its OWN cluster-wide
    // tree.
    const size_t n = items->size();
    std::vector<RoutedItem> routed(n);
    std::vector<std::string> immediate;       // Pre-routed error lines.
    std::map<size_t, std::vector<size_t>> groups;  // backend → global ids.
    std::vector<size_t> unserved;
    for (size_t i = 0; i < n; ++i) {
      net::DecodedRequest decoded;
      if (std::optional<SvcError> error =
              net::DecodeRequest((*items)[i], &decoded)) {
        SvcResponse response;
        response.error = std::move(error);
        auto schema = Schema::Create();
        std::string body = net::EncodeResponse(response, *schema).Dump();
        std::optional<Json> parsed = Json::Parse(body, &parse_error);
        immediate.push_back(RetagParsedLine(*parsed, uint64_t{i}).Dump());
        continue;
      }
      router_->requests_routed_.fetch_add(1);
      routed[i] = Route(decoded.request, (*items)[i], (*items)[i].Dump());
      const std::vector<size_t> order = HealthyRank(routed[i].key);
      if (order.empty()) {
        unserved.push_back(i);
      } else {
        groups[order[0]].push_back(i);
      }
    }

    // Gather side: one writer lock serializes completion-order lines from
    // every shard stream into the single client-facing chunk stream.
    if (!writer->SendAll(net::SerializeResponseHead(
            200, "application/x-ndjson", /*content_length=*/-1,
            keep_alive))) {
      return false;
    }
    std::mutex write_mutex;
    bool write_ok = true;
    auto write_line = [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(write_mutex);
      if (!write_ok) return;
      write_ok = writer->SendAll(net::ChunkFrame(line + "\n"));
    };
    // The line the ROUTER answers for an item no backend could serve; a
    // traced one still carries its (router-only) span tree.
    auto unserved_line = [&](size_t id, const std::string& detail) {
      router_->requests_unserved_.fetch_add(1);
      std::optional<Json> line = Json::Parse(net::FrontEndErrorBody(
          SvcErrorCode::kUpstreamUnavailable, detail));
      Finish(routed[id], /*backend=*/"", 503, wall_timer.ElapsedMs(), &*line);
      return RetagParsedLine(*line, uint64_t{id}).Dump();
    };
    for (const std::string& line : immediate) write_line(line);
    for (size_t id : unserved) {
      write_line(unserved_line(id, "no healthy backend for this shard"));
    }

    // Scatter side: one thread per shard, each streaming its sub-batch and
    // re-tagging local ids back to global ones as lines complete. A shard
    // that dies mid-stream fails over exactly the ids it had NOT yet
    // delivered (depth 1, once); anything beyond that becomes a structured
    // kUpstreamUnavailable line — every id is answered exactly once.
    std::function<void(size_t, const std::vector<size_t>&, int)> run_shard =
        [&](size_t backend_index, const std::vector<size_t>& ids,
            int depth) {
          BackendChannel* channel = router_->backends_[backend_index].get();
          channel->CountRouted(ids.size());
          if (depth > 0) channel->CountRetried(ids.size());
          std::string body = "{\"requests\":[";
          for (size_t k = 0; k < ids.size(); ++k) {
            if (k > 0) body += ',';
            body += routed[ids[k]].text;
          }
          body += "]}";
          // Every id of this sub-batch opens its hop now (its recorder is
          // touched only by this shard's worker thread until the hop
          // closes); a mid-stream death leaves the failed hop —
          // error-tagged — in the tree next to the retry hop the failover
          // pass adds.
          for (size_t id : ids) routed[id].BeginHop(channel->id(), depth);
          std::vector<bool> seen(ids.size(), false);
          std::unique_ptr<net::ShapleyClient> client = channel->Acquire();
          try {
            client->RawBatch(body, [&](const std::string& line) {
              std::string line_error;
              std::optional<Json> parsed = Json::Parse(line, &line_error);
              if (!parsed.has_value()) {
                throw std::runtime_error("undecodable batch line: " +
                                         line_error);
              }
              const Json* id_json = parsed->Find("id");
              std::optional<uint64_t> local =
                  id_json != nullptr ? id_json->IfUint64() : std::nullopt;
              if (!local.has_value() || *local >= ids.size()) {
                throw std::runtime_error("batch line with a bad id");
              }
              seen[*local] = true;
              const size_t gid = ids[*local];
              // The line's latency is CLIENT-OBSERVED (batch arrival →
              // this line ready), matching the backend's batch items; a
              // slow line captures its own forwarded item so the outlier
              // replays standalone through /v1/compute.
              Finish(routed[gid], channel->id(), LineStatus(*parsed),
                     wall_timer.ElapsedMs(), &*parsed);
              write_line(RetagParsedLine(*parsed, uint64_t{gid}).Dump());
            });
            channel->Release(std::move(client));
          } catch (const std::runtime_error& e) {
            channel->set_healthy(false);
            std::vector<size_t> missing;
            for (size_t k = 0; k < ids.size(); ++k) {
              if (!seen[k]) missing.push_back(ids[k]);
            }
            channel->CountFailed(missing.size());
            // The undelivered ids' hops failed: tag and close them before
            // the failover pass opens their retry hops.
            for (size_t id : missing) routed[id].FailHop(e.what());
            if (depth == 0) {
              // Re-rank each survivor against CURRENT health; several may
              // share a fallback, so regroup before re-sending.
              std::map<size_t, std::vector<size_t>> regrouped;
              for (size_t id : missing) {
                const std::vector<size_t> order = HealthyRank(routed[id].key);
                if (order.empty()) {
                  write_line(unserved_line(
                      id, "no healthy backend for this shard"));
                } else {
                  router_->requests_failed_over_.fetch_add(1);
                  regrouped[order[0]].push_back(id);
                }
              }
              for (const auto& [fallback, sub_ids] : regrouped) {
                run_shard(fallback, sub_ids, 1);
              }
            } else {
              for (size_t id : missing) {
                write_line(unserved_line(
                    id, "shard failed and failover exhausted"));
              }
            }
          }
        };

    std::vector<std::thread> workers;
    workers.reserve(groups.size());
    for (const auto& [backend_index, ids] : groups) {
      workers.emplace_back(
          [&run_shard, backend_index = backend_index, &ids] {
            run_shard(backend_index, ids, 0);
          });
    }
    for (std::thread& worker : workers) worker.join();

    {
      std::lock_guard<std::mutex> lock(write_mutex);
      if (!write_ok) return false;
      ObserveLatency("batch", wall_timer.ElapsedMs());
      return writer->SendAll(net::ChunkFrame(""));  // Terminal chunk.
    }
  }

  /// Forwards a GET verbatim from the first healthy backend that answers
  /// (/v1/engines: a homogeneous fleet has one registry).
  bool HandleProxyGet(net::ResponseWriter* writer, const std::string& target,
                      bool keep_alive) {
    for (size_t i = 0; i < router_->backends_.size(); ++i) {
      BackendChannel* channel = router_->backends_[i].get();
      if (!channel->healthy()) continue;
      std::unique_ptr<net::ShapleyClient> client = channel->Acquire();
      try {
        int status = 0;
        const std::string body = client->RawGet(target, &status);
        channel->Release(std::move(client));
        return net::WriteJsonResponse(writer, status, body, keep_alive);
      } catch (const std::runtime_error&) {
        channel->set_healthy(false);
      }
    }
    return net::WriteJsonResponse(
        writer, 503,
        net::FrontEndErrorBody(SvcErrorCode::kUpstreamUnavailable,
                               "no healthy backend"),
        keep_alive);
  }

  /// One fleet-wide /v1/stats that LOOKS like a single backend's: every
  /// reachable backend's "service" counters summed field by field (field
  /// set taken from the responses, so fields this router build does not
  /// know about still aggregate), plus the router's own "server" block.
  bool HandleStats(net::ResponseWriter* writer, bool keep_alive,
                   const net::ServerCounters& counters) {
    std::vector<std::pair<std::string, uint64_t>> sums;
    for (size_t i = 0; i < router_->backends_.size(); ++i) {
      BackendChannel* channel = router_->backends_[i].get();
      if (!channel->healthy()) continue;
      std::unique_ptr<net::ShapleyClient> client = channel->Acquire();
      std::string body;
      try {
        int status = 0;
        body = client->RawGet("/v1/stats", &status);
        channel->Release(std::move(client));
        if (status != 200) continue;
      } catch (const std::runtime_error&) {
        channel->set_healthy(false);
        continue;
      }
      std::string parse_error;
      std::optional<Json> parsed = Json::Parse(body, &parse_error);
      const Json* service =
          parsed.has_value() ? parsed->Find("service") : nullptr;
      const Json::Object* fields =
          service != nullptr ? service->IfObject() : nullptr;
      if (fields == nullptr) continue;
      for (const auto& [key, value] : *fields) {
        std::optional<uint64_t> number = value.IfUint64();
        if (!number.has_value()) continue;
        bool found = false;
        for (auto& [sum_key, sum] : sums) {
          if (sum_key == key) {
            sum += *number;
            found = true;
            break;
          }
        }
        if (!found) sums.emplace_back(key, *number);
      }
    }
    Json service;
    for (const auto& [key, sum] : sums) {
      service.Set(key, Json::Number(sum));
    }
    Json body;
    body.Set("service", std::move(service));
    // The "server" block goes through the shared stats codec
    // (obs/stats_json) — the same serialization the backend's /v1/stats
    // uses, so router and backend stats stay byte-compatible. The summed
    // "service" block keeps its dynamic field walk on purpose: it must
    // aggregate fields newer backends add that this build predates.
    body.Set("server", obs::ServerCountersJson(counters));
    return net::WriteJsonResponse(writer, 200, body.Dump(), keep_alive);
  }

  /// ONE fleet-wide hot list: every healthy backend's /v1/debug/hot is
  /// fetched, its two sketches parsed, and the fleet view is the
  /// MergeHeavySummaries fold — exact and associative while the fleet
  /// tracks ≤ k distinct keys, top-k-truncated with additive totals past
  /// that (the documented mergeable-summary contract of obs/heavy.h).
  bool HandleHot(net::ResponseWriter* writer, bool keep_alive) {
    std::optional<obs::HeavySummary> keys;
    std::optional<obs::HeavySummary> classes;
    size_t backends_reached = 0;
    for (size_t i = 0; i < router_->backends_.size(); ++i) {
      BackendChannel* channel = router_->backends_[i].get();
      if (!channel->healthy()) continue;
      std::unique_ptr<net::ShapleyClient> client = channel->Acquire();
      std::string body;
      try {
        int status = 0;
        body = client->RawGet("/v1/debug/hot", &status);
        channel->Release(std::move(client));
        if (status != 200) continue;
      } catch (const std::runtime_error&) {
        channel->set_healthy(false);
        continue;
      }
      std::optional<Json> parsed = Json::Parse(body);
      const Json* sketches =
          parsed.has_value() ? parsed->Find("sketches") : nullptr;
      if (sketches == nullptr) continue;
      const Json* by_key = sketches->Find("shard_key");
      const Json* by_class = sketches->Find("query_class");
      std::optional<obs::HeavySummary> backend_keys =
          by_key != nullptr ? obs::ParseHeavySummary(*by_key) : std::nullopt;
      std::optional<obs::HeavySummary> backend_classes =
          by_class != nullptr ? obs::ParseHeavySummary(*by_class)
                              : std::nullopt;
      if (!backend_keys.has_value() || !backend_classes.has_value()) {
        continue;
      }
      ++backends_reached;
      keys = keys.has_value()
                 ? obs::MergeHeavySummaries(*keys, *backend_keys)
                 : std::move(backend_keys);
      classes = classes.has_value()
                    ? obs::MergeHeavySummaries(*classes, *backend_classes)
                    : std::move(backend_classes);
    }
    Json sketches;
    sketches.Set("shard_key",
                 obs::HeavySummaryJson(keys.value_or(obs::HeavySummary{})));
    sketches.Set(
        "query_class",
        obs::HeavySummaryJson(classes.value_or(obs::HeavySummary{})));
    Json body;
    body.Set("role", Json::Str("router"));
    body.Set("backends", Json::Number(uint64_t{backends_reached}));
    body.Set("sketches", std::move(sketches));
    return net::WriteJsonResponse(writer, 200, body.Dump(), keep_alive);
  }

  bool HandleCluster(net::ResponseWriter* writer, bool keep_alive,
                     const net::ServerCounters& counters) {
    Json shards = Json::Arr();
    for (size_t i = 0; i < router_->backends_.size(); ++i) {
      const BackendChannel* channel = router_->backends_[i].get();
      Json shard;
      shard.Set("id", Json::Str(channel->id()));
      shard.Set("healthy", Json::Bool(channel->healthy()));
      shard.Set("routed", Json::Number(uint64_t{channel->routed()}));
      shard.Set("failed", Json::Number(uint64_t{channel->failed()}));
      shard.Set("retried", Json::Number(uint64_t{channel->retried()}));
      shards.Push(std::move(shard));
    }
    Json body;
    body.Set("role", Json::Str("router"));
    body.Set("version", Json::Str(kShapleyVersion));
    body.Set("hash", Json::Str("rendezvous-fnv1a64"));
    body.Set("shards", std::move(shards));
    body.Set("requests_routed",
             Json::Number(uint64_t{router_->requests_routed_.load()}));
    body.Set("requests_failed_over",
             Json::Number(uint64_t{router_->requests_failed_over_.load()}));
    body.Set("requests_unserved",
             Json::Number(uint64_t{router_->requests_unserved_.load()}));
    Json server;
    server.Set("connections_accepted",
               Json::Number(uint64_t{counters.connections_accepted}));
    server.Set("requests_served",
               Json::Number(uint64_t{counters.requests_served}));
    body.Set("server", std::move(server));
    return net::WriteJsonResponse(writer, 200, body.Dump(), keep_alive);
  }

  ShardRouter* router_;
};

ShardRouter::ShardRouter(const std::vector<std::string>& backend_specs,
                         RouterOptions options)
    : options_(std::move(options)), shard_map_({}) {
  if (backend_specs.empty()) {
    throw std::invalid_argument("ShardRouter: no backends");
  }
  std::vector<std::string> ids;
  for (const std::string& spec : backend_specs) {
    std::optional<BackendAddress> address = ParseBackendAddress(spec);
    if (!address.has_value()) {
      throw std::invalid_argument("ShardRouter: bad backend spec '" + spec +
                                  "' (want host:port)");
    }
    backends_.push_back(
        std::make_unique<BackendChannel>(*address, options_.client));
    ids.push_back(backends_.back()->id());
  }
  shard_map_ = ShardMap(std::move(ids));
  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(
      8, static_cast<size_t>(std::thread::hardware_concurrency())));
  handler_ = std::make_unique<RouterHandler>(this);

  // The router owns its registry and hands it to its HttpServer (Start()),
  // so one scrape shows routing counters, per-backend series AND the
  // transport counters side by side. Router families carry the
  // shapley_router_ prefix — disjoint from every backend series by name
  // (and transport families are disjoint by their role label).
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  metrics_->AddCollector([this] {
    metrics_
        ->GetCounter("shapley_router_requests_routed_total",
                     "Requests the router dispatched to a shard")
        ->Set(requests_routed_.load());
    metrics_
        ->GetCounter("shapley_router_requests_failed_over_total",
                     "Requests re-sent to a fallback shard")
        ->Set(requests_failed_over_.load());
    metrics_
        ->GetCounter("shapley_router_requests_unserved_total",
                     "Requests no healthy backend could serve")
        ->Set(requests_unserved_.load());
    for (const auto& backend : backends_) {
      const obs::Labels labels{{"backend", backend->id()}};
      metrics_
          ->GetGauge("shapley_router_backend_healthy",
                     "1 when the backend passes health checks", labels)
          ->Set(backend->healthy() ? 1.0 : 0.0);
      metrics_
          ->GetCounter("shapley_router_backend_routed_total",
                       "Requests routed to this backend", labels)
          ->Set(backend->routed());
      metrics_
          ->GetCounter("shapley_router_backend_failed_total",
                       "Requests that failed at this backend's transport",
                       labels)
          ->Set(backend->failed());
      metrics_
          ->GetCounter("shapley_router_backend_retried_total",
                       "Failover requests this backend absorbed", labels)
          ->Set(backend->retried());
    }
  });
}

ShardRouter::~ShardRouter() { Stop(); }

void ShardRouter::Start() {
  for (auto& backend : backends_) backend->Probe();
  net::ServerOptions server_options = options_.server;
  server_options.role = "router";
  server_options.metrics = metrics_.get();
  server_ = std::make_unique<net::HttpServer>(handler_.get(), server_options);
  server_->Start();
  if (options_.health_poll_ms > 0) {
    polling_.store(true);
    poller_ = std::thread([this] { PollLoop(); });
  }
}

void ShardRouter::Stop() {
  if (polling_.exchange(false) && poller_.joinable()) poller_.join();
  if (server_ != nullptr) server_->Stop();
}

uint16_t ShardRouter::port() const { return server_->port(); }

const std::string& ShardRouter::host() const { return server_->host(); }

std::vector<bool> ShardRouter::Eligibility() const {
  std::vector<bool> eligible(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    eligible[i] = backends_[i]->healthy();
  }
  return eligible;
}

void ShardRouter::PollLoop() {
  // Sleep in short slices so Stop() never waits a full poll period.
  int elapsed_ms = options_.health_poll_ms;  // First round probes at once.
  while (polling_.load()) {
    if (elapsed_ms >= options_.health_poll_ms) {
      for (auto& backend : backends_) {
        if (!polling_.load()) return;
        backend->Probe();
      }
      elapsed_ms = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    elapsed_ms += 20;
  }
}

}  // namespace shapley::cluster
