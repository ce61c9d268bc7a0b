#ifndef SHAPLEY_NET_SERVER_H_
#define SHAPLEY_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "shapley/net/event_loop.h"
#include "shapley/net/http.h"
#include "shapley/net/json.h"
#include "shapley/obs/flight.h"
#include "shapley/obs/heavy.h"
#include "shapley/obs/slowlog.h"
#include "shapley/service/shapley_service.h"

namespace shapley::obs {
class MetricsRegistry;
class RequestLogWriter;
}  // namespace shapley::obs

namespace shapley::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the OS picks; read the result from HttpServer::port().
  uint16_t port = 0;
  /// Concurrent connections beyond this are answered 503 and closed —
  /// back-pressure at the door. The event loop makes a connection cost one
  /// fd + parser state (not an OS thread), so the default is generous.
  size_t max_connections = 1024;
  /// Request bodies beyond this are refused 413 without being read in.
  size_t max_body_bytes = 8 * 1024 * 1024;
  /// Idle-read timeout per request on a keep-alive connection; an idle
  /// connection past it is closed.
  int read_timeout_ms = 10'000;
  /// A connection with queued response bytes but no write progress for
  /// this long is disconnected (slow-reader disconnect).
  int write_stall_timeout_ms = 10'000;
  /// Per-connection output-queue cap (bounded memory): a response that
  /// would queue past it, because its peer reads slower than it is
  /// produced, cuts the connection as a slow reader. Writes never block.
  size_t max_output_queue_bytes = 4 * 1024 * 1024;
  /// Reported by GET /healthz ("backend" for a ShapleyService front,
  /// "router" for the shard router) so a probe can tell what it reached.
  std::string role = "backend";

  /// Metrics registry behind GET /metrics. Not owned; must outlive the
  /// server. Null → the server creates and owns a private registry, so
  /// /metrics always answers. The shard router passes its own registry
  /// here to fold router counters and transport counters into one scrape.
  obs::MetricsRegistry* metrics = nullptr;

  /// Request capture for record/replay (obs/reqlog.h). Not owned; must
  /// outlive the server. When set, every POST request body is appended
  /// verbatim — BEFORE decoding, so malformed requests replay too. Null →
  /// no capture (the default; logging costs one mutexed file write per
  /// request).
  obs::RequestLogWriter* request_log = nullptr;

  /// Always-on debug instruments (the DebugDeck below; GET /v1/debug/*):
  /// requests at or above this wall time, counted from arrival, get their
  /// verbatim body promoted into the slow-log; <= 0 disables slow capture.
  double slow_threshold_ms = 250.0;
};

/// Snapshot of an HttpServer's connection-level counters, handed to the
/// handler so /v1/stats (and /v1/cluster) can report the transport layer
/// alongside whatever the handler itself tracks.
struct ServerCounters {
  size_t connections_accepted = 0;
  size_t connections_rejected = 0;
  size_t connections_live = 0;
  size_t requests_served = 0;
};

/// How a handler reports that it is done with a request: its response is
/// fully written through the writer (bytes may still wait in the
/// connection's output queue; the loop drains them), or abandoned.
/// keep_open = false ends the connection. Callable from any thread.
using HandlerDone = std::function<void(bool keep_open)>;

/// The application half of HttpServer: the transport (event loop,
/// keep-alive, limits, drain) is fixed; WHAT the endpoints do is this
/// interface. ServiceHandler serves a ShapleyService (the classic single
/// backend); cluster/router.h plugs in a scatter/gather proxy instead.
class HttpHandler {
 public:
  virtual ~HttpHandler() = default;

  /// One request → one (possibly chunk-streamed) response written through
  /// `writer`, then `done`. Runs ON THE LOOP THREAD and must not block:
  /// answer cheap endpoints inline, hand everything else to a pool, and
  /// call `done` from wherever the response is finished. The server turns
  /// `done` into the loop's completion exactly once on every path: a throw
  /// out of Handle, or every copy of `done` dropped uncalled, ends the
  /// connection. GET /healthz, /metrics, /v1/debug/flight and
  /// /v1/debug/slow never reach the handler — the server answers them
  /// itself.
  virtual void Handle(std::shared_ptr<ResponseWriter> writer,
                      HttpRequest request, bool keep_alive,
                      const ServerCounters& counters, HandlerDone done) = 0;
};

/// The always-on debug instruments of one serving process — a flight
/// recorder of recent request digests, two heavy-hitter sketches (by
/// canonical shard key and by classifier query class), and the slow-log of
/// captured outlier bodies. One deck per process: every HttpServer owns
/// one, backend and router alike, answers GET /v1/debug/flight and
/// /v1/debug/slow from it and exposes it on /metrics under its role.
struct DebugDeck {
  /// Flight-recorder ring slots — how many recent request digests survive.
  static constexpr size_t kFlightCapacity = 1024;
  /// Heavy-hitter sketch capacity (tracked keys per sketch).
  static constexpr size_t kHeavyK = 32;
  /// Slow-log ring capacity (captured outliers resident at once).
  static constexpr size_t kSlowLogCapacity = 32;

  explicit DebugDeck(const ServerOptions& options)
      : flight(kFlightCapacity),
        hot_keys(kHeavyK),
        hot_classes(kHeavyK),
        slow(options.slow_threshold_ms, kSlowLogCapacity) {}

  /// Records one finished request — a backend single or batch item, a
  /// routed request or a routed batch line — into every instrument: the
  /// digest into the flight ring (its latency_us taken from `wall_ms`), a
  /// sketch hit for `shard_key` and for `query_class`, each only when
  /// non-empty, and, when `wall_ms` reaches the slow threshold, the
  /// verbatim request bytes `body` returns into the slow-log. `body` runs
  /// only for a slow request; an empty `body` is never captured.
  /// Thread-safe.
  void Record(obs::FlightDigest digest, double wall_ms,
              const std::string& shard_key, const std::string& query_class,
              const std::function<std::string()>& body);

  obs::FlightRecorder flight;
  obs::SpaceSaving hot_keys;     ///< Keyed by canonical shard key.
  obs::SpaceSaving hot_classes;  ///< Keyed by dichotomy query class.
  obs::SlowLog slow;
};

/// The whole always-on record of one request a ServiceHandler served, a
/// single or a batch item: its flight digest, read off `response`, goes
/// into `deck` through the one DebugDeck::Record call, with a sketch hit
/// for `shard_key` and for the response's query class ("unclassified" when
/// it has none). `trace_id` is a traced request's id, else "". `body`
/// yields the verbatim request bytes, asked for only when the request was
/// slow.
void RecordServed(DebugDeck* deck, const SvcResponse& response,
                  double wall_ms, const std::string& shard_key,
                  const std::string& trace_id,
                  const std::function<std::string()>& body);

/// A response body for failures raised by the HTTP layer itself (no
/// service round-trip happened): same wire shape as every other error, so
/// clients have exactly one error format to handle.
std::string FrontEndErrorBody(SvcErrorCode code, std::string message);

/// Writes one Content-Length JSON response. Returns SendAll's verdict.
bool WriteJsonResponse(ResponseWriter* writer, int status,
                       const std::string& body, bool keep_alive);

/// The HttpHandler serving a ShapleyService — the piece that turns the
/// in-process serving layer (exact engines, dichotomy routing, the (ε, δ)
/// sampling subsystem, caches, deadlines) into an actual network service.
///
/// Endpoints (wire formats in net/codec.h):
///   POST /v1/compute  one SvcRequest JSON → one SvcResponse JSON; the
///                     HTTP status is 200 on success, else the mapped
///                     SvcError status (HttpStatusFor)
///   POST /v1/batch    {"requests": [r0, r1, ...]} → chunked
///                     application/x-ndjson: one response line per
///                     request IN COMPLETION ORDER, each tagged with its
///                     zero-based "id" — a slow exact instance never
///                     head-of-line-blocks a fast one behind it
///   GET  /v1/engines  the registry: names, descriptions, capabilities
///   GET  /v1/stats    ServiceStats snapshot (+ server connection counters)
///   GET  /v1/debug/hot  this backend's two heavy-hitter sketches
///
/// GETs only read counters and rings: answered on the loop thread. A POST
/// is one task on the service pool (decode, then a single's engine inline
/// or a batch's items submitted, each completion writing its own line).
/// Latency, queue_ms and the timeout_ms deadline count from arrival. Every
/// finished single and batch item is observed on `metrics` and recorded
/// into `deck`.
class ServiceHandler : public HttpHandler {
 public:
  /// None is owned; all three outlive the handler and none is null.
  /// Registers the ServiceStats, oracle-cache and phase collectors on
  /// `metrics`.
  ServiceHandler(ShapleyService* service, obs::MetricsRegistry* metrics,
                 DebugDeck* deck);

  void Handle(std::shared_ptr<ResponseWriter> writer, HttpRequest request,
              bool keep_alive, const ServerCounters& counters,
              HandlerDone done) override;

 private:
  using Clock = std::chrono::steady_clock;
  struct BatchStream;

  /// Pool tasks: parse, decode, compute (a single) or submit (a batch).
  bool HandleCompute(ResponseWriter* writer, const HttpRequest& request,
                     bool keep_alive, Clock::time_point arrival);
  void HandleBatch(std::shared_ptr<ResponseWriter> writer,
                   const HttpRequest& request, bool keep_alive,
                   Clock::time_point arrival, HandlerDone done);
  /// One batch item's completion: finish, write its line; the last one
  /// writes the terminal chunk and calls the batch's done.
  void StreamItem(BatchStream& batch, size_t index,
                  const SvcResponse& response);
  /// The one end of a served request, a single or a batch item: encodes
  /// the response, closes its trace (encode span, phase histograms, trace
  /// block), observes shapley_request_latency_ms (labels from the
  /// RESPONSE: the engine that actually served it, the realized strategy)
  /// and records it into the deck through RecordServed. `body` yields the
  /// verbatim request bytes, asked for only when the request was slow.
  /// Returns the encoded response.
  Json Finish(const SvcResponse& response, const Schema& schema,
              obs::TraceRecorder* recorder, Clock::time_point arrival,
              const std::string& shard_key,
              const std::function<std::string()>& body);
  bool HandleEngines(ResponseWriter* writer, bool keep_alive);
  bool HandleStats(ResponseWriter* writer, bool keep_alive,
                   const ServerCounters& counters);
  /// Queue-depth observation at request arrival.
  void ObserveArrival();

  ShapleyService* service_;
  obs::MetricsRegistry* metrics_;
  DebugDeck* deck_;
};

/// The TCP/HTTP front: an epoll event loop multiplexing the listener and
/// every connection on ONE thread (net/event_loop.h). Keep-alive,
/// body/connection limits, write-side backpressure and the shutdown drain
/// are the transport's job; an HttpHandler supplies the endpoints — the
/// classic constructor wraps a ShapleyService in a ServiceHandler, the
/// handler constructor hosts anything else (the shard router).
///
/// The server answers GET /healthz itself — 200 with
/// {"status": "ok", "version": kShapleyVersion, "role": options.role} —
/// ON THE LOOP THREAD, so a health probe costs no handler (or service)
/// work and never queues behind dispatched requests. GET /metrics is
/// answered the same way (Prometheus text exposition of the server's
/// registry), so a scrape works even when every worker is busy, and so
/// are GET /v1/debug/flight and /v1/debug/slow, read off the server's own
/// DebugDeck — for a backend and the shard router alike.
///
/// Execution model: one loop thread owns every fd and runs each
/// connection's state machine (read-accumulate → parse → dispatch →
/// write-drain); every other fully-parsed request goes to the handler on
/// that thread, which hands it to the pool of whatever it fronts (the
/// service's pool, the router's forwarding pool) and reports completion
/// from there. The server owns no threads but the loop. While a request is
/// in flight its connection's read side is not watched: pipelined
/// keep-alive bytes wait buffered and are served the moment the response
/// completes. A thousand idle keep-alive connections therefore cost a
/// thousand fds, not a thousand OS threads.
///
/// Shutdown discipline: Stop() closes the door (no new connections), cuts
/// idle keep-alive connections immediately, waits for every DISPATCHED
/// request to complete, streams those responses out, and joins — in-flight
/// work is drained, never dropped, so whatever the handler fronts must
/// keep running until Stop() returns. Abort() is the opposite contract: a
/// crash simulation for failover tests — it shutdowns every connection
/// BOTH ways, so in-flight responses fail to write and clients see the
/// stream die mid-flight.
class HttpServer {
 public:
  /// `service` outlives the server; not owned. Wraps it in an owned
  /// ServiceHandler.
  HttpServer(ShapleyService* service, ServerOptions options = {});
  /// `handler` outlives the server; not owned. It records the requests it
  /// finishes into debug_deck().
  HttpServer(HttpHandler* handler, ServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the loop thread. Throws std::runtime_error
  /// when the address cannot be bound, or when epoll_create1 or the loop's
  /// wake-up pipe() fails.
  void Start();

  /// Graceful drain (see above). Idempotent; also run by the destructor.
  void Stop();

  /// Hard kill: stops accepting and shutdowns every live connection in
  /// BOTH directions, so in-flight writes fail immediately — from a
  /// client's view the process crashed mid-response. For failover tests;
  /// production shutdown is Stop().
  void Abort();

  bool running() const { return running_.load(); }
  /// The bound port (after Start(); ephemeral requests resolve here).
  uint16_t port() const { return port_; }
  const std::string& host() const { return options_.host; }

  ServerCounters counters() const;
  size_t connections_accepted() const {
    return counters().connections_accepted;
  }
  size_t requests_served() const { return served_.load(); }

  /// The registry behind GET /metrics — options().metrics when provided,
  /// else the server's own. Never null.
  obs::MetricsRegistry* metrics() { return metrics_; }

  /// The always-on debug deck behind GET /v1/debug/flight and /slow —
  /// owned by the server; the handler records every finished request into
  /// it. Never null.
  DebugDeck* debug_deck() { return &deck_; }

 private:
  /// Resolves metrics_ (options or owned), registers shapley_build_info,
  /// the transport-counter collector, the shapley_server_eventloop_*
  /// collector and the deck's collector. Ctor-only.
  void SetUpMetrics();
  /// The event loop's request callback (LOOP THREAD): answers /healthz,
  /// /metrics and /v1/debug/flight|slow inline; dispatches everything else
  /// to the handler.
  EventLoop::Disposition OnRequest(uint64_t conn_id, HttpRequest&& request,
                                   std::shared_ptr<ConnWriter> writer);

  std::unique_ptr<HttpHandler> owned_handler_;  ///< Service ctor only.
  HttpHandler* handler_;
  const ServerOptions options_;
  DebugDeck deck_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  ///< Never null after construction.
  std::unique_ptr<EventLoop> loop_;
  /// The loop as seen by scrape collectors (which may run on any thread
  /// while Start() swaps loop_): null until Start() completes.
  std::atomic<EventLoop*> loop_ptr_{nullptr};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> served_{0};
};

}  // namespace shapley::net

#endif  // SHAPLEY_NET_SERVER_H_
