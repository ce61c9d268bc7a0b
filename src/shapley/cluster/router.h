#ifndef SHAPLEY_CLUSTER_ROUTER_H_
#define SHAPLEY_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shapley/cluster/backend.h"
#include "shapley/cluster/shard_map.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/net/client.h"
#include "shapley/net/server.h"
#include "shapley/obs/metrics.h"

namespace shapley::cluster {

struct RouterOptions {
  /// The router's own listening socket (role is forced to "router").
  /// `server.request_log` works here exactly as on a backend: the router's
  /// HttpServer captures every POST body at the shared pre-decode point,
  /// so a router session can be recorded and replayed (obs/reqlog,
  /// obs/replay) against a fresh fleet.
  net::ServerOptions server;
  /// Options for the pooled backend connections.
  net::ClientOptions client;
  /// Health-probe period for the background poller; 0 disables polling
  /// (health then changes only through observed failures — a backend
  /// marked down stays down).
  int health_poll_ms = 250;
};

/// Re-tags one ndjson batch line with a new "id", preserving every other
/// member VERBATIM in order (unknown fields included) — the only rewrite
/// the router performs on a backend response. Exposed for tests.
std::string RetagNdjsonLine(const std::string& line, uint64_t new_id);

/// The shard router: one process fronting N `shapley serve` backends over
/// the ordinary wire protocol, so a fleet looks like a single server.
///
/// Routing: each decoded request's ShardKeyFor fingerprint is rendezvous-
/// hashed over the backend ids (ShardMap) — identical instances always
/// land on the same backend and keep hitting its warmed OracleCache; the
/// router itself never evaluates anything.
///
/// Endpoints: the full single-server surface, plus cluster introspection —
///   POST /v1/compute  decode → shard → forward verbatim; the backend's
///                     status and body pass through untouched
///   POST /v1/batch    scatter/gather — the batch splits by shard, each
///                     sub-batch streams from its backend CONCURRENTLY,
///                     and lines are re-tagged with their global ids and
///                     forwarded in completion order across the whole
///                     fleet (no per-shard head-of-line blocking)
///   GET  /v1/engines  proxied from any healthy backend (the registry is
///                     identical across a homogeneous fleet)
///   GET  /v1/stats    per-backend "service" counters summed into one
///                     fleet view + the router's own "server" counters
///   GET  /v1/cluster  the shard map, per-backend health and the routed/
///                     failed/retried counters
///   GET  /healthz, /metrics, /v1/debug/flight|slow  answered by the
///                     router's HttpServer itself (role "router"); its
///                     deck holds a flight digest per routed request and
///                     per routed batch line (engine = backend id) and
///                     slow captures of outlier forwards
///   GET  /v1/debug/hot  fans out to every healthy backend's /v1/debug/hot
///                     and folds the sketches (MergeHeavySummaries) into
///                     ONE fleet-wide hot list — the router records no
///                     sketch of its own, so fleet counts are never doubled
///
/// Failover: a transport failure marks the backend unhealthy and re-sends
/// the affected requests ONCE to the key's next-ranked healthy shard — for
/// a batch, only the requests whose lines had not yet streamed. When no
/// backend can serve a request, it gets a structured kUpstreamUnavailable
/// error (HTTP 503) — never a dropped id. A background poller probes
/// /healthz so a recovered backend rejoins.
///
/// Execution: forwarding blocks on backend sockets, so every request the
/// router's HttpServer hands over runs as one task on a forwarding pool the
/// router owns (max(8, hardware threads) workers); a batch additionally
/// streams each shard's sub-batch on a thread of its own.
///
/// Tracing: a traced request ("trace" opted in) yields ONE cluster-wide
/// span tree — the router roots it at "router", opens a "hop" span per
/// forwarding attempt (attrs: backend identity, attempt number, and the
/// transport error on a failed hop), stamps its trace context onto the
/// forwarded body (the only rewrite traced forwarding performs; untraced
/// bodies still cross verbatim), and grafts the backend's own "backend →
/// decode/route/cache/engine/encode" subtree from the response under the
/// hop that fetched it. Failover keeps both hops in the tree. Untraced
/// requests allocate no recorder anywhere on the path.
class ShardRouter {
 public:
  /// `backend_specs` are "host:port" strings. Throws std::invalid_argument
  /// when empty or unparsable.
  ShardRouter(const std::vector<std::string>& backend_specs,
              RouterOptions options = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Probes every backend once, starts the health poller and the HTTP
  /// front. Throws std::runtime_error when the address cannot be bound.
  void Start();

  /// Stops the front (graceful drain) and the poller. Idempotent.
  void Stop();

  uint16_t port() const;
  const std::string& host() const;

  const ShardMap& shard_map() const { return shard_map_; }
  BackendChannel* backend(size_t i) { return backends_[i].get(); }
  size_t num_backends() const { return backends_.size(); }

  /// The router's metrics registry (owned; never null). GET /metrics on
  /// the router's port renders it: router routing counters, per-backend
  /// {backend="host:port"} series, request-latency-by-endpoint histograms
  /// and the transport counters its HttpServer folds in (role "router").
  obs::MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  friend class RouterHandler;

  /// healthy() of every backend, in shard-map order.
  std::vector<bool> Eligibility() const;
  void PollLoop();

  const RouterOptions options_;
  ShardMap shard_map_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<BackendChannel>> backends_;
  /// Where forwarding runs; outlives server_, whose drain waits on it.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<net::HttpHandler> handler_;
  std::unique_ptr<net::HttpServer> server_;
  std::thread poller_;
  std::atomic<bool> polling_{false};
  std::atomic<size_t> requests_routed_{0};
  std::atomic<size_t> requests_failed_over_{0};
  std::atomic<size_t> requests_unserved_{0};
};

}  // namespace shapley::cluster

#endif  // SHAPLEY_CLUSTER_ROUTER_H_
