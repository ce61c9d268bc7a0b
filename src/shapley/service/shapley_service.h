#ifndef SHAPLEY_SERVICE_SHAPLEY_SERVICE_H_
#define SHAPLEY_SERVICE_SHAPLEY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "shapley/engines/svc.h"
#include "shapley/exec/exec_context.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/service/engine_registry.h"
#include "shapley/service/request.h"
#include "shapley/service/verdict_cache.h"

namespace shapley {

struct ServiceOptions {
  /// Worker threads serving requests (and fanning each request's per-fact
  /// work). 0 → one per hardware thread. 1 keeps Submit() non-blocking but
  /// executes requests one at a time in submission order, with the
  /// engine-internal work serial too — the deterministic mode.
  size_t threads = 0;

  /// Share one OracleCache (its default bounds) across every request the
  /// service ever serves.
  bool use_cache = true;

  /// Bound of the verdict-memoization LRU: classification is a pure
  /// function of the query, so repeated-query streams skip it entirely
  /// after the first request. 0 disables memoization.
  size_t verdict_cache_entries = 1024;
};

/// One coherent snapshot of a service's counters — what a monitoring
/// endpoint (net/server.h's GET /v1/stats) or an operator wants in a
/// single read: request flow, verdict-cache effectiveness, pool size and
/// shared-cache occupancy. Counters are sampled individually (each is
/// atomic; the snapshot is not a transaction across them), which is the
/// right fidelity for monitoring.
struct ServiceStats {
  size_t requests_submitted = 0;
  size_t requests_completed = 0;
  size_t requests_failed = 0;
  /// Accepted but not yet finished (queued or executing) — what a load
  /// balancer (the shard router) reads to see how busy a backend is.
  size_t requests_inflight = 0;
  size_t verdict_cache_hits = 0;
  size_t verdict_cache_misses = 0;
  size_t pool_threads = 0;
  size_t pool_tasks_executed = 0;
  /// Shared OracleCache occupancy/traffic; all zero when caching is off.
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
};

/// The serving front-end of the library — the paper's dichotomy turned
/// into a routing policy.
///
/// ShapleyService accepts typed SvcRequests and answers typed SvcResponses.
/// Submit() is non-blocking: the request is queued on the service's
/// long-lived ThreadPool, executed when a worker frees up, and its response
/// handed to a completion callback (or a future) on that worker.
/// Every request is classified (ClassifySvcComplexity) and the verdict is
/// embedded in its response; unless overridden, the verdict also routes
/// the request — the lifted via-FGMC engine on the tractable hierarchical
/// sjf-CQ side, guarded brute force otherwise, and a structured SvcError
/// (never a stray exception) when neither applies. The pool, the
/// size-aware OracleCache and the registry are owned here as process-wide
/// shared state: one service instance is the intended lifetime for a whole
/// serving process, and every caller — server, router, CLI, benches —
/// reaches the engines through it.
///
/// Thread-safety: Submit/Compute may be called from any number of client
/// threads concurrently. Engines are instantiated per request
/// from the registry, so no engine state is shared across requests.
///
/// Failure discipline: Execute never throws — every failure (capacity,
/// unsupported class, deadline, cancellation, engine error) becomes
/// SvcResponse::error, so a worker thread can never die on a request and
/// no completion ever sees an engine exception.
class ShapleyService {
 public:
  explicit ShapleyService(ServiceOptions options = {},
                          EngineRegistry registry = EngineRegistry::Default());
  ~ShapleyService();

  ShapleyService(const ShapleyService&) = delete;
  ShapleyService& operator=(const ShapleyService&) = delete;

  /// Queues one request; non-blocking. `done` runs exactly once with the
  /// response: on the pool worker that executed it, or inline when the
  /// service is shutting down. `arrival` is when the request reached this
  /// process; its stats.queue_ms counts from there.
  void Submit(SvcRequest request, std::function<void(SvcResponse)> done,
              std::chrono::steady_clock::time_point arrival =
                  std::chrono::steady_clock::now());

  /// The same, answered through a future that is always eventually ready
  /// and never throws on get().
  std::future<SvcResponse> Submit(SvcRequest request);

  /// Blocking convenience: executes the request inline on the calling
  /// thread (no queue hop; engine-internal work still fans across the
  /// pool when threads > 1). queue_ms counts from `arrival`.
  SvcResponse Compute(SvcRequest request,
                      std::chrono::steady_clock::time_point arrival =
                          std::chrono::steady_clock::now());

  /// Stops accepting work; queued-but-unstarted requests resolve with
  /// kCancelled. Idempotent. Also called by the destructor, which then
  /// drains the pool.
  void Shutdown();

  const EngineRegistry& registry() const { return registry_; }
  const ServiceOptions& options() const { return options_; }

  /// The shared pool (never null; size options().threads resolved).
  ThreadPool* pool() { return pool_.get(); }
  /// The shared cache; null when options().use_cache is false.
  OracleCache* cache() { return cache_.get(); }

  size_t requests_submitted() const { return submitted_.load(); }
  size_t requests_completed() const { return completed_.load(); }
  size_t requests_failed() const { return failed_.load(); }
  size_t requests_inflight() const { return inflight_.load(); }

  /// Requests whose classification was served from the verdict cache.
  size_t verdict_cache_hits() const { return verdict_cache_.hits(); }
  size_t verdict_cache_misses() const { return verdict_cache_.misses(); }

  /// One-call counter snapshot (see ServiceStats) — the source of the
  /// network front's /v1/stats endpoint.
  ServiceStats Stats() const;

 private:
  SvcResponse Execute(const SvcRequest& request,
                      std::chrono::steady_clock::time_point arrival);

  /// Registry factory + shared-context install (pool when parallel, cache,
  /// d-DNNF circuit sharing).
  std::shared_ptr<SvcEngine> MakeConfiguredEngine(
      const EngineRegistry::Entry& entry) const;

  /// Dichotomy routing (exact engines first; the sampling engine only when
  /// the request allows approximation and nothing exact admits); on
  /// failure fills response->error and returns null.
  std::shared_ptr<SvcEngine> Route(const SvcRequest& request,
                                   size_t num_endogenous,
                                   SvcResponse* response) const;

  /// ClassifySvcComplexity through the verdict cache. When `recorder` is
  /// non-null, records the verdict-cache lookup as a "cache" span (with a
  /// hit=true|false attribute) nested under the caller's open span.
  DichotomyVerdict Classify(const BooleanQuery& query,
                            obs::TraceRecorder* recorder = nullptr);

  const ServiceOptions options_;
  const EngineRegistry registry_;
  std::unique_ptr<OracleCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  VerdictCache verdict_cache_;
  ExecContext context_;  ///< Installed on registry-created engines.
  std::atomic<bool> shutting_down_{false};
  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> failed_{0};
  std::atomic<size_t> inflight_{0};
};

}  // namespace shapley

#endif  // SHAPLEY_SERVICE_SHAPLEY_SERVICE_H_
