#include "shapley/service/shapley_service.h"

#include <algorithm>
#include <typeinfo>
#include <utility>

#include "shapley/analysis/classifier.h"
#include "shapley/approx/sampling.h"
#include "shapley/engines/fgmc.h"

namespace shapley {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// values sorted by descending value, ties by fact order, first k.
std::vector<std::pair<Fact, BigRational>> TopK(
    const std::map<Fact, BigRational>& values, size_t k) {
  std::vector<std::pair<Fact, BigRational>> ranked(values.begin(),
                                                   values.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return b.second < a.second;
                     return a.first < b.first;
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace

std::string ToString(SvcMode mode) {
  switch (mode) {
    case SvcMode::kAllValues:
      return "all-values";
    case SvcMode::kMaxValue:
      return "max-value";
    case SvcMode::kTopK:
      return "top-k";
    case SvcMode::kClassifyOnly:
      return "classify-only";
  }
  return "?";
}

ShapleyService::ShapleyService(ServiceOptions options, EngineRegistry registry)
    : options_(options),
      registry_(std::move(registry)),
      verdict_cache_(options.verdict_cache_entries) {
  if (options_.use_cache) {
    cache_ = std::make_unique<OracleCache>();
  }
  size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  // Engine-internal fan-out only pays off with real parallelism; with one
  // worker the engines run their serial (deterministic-order) paths.
  context_ =
      ExecContext{threads > 1 ? pool_.get() : nullptr, cache_.get()};
}

ShapleyService::~ShapleyService() {
  Shutdown();
  pool_.reset();  // Drains queued requests (each resolves kCancelled).
}

void ShapleyService::Shutdown() { shutting_down_.store(true); }

ServiceStats ShapleyService::Stats() const {
  ServiceStats stats;
  stats.requests_submitted = submitted_.load(std::memory_order_relaxed);
  stats.requests_completed = completed_.load(std::memory_order_relaxed);
  stats.requests_failed = failed_.load(std::memory_order_relaxed);
  stats.requests_inflight = inflight_.load(std::memory_order_relaxed);
  stats.verdict_cache_hits = verdict_cache_.hits();
  stats.verdict_cache_misses = verdict_cache_.misses();
  stats.pool_threads = pool_->num_threads();
  stats.pool_tasks_executed = pool_->tasks_executed();
  if (cache_ != nullptr) {
    stats.cache_entries = cache_->size();
    stats.cache_bytes = cache_->bytes_used();
    stats.cache_hits = cache_->hits();
    stats.cache_misses = cache_->misses();
    stats.cache_evictions = cache_->evictions();
  }
  return stats;
}

void ShapleyService::Submit(SvcRequest request,
                            std::function<void(SvcResponse)> done,
                            Clock::time_point arrival) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (shutting_down_.load()) {
    SvcResponse response;
    response.mode = request.mode;
    response.error = SvcError{SvcErrorCode::kCancelled,
                              "service is shutting down", ""};
    failed_.fetch_add(1, std::memory_order_relaxed);
    done(std::move(response));
    return;
  }
  auto shared = std::make_shared<SvcRequest>(std::move(request));
  inflight_.fetch_add(1, std::memory_order_relaxed);
  pool_->Submit([this, shared, done = std::move(done), arrival] {
    done(Execute(*shared, arrival));
  });
}

std::future<SvcResponse> ShapleyService::Submit(SvcRequest request) {
  auto promise = std::make_shared<std::promise<SvcResponse>>();
  std::future<SvcResponse> future = promise->get_future();
  Submit(std::move(request), [promise](SvcResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

SvcResponse ShapleyService::Compute(SvcRequest request,
                                    Clock::time_point arrival) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  return Execute(request, arrival);
}

std::shared_ptr<SvcEngine> ShapleyService::MakeConfiguredEngine(
    const EngineRegistry::Entry& entry) const {
  std::shared_ptr<SvcEngine> engine = entry.factory();
  engine->set_exec_context(context_);
  // A d-DNNF-backed oracle additionally shares compiled circuits through
  // the cache (one compilation serves FGMC, PQE and repeated probes).
  if (auto* via_fgmc = dynamic_cast<SvcViaFgmc*>(engine.get())) {
    if (auto* lineage =
            dynamic_cast<LineageFgmc*>(via_fgmc->oracle().get())) {
      lineage->set_circuit_cache(cache_.get());
    }
  }
  return engine;
}

namespace {

// Routing preference among admitting engines: class specialists first
// (their restriction certifies a polynomial algorithm — the tractable side
// of the dichotomy), then guarded exhaustive engines (cheap and exact for
// small instances of any class), then compilation-based engines (exact,
// but worst-case exponential behind a node cap), and approximate engines
// strictly last — an estimate never shadows an available exact answer.
int RoutePreference(const EngineCaps& caps) {
  if (caps.approximate) return 3;
  if (caps.hierarchical_sjf_cq_only) return 0;
  if (caps.all_query_classes) return 1;
  return 2;
}

}  // namespace

std::shared_ptr<SvcEngine> ShapleyService::Route(const SvcRequest& request,
                                                 size_t num_endogenous,
                                                 SvcResponse* response) const {
  // Scan the whole registry by capability, so Register()-ing an engine
  // extends routing without touching this code. The exhaustive engines
  // additionally honor the kBruteForceMaxEndogenous fallback guard: beyond
  // it they are not "an engine", they are a sweep that cannot finish.
  // Approximate engines are exempt from that guard (their cost is the
  // sample budget) but require the request's explicit opt-in.
  const EngineRegistry::Entry* best = nullptr;
  for (const std::string& name : registry_.Names()) {
    const EngineRegistry::Entry* entry = registry_.Find(name);
    if (entry->caps.approximate && !request.allow_approx) continue;
    if (entry->caps.all_query_classes && !entry->caps.approximate &&
        num_endogenous > kBruteForceMaxEndogenous) {
      continue;
    }
    if (!CapsAdmit(entry->caps, *request.query, num_endogenous, nullptr)) {
      continue;
    }
    if (best == nullptr ||
        RoutePreference(entry->caps) < RoutePreference(best->caps)) {
      best = entry;
    }
  }
  if (best == nullptr) {
    std::string message =
        "no registered engine admits |Dn| = " +
        std::to_string(num_endogenous) + " for [" +
        response->verdict.query_class + "] (exhaustive fallback guard: " +
        std::to_string(kBruteForceMaxEndogenous) +
        "): " + response->verdict.justification;
    if (!request.allow_approx) {
      message +=
          " — set allow_approx to fall through to the sampling engine's "
          "(eps, delta) estimates";
    }
    response->error =
        SvcError{SvcErrorCode::kCapacityExceeded, std::move(message), ""};
    return nullptr;
  }
  response->routed_by_classifier = true;
  return MakeConfiguredEngine(*best);
}

DichotomyVerdict ShapleyService::Classify(const BooleanQuery& query,
                                          obs::TraceRecorder* recorder) {
  // Key by dynamic type + text: two query classes could conceivably print
  // alike, and the verdict depends on the class.
  const std::string key =
      std::string(typeid(query).name()) + '\x1f' + query.ToString();
  DichotomyVerdict verdict;
  if (recorder != nullptr) recorder->Begin("cache");
  const bool hit = verdict_cache_.Lookup(key, &verdict);
  if (recorder != nullptr) {
    recorder->Attr("hit", hit ? "true" : "false");
    recorder->End();
  }
  if (hit) return verdict;
  try {
    verdict = ClassifySvcComplexity(query);
  } catch (const std::exception& e) {
    // An honest kUnknown: classification failing must not take the
    // request down with it — routing falls back to the guarded
    // brute-force path. NOT cached: the throw may be transient (e.g.
    // allocation pressure), and pinning "unclassified" would misroute
    // every later request of a genuinely tractable query.
    verdict = DichotomyVerdict{};
    verdict.query_class = "unclassified";
    verdict.justification = std::string("classifier failed: ") + e.what();
    return verdict;
  }
  verdict_cache_.Insert(key, verdict);
  return verdict;
}

SvcResponse ShapleyService::Execute(const SvcRequest& request,
                                    Clock::time_point arrival) {
  const Clock::time_point start = Clock::now();
  SvcResponse response;
  response.mode = request.mode;
  response.stats.queue_ms = MsBetween(arrival, start);

  // Opt-in tracing via a hierarchical span recorder: "route" covers
  // classification + engine selection and encloses the verdict-"cache"
  // lookup; "engine" covers the engine run(s) and is decomposed further by
  // the engines themselves through ExecContext::trace (compile/delta/
  // accumulate, per-checkpoint sampling rounds). A fronting server injects
  // its own recorder (rooted at "backend", wrapping decode/encode too) and
  // owns Finish(); the in-process path records into a local "service" root
  // and ships the finished tree on the response. Untraced requests carry
  // recorder == nullptr end to end — no allocation, no locking.
  std::unique_ptr<obs::TraceRecorder> owned_recorder;
  obs::TraceRecorder* recorder = request.recorder;
  if (request.trace && recorder == nullptr) {
    owned_recorder =
        std::make_unique<obs::TraceRecorder>("service", request.trace_context);
    recorder = owned_recorder.get();
  }

  auto finish = [&](SvcResponse&& done) -> SvcResponse {
    done.stats.exec_ms = MsBetween(start, Clock::now());
    if (owned_recorder != nullptr) done.trace = owned_recorder->Finish();
    (done.ok() ? completed_ : failed_).fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return std::move(done);
  };
  auto fail = [&](SvcErrorCode code, std::string message,
                  std::string engine = "") -> SvcResponse {
    response.error = SvcError{code, std::move(message), std::move(engine)};
    return finish(std::move(response));
  };

  if (shutting_down_.load()) {
    return fail(SvcErrorCode::kCancelled, "service is shutting down");
  }
  if (request.cancel != nullptr && request.cancel->load()) {
    return fail(SvcErrorCode::kCancelled, "request was cancelled");
  }
  if (request.deadline.has_value() && start > *request.deadline) {
    return fail(SvcErrorCode::kDeadlineExceeded,
                "deadline passed " +
                    std::to_string(MsBetween(*request.deadline, start)) +
                    " ms before execution started");
  }
  if (request.query == nullptr) {
    return fail(SvcErrorCode::kInvalidRequest, "request has no query");
  }

  // Every request is classified and carries the verdict in its response.
  // "route" spans classification + engine selection; Classify nests the
  // verdict-cache lookup under it as a "cache" child. Every exit from the
  // selection block closes the span — a fronting recorder outlives this
  // call and must get its stack back balanced.
  if (recorder != nullptr) recorder->Begin("route");
  auto end_route = [&] {
    if (recorder != nullptr) recorder->End();
  };
  response.verdict = Classify(*request.query, recorder);
  if (request.mode == SvcMode::kClassifyOnly) {
    end_route();
    return finish(std::move(response));
  }

  const size_t n = request.db.NumEndogenous();
  std::shared_ptr<SvcEngine> engine;
  if (!request.engine.empty()) {
    const EngineRegistry::Entry* entry = registry_.Find(request.engine);
    if (entry == nullptr) {
      SvcError unknown = registry_.UnknownEngineError(request.engine);
      end_route();
      return fail(unknown.code, unknown.message);
    }
    std::string reason;
    if (!CapsAdmit(entry->caps, *request.query, n, &reason)) {
      const SvcErrorCode code = n > entry->caps.max_endogenous
                                    ? SvcErrorCode::kCapacityExceeded
                                    : SvcErrorCode::kUnsupportedQuery;
      end_route();
      return fail(code, reason, entry->name);
    }
    engine = MakeConfiguredEngine(*entry);
  } else {
    engine = Route(request, n, &response);
    if (engine == nullptr) {
      end_route();
      return finish(std::move(response));
    }
  }
  end_route();
  auto run_engine = [&](const std::shared_ptr<SvcEngine>& chosen) {
    response.engine = chosen->name();
    // The recorder rides into the engine's deep paths on a per-request
    // copy of the shared ExecContext.
    if (recorder != nullptr) {
      ExecContext traced = context_;
      traced.trace = recorder;
      chosen->set_exec_context(traced);
    }
    // Sampling engines take the request's (ε, δ, seed) contract plus its
    // cancel token and deadline, so a long sweep stays abortable mid-run.
    auto* sampler = dynamic_cast<SamplingSvc*>(chosen.get());
    if (sampler != nullptr) {
      sampler->set_params(request.approx);
      sampler->set_cancel(request.cancel);
      sampler->set_deadline(request.deadline);
    }
    try {
      switch (request.mode) {
        case SvcMode::kAllValues:
          response.values = chosen->AllValues(*request.query, request.db);
          break;
        case SvcMode::kMaxValue:
          response.ranked.push_back(
              chosen->MaxValue(*request.query, request.db));
          break;
        case SvcMode::kTopK:
          response.ranked =
              TopK(chosen->AllValues(*request.query, request.db),
                   request.top_k);
          break;
        case SvcMode::kClassifyOnly:
          break;  // Handled above.
      }
      // Estimates must be labeled as such: every answer an approximate
      // engine produced carries the realized (samples, half-width,
      // confidence) next to the values.
      if (sampler != nullptr) response.approx = sampler->last_info();
    } catch (const SvcException& e) {
      SvcError error = e.error();
      if (error.engine.empty()) error.engine = response.engine;
      response.error = std::move(error);
    } catch (const std::invalid_argument& e) {
      response.error =
          SvcError{SvcErrorCode::kInvalidRequest, e.what(), response.engine};
    } catch (const std::exception& e) {
      response.error =
          SvcError{SvcErrorCode::kEngineFailure, e.what(), response.engine};
    } catch (...) {
      // The "future.get() never throws" contract must hold even for
      // throws outside the std::exception hierarchy.
      response.error = SvcError{SvcErrorCode::kEngineFailure,
                                "non-standard exception", response.engine};
    }
  };

  // Oracle-cache traffic attributed to THIS request's engine run: deltas
  // of the shared cache's counters across the span, attached as engine-
  // span attributes (the per-table aggregates feed /metrics separately).
  size_t cache_hits_before = 0, cache_misses_before = 0;
  if (recorder != nullptr) {
    recorder->Begin("engine");
    if (cache_ != nullptr) {
      cache_hits_before = cache_->hits();
      cache_misses_before = cache_->misses();
    }
  }
  run_engine(engine);

  // The allow_approx promise is "complete instead of refuse", and it must
  // survive an exact engine dying on capacity at *run* time too (e.g. the
  // d-DNNF compiler blowing its node cap on an instance routing could not
  // pre-screen): retry once with an admitting approximate engine. Only on
  // auto-routed requests — explicit overrides asked for that engine,
  // capacity error and all.
  if (!response.ok() &&
      response.error->code == SvcErrorCode::kCapacityExceeded &&
      request.allow_approx && request.engine.empty() &&
      !engine->caps().approximate) {
    for (const std::string& name : registry_.Names()) {
      const EngineRegistry::Entry* entry = registry_.Find(name);
      if (!entry->caps.approximate) continue;
      if (!CapsAdmit(entry->caps, *request.query, n, nullptr)) continue;
      response.error.reset();
      response.values.clear();
      response.ranked.clear();
      run_engine(MakeConfiguredEngine(*entry));
      break;
    }
  }
  // One span covers the engine run INCLUDING the approx capacity retry —
  // it is the request's total engine time, which is what the latency
  // histograms want.
  if (recorder != nullptr) {
    recorder->Attr("engine", response.engine);
    if (cache_ != nullptr) {
      recorder->Attr("cache_hits",
                     std::to_string(cache_->hits() - cache_hits_before));
      recorder->Attr("cache_misses",
                     std::to_string(cache_->misses() - cache_misses_before));
    }
    recorder->End();
  }
  return finish(std::move(response));
}

}  // namespace shapley
