#ifndef SHAPLEY_SERVICE_REQUEST_H_
#define SHAPLEY_SERVICE_REQUEST_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "shapley/analysis/classifier.h"
#include "shapley/approx/approx.h"
#include "shapley/arith/big_rational.h"
#include "shapley/data/partitioned_database.h"
#include "shapley/engines/svc_error.h"
#include "shapley/obs/trace.h"
#include "shapley/query/boolean_query.h"

namespace shapley {

/// What a request asks of the service.
enum class SvcMode {
  kAllValues,     ///< Shapley value of every endogenous fact.
  kMaxValue,      ///< One fact of maximum value (Section 6.3).
  kTopK,          ///< The top_k highest-valued facts, descending.
  kClassifyOnly,  ///< Just the dichotomy verdict — no engine runs.
};

std::string ToString(SvcMode mode);

/// Cooperative cancellation flag, shared between a client and any number of
/// its in-flight requests. Setting it fails not-yet-started requests with
/// SvcErrorCode::kCancelled (requests already executing run to completion —
/// the exact engines have no safe preemption points).
using CancelToken = std::shared_ptr<std::atomic<bool>>;

inline CancelToken MakeCancelToken() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// One typed request: a Boolean query over a partitioned database, plus
/// serving directives. Requests are self-contained values — they can be
/// built on any thread and freely share queries/schemas/facts.
struct SvcRequest {
  QueryPtr query;
  PartitionedDatabase db;
  SvcMode mode = SvcMode::kAllValues;

  /// kTopK only: how many facts to return (clipped to |Dn|).
  size_t top_k = 3;

  /// Engine override by registry name ("brute", "lifted", "ddnnf",
  /// "permutations"). Empty = automatic dichotomy routing: the classifier
  /// verdict picks the lifted via-FGMC engine on the tractable hierarchical
  /// sjf-CQ side and falls back to guarded brute force otherwise.
  std::string engine;

  /// Opt-in to approximation: when set and no exact engine admits the
  /// instance (the #P-hard side of the dichotomy beyond the exhaustive
  /// guard), routing falls through to the Monte Carlo sampling engine
  /// instead of failing with kCapacityExceeded. The response then carries
  /// the (ε, δ) contract actually delivered in SvcResponse::approx.
  /// Exact engines are always preferred when any admits the instance.
  bool allow_approx = false;

  /// The approximation contract (ε, δ, seed, sample budget) used when the
  /// sampling engine serves this request — via allow_approx fallback or an
  /// explicit engine = "sampling" override.
  ApproxParams approx;

  /// Absolute deadline; a request past it when execution starts fails
  /// with kDeadlineExceeded without running its engine.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Optional cancellation token (see CancelToken).
  CancelToken cancel;

  /// Opt-in per-request tracing: the layers serving this request build a
  /// hierarchical span tree — decode → route(cache) → engine(compile /
  /// delta / accumulate, or per-checkpoint sampling rounds) → encode —
  /// into SvcResponse::trace, and the wire response carries it as a
  /// "trace" block. Off by default: an untraced request allocates no
  /// recorder and takes no trace lock anywhere on the hot path.
  bool trace = false;

  /// Cluster-propagated trace identity (obs/trace.h): set when the wire
  /// request carried a `"trace"` OBJECT (the router stamps one on traced
  /// requests it forwards), zero otherwise. Only meaningful with
  /// trace == true.
  obs::TraceContext trace_context;

  /// Process-local recorder injected by a fronting layer (the HTTP server
  /// owns the root span so decode/encode enclose the service's spans).
  /// When set, the service records into it and leaves SvcResponse::trace
  /// empty — the owner finishes the tree. Never serialized; like `cancel`,
  /// this member does not cross the wire.
  obs::TraceRecorder* recorder = nullptr;

  /// Convenience: deadline = now + budget.
  SvcRequest& WithTimeout(std::chrono::milliseconds budget) {
    deadline = std::chrono::steady_clock::now() + budget;
    return *this;
  }
};

/// Per-request timing, attached to every response.
struct RequestStats {
  /// Arrival → execution start: time waiting for a pool worker (a served
  /// request arrives when the event loop hands it over).
  double queue_ms = 0.0;
  double exec_ms = 0.0;   ///< Execution start → response ready.
};

/// The service's answer. Every response — success or failure — carries the
/// classifier verdict for its query: the dichotomy is part of the answer,
/// not a hidden routing detail.
struct SvcResponse {
  SvcMode mode = SvcMode::kAllValues;

  /// Dichotomy verdict of ClassifySvcComplexity (always populated once the
  /// request parsed; default-initialized kUnknown for malformed requests).
  DichotomyVerdict verdict;

  /// Name of the engine that served the request ("" when none ran).
  std::string engine;
  /// True when the engine was picked by dichotomy routing rather than a
  /// per-request override.
  bool routed_by_classifier = false;

  /// kAllValues result.
  std::map<Fact, BigRational> values;
  /// kMaxValue (size 1) / kTopK (size <= top_k) results, by descending
  /// value; ties broken by fact order for determinism.
  std::vector<std::pair<Fact, BigRational>> ranked;

  /// Populated iff an approximate engine served the request: the realized
  /// sample count, certified half-width and confidence (see ApproxInfo).
  /// Absent on every exact answer — its presence IS the "this value is an
  /// estimate" marker.
  std::optional<ApproxInfo> approx;

  std::optional<SvcError> error;
  RequestStats stats;

  /// Populated iff the request opted in (SvcRequest::trace) and no
  /// fronting layer injected its own recorder: the span tree recorded
  /// while serving this request. Volatile by nature (like `stats`) —
  /// record/replay comparisons strip it.
  std::optional<obs::RequestTrace> trace;

  bool ok() const { return !error.has_value(); }
};

}  // namespace shapley

#endif  // SHAPLEY_SERVICE_REQUEST_H_
