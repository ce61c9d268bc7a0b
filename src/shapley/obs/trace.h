#ifndef SHAPLEY_OBS_TRACE_H_
#define SHAPLEY_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shapley::obs {

/// Per-request tracing: a request that opts in (SvcRequest::trace, or a
/// `"trace"` field on the wire) is profiled into ONE hierarchical span
/// tree, cluster-wide. The router opens the root and one child hop span
/// per backend attempt (failover included, tagged with the upstream
/// identity); each backend records decode → route(cache) → engine →
/// encode under its own root; the engine span decomposes further by
/// instrumentation hooks in the deep paths (FGMC compile / per-fact delta
/// / rational accumulation, per-checkpoint sampling rounds); and the
/// router grafts each backend subtree under its hop span, so the wire
/// `"trace"` block of a routed request is a single coherent tree.
///
/// The glue is a TraceContext — a 128-bit trace id plus the parent span
/// id, seeded DETERMINISTICALLY from the request bytes — carried on the
/// wire as an optional request field, so every process working on one
/// request agrees on its identity without clock sync or coordination.
///
/// Tracing is strictly opt-in: a disabled-trace request allocates no
/// recorder and takes no trace lock anywhere on the hot path (enforced by
/// bench_obs_overhead). This header stays dependency-light on purpose —
/// service/request.h embeds RequestTrace in every SvcResponse.

/// Cluster-wide identity of one traced request. The 128-bit trace id is
/// derived from the request bytes (FNV-1a over two independent bases), so
/// the router and an out-of-band debugger derive the SAME id from the
/// same capture — trace ids are reproducible, like everything else in the
/// serving stack. parent_span names the span the receiving process must
/// nest under; 0 means "you are the root".
struct TraceContext {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span = 0;

  /// A context is "set" when the trace id is non-zero (Derive never
  /// returns zero: it folds in a non-zero offset basis).
  bool valid() const { return (trace_hi | trace_lo) != 0; }

  /// Deterministic 128-bit id from the raw request bytes.
  static TraceContext Derive(std::string_view request_bytes);

  /// 32 lowercase hex chars (hi then lo).
  std::string TraceIdHex() const;
};

/// 16 lowercase hex chars, zero-padded.
std::string HexU64(uint64_t value);
/// Strict inverse of HexU64: exactly 16 lowercase hex chars.
std::optional<uint64_t> ParseHexU64(std::string_view text);
/// Strict inverse of TraceIdHex: exactly 32 lowercase hex chars.
std::optional<std::pair<uint64_t, uint64_t>> ParseTraceIdHex(
    std::string_view text);

/// One node of the span tree. start_ms is the offset from the PARENT
/// span's start (the root's is 0), so well-formedness is a local check —
/// child.start_ms >= 0 and child.start_ms + child.ms <= parent.ms — and
/// grafting a remote subtree under a hop span only touches the grafted
/// root's offset, never the clocks of two processes.
struct TraceSpan {
  std::string name;  // decode | route | cache | engine | compile | ...
  double start_ms = 0.0;
  double ms = 0.0;
  /// Small typed payload per span (backend identity on hop spans,
  /// samples/retired counts on sampling rounds, cache hit/miss deltas on
  /// the engine span). Order is preserved onto the wire.
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<TraceSpan> children;

  const std::string* FindAttr(const std::string& key) const;
};

/// Every child of every span nests within its parent's [0, ms] window.
bool WellNested(const TraceSpan& span);

struct RequestTrace {
  TraceContext context;
  TraceSpan root;

  /// Total traced wall time — the root span's duration.
  double TotalMs() const { return root.ms; }
  /// Depth-first search (pre-order) for the first span named `name`.
  const TraceSpan* Find(const std::string& name) const;
};

/// Steady-clock stopwatch for one ad-hoc measurement.
class SpanTimer {
 public:
  SpanTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Builds one span tree while a request executes. Allocated ONLY for
/// traced requests (the hot path carries a null pointer); every method is
/// mutex-guarded so the layers of one request — which may hand the request
/// between threads at queue boundaries — can share a recorder, but the
/// Begin/End discipline itself is a stack: spans recorded by whichever
/// thread currently owns the request, innermost-open first.
///
/// The epoch constructor backdates the root: a server that measures decode
/// BEFORE it knows the request wants tracing constructs the recorder with
/// the pre-decode timestamp and attaches the decode measurement with
/// AddClosed, and the offsets come out as if the recorder had existed all
/// along.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::string root_name, TraceContext context = {});
  TraceRecorder(std::string root_name, TraceContext context,
                std::chrono::steady_clock::time_point epoch);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a child of the innermost open span.
  void Begin(const std::string& name);
  /// Attaches an attribute to the innermost open span.
  void Attr(const std::string& key, std::string value);
  /// Closes the innermost open span (no-op on the root — Finish owns it).
  void End();
  /// Closes the innermost open span and grafts `subtree` (a remote
  /// process's finished tree) inside it: the subtree keeps its own
  /// internal offsets, and its start inside the closing span is the
  /// symmetric network-delay estimate max(0, (span_ms - subtree_ms) / 2) —
  /// no cross-process clock comparison anywhere.
  void EndGraft(TraceSpan subtree);
  /// Adds an already-measured child (start relative to the innermost open
  /// span's start) without touching the open stack.
  void AddClosed(const std::string& name, double start_ms, double ms);

  /// Closes everything still open (root included), normalizes containment
  /// bottom-up (a parent grows to cover a grafted child rather than
  /// truncating it) and returns the finished tree. The recorder must not
  /// be used afterwards.
  RequestTrace Finish();

  const TraceContext& context() const { return context_; }

 private:
  struct Open {
    TraceSpan span;
    double start_abs = 0.0;  // Milliseconds since epoch_.
  };

  double NowMs() const;
  void CloseTop(TraceSpan* graft);  // mutex_ held.

  mutable std::mutex mutex_;
  TraceContext context_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Open> open_;  // open_[0] is the root, back() is innermost.
};

}  // namespace shapley::obs

#endif  // SHAPLEY_OBS_TRACE_H_
