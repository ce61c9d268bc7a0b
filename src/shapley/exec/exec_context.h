#ifndef SHAPLEY_EXEC_EXEC_CONTEXT_H_
#define SHAPLEY_EXEC_EXEC_CONTEXT_H_

namespace shapley {

namespace obs {
class TraceRecorder;
}  // namespace obs

class OracleCache;
class ThreadPool;

/// Optional shared execution resources, installed on engines by
/// ShapleyService (service/shapley_service.h) or by hand. Null members mean
/// "serial" and "uncached"; engines must produce identical values either
/// way — the context may only change how fast they are obtained. The
/// installer keeps ownership and must outlive every engine call that uses
/// the context.
struct ExecContext {
  ThreadPool* pool = nullptr;
  OracleCache* cache = nullptr;
  /// Per-request deep-path profiling hook (obs/trace.h): non-null only
  /// while serving a TRACED request, in which case the engine decomposes
  /// its work into phase spans (compile / delta / accumulate, sampling
  /// rounds) on this recorder. Engines must null-check before ANY trace
  /// work — a null recorder is the hot path and must stay allocation- and
  /// lock-free. Recording may not change computed values.
  obs::TraceRecorder* trace = nullptr;
};

}  // namespace shapley

#endif  // SHAPLEY_EXEC_EXEC_CONTEXT_H_
