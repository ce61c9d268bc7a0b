#ifndef SHAPLEY_EXEC_THREAD_POOL_H_
#define SHAPLEY_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace shapley {

/// A fixed-size worker pool with task submission and fork-join parallel
/// loops — the execution substrate of the exec runtime (Section "exec" of
/// the architecture; ShapleyService owns the process-wide pool).
///
/// The hard problems this library computes (#P-hard counting, exponential
/// brute-force sweeps) are embarrassingly batchable: per-fact and per-mask
/// work items are independent and share only read-only inputs. ParallelFor
/// is designed for exactly that shape:
///  - chunks are claimed dynamically, so uneven work items balance;
///  - the calling thread participates, so nesting a ParallelFor inside a
///    pool task (batch over instances → loop over facts) cannot deadlock;
///  - the first exception thrown by the body is rethrown at the call site
///    and the remaining chunks are abandoned.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 → one per hardware thread).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task; returns a future for its result (exceptions
  /// propagate through the future).
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs body(i) for every i in [begin, end), splitting the range into
  /// grain-sized chunks claimed dynamically by the workers and the calling
  /// thread. Blocks until every index was processed (or abandoned after a
  /// failure). Choose `grain` so one chunk amortizes the claim overhead —
  /// e.g. a few thousand for cheap per-mask work, 1 for per-fact oracle
  /// calls.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body, size_t grain = 1);

  /// Number of queue tasks executed so far (monotone; stats only).
  size_t tasks_executed() const { return tasks_executed_.load(); }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
  std::atomic<size_t> tasks_executed_{0};
};

}  // namespace shapley

#endif  // SHAPLEY_EXEC_THREAD_POOL_H_
