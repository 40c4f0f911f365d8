#ifndef ZEUS_COMMON_THREAD_POOL_H_
#define ZEUS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace zeus::common {

// Minimal fixed-size thread pool. Used by the APFG's batch pre-extraction
// (§5: the paper parallelizes feature extraction over multiple GPUs; here,
// over CPU threads). Tasks are plain std::function<void()>; Wait() blocks
// until every submitted task has finished.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and all workers are idle — including
  // tasks other threads submitted.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True when the calling thread is a worker of *any* ThreadPool in the
  // process. ParallelFor uses this to run nested parallel sections inline:
  // a worker that submitted tasks and then blocked in Wait() could never
  // drain its own `active_` count, so nested fan-out would deadlock.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;   // signals workers
  std::condition_variable cv_idle_;   // signals Wait()
  int active_ = 0;
  bool stop_ = false;
};

// Runs fn(i) for i in [0, n) across the pool (or inline when pool is null,
// single-threaded, or the caller is itself a pool worker). The range is
// split into at most num_threads() contiguous chunks, and the call returns
// as soon as its own chunks finish: tasks other callers submitted to the
// same pool do not hold it up.
void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn);

}  // namespace zeus::common

#endif  // ZEUS_COMMON_THREAD_POOL_H_
