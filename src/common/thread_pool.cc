#include "common/thread_pool.h"

#include <algorithm>

namespace zeus::common {

namespace {
thread_local bool tls_in_worker = false;
}  // namespace

bool ThreadPool::InWorkerThread() { return tls_in_worker; }

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int n, const std::function<void(int)>& fn) {
  // Run inline when there is no pool to use — or when we *are* the pool: a
  // worker that blocked on its own fan-out could starve the tasks it waits
  // for.
  if (n <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 ||
      ThreadPool::InWorkerThread()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // At most one contiguous chunk per worker, and a completion count of this
  // call's own: ThreadPool::Wait() would also wait for every other caller's
  // tasks in the shared pool, which under steady load never goes idle.
  const int chunks = std::min(n, pool->num_threads());
  std::mutex mu;
  std::condition_variable cv;
  int remaining = chunks;
  for (int c = 0; c < chunks; ++c) {
    const int lo = static_cast<int>(static_cast<long long>(c) * n / chunks);
    const int hi =
        static_cast<int>(static_cast<long long>(c + 1) * n / chunks);
    pool->Submit([&fn, &mu, &cv, &remaining, lo, hi] {
      for (int i = lo; i < hi; ++i) fn(i);
      // Notify under the lock: the caller cannot return (destroying mu and
      // cv) until this task releases it.
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

}  // namespace zeus::common
