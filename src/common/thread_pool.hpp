#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qucad {

/// Fixed-size pool of threads running parallel_for chunks. The thread that
/// calls parallel_for is one of them: a pool of size n owns n - 1 workers,
/// and a size-1 pool runs everything inline. Exceptions thrown by a body
/// propagate out of parallel_for (first one wins).
class ThreadPool {
 public:
  /// num_threads == 0 sizes the pool by std::thread::hardware_concurrency()
  /// (4 when unknown).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads running chunks at once, the caller included.
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs body(i) for i in [0, count): the caller claims indices alongside
  /// up to size() - 1 workers, and returns once every index has run.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Process-wide pool sized to the hardware; lazily constructed.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace qucad
