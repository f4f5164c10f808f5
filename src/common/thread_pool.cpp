#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>

namespace qucad {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 4 : hw;
  }
  // The thread calling parallel_for is the pool's last member.
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Everything below lives in this frame. A helper's last touch of it is
  // done.count_down(), and this frame outlives done.wait().
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto run_chunks = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < count;) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::size_t helpers = std::min(count, size()) - 1;
  std::latch done(static_cast<std::ptrdiff_t>(helpers));
  if (helpers > 0) {
    {
      std::lock_guard lock(mutex_);
      for (std::size_t h = 0; h < helpers; ++h) {
        tasks_.push([&] {
          run_chunks();
          done.count_down();
        });
      }
    }
    cv_.notify_all();
  }
  run_chunks();
  done.wait();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace qucad
