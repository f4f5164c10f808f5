#pragma once

// In-memory span recorder for the traced benchmark pass. Spans are taken in
// the benchmark's own code, around the calls it makes into each library
// layer (the library itself is not instrumented). A disabled tracer records
// nothing and costs one branch per scope, so the untraced pass measures the
// program alone.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  const char* name = "";      ///< layer.operation, a string literal
  std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;   ///< enclosing span on the same thread, or 0
  std::uint64_t request = 0;  ///< request id shared by one request's spans
  std::uint32_t thread = 0;   ///< recorder-assigned thread number
};

/// Per-name summary computed from the recorded spans.
struct SpanSummary {
  std::size_t count = 0;
  double p50_ms = 0.0;         ///< median duration
  double total_self_ms = 0.0;  ///< sum of durations minus child coverage
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, records on destruction. Nested
  /// scopes on one thread become children of the enclosing scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Names the span after the call it times has shown what it did.
    void rename(const char* name) { span_.name = name; }

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    Span span_;
    std::uint64_t saved_parent_ = 0;
  };

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// Per-name durations and self times (duration minus the union of the
  /// span's children's intervals).
  std::map<std::string, SpanSummary> summarize() const;

  std::size_t size() const;

  /// Writes every span as a Chrome trace-event JSON file (load it in
  /// chrome://tracing or ui.perfetto.dev). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  void record(const Span& span);

  const bool enabled_;
  const SteadyClock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::uint32_t next_thread_ = 1;  // guarded by mutex_

  std::uint64_t allocate_id();
  std::uint32_t thread_number();
};

}  // namespace perfbench
