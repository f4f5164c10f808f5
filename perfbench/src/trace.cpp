#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

// The innermost open span on this thread (0 = none) and the thread's
// recorder-assigned number. One tracer is live per process, so these need
// not be keyed by tracer.
thread_local std::uint64_t t_current_span = 0;
thread_local std::uint32_t t_thread_number = 0;

double median_of(std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(SteadyClock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - epoch_)
      .count();
}

std::uint64_t Tracer::allocate_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

std::uint32_t Tracer::thread_number() {
  if (t_thread_number == 0) {
    std::lock_guard lock(mutex_);
    t_thread_number = next_thread_++;
  }
  return t_thread_number;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name = name;
  span_.id = tracer.allocate_id();
  span_.parent = t_current_span;
  span_.request = request;
  span_.thread = tracer.thread_number();
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_current_span = saved_parent_;
  tracer_->record(span_);
}

std::map<std::string, SpanSummary> Tracer::summarize() const {
  std::vector<Span> spans;
  {
    std::lock_guard lock(mutex_);
    spans = spans_;
  }
  // Children of each span, as intervals.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }

  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    const std::int64_t duration = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t open = s.start_ns;
      for (const auto& [begin, end] : intervals) {
        const std::int64_t lo = std::max(begin, open);
        const std::int64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          open = hi;
        }
      }
    }
    durations[s.name].push_back(static_cast<double>(duration) * 1e-6);
    self_ms[s.name] += static_cast<double>(duration - covered) * 1e-6;
  }

  std::map<std::string, SpanSummary> summary;
  for (auto& [name, values] : durations) {
    summary[name] = SpanSummary{values.size(), median_of(values), self_ms[name]};
  }
  return summary;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mutex_);
  out << "{\"traceEvents\":[\n";
  char line[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}%s\n",
                  s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
