#pragma once

// Shared pieces of the workload benchmark: command-line arguments, the
// result every workload returns, per-status outcome accounting, percentile
// helpers, and the metric catalogue that BENCHMARK.json names.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics on
/// an untraced run and the per-layer metrics on a traced run; `meta` holds
/// run metadata (printed on its own line, never part of the result object).
struct Result {
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> meta;

  /// Records an output check; a failed check marks the run incorrect.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value);
  void note(const std::string& key, const std::string& value) { meta[key] = value; }
  void note(const std::string& key, double value);
};

/// The metric catalogue (name -> unit), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Thread-safe count of request outcomes per StatusCode. Every failed
/// request counts against error rate: shed, expired, transport errors and
/// any other non-OK status.
class Outcomes {
 public:
  void add(qucad::StatusCode code) {
    counts_[static_cast<std::size_t>(code)].fetch_add(1, std::memory_order_relaxed);
  }
  void add(const qucad::Status& status) { add(status.code()); }
  std::uint64_t count(qucad::StatusCode code) const {
    return counts_[static_cast<std::size_t>(code)].load(std::memory_order_relaxed);
  }
  std::uint64_t attempted() const;
  std::uint64_t failed() const { return attempted() - count(qucad::StatusCode::kOk); }
  /// Copies attempted/failed into `result` and one meta entry per non-zero
  /// status code.
  void report(Result& result) const;

 private:
  static constexpr std::size_t kCodes = 9;  // kOk .. kInternal
  std::array<std::atomic<std::uint64_t>, kCodes> counts_{};
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 for an empty input.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// The highest of {0.999, 0.99, 0.98, 0.95, 0.9, 0.5} that leaves at least
/// ten samples beyond it.
double supported_tail(std::size_t samples);

/// One finished request: when it finished (seconds from the start of the
/// measured window), its latency, and whether it succeeded.
struct Completion {
  double at_s = 0.0;
  double latency_ms = 0.0;
  bool ok = false;
};

/// What one serving phase observed, request by request.
struct Served {
  std::vector<Completion> completions;
  std::uint64_t right_label = 0;  ///< OK predictions matching the input's label
  std::uint64_t malformed = 0;    ///< OK predictions failing the output checks

  std::uint64_t ok() const;
  std::vector<double> latencies_ms() const;
  void append(const Served& other);
};

/// Sets the end-to-end metrics of a serving workload from its measured
/// window: completions per second and latency p50/p90 as medians over
/// fixed-length time slices (a short host disturbance then moves one slice,
/// not the result), and success rate; `accuracy` is the service's accuracy
/// on the test set. Whole-window figures and the accuracy on the window's
/// traffic go into the metadata.
void set_serving_metrics(Result& result, const Served& served, double setup_s,
                         double window_s, double accuracy);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

double seconds_since(SteadyClock::time_point start);

/// Mean wall time of `fn(r)` over `repeats` calls, in microseconds — for
/// calls too short for a span to time without distorting them.
template <typename Fn>
double mean_us(int repeats, Fn&& fn) {
  const auto start = SteadyClock::now();
  for (int r = 0; r < repeats; ++r) fn(r);
  return seconds_since(start) * 1e6 / repeats;
}

/// Runs `setup` `repeats` times and returns the median wall time in
/// seconds. Before each repetition (untimed) `teardown` releases the
/// previous repetition's state and the process-wide compiled-executor
/// cache is cleared, so every setup starts cold; the last repetition's
/// state is what the caller measures against.
double median_setup_seconds(int repeats, const std::function<void()>& teardown,
                            const std::function<void()>& setup);

/// Seeded index stream in [0, n).
std::vector<std::size_t> seeded_indices(std::uint64_t seed, std::size_t count,
                                        std::size_t n);

/// Writes the tracer's spans as a Chrome trace named after the workload and
/// seed under args.trace_dir, and notes the file in the metadata.
void write_trace(Result& result, const Tracer& tracer, const Args& args);

/// Hardware threads of the host, as std::thread::hardware_concurrency()
/// would report them without the benchmark's wrap (see pool_size.cpp).
unsigned host_threads();

/// Fills metadata common to every run.
void note_run_metadata(Result& result, const Args& args);

Result run_serve_wire(const Args& args);
Result run_drift_adapt(const Args& args);

}  // namespace perfbench
