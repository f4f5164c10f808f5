#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "qnn/eval_cache.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

void Result::set(const std::string& name, double value) {
  for (const auto* catalogue : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& [metric, unit] : *catalogue) {
      if (metric == name) {
        metrics[name] = Metric{value, unit};
        return;
      }
    }
  }
  check(false, "metric '" + name + "' is not in the catalogue");
}

void Result::note(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  meta[key] = buffer;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"},
      {"throughput_rps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"success_rate", "fraction"},
      {"accuracy", "fraction"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"io.wire.predict_ms", "ms"},
      {"io.codec_us", "us"},
      {"io.self_ms", "ms"},
      {"serve.submit_ms", "ms"},
      {"serve.batch_size", "count"},
      {"serve.wait_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"serve.on_calibration_reuse_ms", "ms"},
      {"serve.on_calibration_new_ms", "ms"},
      {"serve.submit_batch_ms", "ms"},
      {"serve.days_per_s", "1/s"},
      {"backend.logits_batch_ms", "ms"},
      {"backend.sampled.logits_batch_ms", "ms"},
      {"backend.pure.logits_batch_ms", "ms"},
      {"backend.sampling_share", "fraction"},
      {"backend.build_ms", "ms"},
      {"sim.density.run_z_ms", "ms"},
      {"compress.admm_ms", "ms"},
      {"repo.match_us", "us"},
      {"repo.reuse_rate", "fraction"},
      {"repo.new_models", "count"},
      {"repo.failures", "count"},
      {"repo.build_repository_s", "s"},
      {"repo.build_cache_hits", "count"},
      {"repo.build_cache_misses", "count"},
      {"core.prepare_environment_s", "s"},
      {"qnn.eval_cache_hit_rate", "fraction"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage", "fraction"},
      {"trace.spans", "count"},
  };
  return metrics;
}

std::uint64_t Outcomes::attempted() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

void Outcomes::report(Result& result) const {
  result.attempted += attempted();
  result.failed += failed();
  for (std::size_t c = 0; c < kCodes; ++c) {
    const std::uint64_t n = counts_[c].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const auto code = static_cast<qucad::StatusCode>(c);
    result.note(std::string("status.") + qucad::status_code_name(code),
                static_cast<double>(n));
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double supported_tail(std::size_t samples) {
  for (const double p : {0.999, 0.99, 0.98, 0.95, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

std::uint64_t Served::ok() const {
  return static_cast<std::uint64_t>(
      std::count_if(completions.begin(), completions.end(),
                    [](const Completion& c) { return c.ok; }));
}

std::vector<double> Served::latencies_ms() const {
  std::vector<double> out;
  out.reserve(completions.size());
  for (const Completion& c : completions) out.push_back(c.latency_ms);
  return out;
}

void Served::append(const Served& other) {
  completions.insert(completions.end(), other.completions.begin(),
                     other.completions.end());
  right_label += other.right_label;
  malformed += other.malformed;
}

void set_serving_metrics(Result& result, const Served& served, double setup_s,
                         double window_s, double accuracy) {
  constexpr double kSliceSeconds = 2.0;
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(window_s / kSliceSeconds));
  const double length = window_s / static_cast<double>(slices);
  std::vector<std::vector<double>> latencies(slices);
  std::vector<double> throughput(slices, 0.0);
  for (const Completion& c : served.completions) {
    const std::size_t k =
        std::min(slices - 1, static_cast<std::size_t>(std::max(0.0, c.at_s) / length));
    latencies[k].push_back(c.latency_ms);
    if (c.ok) throughput[k] += 1.0 / length;
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (const std::vector<double>& slice : latencies) {
    p50.push_back(percentile(slice, 0.5));
    p90.push_back(percentile(slice, 0.9));
    p99.push_back(percentile(slice, 0.99));
  }

  const std::size_t n = served.completions.size();
  const std::uint64_t ok = served.ok();
  const std::vector<double> all = served.latencies_ms();
  result.set("setup_s", setup_s);
  result.set("throughput_rps", median(throughput));
  result.set("latency_p50_ms", median(p50));
  result.set("latency_p90_ms", median(p90));
  result.set("success_rate", n == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(n));
  result.set("accuracy", accuracy);
  result.set("peak_rss_mb", peak_rss_mib());
  result.note("traffic_accuracy", ok == 0 ? 0.0
                                          : static_cast<double>(served.right_label) /
                                                static_cast<double>(ok));
  result.note("latency_samples", static_cast<double>(n));
  result.note("slices", static_cast<double>(slices));
  result.note("tail_percentile_supported", supported_tail(n / slices));
  result.note("whole_window_throughput_rps", static_cast<double>(ok) / window_s);
  result.note("whole_window_latency_p50_ms", percentile(all, 0.5));
  result.note("slice_median_latency_p99_ms", median(p99));
  result.note("whole_window_latency_p90_ms", percentile(all, 0.9));
  result.note("whole_window_latency_p99_ms", percentile(all, 0.99));
  result.note("whole_window_latency_p999_ms", percentile(all, 0.999));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double median_setup_seconds(int repeats, const std::function<void()>& teardown,
                            const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    teardown();
    qucad::CompiledEvalCache::global().clear();
    const auto start = SteadyClock::now();
    setup();
    seconds.push_back(seconds_since(start));
  }
  return median(seconds);
}

std::vector<std::size_t> seeded_indices(std::uint64_t seed, std::size_t count,
                                        std::size_t n) {
  qucad::Rng rng(seed);
  std::vector<std::size_t> out(count);
  for (std::size_t& i : out) i = rng.index(n);
  return out;
}

void write_trace(Result& result, const Tracer& tracer, const Args& args) {
  std::error_code error;
  std::filesystem::create_directories(args.trace_dir, error);
  const std::string path =
      args.trace_dir + "/" + args.workload + "-" + std::to_string(args.seed) + ".json";
  result.check(!error && tracer.write_chrome_trace(path), "cannot write " + path);
  result.note("trace_file", path);
}

void note_run_metadata(Result& result, const Args& args) {
  result.note("workload", args.workload);
  result.note("seed", std::to_string(args.seed));
  result.note("seconds", args.seconds);
  result.note("trace", args.trace ? "1" : "0");
  result.note("nproc", static_cast<double>(host_threads()));
  result.note("global_pool_workers", static_cast<double>(qucad::ThreadPool::global().size()));
  result.note("compiler", PERFBENCH_COMPILER);
  result.note("build_type", PERFBENCH_BUILD_TYPE);
  result.note("git_commit", args.commit);
}

}  // namespace perfbench
