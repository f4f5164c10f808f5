#include "fleet/remote_stub_backend.hpp"

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"

namespace qucad::fleet {

namespace {

// Bounds the retry loop of one job: a stub must shape latency, not hang.
constexpr int kMaxFaultsPerJob = 8;

}  // namespace

Status RemoteStubOptions::validate() const {
  if (queue_latency_seconds < 0.0 || retry_backoff_seconds < 0.0) {
    return Status::invalid_argument(
        "remote stub latencies must be non-negative");
  }
  if (max_shots_per_job < 0) {
    return Status::invalid_argument(
        "remote stub max_shots_per_job must be non-negative");
  }
  if (!(fault_rate >= 0.0 && fault_rate < 1.0)) {
    return Status::invalid_argument("remote stub fault_rate must be in [0, 1)");
  }
  return Status();
}

RemoteStubBackend::RemoteStubBackend(
    std::shared_ptr<const ExecutionBackend> inner, RemoteStubOptions options,
    BackendKind kind)
    : inner_(std::move(inner)), options_(options), kind_(kind) {
  const int shots = inner_->diagnostics().shots;
  jobs_per_sample_ =
      (options_.max_shots_per_job > 0 && shots > 0)
          ? (shots + options_.max_shots_per_job - 1) / options_.max_shots_per_job
          : 1;
}

BackendDiagnostics RemoteStubBackend::diagnostics() const {
  BackendDiagnostics d = inner_->diagnostics();
  d.name = "remote_stub(" + d.name + ")";
  d.kind = kind_;
  return d;
}

void RemoteStubBackend::account_submission(std::size_t samples) const {
  submissions_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t job_count =
      static_cast<std::uint64_t>(samples) *
      static_cast<std::uint64_t>(jobs_per_sample_);
  jobs_.fetch_add(job_count, std::memory_order_relaxed);

  std::uint64_t faults = 0;
  if (options_.fault_rate > 0.0 && job_count > 0) {
    const std::uint64_t first_id =
        next_job_id_.fetch_add(job_count, std::memory_order_relaxed);
    for (std::uint64_t j = 0; j < job_count; ++j) {
      Rng rng(options_.fault_seed + first_id + j);
      int job_faults = 0;
      while (job_faults < kMaxFaultsPerJob &&
             rng.bernoulli(options_.fault_rate)) {
        ++job_faults;
      }
      faults += static_cast<std::uint64_t>(job_faults);
    }
    faults_.fetch_add(faults, std::memory_order_relaxed);
  }

  const double wait = options_.queue_latency_seconds +
                      options_.retry_backoff_seconds *
                          static_cast<double>(faults);
  if (wait > 0.0) {
    wait_micros_.fetch_add(static_cast<std::uint64_t>(wait * 1e6),
                           std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

std::vector<std::vector<double>> RemoteStubBackend::run_logits_batch(
    std::span<const std::vector<double>> xs, ThreadPool* pool) const {
  account_submission(xs.size());
  // One inner call for the whole batch: the sampled backend's per-sample
  // shot streams are seeded by in-batch position, so forwarding the batch
  // intact is what keeps stub logits bitwise equal to the inner backend's.
  return inner_->run_logits_batch(xs, pool);
}

RemoteStubBackend::Stats RemoteStubBackend::stats() const {
  Stats s;
  s.submissions = submissions_.load(std::memory_order_relaxed);
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.wait_seconds =
      static_cast<double>(wait_micros_.load(std::memory_order_relaxed)) / 1e6;
  return s;
}

Status register_remote_stub_backend(BackendRegistry& registry,
                                    RemoteStubOptions options,
                                    BackendKind kind) {
  if (Status status = options.validate(); !status.ok()) return status;
  if (options.inner_kind == kind) {
    return Status::invalid_argument(
        "remote stub cannot wrap its own registry kind");
  }
  registry.register_factory(
      kind,
      [&registry, options, kind](const BackendConfig& config,
                                 const BackendContext& context)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        BackendConfig inner_config = config;
        inner_config.kind = options.inner_kind;
        // Recursive make() is safe: the registry copies the factory out of
        // its lock before invoking it.
        StatusOr<std::shared_ptr<const ExecutionBackend>> inner =
            registry.make(inner_config, context);
        if (!inner.ok()) return inner.status();
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<const RemoteStubBackend>(*std::move(inner),
                                                      options, kind));
      });
  return Status();
}

}  // namespace qucad::fleet
