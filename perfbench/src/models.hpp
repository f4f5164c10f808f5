#pragma once

// The model and device the workloads run on: the paper's seismic detector,
// 4 qubits, pretrained for a drifting belem device. Each workload builds
// these inside its timed setup.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "backend/registry.hpp"
#include "core/qucad.hpp"
#include "fleet/drift_stream.hpp"
#include "serve/inference_service.hpp"
#include "serve/service_config.hpp"
#include "serve/shard.hpp"
#include "trace.hpp"

namespace perfbench {

/// The belem device's 389-day calibration stream (243 offline + 146 online
/// days). `maintenance` adds the spec's persistent step events.
qucad::fleet::DriftStream device_stream(bool maintenance);

/// The pipeline knobs every workload shares: a 4-qubit seismic detector
/// with reduced pretraining/compression budgets so one setup takes at most
/// a few seconds, and a 48-sample test set.
qucad::PipelineConfig bench_pipeline();

/// Pretrains the seismic detector and routes it on the stream's device.
qucad::Environment seismic_environment(const qucad::fleet::DriftStream& stream);

/// Registry context for (env, theta, calibration) — what an epoch of the
/// service builds its backend from.
qucad::BackendContext backend_context(const qucad::Environment& env,
                                      std::span<const double> theta,
                                      const qucad::Calibration& calibration);

/// Requests per compiled sweep between two stats snapshots (1 if none).
double mean_batch(const qucad::ServingStats& before, const qucad::ServingStats& after);

/// Labelled request traffic: `count` fresh seismic traces drawn from
/// `seed`, none of them in the training or test data, with their features
/// scaled by the same scaler seismic_environment() fits on its training
/// split — what a deployed detector receives from its sensors. Features are
/// stored row after row.
struct Traffic {
  std::size_t width = 0;
  std::vector<double> flat;
  std::vector<int> labels;

  std::size_t size() const { return labels.size(); }
  std::span<const double> features(std::size_t i) const {
    return {flat.data() + i * width, width};
  }
  /// Rows [at, at + count) as the vectors a batch sweep takes.
  std::vector<std::vector<double>> rows(std::size_t at, std::size_t count) const;
};
Traffic make_traffic(std::uint64_t seed, std::size_t count);

/// True when `p` came from `epoch`, has one logit per class, every logit is
/// a finite expectation in [-1, 1], and the label is their argmax.
bool well_formed(const qucad::Prediction& p, std::uint64_t epoch,
                 int num_classes);

/// Times `fn` under a span named `name`, `repeats` times.
template <typename Fn>
void traced_repeat(Tracer& tracer, const char* name, int repeats, Fn&& fn) {
  for (int r = 0; r < repeats; ++r) {
    auto scope = tracer.span(name);
    fn(r);
  }
}

}  // namespace perfbench
