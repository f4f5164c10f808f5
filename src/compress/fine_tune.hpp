#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "noise/calibration.hpp"
#include "qnn/model.hpp"
#include "qnn/trainer.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {

struct NoiseAwareTrainOptions {
  int epochs = 8;
  int batch_size = 32;
  double lr = 0.02;
  double logit_scale = 5.0;
  double injection_scale = 0.3;  // tempered injection; see AdmmOptions
  std::uint64_t seed = 777;
  /// Optional per-parameter freeze mask (1 = pinned); used by compression
  /// fine-tuning to keep snapped parameters at their levels.
  std::vector<std::uint8_t> frozen;
};

/// Noise-aware training via noise injection [12]: trains parameters on the
/// routed circuit, re-sampling calibrated Pauli errors into the circuit
/// every mini-batch, so gradients see the device's current noise. With a
/// freeze mask this is the fine-tuning stage of the compression pipeline.
TrainResult noise_aware_train(const QnnModel& model,
                              const TranspiledModel& transpiled,
                              std::vector<double>& theta, const Dataset& data,
                              const Calibration& calibration,
                              const NoiseAwareTrainOptions& options = {});

}  // namespace qucad
