#include "compress/fine_tune.hpp"

#include "common/require.hpp"
#include "qnn/noise_injection.hpp"

namespace qucad {

TrainResult noise_aware_train(const QnnModel& model,
                              const TranspiledModel& transpiled,
                              std::vector<double>& theta, const Dataset& data,
                              const Calibration& calibration,
                              const NoiseAwareTrainOptions& options) {
  std::vector<int> readout_physical;
  readout_physical.reserve(model.readout_qubits.size());
  for (int lq : model.readout_qubits) {
    readout_physical.push_back(transpiled.readout_physical(lq));
  }

  TrainConfig config;
  config.epochs = options.epochs;
  config.batch_size = options.batch_size;
  config.lr = options.lr;
  config.logit_scale = options.logit_scale;
  config.seed = options.seed;
  config.frozen = options.frozen;

  const InjectionOptions inject{options.injection_scale};
  const BatchCircuitHook hook = [&calibration, inject](const Circuit& base,
                                                       Rng& rng) {
    return inject_pauli_noise(base, calibration, rng, inject);
  };

  return train_circuit(transpiled.routed.circuit, readout_physical, theta, data,
                       config, hook);
}

}  // namespace qucad
