#pragma once

#include <vector>

namespace qucad {

/// Adam with the standard moment constants (beta1 0.9, beta2 0.999,
/// eps 1e-8).
class Adam {
 public:
  explicit Adam(double lr);

  /// In-place update of params given the loss gradient.
  void step(std::vector<double>& params, const std::vector<double>& grad);

 private:
  double lr_;
  long step_count_ = 0;
  std::vector<double> m_, v_;
};

}  // namespace qucad
