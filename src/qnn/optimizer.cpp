#include "qnn/optimizer.hpp"

#include <cmath>

#include "common/require.hpp"

namespace qucad {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(double lr) : lr_(lr) {
  require(lr > 0.0, "learning rate must be positive");
}

void Adam::step(std::vector<double>& params, const std::vector<double>& grad) {
  require(params.size() == grad.size(), "gradient size mismatch");
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
    step_count_ = 0;
  }
  ++step_count_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(step_count_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i];
    v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grad[i] * grad[i];
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
  }
}

}  // namespace qucad
