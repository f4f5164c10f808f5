#pragma once

#include <span>
#include <string>
#include <vector>

namespace qucad {

/// Table-I statistics of one method's daily accuracy series.
struct SeriesMetrics {
  double mean_accuracy = 0.0;
  double variance = 0.0;
  int days_over_08 = 0;
  int days_over_07 = 0;
  int days_over_05 = 0;
};

SeriesMetrics summarize_series(std::span<const double> daily_accuracy);

/// One row of a longitudinal comparison.
struct MethodResult {
  std::string method;
  std::vector<double> daily_accuracy;
  SeriesMetrics metrics;
  double online_optimize_seconds = 0.0;   // process CPU seconds
  double offline_optimize_seconds = 0.0;  // process CPU seconds
  int optimizations = 0;
};

}  // namespace qucad
