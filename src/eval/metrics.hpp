#pragma once

#include <span>

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

}  // namespace qucad
