#pragma once

#include <ctime>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/admm.hpp"
#include "compress/fine_tune.hpp"
#include "data/dataset.hpp"
#include "noise/calibration.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/model.hpp"
#include "repo/constructor.hpp"
#include "repo/manager.hpp"
#include "transpile/coupling.hpp"

namespace qucad {

/// Everything a noise-adaptation strategy needs: the pretrained model, its
/// fixed routing on the target device, data splits, and the tuning knobs
/// shared by all methods so comparisons are apples-to-apples.
struct Environment {
  QnnModel model;
  TranspiledModel transpiled;
  std::vector<double> theta_pretrained;
  Dataset train;    // scaled to encoding angles
  Dataset test;     // scaled with the train scaler
  Dataset profile;  // train-tail slice used for offline profiling

  AdmmOptions admm;                  // noise-aware compression settings
  NoiseAwareTrainOptions nat;        // noise-injection training settings
  ConstructorOptions constructor_options;
  ManagerOptions manager_options;
  NoisyEvalOptions eval;

  Environment() = default;
};

/// A per-day model adaptation policy (one row of Table I). The harness
/// calls offline() once with the historical calibrations, then online_day()
/// for each test day; the returned parameters are evaluated under that
/// day's noise. Strategies account their own optimization cost.
class Strategy {
 public:
  explicit Strategy(const Environment& env) : env_(env) {}
  virtual ~Strategy() = default;

  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  virtual std::string name() const = 0;

  /// Offline preparation (only QuCAD uses it). Cost is tracked separately
  /// from the online cost.
  virtual void offline(const std::vector<Calibration>& history) { (void)history; }

  /// Returns the parameters to run under today's calibration.
  virtual std::span<const double> online_day(int day_index,
                                             const Calibration& calibration) = 0;

  double online_optimize_seconds() const { return online_seconds_; }
  double offline_optimize_seconds() const { return offline_seconds_; }
  int optimizations() const { return optimizations_; }

 protected:
  /// Runs fn, adds its process CPU time to the online cost, counts an
  /// optimization.
  template <typename Fn>
  void timed_online(Fn&& fn) {
    const double start = process_cpu_seconds();
    fn();
    online_seconds_ += process_cpu_seconds() - start;
    ++optimizations_;
  }

  template <typename Fn>
  void timed_offline(Fn&& fn) {
    const double start = process_cpu_seconds();
    fn();
    offline_seconds_ += process_cpu_seconds() - start;
  }

  const Environment& env_;
  double online_seconds_ = 0.0;
  double offline_seconds_ = 0.0;
  int optimizations_ = 0;

 private:
  /// CPU seconds this process has used so far, all threads included. Costs
  /// are charged in CPU time rather than wall time, so sibling processes on
  /// a loaded machine do not move them.
  static double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
};

}  // namespace qucad
