#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace qucad {

/// Load-shedding and deadline policy shared by every shard of one
/// InferenceService. The bounded per-shard queue does the actual admission
/// (BoundedQueue::try_push against its capacity); this object turns the two
/// overload outcomes into the serving error model (the shards count them):
///
///  - queue full at submission  -> kResourceExhausted (shed, never queued)
///  - deadline budget elapsed while queued -> kDeadlineExceeded (failed at
///    dispatch, never executed)
///
/// Shedding at the door bounds queue memory AND tail latency: a saturated
/// service answers "overloaded" in microseconds instead of letting p99 grow
/// with the backlog. Time is read through an injectable Clock so deadline
/// semantics are testable without sleeps.
class AdmissionController {
 public:
  /// `deadline_budget` of zero disables deadline enforcement. `clock` is
  /// borrowed (nullptr = Clock::system()) and must outlive the controller.
  explicit AdmissionController(std::chrono::microseconds deadline_budget,
                               const Clock* clock = nullptr)
      : deadline_budget_(deadline_budget),
        clock_(clock != nullptr ? *clock : Clock::system()) {}

  /// Timestamp a request at submission; compared against the budget at
  /// dispatch time.
  Clock::TimePoint stamp() const { return clock_.now(); }

  /// The shed verdict for a request bounced off a full shard queue: the
  /// kResourceExhausted the caller propagates.
  static Status shed(std::size_t shard, std::size_t queue_capacity);

  /// Dispatch-time gate: OK while the request's budget has time left,
  /// kDeadlineExceeded once `enqueued + deadline_budget` is past.
  Status admit_for_execution(Clock::TimePoint enqueued) const;

  std::chrono::microseconds deadline_budget() const { return deadline_budget_; }

 private:
  const std::chrono::microseconds deadline_budget_;
  const Clock& clock_;
};

}  // namespace qucad
