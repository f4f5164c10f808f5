#include "serve/admission.hpp"

#include <string>

namespace qucad {

Status AdmissionController::shed(std::size_t shard,
                                 std::size_t queue_capacity) {
  return Status::resource_exhausted(
      "shard " + std::to_string(shard) + " queue is full (" +
      std::to_string(queue_capacity) +
      " requests); load shed — retry with backoff");
}

Status AdmissionController::admit_for_execution(
    Clock::TimePoint enqueued) const {
  if (deadline_budget_.count() == 0) return Status();
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      clock_.now() - enqueued);
  if (waited <= deadline_budget_) return Status();
  return Status::deadline_exceeded(
      "request waited " + std::to_string(waited.count()) +
      "us, over its " + std::to_string(deadline_budget_.count()) +
      "us deadline budget");
}

}  // namespace qucad
