#include "serve/service_config.hpp"

#include "core/strategy.hpp"

namespace qucad {

Status ServiceConfig::validate() const {
  if (num_shards == 0) {
    return Status::invalid_argument(
        "num_shards must be at least 1 (a zero-shard service can route "
        "nothing)");
  }
  if (num_shards > kMaxShards) {
    return Status::invalid_argument(
        "num_shards must be at most 256 (each shard starts a dispatcher "
        "thread)");
  }
  if (queue_capacity == 0) {
    return Status::invalid_argument(
        "queue_capacity must be at least 1 (a zero-capacity queue sheds "
        "every request)");
  }
  if (deadline_budget.count() < 0) {
    return Status::invalid_argument(
        "deadline_budget must be non-negative (0 disables the deadline)");
  }
  if (Status status = eval.backend.validate(); !status.ok()) return status;
  return Status();
}

ServiceConfig ServiceConfig::from_environment(const Environment& env) {
  ServiceConfig config;
  config.eval = env.eval;
  config.manager = env.manager_options;
  return config;
}

}  // namespace qucad
