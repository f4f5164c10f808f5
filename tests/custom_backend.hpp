#pragma once

// Backend kinds from the registry's extension range (values beyond the
// built-in enumerators): a relabelled density backend, for the io and wire
// tests that check such a kind round-trips through artifacts, frames and a
// running service, and a held one whose first sweep parks on a gate, for
// the serving tests that need a shard busy at a known moment.

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "backend/registry.hpp"

namespace qucad::test {

inline constexpr BackendKind kCustomBackendKind = static_cast<BackendKind>(16);

/// Registers kCustomBackendKind on the global registry: the density backend
/// the same config builds, reporting itself as the custom kind.
inline void register_custom_backend_kind() {
  class Relabelled final : public ExecutionBackend {
   public:
    explicit Relabelled(std::shared_ptr<const ExecutionBackend> inner)
        : inner_(std::move(inner)) {}
    BackendKind kind() const override { return kCustomBackendKind; }
    BackendDiagnostics diagnostics() const override {
      BackendDiagnostics d = inner_->diagnostics();
      d.kind = kCustomBackendKind;
      return d;
    }
    std::vector<std::vector<double>> run_logits_batch(
        std::span<const std::vector<double>> xs,
        ThreadPool* pool) const override {
      return inner_->run_logits_batch(xs, pool);
    }

   private:
    std::shared_ptr<const ExecutionBackend> inner_;
  };

  BackendRegistry::global().register_factory(
      kCustomBackendKind,
      [](const BackendConfig& config, const BackendContext& context)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        BackendConfig density = config;
        density.kind = BackendKind::kDensityNoisy;
        StatusOr<std::shared_ptr<const ExecutionBackend>> inner =
            BackendRegistry::global().make(density, context);
        if (!inner.ok()) return inner.status();
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<const Relabelled>(*std::move(inner)));
      });
}

/// A one-shot gate for HeldBackend: its first sweep sets `entered` and
/// blocks until the test sets `release`.
struct Gate {
  std::atomic<bool> armed{true};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
};

/// Opens a gate on every exit path. Declare it after the service whose
/// dispatcher it holds, so the gate opens before the service joins it.
struct GateOpener {
  Gate& gate;
  bool open = false;
  void operator()() {
    if (!open) gate.release.set_value();
    open = true;
  }
  ~GateOpener() { (*this)(); }
};

/// The density backend, except that the first sweep blocks until the test
/// opens the gate.
class HeldBackend final : public ExecutionBackend {
 public:
  HeldBackend(std::shared_ptr<const ExecutionBackend> inner,
              std::shared_ptr<Gate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}
  BackendKind kind() const override { return inner_->kind(); }
  BackendDiagnostics diagnostics() const override {
    return inner_->diagnostics();
  }
  std::vector<std::vector<double>> run_logits_batch(
      std::span<const std::vector<double>> xs,
      ThreadPool* pool) const override {
    if (gate_->armed.exchange(false)) {
      gate_->entered.set_value();
      gate_->released.wait();
    }
    return inner_->run_logits_batch(xs, pool);
  }

 private:
  std::shared_ptr<const ExecutionBackend> inner_;
  std::shared_ptr<Gate> gate_;
};

/// Registers `kind` on the global registry as a HeldBackend over the
/// density backend the same config builds, parked on `gate`.
inline void register_held_backend_kind(BackendKind kind,
                                       std::shared_ptr<Gate> gate) {
  BackendRegistry::global().register_factory(
      kind,
      [gate = std::move(gate)](const BackendConfig& config,
                               const BackendContext& context)
          -> StatusOr<std::shared_ptr<const ExecutionBackend>> {
        BackendConfig density = config;
        density.kind = BackendKind::kDensityNoisy;
        StatusOr<std::shared_ptr<const ExecutionBackend>> inner =
            BackendRegistry::global().make(density, context);
        if (!inner.ok()) return inner.status();
        return std::shared_ptr<const ExecutionBackend>(
            std::make_shared<HeldBackend>(*std::move(inner), gate));
      });
}

}  // namespace qucad::test
