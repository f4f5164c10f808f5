#pragma once

// A backend kind from the registry's extension range (a value beyond the
// built-in enumerators), for the io and wire tests that check such a kind
// round-trips through artifacts, frames and a running service.

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

}  // namespace qucad::test
