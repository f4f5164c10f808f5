// Fuzz target for the artifact container parser (io/artifacts.hpp) — the
// bytes a service cold-starts from. deserialize_artifacts promises to
// reject corrupt input of any kind with a Status, never by throwing,
// aborting, reading out of bounds, or allocating unboundedly more than
// the input size (seeded from tests/golden/repo_v1.qcd so the fuzzer
// starts from an accepting parse and mutates outward).
//
// For inputs the parser accepts, the harness additionally checks the
// canonical round-trip: re-encoding the decoded value must produce bytes
// the parser accepts again, and that second decode must re-encode to the
// same bytes (serialize_artifacts is a canonical form, so it must be
// idempotent even when the accepted input itself was non-canonical, e.g.
// carried sections out of order). It also runs ServiceConfig::validate()
// on the decoded config, which never throws, and checks that a config it
// accepts asks for at most ServiceConfig::kMaxShards shards: the bound that
// keeps a crafted file from making cold start reserve unbounded shards or
// start unbounded dispatcher threads.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "io/artifacts.hpp"

namespace {

void check(bool condition) {
  if (!condition) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  const qucad::StatusOr<qucad::Artifacts> decoded =
      qucad::deserialize_artifacts(bytes);
  if (!decoded.ok()) return 0;

  if (decoded->config.validate().ok()) {
    check(decoded->config.num_shards <= qucad::ServiceConfig::kMaxShards);
  }

  const std::vector<std::uint8_t> canonical =
      qucad::serialize_artifacts(*decoded);
  const qucad::StatusOr<qucad::Artifacts> second =
      qucad::deserialize_artifacts(canonical);
  check(second.ok());
  check(qucad::serialize_artifacts(*second) == canonical);
  return 0;
}
