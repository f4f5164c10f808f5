#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "noise/calibration.hpp"
#include "repo/repository.hpp"
#include "serve/service_config.hpp"

namespace qucad {

class InferenceService;
struct Environment;

/// \file
/// Versioned on-disk container for the trained state of the QuCAD pipeline —
/// what must survive a process restart so a serving instance cold-starts
/// from a file instead of re-running offline training.
///
/// File layout (all integers little-endian; see io/serializer.hpp):
///
///     magic   "QCAD"                      4 bytes
///     version u32                         format version (currently 1)
///     count   u32                         number of sections
///     count x sections:
///       id      u32                       section id (kSection* below)
///       length  u64                       payload byte count
///       crc     u32                       CRC-32 of the payload bytes
///       payload length bytes
///
/// Version-1 files carry exactly one section of each id, in ascending id
/// order. Readers reject bad magic, unknown versions, unknown/duplicate/
/// missing sections, truncation anywhere, trailing bytes, CRC mismatches,
/// and semantically invalid payload values — always with a Status
/// (kDataLoss for corrupt bytes), never by aborting, and never by
/// partially mutating the caller's objects (the artifact is built in
/// temporaries and returned by value only on full success).
///
/// The service-config section keeps eight v1 slots that no knob fills any
/// more. Writers fill them with fixed values; readers range-check them and
/// then ignore them, so files written before the knobs went still load:
///
///     SX pulse duration      f64   written 0.035; NaN, inf or < 0 is kDataLoss
///     CX pulse duration      f64   written 0.300; NaN, inf or < 0 is kDataLoss
///     failure-report flag    bool  written 1; > 1 is kDataLoss
///     bootstrap scale        f64   written 1.5; NaN or <= 0 is kDataLoss
///     batch-size cap         u64   written 32; 0 is kDataLoss
///     routing policy         u8    written 0; > 1 is kDataLoss
///     result_cache_capacity  u64   written 0; any value accepted
///     result_cache_quantum   f64   written 0.0; NaN, inf or < 0 is kDataLoss
///
/// Version policy: any change to the encoded byte layout bumps
/// kFormatVersion — readers do not attempt cross-version migration (a
/// version-skew file is rejected with kFailedPrecondition), and a
/// byte-stability test against the checked-in golden artifact
/// (tests/golden/repo_v1.qcd) fails CI when the layout drifts without a
/// bump.

inline constexpr std::uint8_t kArtifactMagic[4] = {'Q', 'C', 'A', 'D'};
inline constexpr std::uint32_t kArtifactFormatVersion = 1;

/// Section ids of the version-1 container.
inline constexpr std::uint32_t kSectionRepository = 1;
inline constexpr std::uint32_t kSectionCalibrationHistory = 2;
inline constexpr std::uint32_t kSectionServiceConfig = 3;

/// The persisted state: the offline-trained model repository (entries carry
/// the compressed theta banks and frozen compression masks, plus the
/// distance weights and matching threshold), the calibration stream the
/// repository was trained/served against, and the serving configuration
/// snapshot. Everything else a service needs (model structure, routing,
/// training data) is deterministic from the experiment setup and is rebuilt
/// in-process.
struct Artifacts {
  ModelRepository repository;
  /// Persisted calibration stream, oldest first. On cold start the last
  /// snapshot is the service's initial calibration; longitudinal replays
  /// (drift studies) consume the whole stream.
  std::vector<Calibration> calibration_history;
  ServiceConfig config;
};

/// Encodes the artifacts into the container format. Never fails: every
/// in-memory Artifacts value is encodable.
std::vector<std::uint8_t> serialize_artifacts(const Artifacts& artifacts);

/// Decodes a container produced by serialize_artifacts. Corrupt input of
/// any kind — truncation, bad magic, version skew, CRC mismatch, malformed
/// or out-of-range payloads — is rejected with a Status; the function never
/// throws and never returns a partially populated value.
StatusOr<Artifacts> deserialize_artifacts(std::span<const std::uint8_t> bytes);

/// Writes the container to `path` (atomically: a temporary in the same
/// directory is renamed over the target, so readers never observe a
/// half-written artifact).
Status save_artifacts(const Artifacts& artifacts, const std::string& path);

/// Reads and decodes the container at `path`.
StatusOr<Artifacts> load_artifacts(const std::string& path);

/// Cold start: builds an InferenceService from persisted artifacts instead
/// of re-running offline training — `env` supplies the deterministic parts
/// (model, routing, train data), the artifacts supply the trained
/// repository, the serving config, and the initial calibration (the last
/// snapshot of the persisted stream; an empty stream is rejected with
/// kFailedPrecondition). A service cold-started this way serves
/// bitwise-identical predictions to the in-memory service the artifacts
/// were saved from.
StatusOr<InferenceService> cold_start_service(Environment env,
                                              const Artifacts& artifacts);

}  // namespace qucad
