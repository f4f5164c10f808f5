#include "io/artifacts.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "common/require.hpp"
#include "core/strategy.hpp"
#include "io/codec_detail.hpp"
#include "io/serializer.hpp"
#include "serve/inference_service.hpp"

namespace qucad {

// ---------------------------------------------------------------------------
// Payload encoders/decoders. Decoders validate enum ranges inline and lean
// on the domain types' own setters for semantic ranges (error rates, T1/T2
// consistency, centroid arity): deserialize_artifacts converts any
// PreconditionError they throw into kDataLoss, so a CRC-valid file with
// out-of-range values still fails with a Status instead of aborting.
//
// The Calibration codec lives in io_detail (io/codec_detail.hpp) because
// io/wire transports the same payload in calibration-push frames.
// ---------------------------------------------------------------------------

namespace io_detail {

void encode_calibration(Serializer& out, const Calibration& c) {
  out.write_i32(c.num_qubits());
  out.write_u64(c.edges().size());
  for (const auto& [a, b] : c.edges()) {
    out.write_i32(a);
    out.write_i32(b);
  }
  for (int q = 0; q < c.num_qubits(); ++q) out.write_f64(c.sx_error(q));
  for (int q = 0; q < c.num_qubits(); ++q) {
    out.write_f64(c.readout(q).p1_given_0);
    out.write_f64(c.readout(q).p0_given_1);
  }
  for (int q = 0; q < c.num_qubits(); ++q) {
    out.write_f64(c.t1_us(q));
    out.write_f64(c.t2_us(q));
  }
  for (const auto& [a, b] : c.edges()) out.write_f64(c.cx_error(a, b));
}

Status decode_calibration(Deserializer& in, Calibration& out) {
  std::int32_t num_qubits = 0;
  if (Status s = in.read_i32(num_qubits); !s.ok()) return s;
  if (num_qubits <= 0) {
    return Status::data_loss("calibration qubit count must be positive");
  }
  // Every qubit owes at least 40 payload bytes (sx f64 + readout 2xf64 +
  // T1/T2 2xf64), so a count beyond remaining/40 is corrupt. Checking here
  // bounds the Calibration constructor's five per-qubit allocations by the
  // input size — without it a 16-byte frame claiming INT32_MAX qubits
  // forces a multi-GB allocation and the resulting bad_alloc is not a
  // PreconditionError, so it would escape the decoder's no-throw contract.
  if (static_cast<std::uint64_t>(num_qubits) > in.remaining() / 40) {
    return Status::data_loss("calibration qubit count exceeds payload");
  }
  std::uint64_t edge_count = 0;
  if (Status s = in.read_u64(edge_count); !s.ok()) return s;
  // Two i32 per edge: a count beyond the remaining bytes is corrupt.
  if (edge_count > in.remaining() / 8) {
    return Status::data_loss("calibration edge count exceeds payload");
  }
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(edge_count));
  for (std::uint64_t e = 0; e < edge_count; ++e) {
    std::int32_t a = 0, b = 0;
    if (Status s = in.read_i32(a); !s.ok()) return s;
    if (Status s = in.read_i32(b); !s.ok()) return s;
    edges.emplace_back(a, b);
  }
  Calibration calibration(num_qubits, std::move(edges));
  for (int q = 0; q < num_qubits; ++q) {
    double sx = 0.0;
    if (Status s = in.read_f64(sx); !s.ok()) return s;
    calibration.set_sx_error(q, sx);
  }
  for (int q = 0; q < num_qubits; ++q) {
    ReadoutError ro;
    if (Status s = in.read_f64(ro.p1_given_0); !s.ok()) return s;
    if (Status s = in.read_f64(ro.p0_given_1); !s.ok()) return s;
    calibration.set_readout(q, ro);
  }
  for (int q = 0; q < num_qubits; ++q) {
    double t1 = 0.0, t2 = 0.0;
    if (Status s = in.read_f64(t1); !s.ok()) return s;
    if (Status s = in.read_f64(t2); !s.ok()) return s;
    calibration.set_t1_t2(q, t1, t2);
  }
  for (const auto& [a, b] : calibration.edges()) {
    double cx = 0.0;
    if (Status s = in.read_f64(cx); !s.ok()) return s;
    calibration.set_cx_error(a, b, cx);
  }
  out = std::move(calibration);
  return Status();
}

}  // namespace io_detail

namespace {

using io_detail::decode_calibration;
using io_detail::encode_calibration;

void encode_repository(Serializer& out, const ModelRepository& repo) {
  out.write_u64(repo.size());
  for (const RepoEntry& e : repo.entries()) {
    out.write_f64_vector(e.centroid);
    out.write_f64_vector(e.theta);
    out.write_u8_vector(e.frozen);
    out.write_f64(e.mean_cluster_accuracy);
    out.write_bool(e.valid);
    out.write_string(e.tag);
    out.write_i32(e.uses);
  }
  out.write_f64_vector(repo.weights());
  out.write_f64(repo.threshold());
}

Status decode_repository(Deserializer& in, ModelRepository& out) {
  std::uint64_t count = 0;
  if (Status s = in.read_u64(count); !s.ok()) return s;
  ModelRepository repo;
  for (std::uint64_t i = 0; i < count; ++i) {
    RepoEntry e;
    if (Status s = in.read_f64_vector(e.centroid); !s.ok()) return s;
    if (Status s = in.read_f64_vector(e.theta); !s.ok()) return s;
    if (Status s = in.read_u8_vector(e.frozen); !s.ok()) return s;
    if (Status s = in.read_f64(e.mean_cluster_accuracy); !s.ok()) return s;
    if (Status s = in.read_bool(e.valid); !s.ok()) return s;
    if (Status s = in.read_string(e.tag); !s.ok()) return s;
    if (Status s = in.read_i32(e.uses); !s.ok()) return s;
    repo.add(std::move(e));  // arity invariants enforced by add()
  }
  std::vector<double> weights;
  if (Status s = in.read_f64_vector(weights); !s.ok()) return s;
  repo.set_weights(std::move(weights));
  double threshold = 0.0;
  if (Status s = in.read_f64(threshold); !s.ok()) return s;
  repo.set_threshold(threshold);
  out = std::move(repo);
  return Status();
}

void encode_history(Serializer& out, const std::vector<Calibration>& days) {
  out.write_u64(days.size());
  for (const Calibration& day : days) encode_calibration(out, day);
}

Status decode_history(Deserializer& in, std::vector<Calibration>& out) {
  std::uint64_t count = 0;
  if (Status s = in.read_u64(count); !s.ok()) return s;
  // Each day encodes to well over 8 bytes; bound the reserve by the input.
  if (count > in.remaining() / 8) {
    return Status::data_loss("calibration day count exceeds payload");
  }
  std::vector<Calibration> days;
  days.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Calibration day;
    if (Status s = decode_calibration(in, day); !s.ok()) return s;
    days.push_back(std::move(day));
  }
  out = std::move(days);
  return Status();
}

void encode_config(Serializer& out, const ServiceConfig& config) {
  // Request-execution knobs (the worker-pool pointer is process state, not
  // configuration — it is not persisted and loads back as nullptr). The two
  // v1 pulse-duration slots are written as the fixed SX and CX durations.
  out.write_f64(0.035);
  out.write_f64(0.300);
  out.write_bool(config.eval.noise.include_thermal_relaxation);
  out.write_bool(config.eval.noise.include_readout_error);
  // Two v1 slots held the density-only shot knob BackendConfig now carries.
  // The v1 layout keeps them, written as the v1 defaults (0 shots, seed 99);
  // decode_config maps a legacy shots > 0 forward.
  out.write_i32(0);
  out.write_u64(99);
  out.write_bool(config.eval.use_cache);
  out.write_u8(static_cast<std::uint8_t>(config.eval.backend.kind));
  out.write_i32(config.eval.backend.shots);
  out.write_optional_u64(config.eval.backend.seed);
  // The v1 determinism byte: set exactly when the stream is seeded.
  out.write_bool(config.eval.backend.seed.has_value());
  // Repository-decision knobs.
  const AdmmOptions& admm = config.manager.admm;
  out.write_i32(admm.iterations);
  out.write_i32(admm.epochs_per_iteration);
  out.write_i32(admm.batch_size);
  out.write_f64(admm.lr);
  out.write_f64(admm.rho);
  out.write_f64(admm.logit_scale);
  out.write_u8(static_cast<std::uint8_t>(admm.policy.kind));
  out.write_f64(admm.policy.value);
  out.write_u8(static_cast<std::uint8_t>(admm.mode));
  out.write_f64_vector(admm.table.levels());
  out.write_u64(admm.seed);
  out.write_i32(admm.finetune_epochs);
  out.write_f64(admm.finetune_lr);
  out.write_f64(admm.injection_scale);
  out.write_bool(admm.keep_best);
  out.write_u64(admm.validation_samples);
  // The v1 failure-report flag and bootstrap-scale slots, then the v1
  // batch-size cap: written as the fixed rules (failure reports on, a 1.5x
  // bootstrap threshold, 32-request batches).
  out.write_bool(true);
  out.write_f64(1.5);
  out.write_u64(32);
  // The v1 batch-window slot: written as the old 200 us default.
  out.write_u64(200);
  // Serving knobs.
  out.write_u8(static_cast<std::uint8_t>(config.failure_policy));
  out.write_u64(config.num_shards);
  out.write_u64(config.queue_capacity);
  out.write_u64(static_cast<std::uint64_t>(config.deadline_budget.count()));
  // The v1 routing-policy byte; one policy is left, written as 0.
  out.write_u8(0);
  // The v1 result_cache_capacity and result_cache_quantum slots; the cache
  // is gone, written as 0 and 0.0.
  out.write_u64(0);
  out.write_f64(0.0);
}

Status read_enum_u8(Deserializer& in, std::uint8_t max_value,
                    const char* what, std::uint8_t& out) {
  if (Status s = in.read_u8(out); !s.ok()) return s;
  if (out > max_value) {
    return Status::data_loss(std::string("enum value out of range for ") +
                             what);
  }
  return Status();
}

Status decode_config(Deserializer& in, ServiceConfig& out) {
  ServiceConfig config;
  // The v1 SX and CX pulse-duration slots: range-checked, then ignored —
  // the noise model's durations are fixed.
  for (int slot = 0; slot < 2; ++slot) {
    double duration = 0.0;
    if (Status s = in.read_f64(duration); !s.ok()) return s;
    if (!std::isfinite(duration) || duration < 0.0) {
      return Status::data_loss(
          "retired pulse-duration slot must be finite and non-negative");
    }
  }
  if (Status s = in.read_bool(config.eval.noise.include_thermal_relaxation);
      !s.ok())
    return s;
  if (Status s = in.read_bool(config.eval.noise.include_readout_error);
      !s.ok())
    return s;
  std::int32_t legacy_shots = 0;
  std::uint64_t legacy_seed = 0;
  if (Status s = in.read_i32(legacy_shots); !s.ok()) return s;
  if (Status s = in.read_u64(legacy_seed); !s.ok()) return s;
  if (Status s = in.read_bool(config.eval.use_cache); !s.ok()) return s;
  // Any u8 kind: registered custom kinds round-trip, and a kind without a
  // factory fails when the service is built, not here.
  std::uint8_t raw = 0;
  if (Status s = in.read_u8(raw); !s.ok()) return s;
  config.eval.backend.kind = static_cast<BackendKind>(raw);
  if (Status s = in.read_i32(config.eval.backend.shots); !s.ok()) return s;
  if (Status s = in.read_optional_u64(config.eval.backend.seed); !s.ok())
    return s;
  // The v1 determinism byte: a file that demanded a seeded stream but
  // stores no seed could never be served, so it stays corrupt.
  bool legacy_deterministic = false;
  if (Status s = in.read_bool(legacy_deterministic); !s.ok()) return s;
  if (legacy_deterministic && !config.eval.backend.seed.has_value()) {
    return Status::data_loss("determinism requested without a seed");
  }
  if (legacy_shots != 0) {
    // The legacy knob never combined with another kind or with backend
    // shots, nor went negative (validate() rejected those).
    if (legacy_shots < 0 || config.eval.backend.shots != 0 ||
        config.eval.backend.kind != BackendKind::kDensityNoisy) {
      return Status::invalid_argument(
          "legacy density shots need the density backend without backend "
          "shots");
    }
    config.eval.backend.shots = legacy_shots;
    config.eval.backend.seed = legacy_seed;
  }

  AdmmOptions& admm = config.manager.admm;
  if (Status s = in.read_i32(admm.iterations); !s.ok()) return s;
  if (Status s = in.read_i32(admm.epochs_per_iteration); !s.ok()) return s;
  if (Status s = in.read_i32(admm.batch_size); !s.ok()) return s;
  if (Status s = in.read_f64(admm.lr); !s.ok()) return s;
  if (Status s = in.read_f64(admm.rho); !s.ok()) return s;
  if (Status s = in.read_f64(admm.logit_scale); !s.ok()) return s;
  if (Status s = read_enum_u8(in, 1, "MaskPolicy::Kind", raw); !s.ok())
    return s;
  admm.policy.kind = static_cast<MaskPolicy::Kind>(raw);
  if (Status s = in.read_f64(admm.policy.value); !s.ok()) return s;
  if (Status s = read_enum_u8(in, 1, "CompressionMode", raw); !s.ok())
    return s;
  admm.mode = static_cast<CompressionMode>(raw);
  std::vector<double> levels;
  if (Status s = in.read_f64_vector(levels); !s.ok()) return s;
  admm.table = CompressionTable(std::move(levels));  // rejects empty tables
  if (Status s = in.read_u64(admm.seed); !s.ok()) return s;
  if (Status s = in.read_i32(admm.finetune_epochs); !s.ok()) return s;
  if (Status s = in.read_f64(admm.finetune_lr); !s.ok()) return s;
  if (Status s = in.read_f64(admm.injection_scale); !s.ok()) return s;
  if (Status s = in.read_bool(admm.keep_best); !s.ok()) return s;
  std::uint64_t count = 0;
  if (Status s = in.read_u64(count); !s.ok()) return s;
  admm.validation_samples = static_cast<std::size_t>(count);
  // The v1 failure-report flag, bootstrap-scale and batch-size-cap slots:
  // range-checked, then ignored — the rules they set are fixed.
  bool flag = false;
  if (Status s = in.read_bool(flag); !s.ok()) return s;
  double scale = 0.0;
  if (Status s = in.read_f64(scale); !s.ok()) return s;
  if (!(scale > 0.0)) {
    return Status::data_loss("retired bootstrap-scale slot must be positive");
  }
  if (Status s = in.read_u64(count); !s.ok()) return s;
  if (count == 0) {
    return Status::data_loss("retired batch-size-cap slot must be at least 1");
  }

  // The v1 batch-window slot: range-checked, then ignored — a shard serves
  // what is queued when it wakes.
  if (Status s = in.read_u64(count); !s.ok()) return s;
  if (count > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
    return Status::data_loss("retired batch-window slot out of range");
  }
  if (Status s = read_enum_u8(in, 1, "FailurePolicy", raw); !s.ok()) return s;
  config.failure_policy = static_cast<ServiceConfig::FailurePolicy>(raw);
  if (Status s = in.read_u64(count); !s.ok()) return s;
  config.num_shards = static_cast<std::size_t>(count);
  if (Status s = in.read_u64(count); !s.ok()) return s;
  config.queue_capacity = static_cast<std::size_t>(count);
  if (Status s = in.read_u64(count); !s.ok()) return s;
  config.deadline_budget =
      std::chrono::microseconds(static_cast<std::int64_t>(count));
  // The v1 routing-policy byte (0 least-loaded, 1 hash): range-checked,
  // then ignored — every service routes least-loaded now.
  if (Status s = read_enum_u8(in, 1, "RoutingPolicy", raw); !s.ok()) return s;
  // The v1 result_cache_capacity and result_cache_quantum slots: the
  // quantum is range-checked, then both are ignored — no service caches.
  if (Status s = in.read_u64(count); !s.ok()) return s;
  double quantum = 0.0;
  if (Status s = in.read_f64(quantum); !s.ok()) return s;
  if (!std::isfinite(quantum) || quantum < 0.0) {
    return Status::data_loss(
        "retired cache-quantum slot must be finite and non-negative");
  }
  out = std::move(config);
  return Status();
}

void append_section(Serializer& file, std::uint32_t id,
                    const std::vector<std::uint8_t>& payload) {
  file.write_u32(id);
  file.write_u64(payload.size());
  file.write_u32(crc32(payload));
  file.write_raw(payload);
}

Status decode_section(std::uint32_t id, std::span<const std::uint8_t> payload,
                      Artifacts& artifacts) {
  Deserializer in(payload);
  Status status;
  switch (id) {
    case kSectionRepository:
      status = decode_repository(in, artifacts.repository);
      break;
    case kSectionCalibrationHistory:
      status = decode_history(in, artifacts.calibration_history);
      break;
    case kSectionServiceConfig:
      status = decode_config(in, artifacts.config);
      break;
    default:
      return Status::data_loss("unknown section id " + std::to_string(id));
  }
  if (!status.ok()) return status;
  if (!in.exhausted()) {
    return Status::data_loss("trailing bytes in section " +
                             std::to_string(id));
  }
  return Status();
}

StatusOr<Artifacts> deserialize_artifacts_impl(
    std::span<const std::uint8_t> bytes) {
  Deserializer in(bytes);
  std::span<const std::uint8_t> magic;
  if (Status s = in.read_span(sizeof(kArtifactMagic), magic); !s.ok())
    return s;
  for (std::size_t i = 0; i < sizeof(kArtifactMagic); ++i) {
    if (magic[i] != kArtifactMagic[i]) {
      return Status::data_loss("bad magic: not a QuCAD artifact");
    }
  }
  std::uint32_t version = 0;
  if (Status s = in.read_u32(version); !s.ok()) return s;
  if (version != kArtifactFormatVersion) {
    return Status::failed_precondition(
        "artifact format version " + std::to_string(version) +
        " is not readable by this build (expects version " +
        std::to_string(kArtifactFormatVersion) + ")");
  }
  std::uint32_t section_count = 0;
  if (Status s = in.read_u32(section_count); !s.ok()) return s;

  Artifacts artifacts;
  bool seen_repository = false, seen_history = false, seen_config = false;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    std::uint32_t id = 0;
    if (Status s = in.read_u32(id); !s.ok()) return s;
    std::uint64_t length = 0;
    if (Status s = in.read_u64(length); !s.ok()) return s;
    std::uint32_t crc = 0;
    if (Status s = in.read_u32(crc); !s.ok()) return s;
    if (length > in.remaining()) {
      return Status::data_loss("section " + std::to_string(id) +
                               " length exceeds the file");
    }
    std::span<const std::uint8_t> payload;
    if (Status s = in.read_span(static_cast<std::size_t>(length), payload);
        !s.ok())
      return s;
    if (crc32(payload) != crc) {
      return Status::data_loss("CRC mismatch in section " +
                               std::to_string(id));
    }
    bool* seen = id == kSectionRepository          ? &seen_repository
                 : id == kSectionCalibrationHistory ? &seen_history
                 : id == kSectionServiceConfig      ? &seen_config
                                                    : nullptr;
    if (seen != nullptr && *seen) {
      return Status::data_loss("duplicate section " + std::to_string(id));
    }
    if (Status s = decode_section(id, payload, artifacts); !s.ok()) return s;
    if (seen != nullptr) *seen = true;
  }
  if (!in.exhausted()) {
    return Status::data_loss("trailing bytes after the last section");
  }
  if (!seen_repository || !seen_history || !seen_config) {
    return Status::data_loss("artifact is missing a required section");
  }
  return artifacts;
}

}  // namespace

std::vector<std::uint8_t> serialize_artifacts(const Artifacts& artifacts) {
  Serializer file;
  file.write_raw(std::span<const std::uint8_t>(kArtifactMagic,
                                               sizeof(kArtifactMagic)));
  file.write_u32(kArtifactFormatVersion);
  file.write_u32(3);  // section count

  Serializer repository;
  encode_repository(repository, artifacts.repository);
  append_section(file, kSectionRepository, repository.bytes());

  Serializer history;
  encode_history(history, artifacts.calibration_history);
  append_section(file, kSectionCalibrationHistory, history.bytes());

  Serializer config;
  encode_config(config, artifacts.config);
  append_section(file, kSectionServiceConfig, config.bytes());
  return file.take();
}

StatusOr<Artifacts> deserialize_artifacts(std::span<const std::uint8_t> bytes) {
  // Decoders reconstruct through the domain types' own setters, whose
  // require() checks throw on semantically invalid values; a CRC-valid file
  // carrying such values is corrupt data, not a programming error here.
  try {
    return deserialize_artifacts_impl(bytes);
  } catch (const PreconditionError& e) {
    return Status::data_loss(std::string("invalid value in artifact: ") +
                             e.what());
  }
}

Status save_artifacts(const Artifacts& artifacts, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_artifacts(artifacts);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) {
      return Status::unavailable("cannot open " + tmp + " for writing");
    }
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    if (!os.good()) return Status::unavailable("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::unavailable("cannot rename " + tmp + " to " + path);
  }
  return Status();
}

StatusOr<Artifacts> load_artifacts(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return Status::not_found("cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (is.bad()) return Status::unavailable("read failed for " + path);
  return deserialize_artifacts(bytes);
}

StatusOr<InferenceService> cold_start_service(Environment env,
                                              const Artifacts& artifacts) {
  if (artifacts.calibration_history.empty()) {
    return Status::failed_precondition(
        "artifact carries no calibration stream: nothing to cold-start "
        "the serving epoch from");
  }
  return InferenceService::create(std::move(env), artifacts.repository,
                                  artifacts.calibration_history.back(),
                                  artifacts.config);
}

}  // namespace qucad
