// The persistence layer's test battery: serializer primitive round-trips,
// seeded whole-artifact round-trip properties, disk save/load semantics,
// the corruption battery (every single-byte truncation and every
// single-byte mutation of a golden artifact must be rejected with a
// Status — never a crash, never a partial decode), byte-stability against
// the checked-in golden file (tests/golden/repo_v1.qcd: any layout drift
// without a format-version bump fails here), and the cold-start contract —
// a service rebuilt from a saved artifact serves bitwise-identical
// predictions, for all three execution-backend kinds.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "common/rng.hpp"
#include "core/qucad.hpp"
#include "custom_backend.hpp"
#include "data/seismic_synth.hpp"
#include "io/artifacts.hpp"
#include "io/serializer.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/trainer.hpp"
#include "serve/inference_service.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

// --- serializer primitives ----------------------------------------------

TEST(IoSerializer, PrimitivesRoundTripBitwise) {
  Serializer out;
  out.write_u8(0xAB);
  out.write_u32(0xDEADBEEF);
  out.write_u64(std::numeric_limits<std::uint64_t>::max());
  out.write_i32(-123456);
  out.write_f64(-0.0);
  out.write_f64(std::numeric_limits<double>::quiet_NaN());
  out.write_bool(true);
  out.write_string(std::string("hi\0there", 8));  // embedded NUL survives
  out.write_f64_vector({1.5, -2.25, 1e-300});
  out.write_u8_vector({0, 1, 1, 0});
  out.write_optional_u64(std::nullopt);
  out.write_optional_u64(42);

  Deserializer in(out.bytes());
  std::uint8_t u8 = 0;
  ASSERT_TRUE(in.read_u8(u8).ok());
  EXPECT_EQ(u8, 0xAB);
  std::uint32_t u32 = 0;
  ASSERT_TRUE(in.read_u32(u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEF);
  std::uint64_t u64 = 0;
  ASSERT_TRUE(in.read_u64(u64).ok());
  EXPECT_EQ(u64, std::numeric_limits<std::uint64_t>::max());
  std::int32_t i32 = 0;
  ASSERT_TRUE(in.read_i32(i32).ok());
  EXPECT_EQ(i32, -123456);
  double d = 1.0;
  ASSERT_TRUE(in.read_f64(d).ok());
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(std::signbit(d));  // -0.0 round-trips bitwise
  ASSERT_TRUE(in.read_f64(d).ok());
  EXPECT_TRUE(std::isnan(d));
  bool b = false;
  ASSERT_TRUE(in.read_bool(b).ok());
  EXPECT_TRUE(b);
  std::string s;
  ASSERT_TRUE(in.read_string(s).ok());
  EXPECT_EQ(s, std::string("hi\0there", 8));
  std::vector<double> ds;
  ASSERT_TRUE(in.read_f64_vector(ds).ok());
  EXPECT_EQ(ds, (std::vector<double>{1.5, -2.25, 1e-300}));
  std::vector<std::uint8_t> u8s;
  ASSERT_TRUE(in.read_u8_vector(u8s).ok());
  EXPECT_EQ(u8s, (std::vector<std::uint8_t>{0, 1, 1, 0}));
  std::optional<std::uint64_t> opt;
  ASSERT_TRUE(in.read_optional_u64(opt).ok());
  EXPECT_FALSE(opt.has_value());
  ASSERT_TRUE(in.read_optional_u64(opt).ok());
  EXPECT_EQ(opt, std::optional<std::uint64_t>(42));
  EXPECT_TRUE(in.exhausted());
}

TEST(IoSerializer, IntegersAreLittleEndianOnDisk) {
  Serializer out;
  out.write_u32(0x01020304);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.bytes()[0], 0x04);
  EXPECT_EQ(out.bytes()[1], 0x03);
  EXPECT_EQ(out.bytes()[2], 0x02);
  EXPECT_EQ(out.bytes()[3], 0x01);
}

TEST(IoSerializer, ReadsRejectTruncationWithDataLoss) {
  const std::vector<std::uint8_t> empty;
  Deserializer in{std::span<const std::uint8_t>(empty)};
  std::uint64_t u64 = 0;
  EXPECT_EQ(in.read_u64(u64).code(), StatusCode::kDataLoss);
  double d = 0.0;
  EXPECT_EQ(in.read_f64(d).code(), StatusCode::kDataLoss);
  std::string s;
  EXPECT_EQ(in.read_string(s).code(), StatusCode::kDataLoss);
}

TEST(IoSerializer, CorruptCountCannotForceGiantAllocation) {
  // A u64 element count of 2^60 followed by 3 bytes: the reader must bound
  // the count by the remaining bytes and fail, not reserve 2^60 doubles.
  Serializer out;
  out.write_u64(std::uint64_t{1} << 60);
  out.write_u8(1);
  out.write_u8(2);
  out.write_u8(3);
  Deserializer in(out.bytes());
  std::vector<double> ds;
  EXPECT_EQ(in.read_f64_vector(ds).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(ds.empty());
}

TEST(IoSerializer, BoolRejectsNonBinaryEncoding) {
  Serializer out;
  out.write_u8(2);
  Deserializer in(out.bytes());
  bool b = false;
  EXPECT_EQ(in.read_bool(b).code(), StatusCode::kDataLoss);
}

TEST(IoSerializer, Crc32MatchesTheStandardCheckValue) {
  // The canonical CRC-32 check string: crc32("123456789") = 0xCBF43926.
  const std::string check = "123456789";
  const std::uint32_t crc = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

// --- artifact fixtures ---------------------------------------------------

/// A handcrafted belem-shaped calibration with exact-literal values, so the
/// golden bytes are identical on any IEEE-754 platform (no libm synthesis).
Calibration literal_calibration(double scale) {
  Calibration c(5, {{0, 1}, {1, 2}, {1, 3}, {3, 4}});
  for (int q = 0; q < 5; ++q) {
    c.set_sx_error(q, 0.00025 * scale + 0.0000625 * q);
    c.set_readout(q, ReadoutError{0.015625 * scale + 0.001953125 * q,
                                  0.0234375 * scale});
    c.set_t1_t2(q, 128.0 + 4.0 * q, 96.0 + 2.0 * q);
  }
  int e = 0;
  for (const auto& [a, b] : c.edges()) {
    c.set_cx_error(a, b, 0.0078125 * scale + 0.001953125 * e++);
  }
  return c;
}

/// The deterministic artifact behind tests/golden/repo_v1.qcd: exact-
/// literal values only. Changing what this builds (or how it encodes)
/// REQUIRES regenerating the golden file AND bumping kArtifactFormatVersion
/// — that is the byte-stability contract under test.
Artifacts golden_artifacts() {
  Artifacts artifacts;
  const Calibration day0 = literal_calibration(1.0);
  const std::size_t dims = day0.feature_vector().size();
  artifacts.repository.set_weights(std::vector<double>(dims, 0.5));
  for (int i = 0; i < 3; ++i) {
    RepoEntry entry;
    entry.centroid = literal_calibration(1.0 + 0.25 * i).feature_vector();
    entry.theta = {0.125, -0.25, 0.5, -1.0, 2.0, -4.0, 0.0625, -0.03125};
    entry.frozen = {1, 0, 1, 0, 0, 1, 0, 1};
    entry.mean_cluster_accuracy = 0.5 + 0.125 * i;
    entry.valid = i != 1;  // one Guidance-2 invalid entry in the golden set
    entry.tag = "golden-" + std::to_string(i);
    entry.uses = 7 * i;
    artifacts.repository.add(std::move(entry));
  }
  artifacts.repository.set_threshold(0.375);
  artifacts.calibration_history = {literal_calibration(1.0),
                                   literal_calibration(1.5)};
  artifacts.config = ServiceConfig()
                         .with_num_shards(2)
                         .with_queue_capacity(64)
                         .with_backend(BackendConfig()
                                           .with_kind(BackendKind::kSampled)
                                           .with_shots(512)
                                           .with_seed(99));
  return artifacts;
}

/// Seeded pseudo-random artifact for the round-trip property tests; all
/// values land inside the domain setters' legal ranges.
Artifacts random_artifacts(Rng& rng) {
  Artifacts artifacts;
  const int num_qubits = 2 + static_cast<int>(rng.uniform(0.0, 3.0));
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < num_qubits; ++q) edges.emplace_back(q, q + 1);
  auto random_calibration = [&] {
    Calibration c(num_qubits, edges);
    for (int q = 0; q < num_qubits; ++q) {
      c.set_sx_error(q, rng.uniform(1e-5, 0.02));
      c.set_readout(q, ReadoutError{rng.uniform(1e-4, 0.3),
                                    rng.uniform(1e-4, 0.3)});
      const double t1 = rng.uniform(30.0, 200.0);
      c.set_t1_t2(q, t1, rng.uniform(10.0, 2.0 * t1));
    }
    for (const auto& [a, b] : edges) {
      c.set_cx_error(a, b, rng.uniform(1e-4, 0.2));
    }
    return c;
  };

  const std::size_t dims = random_calibration().feature_vector().size();
  std::vector<double> weights(dims);
  for (double& w : weights) w = rng.uniform(0.1, 2.0);
  artifacts.repository.set_weights(std::move(weights));
  const int entries = static_cast<int>(rng.uniform(0.0, 4.0));
  for (int i = 0; i < entries; ++i) {
    RepoEntry entry;
    entry.centroid = random_calibration().feature_vector();
    entry.theta.resize(4 + static_cast<std::size_t>(rng.uniform(0.0, 8.0)));
    for (double& t : entry.theta) t = rng.normal(0.0, 2.0);
    entry.frozen.resize(entry.theta.size());
    for (auto& f : entry.frozen) f = rng.bernoulli(0.5) ? 1 : 0;
    entry.mean_cluster_accuracy = rng.uniform(0.0, 1.0);
    entry.valid = rng.bernoulli(0.7);
    entry.tag = "rand-" + std::to_string(i);
    entry.uses = static_cast<int>(rng.uniform(0.0, 50.0));
    artifacts.repository.add(std::move(entry));
  }
  artifacts.repository.set_threshold(rng.uniform(0.0, 5.0));

  const int days = 1 + static_cast<int>(rng.uniform(0.0, 3.0));
  for (int d = 0; d < days; ++d) {
    artifacts.calibration_history.push_back(random_calibration());
  }

  artifacts.config.num_shards = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
  artifacts.config.queue_capacity =
      8 + static_cast<std::size_t>(rng.uniform(0.0, 100.0));
  if (rng.bernoulli(0.5)) {
    artifacts.config.eval.backend = BackendConfig()
                                        .with_kind(BackendKind::kSampled)
                                        .with_shots(128)
                                        .with_seed(static_cast<std::uint64_t>(
                                            rng.uniform(0.0, 1e6)));
  } else if (rng.bernoulli(0.5)) {
    artifacts.config.eval.backend = BackendConfig().with_shots(64).with_seed(
        static_cast<std::uint64_t>(rng.uniform(0.0, 1e6)));
  }
  return artifacts;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// --- whole-artifact round trips ------------------------------------------

TEST(IoArtifacts, SeededRoundTripsAreBitwiseStable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Artifacts artifacts = random_artifacts(rng);
    const std::vector<std::uint8_t> bytes = serialize_artifacts(artifacts);
    const StatusOr<Artifacts> decoded = deserialize_artifacts(bytes);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.status().to_string();
    // Bitwise fixed point: re-encoding the decoded artifact reproduces the
    // exact bytes, which covers every field without a per-field comparator.
    EXPECT_EQ(serialize_artifacts(*decoded), bytes) << "seed " << seed;
    EXPECT_EQ(decoded->repository.size(), artifacts.repository.size());
    EXPECT_EQ(decoded->calibration_history.size(),
              artifacts.calibration_history.size());
  }
}

TEST(IoArtifacts, EmptyRepositoryRoundTrips) {
  Artifacts artifacts;
  artifacts.calibration_history = {literal_calibration(1.0)};
  const std::vector<std::uint8_t> bytes = serialize_artifacts(artifacts);
  const StatusOr<Artifacts> decoded = deserialize_artifacts(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->repository.size(), 0u);
  EXPECT_EQ(serialize_artifacts(*decoded), bytes);
}

TEST(IoArtifacts, InvalidEntriesAndFlagsSurviveTheRoundTrip) {
  const Artifacts artifacts = golden_artifacts();
  const StatusOr<Artifacts> decoded =
      deserialize_artifacts(serialize_artifacts(artifacts));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->repository.size(), 3u);
  EXPECT_TRUE(decoded->repository.entry(0).valid);
  EXPECT_FALSE(decoded->repository.entry(1).valid);  // Guidance-2 flag kept
  EXPECT_TRUE(decoded->repository.entry(2).valid);
  EXPECT_EQ(decoded->repository.entry(2).tag, "golden-2");
  EXPECT_EQ(decoded->repository.entry(2).uses, 14);
  EXPECT_EQ(decoded->repository.entry(1).frozen,
            (std::vector<std::uint8_t>{1, 0, 1, 0, 0, 1, 0, 1}));
  EXPECT_EQ(decoded->config.eval.backend.kind, BackendKind::kSampled);
  EXPECT_EQ(decoded->config.eval.backend.seed,
            std::optional<std::uint64_t>(99));
}

TEST(IoArtifacts, SaveLoadRoundTripsThroughDisk) {
  const Artifacts artifacts = golden_artifacts();
  const std::string path = temp_path("roundtrip.qcd");
  ASSERT_TRUE(save_artifacts(artifacts, path).ok());
  // Atomic save: the temporary is renamed away, never left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const StatusOr<Artifacts> loaded = load_artifacts(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(serialize_artifacts(*loaded), serialize_artifacts(artifacts));
  std::remove(path.c_str());
}

TEST(IoArtifacts, MissingFileIsNotFound) {
  EXPECT_EQ(load_artifacts(temp_path("does_not_exist.qcd")).status().code(),
            StatusCode::kNotFound);
}

// --- structural rejection ------------------------------------------------

TEST(IoArtifacts, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = serialize_artifacts(golden_artifacts());
  bytes[0] = 'X';
  EXPECT_EQ(deserialize_artifacts(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(IoArtifacts, VersionSkewRejectedAsFailedPrecondition) {
  std::vector<std::uint8_t> bytes = serialize_artifacts(golden_artifacts());
  bytes[4] = static_cast<std::uint8_t>(kArtifactFormatVersion + 1);
  const StatusOr<Artifacts> result = deserialize_artifacts(bytes);
  ASSERT_FALSE(result.ok());
  // Version skew is a precondition problem (wrong reader for intact bytes),
  // distinct from corruption.
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IoArtifacts, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes = serialize_artifacts(golden_artifacts());
  bytes.push_back(0);
  EXPECT_EQ(deserialize_artifacts(bytes).status().code(),
            StatusCode::kDataLoss);
}

TEST(IoArtifacts, MissingSectionRejected) {
  // Rebuild the container with only the first two sections (patching the
  // section count): structurally valid, semantically incomplete.
  const std::vector<std::uint8_t> bytes =
      serialize_artifacts(golden_artifacts());
  Deserializer in(bytes);
  std::span<const std::uint8_t> skip;
  ASSERT_TRUE(in.read_span(12, skip).ok());  // magic + version + count
  std::size_t section_end = in.offset();
  for (int s = 0; s < 2; ++s) {
    std::uint32_t id = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    ASSERT_TRUE(in.read_u32(id).ok());
    ASSERT_TRUE(in.read_u64(length).ok());
    ASSERT_TRUE(in.read_u32(crc).ok());
    ASSERT_TRUE(in.read_span(static_cast<std::size_t>(length), skip).ok());
    section_end = in.offset();
  }
  std::vector<std::uint8_t> two_sections(bytes.begin(),
                                         bytes.begin() + section_end);
  two_sections[8] = 2;  // section count u32 LE: 3 -> 2
  const StatusOr<Artifacts> result = deserialize_artifacts(two_sections);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

// Pinned fuzzer find (fuzz_artifact_container, fuzz/corpus/
// artifact_container/huge_qubit_count_repro): a CRC-valid container whose
// calibration-history section claims a day with INT32_MAX qubits behind a
// 20-byte payload. The qubit count must fail the payload-size bound and
// come back as kDataLoss before the Calibration constructor can turn it
// into a multi-gigabyte allocation (whose bad_alloc would escape the
// deserializer's no-throw contract).
TEST(IoArtifacts, HugeQubitCountInHistorySectionRejectedWithoutAllocating) {
  Serializer day;
  day.write_u64(1);  // day count
  day.write_i32(std::numeric_limits<std::int32_t>::max());  // num_qubits
  day.write_u64(0);  // edge count
  const std::vector<std::uint8_t>& payload = day.bytes();

  Serializer file;
  file.write_raw(std::span<const std::uint8_t>(kArtifactMagic,
                                               sizeof(kArtifactMagic)));
  file.write_u32(kArtifactFormatVersion);
  file.write_u32(1);  // section count
  file.write_u32(kSectionCalibrationHistory);
  file.write_u64(payload.size());
  file.write_u32(crc32(payload));
  file.write_raw(payload);

  const StatusOr<Artifacts> result = deserialize_artifacts(file.bytes());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

/// `good` with `patch` written at `offset` into the payload of section
/// `section_id` and that section's CRC fixed up, so only the payload
/// decoder can object.
std::vector<std::uint8_t> patch_section_payload(
    const std::vector<std::uint8_t>& good, std::uint32_t section_id,
    std::size_t offset, const std::vector<std::uint8_t>& patch) {
  std::vector<std::uint8_t> bytes = good;
  Deserializer in(good);
  std::span<const std::uint8_t> skip;
  EXPECT_TRUE(in.read_span(12, skip).ok());
  for (int s = 0; s < 3; ++s) {
    std::uint32_t id = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    EXPECT_TRUE(in.read_u32(id).ok());
    EXPECT_TRUE(in.read_u64(length).ok());
    const std::size_t crc_offset = in.offset();
    EXPECT_TRUE(in.read_u32(crc).ok());
    const std::size_t payload_offset = in.offset();
    EXPECT_TRUE(in.read_span(static_cast<std::size_t>(length), skip).ok());
    if (id != section_id) continue;
    for (std::size_t i = 0; i < patch.size(); ++i) {
      bytes[payload_offset + offset + i] = patch[i];
    }
    const std::span<const std::uint8_t> payload(
        bytes.data() + payload_offset, static_cast<std::size_t>(length));
    Serializer fixed_crc;
    fixed_crc.write_u32(crc32(payload));
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[crc_offset + i] = fixed_crc.bytes()[i];
    }
  }
  return bytes;
}

TEST(IoArtifacts, SemanticallyInvalidValuesRejectedNotThrown) {
  // A CRC-valid artifact whose calibration carries an illegal error rate:
  // re-encode a golden calibration day with sx pushed out of [0,1). The
  // domain setter would throw; the deserializer must convert to kDataLoss.
  const std::vector<std::uint8_t> good =
      serialize_artifacts(golden_artifacts());
  // Payload: u64 day count, then day 0 = i32 nq, u64 edge count,
  // 4 edges x 2 i32, then nq f64 sx errors — first sx at +8+4+8+32.
  Serializer patch;
  patch.write_f64(2.0);  // illegal: sx error must be in [0,1)
  const std::vector<std::uint8_t> bytes = patch_section_payload(
      good, kSectionCalibrationHistory, 8 + 4 + 8 + 32, patch.bytes());
  ASSERT_NE(bytes, good);
  const StatusOr<Artifacts> result = deserialize_artifacts(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

/// A v1 file written before BackendConfig::shots applied to the density
/// kind: the two legacy config slots (i32 shots, u64 seed after the two
/// noise durations and two noise flags) carry `shots` / `seed`.
std::vector<std::uint8_t> legacy_shots_artifact(const Artifacts& artifacts,
                                                std::int32_t shots,
                                                std::uint64_t seed) {
  Serializer legacy;
  legacy.write_i32(shots);
  legacy.write_u64(seed);
  return patch_section_payload(serialize_artifacts(artifacts),
                               kSectionServiceConfig, 8 + 8 + 1 + 1,
                               legacy.bytes());
}

TEST(IoArtifacts, LegacyDensityShotsLoadAsBackendShots) {
  Artifacts artifacts = golden_artifacts();
  artifacts.config.eval.backend = BackendConfig{};
  const StatusOr<Artifacts> loaded =
      deserialize_artifacts(legacy_shots_artifact(artifacts, 512, 7));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->config.eval.backend.kind, BackendKind::kDensityNoisy);
  EXPECT_EQ(loaded->config.eval.backend.shots, 512);
  EXPECT_EQ(loaded->config.eval.backend.seed, std::optional<std::uint64_t>(7));
  EXPECT_TRUE(loaded->config.validate().ok());
  // Re-encoding writes the legacy slots as the v1 defaults and the shots
  // in the backend config: the file it writes is the canonical form.
  Artifacts expected = artifacts;
  expected.config.eval.backend = BackendConfig().with_shots(512).with_seed(7);
  EXPECT_EQ(serialize_artifacts(*loaded), serialize_artifacts(expected));

  // The legacy knob never combined with another kind, with backend shots,
  // or with a negative count; such files are rejected with a Status.
  for (const BackendConfig& backend :
       {BackendConfig().with_kind(BackendKind::kSampled).with_shots(128),
        BackendConfig().with_kind(BackendKind::kPureStatevector),
        BackendConfig().with_shots(16)}) {
    artifacts.config.eval.backend = backend;
    const StatusOr<Artifacts> rejected =
        deserialize_artifacts(legacy_shots_artifact(artifacts, 64, 7));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  artifacts.config.eval.backend = BackendConfig{};
  EXPECT_FALSE(
      deserialize_artifacts(legacy_shots_artifact(artifacts, -3, 7)).ok());
}

/// Payload length of section `section_id` in the artifact `bytes`.
std::size_t section_payload_length(const std::vector<std::uint8_t>& bytes,
                                   std::uint32_t section_id) {
  Deserializer in(bytes);
  std::span<const std::uint8_t> skip;
  EXPECT_TRUE(in.read_span(12, skip).ok());
  for (int s = 0; s < 3; ++s) {
    std::uint32_t id = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    EXPECT_TRUE(in.read_u32(id).ok());
    EXPECT_TRUE(in.read_u64(length).ok());
    EXPECT_TRUE(in.read_u32(crc).ok());
    if (id == section_id) return static_cast<std::size_t>(length);
    EXPECT_TRUE(in.read_span(static_cast<std::size_t>(length), skip).ok());
  }
  ADD_FAILURE() << "artifact has no section " << section_id;
  return 0;
}

TEST(IoArtifacts, LegacyRoutingByteIsRangeCheckedThenIgnored) {
  // The v1 config keeps the retired routing-policy byte (0 least-loaded,
  // 1 hash) just before the two retired result-cache slots (u64 capacity,
  // f64 quantum) that end the section. A file written with hash routing still
  // loads, as the one policy left; any other value is corrupt.
  const std::vector<std::uint8_t> good =
      serialize_artifacts(golden_artifacts());
  const std::size_t offset =
      section_payload_length(good, kSectionServiceConfig) - 8 - 8 - 1;

  const std::vector<std::uint8_t> hash_routed =
      patch_section_payload(good, kSectionServiceConfig, offset, {1});
  ASSERT_NE(hash_routed, good);
  const StatusOr<Artifacts> loaded = deserialize_artifacts(hash_routed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(serialize_artifacts(*loaded), good)
      << "the byte must be ignored and re-encoded as 0";

  const StatusOr<Artifacts> rejected = deserialize_artifacts(
      patch_section_payload(good, kSectionServiceConfig, offset, {2}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
}

TEST(IoArtifacts, LegacyCacheSlotsAreRangeCheckedThenIgnored) {
  // The two retired result-cache slots end the v1 config section: a u64
  // capacity (any value loads) and an f64 quantum (finite and >= 0 loads).
  // Both are ignored and re-encoded as 0, so a file written with the cache
  // on (qucad_serve wrote capacity 512) decodes to the very artifacts a
  // cache-free writer produces, and cold-starts like them.
  const std::vector<std::uint8_t> good =
      serialize_artifacts(golden_artifacts());
  const std::size_t capacity_offset =
      section_payload_length(good, kSectionServiceConfig) - 8 - 8;
  const std::size_t quantum_offset = capacity_offset + 8;

  Serializer cached;
  cached.write_u64(512);
  cached.write_f64(0.25);
  const std::vector<std::uint8_t> with_cache = patch_section_payload(
      good, kSectionServiceConfig, capacity_offset, cached.bytes());
  ASSERT_NE(with_cache, good);
  const StatusOr<Artifacts> loaded = deserialize_artifacts(with_cache);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(serialize_artifacts(*loaded), good)
      << "the slots must be ignored and re-encoded as 0";

  for (const double quantum : {std::numeric_limits<double>::quiet_NaN(),
                               -0.5, std::numeric_limits<double>::infinity()}) {
    Serializer bad;
    bad.write_f64(quantum);
    const StatusOr<Artifacts> rejected =
        deserialize_artifacts(patch_section_payload(
            good, kSectionServiceConfig, quantum_offset, bad.bytes()));
    ASSERT_FALSE(rejected.ok()) << "quantum " << quantum;
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss)
        << "quantum " << quantum;
  }
}

TEST(IoArtifacts, LegacyKnobSlotsAreRangeCheckedThenIgnored) {
  // Six retired knob slots of the v1 config: the SX and CX pulse durations
  // open the section; the failure-report flag, the bootstrap scale, the
  // batch-size cap and the batch window sit 67 bytes before its end (ahead
  // of 1 + 8 + 8 + 8 serving bytes, the routing byte and the two cache
  // slots). In-range values load and decode to the artifacts the defaults
  // encode; the values a service could never run with stay corrupt. (IoGolden.
  // CheckedInArtifactLoads pins that both checked-in files re-encode to the
  // current bytes.)
  const std::vector<std::uint8_t> good =
      serialize_artifacts(golden_artifacts());
  constexpr std::size_t kDurationsOffset = 0;
  const std::size_t flag_offset =
      section_payload_length(good, kSectionServiceConfig) - 67;
  const std::size_t scale_offset = flag_offset + 1;
  const std::size_t batch_offset = scale_offset + 8;
  const std::size_t window_offset = batch_offset + 8;

  Serializer durations;
  durations.write_f64(0.05);
  durations.write_f64(0.45);
  Serializer knobs;
  knobs.write_bool(false);
  knobs.write_f64(2.5);
  knobs.write_u64(8);
  knobs.write_u64(50'000);
  const std::vector<std::uint8_t> customized = patch_section_payload(
      patch_section_payload(good, kSectionServiceConfig, kDurationsOffset,
                            durations.bytes()),
      kSectionServiceConfig, flag_offset, knobs.bytes());
  ASSERT_NE(customized, good);
  const StatusOr<Artifacts> loaded = deserialize_artifacts(customized);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(serialize_artifacts(*loaded), good)
      << "the slots must be ignored and re-encoded as the defaults";

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto f64 = [](double value) {
    Serializer out;
    out.write_f64(value);
    return out.bytes();
  };
  struct Bad {
    std::string what;
    std::size_t offset;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Bad> bad;
  for (const double duration : {nan, inf, -inf, -0.1}) {
    bad.push_back({"sx duration " + std::to_string(duration),
                   kDurationsOffset, f64(duration)});
    bad.push_back({"cx duration " + std::to_string(duration),
                   kDurationsOffset + 8, f64(duration)});
  }
  for (const double scale : {0.0, -1.5, nan}) {
    bad.push_back(
        {"bootstrap scale " + std::to_string(scale), scale_offset, f64(scale)});
  }
  Serializer zero_batch;
  zero_batch.write_u64(0);
  bad.push_back({"batch-size cap 0", batch_offset, zero_batch.bytes()});
  // A window above INT64_MAX us decoded to a negative duration.
  for (const std::uint64_t window :
       {static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
            1,
        std::numeric_limits<std::uint64_t>::max()}) {
    Serializer out;
    out.write_u64(window);
    bad.push_back(
        {"batch window " + std::to_string(window), window_offset, out.bytes()});
  }
  for (const Bad& b : bad) {
    const StatusOr<Artifacts> rejected = deserialize_artifacts(
        patch_section_payload(good, kSectionServiceConfig, b.offset, b.bytes));
    ASSERT_FALSE(rejected.ok()) << b.what;
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss) << b.what;
  }
}

TEST(IoArtifacts, LegacyDeterminismByteNeedsASeed) {
  // The v1 config keeps the retired determinism byte right after the
  // backend seed: 36 bytes of noise, legacy-shot, cache, kind and shots
  // slots, then the optional u64 seed (1 presence byte + 8 when set).
  // Encode writes "seeded"; a cleared byte beside a seed still loads, while
  // a set byte without a seed names a stream v1 could never serve.
  constexpr std::size_t kSeedOffset = 8 + 8 + 1 + 1 + 4 + 8 + 1 + 1 + 4;
  Artifacts artifacts = golden_artifacts();
  artifacts.config.eval.backend.seed = 7;
  const std::vector<std::uint8_t> seeded = serialize_artifacts(artifacts);
  const std::vector<std::uint8_t> waived = patch_section_payload(
      seeded, kSectionServiceConfig, kSeedOffset + 9, {0});
  ASSERT_NE(waived, seeded);
  const StatusOr<Artifacts> loaded = deserialize_artifacts(waived);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->config.eval.backend.seed, std::optional<std::uint64_t>(7));
  EXPECT_EQ(serialize_artifacts(*loaded), seeded);

  artifacts.config.eval.backend.seed = std::nullopt;
  const std::vector<std::uint8_t> unseeded = serialize_artifacts(artifacts);
  ASSERT_TRUE(deserialize_artifacts(unseeded).ok());
  const std::vector<std::uint8_t> demanded = patch_section_payload(
      unseeded, kSectionServiceConfig, kSeedOffset + 1, {1});
  ASSERT_NE(demanded, unseeded);
  const StatusOr<Artifacts> rejected = deserialize_artifacts(demanded);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
}

TEST(IoArtifacts, CustomBackendKindRoundTrips) {
  // A custom kind (16, beyond the built-in enumerators) passes validate(),
  // so the file a service writes with it must load again.
  Artifacts artifacts = golden_artifacts();
  artifacts.config.eval.backend =
      BackendConfig().with_kind(test::kCustomBackendKind).with_shots(48);
  ASSERT_TRUE(artifacts.config.validate().ok());
  const std::vector<std::uint8_t> bytes = serialize_artifacts(artifacts);
  const StatusOr<Artifacts> loaded = deserialize_artifacts(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->config.eval.backend.kind, test::kCustomBackendKind);
  EXPECT_EQ(loaded->config.eval.backend.shots, 48);
  EXPECT_EQ(serialize_artifacts(*loaded), bytes);
}

// --- corruption battery --------------------------------------------------

TEST(IoCorruption, EverySingleByteTruncationRejected) {
  const std::vector<std::uint8_t> golden =
      serialize_artifacts(golden_artifacts());
  for (std::size_t keep = 0; keep < golden.size(); ++keep) {
    const std::span<const std::uint8_t> truncated(golden.data(), keep);
    const StatusOr<Artifacts> result = deserialize_artifacts(truncated);
    EXPECT_FALSE(result.ok()) << "decoded a " << keep << "-byte prefix of a "
                              << golden.size() << "-byte artifact";
  }
}

TEST(IoCorruption, EverySingleByteMutationRejected) {
  // Single-byte payload damage is exactly what CRC-32 guarantees to catch;
  // header/length/CRC damage must fail structurally. Sweep every byte.
  const std::vector<std::uint8_t> golden =
      serialize_artifacts(golden_artifacts());
  std::vector<std::uint8_t> mutated = golden;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    mutated[i] = golden[i] ^ 0x5A;
    const StatusOr<Artifacts> result = deserialize_artifacts(mutated);
    EXPECT_FALSE(result.ok())
        << "decoded with byte " << i << " flipped to 0x" << std::hex
        << static_cast<int>(mutated[i]);
    mutated[i] = golden[i];
  }
}

TEST(IoCorruption, GarbageBuffersRejected) {
  Rng rng(404);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.uniform(0.0, 256.0)));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    }
    EXPECT_FALSE(deserialize_artifacts(garbage).ok());
  }
}

// --- golden byte stability ----------------------------------------------

std::string golden_path() {
  return std::string(QUCAD_GOLDEN_DIR) + "/repo_v1.qcd";
}

TEST(IoGolden, SerializationIsByteStableAgainstTheCheckedInArtifact) {
  const std::vector<std::uint8_t> bytes =
      serialize_artifacts(golden_artifacts());
  if (std::getenv("QUCAD_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path();
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good());
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream is(golden_path(), std::ios::binary);
  ASSERT_TRUE(is.good())
      << "missing golden artifact " << golden_path()
      << " (run with QUCAD_REGENERATE_GOLDEN=1 to create it)";
  const std::vector<std::uint8_t> checked_in(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), checked_in.size())
      << "artifact byte layout changed; if intentional, bump "
         "kArtifactFormatVersion and regenerate tests/golden/repo_v1.qcd";
  EXPECT_EQ(bytes, checked_in)
      << "artifact byte layout changed; if intentional, bump "
         "kArtifactFormatVersion and regenerate tests/golden/repo_v1.qcd";
}

TEST(IoGolden, CheckedInArtifactLoads) {
  // repo_v1_result_cache.qcd is the same artifact written while the serving
  // result cache existed (capacity slot 32). It must keep loading, as the
  // very service the current encoder writes.
  const std::vector<std::uint8_t> current =
      serialize_artifacts(golden_artifacts());
  for (const std::string& path :
       {golden_path(),
        std::string(QUCAD_GOLDEN_DIR) + "/repo_v1_result_cache.qcd"}) {
    SCOPED_TRACE(path);
    const StatusOr<Artifacts> loaded = load_artifacts(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded->repository.size(), 3u);
    EXPECT_EQ(loaded->repository.threshold(), 0.375);
    EXPECT_EQ(loaded->calibration_history.size(), 2u);
    EXPECT_EQ(serialize_artifacts(*loaded), current);
  }
}

// --- cold start ----------------------------------------------------------

/// Small trained environment with readout slots {1, 3}: the positional
/// readout contract (logit k = slot k, not qubit k) must survive the
/// save/load/cold-start cycle.
struct IoFixture {
  Environment env;
  CalibrationHistory history{FluctuationScenario::belem(), 60, 77};

  IoFixture() {
    Dataset raw = make_seismic(96, 5);
    const FeatureScaler scaler = FeatureScaler::fit(raw);
    env.train = scaler.transform(raw);
    env.test = scaler.transform(make_seismic(32, 9));
    env.model = build_paper_model(4, 4, 2, 1);
    env.model.readout_qubits = {1, 3};
    env.theta_pretrained = init_params(env.model, 7);
    TrainConfig config;
    config.epochs = 4;
    train_model(env.model, env.theta_pretrained, env.train, config);
    env.transpiled = transpile_model(env.model.circuit,
                                     env.model.readout_qubits,
                                     CouplingMap::belem(), &history.day(0));
    env.manager_options.admm.iterations = 2;
    env.manager_options.admm.epochs_per_iteration = 1;
    env.manager_options.admm.finetune_epochs = 0;
    env.admm = env.manager_options.admm;
  }

  ModelRepository small_repository() const {
    ModelRepository repo;
    repo.set_weights(
        std::vector<double>(history.day(0).feature_vector().size(), 1.0));
    for (int i = 0; i < 2; ++i) {
      RepoEntry entry;
      entry.centroid = history.day(10 + 20 * i).feature_vector();
      entry.theta = env.theta_pretrained;
      entry.theta[static_cast<std::size_t>(i)] += 0.1 * (i + 1);
      entry.tag = "io-" + std::to_string(i);
      repo.add(std::move(entry));
    }
    repo.set_threshold(1e9);
    return repo;
  }
};

TEST(IoColdStart, BitwiseIdenticalPredictionsAcrossAllBackendKinds) {
  const IoFixture fixture;
  const struct {
    const char* label;
    BackendConfig backend;
  } kinds[] = {
      {"density_noisy", BackendConfig{}},
      {"pure_statevector",
       BackendConfig().with_kind(BackendKind::kPureStatevector)},
      {"sampled", BackendConfig()
                      .with_kind(BackendKind::kSampled)
                      .with_shots(256)
                      .with_seed(11)},
      {"density_plus_shots", BackendConfig().with_shots(256).with_seed(11)},
  };
  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind.label);
    Artifacts artifacts;
    artifacts.repository = fixture.small_repository();
    artifacts.calibration_history = fixture.history.slice(0, 3);
    artifacts.config = ServiceConfig::from_environment(fixture.env)
                           .with_backend(kind.backend);

    // The in-memory service the artifacts describe...
    StatusOr<InferenceService> live = InferenceService::create(
        fixture.env, artifacts.repository,
        artifacts.calibration_history.back(), artifacts.config);
    ASSERT_TRUE(live.ok()) << live.status().to_string();

    // ...and a service cold-started from the round-tripped file.
    const std::string path =
        temp_path(std::string("cold_start_") + kind.label + ".qcd");
    ASSERT_TRUE(save_artifacts(artifacts, path).ok());
    const StatusOr<Artifacts> loaded = load_artifacts(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    StatusOr<InferenceService> cold =
        cold_start_service(fixture.env, *loaded);
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
    std::remove(path.c_str());

    // Same batch through both: one sweep each, so the sampled backend's
    // batch-layout-derived RNG streams line up and even finite-shot logits
    // must agree bitwise.
    const std::span<const std::vector<double>> batch(
        fixture.env.test.features.data(),
        std::min<std::size_t>(fixture.env.test.features.size(), 12));
    const auto live_predictions = live->submit_batch(batch);
    const auto cold_predictions = cold->submit_batch(batch);
    ASSERT_TRUE(live_predictions.ok()) << live_predictions.status().to_string();
    ASSERT_TRUE(cold_predictions.ok()) << cold_predictions.status().to_string();
    ASSERT_EQ(live_predictions->size(), cold_predictions->size());
    for (std::size_t i = 0; i < live_predictions->size(); ++i) {
      const Prediction& a = (*live_predictions)[i];
      const Prediction& b = (*cold_predictions)[i];
      EXPECT_EQ(a.label, b.label) << "sample " << i;
      EXPECT_EQ(a.backend, b.backend) << "sample " << i;
      ASSERT_EQ(a.logits.size(), b.logits.size());
      for (std::size_t k = 0; k < a.logits.size(); ++k) {
        // Bitwise, not approximate: persistence must not perturb a single
        // mantissa bit of the served logits.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.logits[k]),
                  std::bit_cast<std::uint64_t>(b.logits[k]))
            << "sample " << i << " logit " << k;
      }
    }
  }
}

TEST(IoColdStart, UnregisteredBackendKindIsAStatus) {
  // An artifact naming a kind this process has no factory for loads, and
  // the cold start fails with the registry's invalid-argument Status
  // instead of aborting; once the kind is registered it serves.
  const IoFixture fixture;
  Artifacts artifacts;
  artifacts.repository = fixture.small_repository();
  artifacts.calibration_history = fixture.history.slice(0, 2);
  artifacts.config =
      ServiceConfig::from_environment(fixture.env)
          .with_backend(BackendConfig()
                            .with_kind(test::kCustomBackendKind)
                            .with_shots(32));
  const StatusOr<Artifacts> loaded =
      deserialize_artifacts(serialize_artifacts(artifacts));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const StatusOr<InferenceService> missing =
      cold_start_service(fixture.env, *loaded);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  test::register_custom_backend_kind();
  StatusOr<InferenceService> served = cold_start_service(fixture.env, *loaded);
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  const auto prediction = served->submit(fixture.env.test.features[0]);
  ASSERT_TRUE(prediction.ok()) << prediction.status().to_string();
  EXPECT_EQ(prediction->backend, test::kCustomBackendKind);
}

TEST(IoColdStart, OversizedShardCountIsAStatus) {
  // num_shards is a u64 in the file. An absurd count decodes, and the cold
  // start refuses it through ServiceConfig::validate() before it reserves a
  // shard or starts a dispatcher thread.
  const IoFixture fixture;
  Artifacts artifacts;
  artifacts.repository = fixture.small_repository();
  artifacts.calibration_history = fixture.history.slice(0, 2);
  artifacts.config = ServiceConfig::from_environment(fixture.env);
  artifacts.config.num_shards = std::size_t{1} << 62;
  const StatusOr<Artifacts> loaded =
      deserialize_artifacts(serialize_artifacts(artifacts));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->config.num_shards, std::size_t{1} << 62);
  const StatusOr<InferenceService> refused =
      cold_start_service(fixture.env, *loaded);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoColdStart, EmptyCalibrationStreamRejected) {
  const IoFixture fixture;
  Artifacts artifacts;
  artifacts.repository = fixture.small_repository();
  const StatusOr<InferenceService> result =
      cold_start_service(fixture.env, artifacts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace qucad
