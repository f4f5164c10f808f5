#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "noise/calibration.hpp"
#include "repo/manager.hpp"
#include "serve/shard.hpp"

namespace qucad {

class InferenceService;

/// \file
/// The deployable front of the serving layer: a length-prefixed binary TCP
/// protocol wrapping InferenceService::submit / on_calibration, so the
/// sharded in-process service becomes a network daemon
/// (examples/qucad_serve.cpp) that remote processes classify against and
/// feed calibration snapshots to.
///
/// Framing: every message is a u32 little-endian payload length followed by
/// the payload; payload byte 0 is the WireMessageType, the rest is the
/// io/serializer.hpp encoding of the message body. The codec is exposed
/// separately from the sockets so conformance tests can drive it against
/// corrupt bytes without a connection.
///
/// Protocol discipline at the server: a frame that is malformed ON THE WIRE
/// (oversized length, unknown type, undecodable body) gets an error
/// response and the connection is closed — the stream can no longer be
/// trusted. A well-formed request the SERVICE refuses (wrong feature arity,
/// admission shed, Guidance-2 failure) gets the refusing Status as a
/// response and the connection stays open: that is a serving outcome, not a
/// protocol violation. A connection dropped mid-frame is closed quietly;
/// other connections are unaffected.

/// Upper bound on a frame payload. A length prefix beyond this is rejected
/// before any allocation — the first line of defense against garbage or
/// hostile length fields.
inline constexpr std::uint32_t kWireMaxPayload = 1u << 20;

/// Payload byte 0 of every frame.
enum class WireMessageType : std::uint8_t {
  kPredictRequest = 1,    ///< body: feature vector (f64 vector)
  kPredictResponse = 2,   ///< body: Status; on OK a Prediction
  kCalibrationPush = 3,   ///< body: one Calibration snapshot
  kCalibrationAck = 4,    ///< body: Status; on OK a WireCalibrationAck
};

/// What a calibration push did to the service — the wire projection of
/// CalibrationReport (the repository decision, the epoch serving after the
/// event, and the Guidance-2 failure status, if any).
struct WireCalibrationAck {
  OnlineManager::Decision::Action action =
      OnlineManager::Decision::Action::Reuse;
  std::uint64_t epoch = 0;
  bool swapped = false;
  Status failure;
};

// --- codec --------------------------------------------------------------
// Encoders produce frame payloads (type byte + body, no length prefix);
// decoders validate the type byte and return kDataLoss on any malformed
// body, without partially mutating the output.

std::vector<std::uint8_t> encode_predict_request(
    std::span<const double> features);
std::vector<std::uint8_t> encode_predict_response(
    const StatusOr<Prediction>& result);
std::vector<std::uint8_t> encode_calibration_push(
    const Calibration& calibration);
std::vector<std::uint8_t> encode_calibration_ack(
    const StatusOr<WireCalibrationAck>& result);

Status decode_predict_request(std::span<const std::uint8_t> payload,
                              std::vector<double>& features);
/// A remote serving error decodes as that error's Status (the transported
/// Status is the return value); transport corruption decodes as kDataLoss.
StatusOr<Prediction> decode_predict_response(
    std::span<const std::uint8_t> payload);
Status decode_calibration_push(std::span<const std::uint8_t> payload,
                               Calibration& calibration);
StatusOr<WireCalibrationAck> decode_calibration_ack(
    std::span<const std::uint8_t> payload);

// --- sockets ------------------------------------------------------------

struct WireServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// WireServer::port() — what the loopback tests and benches do).
  std::uint16_t port = 0;
  /// Bind the loopback interface only (the safe default); clear to accept
  /// connections from other hosts (the deployed-daemon shape).
  bool loopback_only = true;
};

/// The TCP front-end: accepts connections and serves frames against a
/// borrowed InferenceService (which must outlive the server). Each
/// connection is handled by its own thread issuing blocking submits, so
/// concurrent connections coalesce in the service's shard dispatchers
/// exactly like in-process submit callers do. A finished connection's
/// thread is joined before the next connection's thread is spawned, and a
/// spawn that fails refuses only that peer. stop() (or destruction) closes
/// the listener and every live connection, then joins.
class WireServer {
 public:
  static StatusOr<WireServer> start(InferenceService& service,
                                    const WireServerOptions& options = {});
  ~WireServer();

  WireServer(WireServer&&) noexcept;
  WireServer& operator=(WireServer&&) noexcept;
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// The bound port (the actual one when options.port was 0).
  std::uint16_t port() const;

  /// Connections accepted over the server's lifetime.
  std::uint64_t connections_accepted() const;

  /// Connection threads not yet joined: the live connections plus the
  /// finished ones the acceptor reaps before its next spawn.
  std::size_t connection_threads() const;

  /// Idempotent shutdown: stops accepting, closes live connections, joins.
  void stop();

 private:
  struct Impl;
  explicit WireServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// One blocking client connection. Methods are synchronous request/response
/// and must not be called concurrently on one client; open one client per
/// thread for concurrent load (the load-generator bench does).
class WireClient {
 public:
  static StatusOr<WireClient> connect(const std::string& host,
                                      std::uint16_t port);
  ~WireClient();

  WireClient(WireClient&&) noexcept;
  WireClient& operator=(WireClient&&) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Classifies one feature vector on the remote service. Serving
  /// refusals (kInvalidArgument, kResourceExhausted, ...) come back as the
  /// refusing Status; transport failures as kUnavailable/kDataLoss.
  StatusOr<Prediction> predict(std::span<const double> features);

  /// Feeds one calibration snapshot to the remote service's repository
  /// decision + hot-swap path.
  StatusOr<WireCalibrationAck> push_calibration(const Calibration& calibration);

 private:
  explicit WireClient(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace qucad
