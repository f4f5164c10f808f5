// Wire-protocol conformance: codec round-trips and corrupt-frame
// rejection, then loopback TCP against a live InferenceService — a wire
// round-trip must serve the same bytes as a direct submit, malformed
// frames (oversized, garbage, truncated, mid-frame disconnect) must fail
// with a Status and never wedge the server, connection churn must not pile
// up threads, and a calibration push must hot-swap the serving epoch for
// subsequent requests. Test names start
// with Wire* so the TSan CTest preset selects this suite's concurrency
// surface.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qucad.hpp"
#include "data/seismic_synth.hpp"
#include "fleet/remote_stub_backend.hpp"
#include "io/serializer.hpp"
#include "io/wire.hpp"
#include "noise/calibration_history.hpp"
#include "qnn/evaluator.hpp"
#include "qnn/trainer.hpp"
#include "serve/inference_service.hpp"
#include "transpile/transpiler.hpp"

namespace qucad {
namespace {

// --- codec ---------------------------------------------------------------

TEST(WireCodec, PredictRequestRoundTrips) {
  const std::vector<double> features = {0.25, -1.5, 3.0, 0.0};
  std::vector<double> decoded;
  ASSERT_TRUE(
      decode_predict_request(encode_predict_request(features), decoded).ok());
  EXPECT_EQ(decoded, features);
}

TEST(WireCodec, PredictResponseRoundTripsBitwise) {
  // Any u8 backend kind rides the wire, as in artifacts: a service on a
  // registered custom kind (the remote stub is kind 16) must answer with a
  // frame its own client accepts.
  for (const BackendKind kind :
       {BackendKind::kSampled, fleet::kRemoteStubBackendKind}) {
    Prediction p;
    p.label = 1;
    p.logits = {-0.125, 0.875};
    p.epoch = 42;
    p.backend = kind;
    const StatusOr<Prediction> decoded =
        decode_predict_response(encode_predict_response(p));
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded->label, 1);
    EXPECT_EQ(decoded->epoch, 42u);
    EXPECT_EQ(decoded->backend, kind);
    ASSERT_EQ(decoded->logits.size(), 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->logits[0]),
              std::bit_cast<std::uint64_t>(-0.125));
  }
}

TEST(WireCodec, RemoteErrorStatusTransports) {
  const StatusOr<Prediction> decoded = decode_predict_response(
      encode_predict_response(Status::resource_exhausted("queue full")));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.status().message(), "queue full");
}

TEST(WireCodec, CalibrationPushRoundTrips) {
  Calibration c(3, {{0, 1}, {1, 2}});
  for (int q = 0; q < 3; ++q) {
    c.set_sx_error(q, 0.001 * (q + 1));
    c.set_readout(q, ReadoutError{0.01, 0.02});
    c.set_t1_t2(q, 100.0, 80.0);
  }
  c.set_cx_error(0, 1, 0.01);
  c.set_cx_error(1, 2, 0.02);
  Calibration decoded;
  ASSERT_TRUE(
      decode_calibration_push(encode_calibration_push(c), decoded).ok());
  EXPECT_EQ(decoded.num_qubits(), 3);
  EXPECT_EQ(decoded.feature_vector(), c.feature_vector());
}

// Pinned fuzzer find (fuzz_wire_frame, fuzz/corpus/wire_frame/
// huge_qubit_count_repro): a 13-byte push frame claiming INT32_MAX qubits.
// Before the decode-side bound, Calibration's constructor allocated five
// per-qubit vectors from the attacker-controlled count *before* any payload
// byte backed it, and the resulting bad_alloc is not a PreconditionError —
// it escaped the decoder's no-throw contract and terminated the server
// thread. The count must be rejected as kDataLoss from bounds math alone,
// before any allocation.
TEST(WireCodec, CalibrationPushHugeQubitCountRejectedWithoutAllocating) {
  std::vector<std::uint8_t> frame;
  frame.push_back(3);  // kCalibrationPush
  const std::int32_t qubits = std::numeric_limits<std::int32_t>::max();
  for (int b = 0; b < 4; ++b) {
    frame.push_back(static_cast<std::uint8_t>(qubits >> (8 * b)));
  }
  for (int b = 0; b < 8; ++b) frame.push_back(0);  // edge_count = 0
  Calibration decoded;
  EXPECT_EQ(decode_calibration_push(frame, decoded).code(),
            StatusCode::kDataLoss);
}

TEST(WireCodec, CalibrationAckRoundTrips) {
  WireCalibrationAck ack;
  ack.action = OnlineManager::Decision::Action::NewModel;
  ack.epoch = 9;
  ack.swapped = true;
  ack.failure = Status::unavailable("guidance-2");
  const StatusOr<WireCalibrationAck> decoded =
      decode_calibration_ack(encode_calibration_ack(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->action, OnlineManager::Decision::Action::NewModel);
  EXPECT_EQ(decoded->epoch, 9u);
  EXPECT_TRUE(decoded->swapped);
  EXPECT_EQ(decoded->failure.code(), StatusCode::kUnavailable);
}

TEST(WireCodec, EveryTruncationAndMutationOfAFrameRejected) {
  Prediction p;
  p.label = 0;
  p.logits = {0.5, -0.5};
  p.epoch = 3;
  const std::vector<std::uint8_t> frame = encode_predict_response(p);
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::span<const std::uint8_t> truncated(frame.data(), keep);
    EXPECT_FALSE(decode_predict_response(truncated).ok())
        << "decoded a " << keep << "-byte prefix";
  }
  // Most single-byte mutations must fail; the ones that survive must decode
  // without crashing (e.g. a flipped label bit is indistinguishable from a
  // different label — framing cannot catch it, that is the artifact CRC's
  // job). The battery asserts no mutation crashes or reads out of bounds.
  std::vector<std::uint8_t> mutated = frame;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    mutated[i] = frame[i] ^ 0x5A;
    (void)decode_predict_response(mutated);
    mutated[i] = frame[i];
  }
  // Type-byte damage specifically must always be rejected.
  mutated[0] ^= 0x01;
  EXPECT_FALSE(decode_predict_response(mutated).ok());
}

TEST(WireCodec, TrailingBytesRejected) {
  const std::vector<double> one = {1.0};
  std::vector<std::uint8_t> frame = encode_predict_request(one);
  frame.push_back(0);
  std::vector<double> decoded;
  EXPECT_EQ(decode_predict_request(frame, decoded).code(),
            StatusCode::kDataLoss);
}

// --- loopback fixture ----------------------------------------------------

/// One trained environment shared by every socket test (training is the
/// expensive part; services and servers are rebuilt per test).
struct WireFixture {
  Environment env;
  CalibrationHistory history{FluctuationScenario::belem(), 60, 77};

  WireFixture() {
    Dataset raw = make_seismic(96, 5);
    const FeatureScaler scaler = FeatureScaler::fit(raw);
    env.train = scaler.transform(raw);
    env.test = scaler.transform(make_seismic(32, 9));
    env.model = build_paper_model(4, 4, 2, 1);
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

  ModelRepository reuse_only_repository() const {
    ModelRepository repo;
    repo.set_weights(
        std::vector<double>(history.day(0).feature_vector().size(), 1.0));
    RepoEntry entry;
    entry.centroid = history.day(10).feature_vector();
    entry.theta = env.theta_pretrained;
    entry.tag = "wire-0";
    repo.add(std::move(entry));
    repo.set_threshold(1e9);
    return repo;
  }

  StatusOr<InferenceService> make_service() const {
    return InferenceService::create(env, reuse_only_repository(),
                                    history.day(0));
  }
};

const WireFixture& fixture() {
  static const WireFixture* f = new WireFixture();
  return *f;
}

/// Raw TCP connection for sending deliberately malformed bytes.
struct RawConnection {
  int fd = -1;

  explicit RawConnection(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConnection() {
    if (fd >= 0) ::close(fd);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until the peer closes; returns everything received.
  std::vector<std::uint8_t> drain() {
    std::vector<std::uint8_t> received;
    std::uint8_t buffer[512];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got <= 0) break;
      received.insert(received.end(), buffer, buffer + got);
    }
    return received;
  }
};

std::vector<std::uint8_t> frame_bytes(std::uint32_t declared_length,
                                      const std::vector<std::uint8_t>& payload) {
  Serializer out;
  out.write_u32(declared_length);
  out.write_raw(payload);
  return out.take();
}

/// Decodes a response frame out of a drained byte stream.
StatusOr<Prediction> response_from(const std::vector<std::uint8_t>& stream) {
  Deserializer in(stream);
  std::uint32_t length = 0;
  if (Status s = in.read_u32(length); !s.ok()) return s;
  std::span<const std::uint8_t> payload;
  if (Status s = in.read_span(length, payload); !s.ok()) return s;
  return decode_predict_response(payload);
}

// --- loopback conformance ------------------------------------------------

TEST(WireLoopback, RoundTripMatchesDirectSubmitBitwise) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  for (int i = 0; i < 4; ++i) {
    const std::vector<double>& x = fixture().env.test.features[
        static_cast<std::size_t>(i)];
    const StatusOr<Prediction> remote = client->predict(x);
    const StatusOr<Prediction> direct = service->submit(x);
    ASSERT_TRUE(remote.ok()) << remote.status().to_string();
    ASSERT_TRUE(direct.ok()) << direct.status().to_string();
    EXPECT_EQ(remote->label, direct->label);
    EXPECT_EQ(remote->epoch, direct->epoch);
    EXPECT_EQ(remote->backend, direct->backend);
    ASSERT_EQ(remote->logits.size(), direct->logits.size());
    for (std::size_t k = 0; k < remote->logits.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->logits[k]),
                std::bit_cast<std::uint64_t>(direct->logits[k]));
    }
  }
  EXPECT_EQ(server->connections_accepted(), 1u);
}

TEST(WireLoopback, CustomBackendKindServiceAnswersItsClient) {
  fleet::RemoteStubOptions options;
  options.inner_kind = BackendKind::kDensityNoisy;
  ASSERT_TRUE(fleet::register_remote_stub_backend(BackendRegistry::global(),
                                                  options)
                  .ok());
  const WireFixture& fx = fixture();
  const ServiceConfig config =
      ServiceConfig::from_environment(fx.env).with_backend(
          BackendConfig().with_kind(fleet::kRemoteStubBackendKind));
  StatusOr<InferenceService> service = InferenceService::create(
      fx.env, fx.reuse_only_repository(), fx.history.day(0), config);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const std::vector<double>& x = fx.env.test.features[0];
  const StatusOr<Prediction> remote = client->predict(x);
  const StatusOr<Prediction> direct = service->submit(x);
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();
  EXPECT_EQ(remote->backend, fleet::kRemoteStubBackendKind);
  EXPECT_EQ(remote->label, direct->label);
  ASSERT_EQ(remote->logits.size(), direct->logits.size());
  for (std::size_t k = 0; k < remote->logits.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remote->logits[k]),
              std::bit_cast<std::uint64_t>(direct->logits[k]));
  }
}

TEST(WireLoopback, ServiceRefusalKeepsTheConnectionOpen) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  // Wrong feature arity: a well-formed frame the service refuses. The
  // refusing Status comes back and the stream stays usable.
  const std::vector<double> wrong_arity = {1.0, 2.0};
  const StatusOr<Prediction> refused = client->predict(wrong_arity);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<Prediction> served =
      client->predict(fixture().env.test.features[0]);
  EXPECT_TRUE(served.ok()) << served.status().to_string();
}

TEST(WireLoopback, OversizedFrameRejectedAndConnectionClosed) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  RawConnection raw(server->port());
  ASSERT_GE(raw.fd, 0);

  raw.send_bytes(frame_bytes(kWireMaxPayload + 1, {}));
  const StatusOr<Prediction> response = response_from(raw.drain());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
  // drain() returning means the server closed the connection.

  // The server still serves fresh connections.
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->predict(fixture().env.test.features[0]).ok());
}

TEST(WireLoopback, GarbageFrameRejectedAndConnectionClosed) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  RawConnection raw(server->port());
  ASSERT_GE(raw.fd, 0);

  // A frame whose payload is an unknown message type.
  raw.send_bytes(frame_bytes(3, {0x7F, 0x01, 0x02}));
  const StatusOr<Prediction> response = response_from(raw.drain());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss);
}

TEST(WireLoopback, TruncatedBodyRejected) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  RawConnection raw(server->port());
  ASSERT_GE(raw.fd, 0);

  // A predict request whose feature count promises more doubles than the
  // frame carries: decodable framing, corrupt body.
  const std::vector<double> two = {1.0, 2.0};
  std::vector<std::uint8_t> payload = encode_predict_request(two);
  payload.resize(payload.size() - 8);
  raw.send_bytes(frame_bytes(static_cast<std::uint32_t>(payload.size()),
                             payload));
  const StatusOr<Prediction> response = response_from(raw.drain());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss);
}

TEST(WireLoopback, MidFrameDisconnectLeavesTheServerServing) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());

  {
    RawConnection raw(server->port());
    ASSERT_GE(raw.fd, 0);
    // Declare a 100-byte payload, send 10, hang up.
    std::vector<std::uint8_t> partial(10, 0x01);
    raw.send_bytes(frame_bytes(100, partial));
  }  // destructor closes mid-frame

  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const StatusOr<Prediction> served =
      client->predict(fixture().env.test.features[0]);
  EXPECT_TRUE(served.ok()) << served.status().to_string();
}

TEST(WireLoopback, ChurnedConnectionsAreReaped) {
  // Connection churn alone must not pile up threads: each finished
  // connection's thread is joined before the next spawn, so the server
  // holds a handful of threads, not one per connection ever accepted.
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());

  constexpr int kChurned = 2000;
  for (int i = 0; i < kChurned; ++i) {
    {
      RawConnection raw(server->port());
      ASSERT_GE(raw.fd, 0) << "connection " << i;
    }  // hang up without sending a frame
    // Pace on the acceptor: a client that outruns it overflows the listen
    // backlog, and every dropped SYN costs a one-second retransmit.
    while (server->connections_accepted() < static_cast<std::uint64_t>(i) + 1) {
      std::this_thread::yield();
    }
  }

  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  const StatusOr<Prediction> served =
      client->predict(fixture().env.test.features[0]);
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  EXPECT_EQ(server->connections_accepted(), kChurned + 1u);
  EXPECT_LT(server->connection_threads(), 64u);
}

TEST(WireLoopback, CalibrationPushHotSwapsTheServingEpoch) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  const StatusOr<Prediction> before =
      client->predict(fixture().env.test.features[0]);
  ASSERT_TRUE(before.ok());
  const std::uint64_t epoch_before = before->epoch;

  const StatusOr<WireCalibrationAck> ack =
      client->push_calibration(fixture().history.day(20));
  ASSERT_TRUE(ack.ok()) << ack.status().to_string();
  EXPECT_TRUE(ack->swapped);
  EXPECT_EQ(ack->epoch, epoch_before + 1);
  EXPECT_EQ(ack->action, OnlineManager::Decision::Action::Reuse);
  EXPECT_TRUE(ack->failure.ok());

  // The swap is visible to requests on this connection AND fresh ones.
  const StatusOr<Prediction> after =
      client->predict(fixture().env.test.features[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, epoch_before + 1);
  StatusOr<WireClient> other =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(other.ok());
  const StatusOr<Prediction> fresh =
      other->predict(fixture().env.test.features[0]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch, epoch_before + 1);
}

TEST(WireLoopback, ConcurrentConnectionsServeExactPredictions) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());

  // Expected logits from the direct path (expectation backend: exact, so
  // concurrency and batching must not change a bit).
  std::vector<std::vector<double>> expected;
  for (int i = 0; i < 4; ++i) {
    const StatusOr<Prediction> direct =
        service->submit(fixture().env.test.features[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(direct.ok());
    expected.push_back(direct->logits);
  }

  constexpr int kClients = 6;
  constexpr int kPerClient = 8;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<WireClient> client =
          WireClient::connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures[static_cast<std::size_t>(c)] = client.status();
        return;
      }
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t i = static_cast<std::size_t>((c + r) % 4);
        const StatusOr<Prediction> remote =
            client->predict(fixture().env.test.features[i]);
        if (!remote.ok()) {
          failures[static_cast<std::size_t>(c)] = remote.status();
          return;
        }
        if (remote->logits != expected[i]) {
          failures[static_cast<std::size_t>(c)] =
              Status::internal("logits diverged under concurrency");
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& status : failures) {
    EXPECT_TRUE(status.ok()) << status.to_string();
  }
  EXPECT_EQ(server->connections_accepted(), kClients);
}

TEST(WireLoopback, StopIsIdempotentAndUnblocksClients) {
  StatusOr<InferenceService> service = fixture().make_service();
  ASSERT_TRUE(service.ok());
  StatusOr<WireServer> server = WireServer::start(*service);
  ASSERT_TRUE(server.ok());
  StatusOr<WireClient> client =
      WireClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  server->stop();
  server->stop();  // idempotent
  // The closed connection surfaces as a transport error, not a hang.
  const StatusOr<Prediction> after_stop =
      client->predict(fixture().env.test.features[0]);
  EXPECT_FALSE(after_stop.ok());
}

}  // namespace
}  // namespace qucad
