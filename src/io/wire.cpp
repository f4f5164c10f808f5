#include "io/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <list>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "common/require.hpp"
#include "io/codec_detail.hpp"
#include "io/serializer.hpp"
#include "serve/inference_service.hpp"

namespace qucad {

namespace {

constexpr std::uint8_t kMaxStatusCode =
    static_cast<std::uint8_t>(StatusCode::kInternal);
constexpr std::uint8_t kMaxAction =
    static_cast<std::uint8_t>(OnlineManager::Decision::Action::Failure);

// --- codec helpers ------------------------------------------------------

void encode_status(Serializer& out, const Status& status) {
  out.write_u8(static_cast<std::uint8_t>(status.code()));
  out.write_string(status.message());
}

Status decode_status(Deserializer& in, Status& out) {
  std::uint8_t code = 0;
  if (Status s = in.read_u8(code); !s.ok()) return s;
  if (code > kMaxStatusCode) {
    return Status::data_loss("status code out of range on the wire");
  }
  std::string message;
  if (Status s = in.read_string(message); !s.ok()) return s;
  out = Status::from_code(static_cast<StatusCode>(code), std::move(message));
  return Status();
}

Status expect_type(Deserializer& in, WireMessageType expected) {
  std::uint8_t type = 0;
  if (Status s = in.read_u8(type); !s.ok()) return s;
  if (type != static_cast<std::uint8_t>(expected)) {
    return Status::data_loss("unexpected wire message type " +
                             std::to_string(type));
  }
  return Status();
}

Status expect_exhausted(const Deserializer& in) {
  if (!in.exhausted()) {
    return Status::data_loss("trailing bytes after wire message body");
  }
  return Status();
}

// --- socket helpers -----------------------------------------------------

Status send_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process signal.
    const ssize_t written = ::send(fd, data, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable(std::string("send failed: ") +
                                 std::strerror(errno));
    }
    data += written;
    n -= static_cast<std::size_t>(written);
  }
  return Status();
}

Status recv_all(int fd, std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, data, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable(std::string("recv failed: ") +
                                 std::strerror(errno));
    }
    if (got == 0) return Status::unavailable("connection closed by peer");
    data += got;
    n -= static_cast<std::size_t>(got);
  }
  return Status();
}

Status write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  Serializer header;
  header.write_u32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::uint8_t> frame = header.take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return send_all(fd, frame.data(), frame.size());
}

/// Reads one frame. An oversized or empty length prefix is the one error
/// reported as kInvalidArgument (the stream is positionally intact, so the
/// server can still answer before closing); everything else is transport
/// failure (kUnavailable) or corruption (kDataLoss).
Status read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint8_t prefix[4];
  if (Status s = recv_all(fd, prefix, sizeof(prefix)); !s.ok()) return s;
  Deserializer in(std::span<const std::uint8_t>(prefix, sizeof(prefix)));
  std::uint32_t length = 0;
  if (Status s = in.read_u32(length); !s.ok()) return s;
  if (length == 0) {
    return Status::invalid_argument("empty wire frame (no message type)");
  }
  if (length > kWireMaxPayload) {
    return Status::invalid_argument(
        "oversized wire frame: " + std::to_string(length) +
        " bytes exceeds the " + std::to_string(kWireMaxPayload) +
        "-byte limit");
  }
  payload.resize(length);
  return recv_all(fd, payload.data(), payload.size());
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- codec --------------------------------------------------------------

std::vector<std::uint8_t> encode_predict_request(
    std::span<const double> features) {
  Serializer out;
  out.write_u8(static_cast<std::uint8_t>(WireMessageType::kPredictRequest));
  out.write_u64(features.size());
  for (double f : features) out.write_f64(f);
  return out.take();
}

Status decode_predict_request(std::span<const std::uint8_t> payload,
                              std::vector<double>& features) {
  Deserializer in(payload);
  if (Status s = expect_type(in, WireMessageType::kPredictRequest); !s.ok())
    return s;
  std::uint64_t count = 0;
  if (Status s = in.read_u64(count); !s.ok()) return s;
  if (count > in.remaining() / 8) {
    return Status::data_loss("feature count exceeds the frame");
  }
  std::vector<double> parsed;
  parsed.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    double f = 0.0;
    if (Status s = in.read_f64(f); !s.ok()) return s;
    parsed.push_back(f);
  }
  if (Status s = expect_exhausted(in); !s.ok()) return s;
  features = std::move(parsed);
  return Status();
}

std::vector<std::uint8_t> encode_predict_response(
    const StatusOr<Prediction>& result) {
  Serializer out;
  out.write_u8(static_cast<std::uint8_t>(WireMessageType::kPredictResponse));
  encode_status(out, result.ok() ? Status() : result.status());
  if (result.ok()) {
    const Prediction& p = *result;
    out.write_i32(p.label);
    out.write_u64(p.epoch);
    out.write_u8(static_cast<std::uint8_t>(p.backend));
    out.write_f64_vector(p.logits);
  }
  return out.take();
}

StatusOr<Prediction> decode_predict_response(
    std::span<const std::uint8_t> payload) {
  Deserializer in(payload);
  if (Status s = expect_type(in, WireMessageType::kPredictResponse); !s.ok())
    return s;
  Status remote;
  if (Status s = decode_status(in, remote); !s.ok()) return s;
  if (!remote.ok()) {
    if (Status s = expect_exhausted(in); !s.ok()) return s;
    return remote;
  }
  Prediction p;
  if (Status s = in.read_i32(p.label); !s.ok()) return s;
  if (Status s = in.read_u64(p.epoch); !s.ok()) return s;
  // Any u8 kind, as in the artifact decoder: a service on a registered
  // custom kind answers with that kind's byte.
  std::uint8_t backend = 0;
  if (Status s = in.read_u8(backend); !s.ok()) return s;
  p.backend = static_cast<BackendKind>(backend);
  if (Status s = in.read_f64_vector(p.logits); !s.ok()) return s;
  if (Status s = expect_exhausted(in); !s.ok()) return s;
  return p;
}

std::vector<std::uint8_t> encode_calibration_push(
    const Calibration& calibration) {
  Serializer out;
  out.write_u8(static_cast<std::uint8_t>(WireMessageType::kCalibrationPush));
  io_detail::encode_calibration(out, calibration);
  return out.take();
}

Status decode_calibration_push(std::span<const std::uint8_t> payload,
                               Calibration& calibration) {
  Deserializer in(payload);
  if (Status s = expect_type(in, WireMessageType::kCalibrationPush); !s.ok())
    return s;
  Calibration parsed;
  try {
    if (Status s = io_detail::decode_calibration(in, parsed); !s.ok())
      return s;
  } catch (const PreconditionError& e) {
    return Status::data_loss(
        std::string("invalid calibration on the wire: ") + e.what());
  }
  if (Status s = expect_exhausted(in); !s.ok()) return s;
  calibration = std::move(parsed);
  return Status();
}

std::vector<std::uint8_t> encode_calibration_ack(
    const StatusOr<WireCalibrationAck>& result) {
  Serializer out;
  out.write_u8(static_cast<std::uint8_t>(WireMessageType::kCalibrationAck));
  encode_status(out, result.ok() ? Status() : result.status());
  if (result.ok()) {
    const WireCalibrationAck& ack = *result;
    out.write_u8(static_cast<std::uint8_t>(ack.action));
    out.write_u64(ack.epoch);
    out.write_bool(ack.swapped);
    encode_status(out, ack.failure);
  }
  return out.take();
}

StatusOr<WireCalibrationAck> decode_calibration_ack(
    std::span<const std::uint8_t> payload) {
  Deserializer in(payload);
  if (Status s = expect_type(in, WireMessageType::kCalibrationAck); !s.ok())
    return s;
  Status remote;
  if (Status s = decode_status(in, remote); !s.ok()) return s;
  if (!remote.ok()) {
    if (Status s = expect_exhausted(in); !s.ok()) return s;
    return remote;
  }
  WireCalibrationAck ack;
  std::uint8_t action = 0;
  if (Status s = in.read_u8(action); !s.ok()) return s;
  if (action > kMaxAction) {
    return Status::data_loss("decision action out of range on the wire");
  }
  ack.action = static_cast<OnlineManager::Decision::Action>(action);
  if (Status s = in.read_u64(ack.epoch); !s.ok()) return s;
  if (Status s = in.read_bool(ack.swapped); !s.ok()) return s;
  if (Status s = decode_status(in, ack.failure); !s.ok()) return s;
  if (Status s = expect_exhausted(in); !s.ok()) return s;
  return ack;
}

// --- server -------------------------------------------------------------

struct WireServer::Impl {
  InferenceService& service;
  WireServerOptions options;
  int listen_fd = -1;
  std::uint16_t port = 0;

  /// One accepted connection: its thread and the fd that thread owns.
  /// The thread sets `fd` to -1 when it has closed it, which marks the
  /// entry finished and ready to be joined.
  struct Connection {
    std::thread thread;
    int fd = -1;
  };

  std::thread acceptor;
  std::mutex mutex;  // guards connections and every Connection::fd
  // A list: a connection thread keeps a reference to its own entry while
  // the acceptor splices finished entries out around it.
  std::list<Connection> connections;
  std::atomic<bool> running{true};
  std::atomic<std::uint64_t> accepted{0};

  explicit Impl(InferenceService& s) : service(s) {}

  void accept_loop() {
    while (running.load(std::memory_order_acquire)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listener shut down (or broken): stop accepting
      }
      if (!running.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      set_nodelay(fd);
      reap_finished();
      std::lock_guard<std::mutex> lock(mutex);
      Connection& connection = connections.emplace_back();
      connection.fd = fd;
      try {
        connection.thread =
            std::thread([this, &connection] { serve_connection(connection); });
      } catch (const std::system_error&) {
        // Out of threads: refuse this peer and keep serving the others.
        connections.pop_back();
        ::close(fd);
      }
    }
  }

  /// Joins the connection threads that have finished. The entries move out
  /// under the lock; the joins run outside it, since a finishing thread
  /// takes the lock for its last touch of `connections`.
  void reap_finished() {
    std::list<Connection> finished;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (auto it = connections.begin(); it != connections.end();) {
        const auto next = std::next(it);
        if (it->fd < 0) finished.splice(finished.end(), connections, it);
        it = next;
      }
    }
    for (Connection& connection : finished) connection.thread.join();
  }

  void serve_connection(Connection& connection) {
    const int fd = connection.fd;  // set before this thread started
    std::vector<std::uint8_t> payload;
    while (running.load(std::memory_order_acquire)) {
      Status read = read_frame(fd, payload);
      if (!read.ok()) {
        // An oversized/empty length prefix still leaves the stream intact
        // enough to say why before hanging up; a dead peer does not.
        if (read.code() == StatusCode::kInvalidArgument) {
          (void)write_frame(fd, encode_predict_response(std::move(read)));
        }
        break;
      }
      if (!serve_frame(fd, payload)) break;
    }
    // The connection thread owns its fd: close exactly once, and tell
    // stop() (which only ever shutdown()s) and the reaper that this entry
    // is finished. This is the thread's last touch of shared state.
    std::lock_guard<std::mutex> lock(mutex);
    ::close(fd);
    connection.fd = -1;
  }

  /// Serves one decoded frame; returns false when the connection must
  /// close (wire-level malformation — a refusing service Status is a
  /// normal response and keeps the stream open).
  bool serve_frame(int fd, const std::vector<std::uint8_t>& payload) {
    switch (static_cast<WireMessageType>(payload[0])) {
      case WireMessageType::kPredictRequest: {
        std::vector<double> features;
        if (Status s = decode_predict_request(payload, features); !s.ok()) {
          (void)write_frame(fd, encode_predict_response(std::move(s)));
          return false;
        }
        StatusOr<Prediction> result = service.submit(std::move(features));
        return write_frame(fd, encode_predict_response(result)).ok();
      }
      case WireMessageType::kCalibrationPush: {
        Calibration calibration;
        if (Status s = decode_calibration_push(payload, calibration);
            !s.ok()) {
          (void)write_frame(fd, encode_calibration_ack(std::move(s)));
          return false;
        }
        StatusOr<CalibrationReport> report =
            service.on_calibration(calibration);
        StatusOr<WireCalibrationAck> ack =
            report.ok() ? StatusOr<WireCalibrationAck>(WireCalibrationAck{
                              report->decision.action, report->epoch,
                              report->swapped, report->failure})
                        : StatusOr<WireCalibrationAck>(report.status());
        return write_frame(fd, encode_calibration_ack(ack)).ok();
      }
      default: {
        (void)write_frame(
            fd, encode_predict_response(Status::data_loss(
                    "unknown wire message type " +
                    std::to_string(static_cast<int>(payload[0])))));
        return false;
      }
    }
  }

  void stop() {
    if (!running.exchange(false, std::memory_order_acq_rel)) return;
    // shutdown() unblocks accept()/recv() without closing the fds the
    // blocked threads still own; each thread then closes its own fd.
    ::shutdown(listen_fd, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const Connection& connection : connections) {
        if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
      }
    }
    if (acceptor.joinable()) acceptor.join();
    // The acceptor is down, so `connections` can no longer grow.
    std::list<Connection> to_join;
    {
      std::lock_guard<std::mutex> lock(mutex);
      to_join.swap(connections);
    }
    for (Connection& connection : to_join) connection.thread.join();
    ::close(listen_fd);
    listen_fd = -1;
  }
};

StatusOr<WireServer> WireServer::start(InferenceService& service,
                                       const WireServerOptions& options) {
  auto impl = std::make_unique<Impl>(service);
  impl->options = options;
  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    return Status::unavailable(std::string("socket failed: ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr =
      htonl(options.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(options.port);
  if (::bind(impl->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::unavailable(
        "cannot bind port " + std::to_string(options.port) + ": " +
        std::strerror(errno));
    ::close(impl->listen_fd);
    return status;
  }
  if (::listen(impl->listen_fd, 64) != 0) {
    const Status status =
        Status::unavailable(std::string("listen failed: ") +
                            std::strerror(errno));
    ::close(impl->listen_fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status =
        Status::unavailable(std::string("getsockname failed: ") +
                            std::strerror(errno));
    ::close(impl->listen_fd);
    return status;
  }
  impl->port = ntohs(bound.sin_port);
  Impl* raw = impl.get();
  try {
    impl->acceptor = std::thread([raw] { raw->accept_loop(); });
  } catch (const std::system_error& e) {
    ::close(impl->listen_fd);
    return Status::unavailable(std::string("cannot start the acceptor: ") +
                               e.what());
  }
  return WireServer(std::move(impl));
}

WireServer::WireServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

WireServer::~WireServer() {
  if (impl_) impl_->stop();
}

WireServer::WireServer(WireServer&&) noexcept = default;

WireServer& WireServer::operator=(WireServer&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->stop();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

std::uint16_t WireServer::port() const { return impl_->port; }

std::uint64_t WireServer::connections_accepted() const {
  return impl_->accepted.load(std::memory_order_relaxed);
}

std::size_t WireServer::connection_threads() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->connections.size();
}

void WireServer::stop() {
  if (impl_) impl_->stop();
}

// --- client -------------------------------------------------------------

StatusOr<WireClient> WireClient::connect(const std::string& host,
                                         std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) != 1) {
    return Status::invalid_argument("host must be an IPv4 literal, got \"" +
                                    host + "\"");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::unavailable(std::string("socket failed: ") +
                               std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::unavailable(
        "cannot connect to " + target + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  set_nodelay(fd);
  return WireClient(fd);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

StatusOr<Prediction> WireClient::predict(std::span<const double> features) {
  if (Status s = write_frame(fd_, encode_predict_request(features)); !s.ok())
    return s;
  std::vector<std::uint8_t> payload;
  if (Status s = read_frame(fd_, payload); !s.ok()) return s;
  return decode_predict_response(payload);
}

StatusOr<WireCalibrationAck> WireClient::push_calibration(
    const Calibration& calibration) {
  if (Status s = write_frame(fd_, encode_calibration_push(calibration));
      !s.ok())
    return s;
  std::vector<std::uint8_t> payload;
  if (Status s = read_frame(fd_, payload); !s.ok()) return s;
  return decode_calibration_ack(payload);
}

}  // namespace qucad
