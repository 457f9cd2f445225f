#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/util/rng.h"

namespace agmdp::server {

namespace {

void SetSocketTimeout(int fd, int option, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace

util::Result<Client> Client::Connect(const std::string& host, int port) {
  return Connect(host, port, ClientOptions{});
}

util::Result<Client> Client::Connect(const std::string& host, int port,
                                     const ClientOptions& options) {
  if (port <= 0 || port > 65535) {
    return util::Status::InvalidArgument("client: port must be in [1,65535]");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("client: socket(): ") +
                                  std::strerror(errno));
  }
  // SO_SNDTIMEO bounds connect() as well as send() on Linux; the receive
  // timeout turns an unresponsive server into a typed DeadlineExceeded.
  SetSocketTimeout(fd, SO_SNDTIMEO, std::max(options.connect_timeout_ms,
                                             options.io_timeout_ms));
  SetSocketTimeout(fd, SO_RCVTIMEO, options.io_timeout_ms);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("client: bad address '" + host +
                                         "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EAGAIN || err == EWOULDBLOCK || err == EINPROGRESS ||
        err == ETIMEDOUT) {
      return util::Status::DeadlineExceeded(
          "client: connect(" + host + ":" + std::to_string(port) +
          ") timed out");
    }
    return util::Status::Unavailable("client: connect(" + host + ":" +
                                     std::to_string(port) +
                                     "): " + std::strerror(err));
  }
  // After connecting, sends use the io timeout, not the connect timeout.
  SetSocketTimeout(fd, SO_SNDTIMEO, options.io_timeout_ms);
  // Requests are whole lines written at once; with Nagle a pipelined second
  // request would wait for the daemon's delayed ACK of the first.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), pending_(std::move(other.pending_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    pending_ = std::move(other.pending_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

util::Status Client::Send(const Request& request) {
  const std::string line = SerializeRequest(request) + "\n";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return util::Status::DeadlineExceeded("client: send() timed out");
      }
      return util::Status::Unavailable(
          std::string("client: send(): ") +
          (n == 0 ? "connection closed" : std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return util::Status();
}

util::Result<Response> Client::ReadResponse() {
  char buf[4096];
  while (true) {
    const size_t newline = pending_.find('\n');
    if (newline != std::string::npos) {
      std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (line.empty()) continue;
      return ParseResponse(line);
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return util::Status::DeadlineExceeded(
            "client: no response within the io timeout");
      }
      return util::Status::Unavailable(
          "client: server closed the connection");
    }
    pending_.append(buf, static_cast<size_t>(n));
  }
}

util::Result<Response> Client::Call(const Request& request) {
  if (auto st = Send(request); !st.ok()) return st;
  auto response = ReadResponse();
  if (!response.ok()) return response;
  if (response.value().id != request.id) {
    return util::Status::Internal(
        "client: response id " + std::to_string(response.value().id) +
        " does not match request id " + std::to_string(request.id) +
        " (pipelined caller should match ids itself)");
  }
  return response;
}

util::Result<Response> CallWithRetry(const std::string& host, int port,
                                     const Request& request,
                                     const ClientOptions& options,
                                     const RetryPolicy& policy) {
  if (policy.max_attempts < 1) {
    return util::Status::InvalidArgument(
        "client: retry policy needs max_attempts >= 1");
  }
  util::Rng jitter(policy.jitter_seed);
  double backoff_ms = static_cast<double>(policy.initial_backoff_ms);
  util::Status last = util::Status::Unavailable("client: no attempt made");
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Full jitter on the capped exponential step: sleep a uniform
      // fraction of it so synchronized clients fan out instead of
      // hammering a recovering server in lockstep.
      const double capped =
          std::min(backoff_ms, static_cast<double>(policy.max_backoff_ms));
      const double sleep_ms = capped * (0.5 + 0.5 * jitter.UniformDouble());
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(sleep_ms * 1000.0)));
      backoff_ms *= policy.backoff_multiplier;
    }
    auto client = Client::Connect(host, port, options);
    if (!client.ok()) {
      last = client.status();
    } else {
      auto response = client.value().Call(request);
      if (response.ok()) return response;
      last = response.status();
    }
    const util::StatusCode code = last.code();
    if (code != util::StatusCode::kUnavailable &&
        code != util::StatusCode::kDeadlineExceeded) {
      return last;  // not a transport failure; retrying cannot help
    }
  }
  return last;
}

}  // namespace agmdp::server
