#include "serve/admin_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace kgqan::serve {

namespace {

// Receive and send timeout of an accepted connection.  Connections are
// served one at a time on the accept thread, so a client that connects and
// then goes silent holds the plane (and Shutdown's join) for at most this
// long per blocked call.
constexpr int kClientIoTimeoutSeconds = 2;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a client that hung up must fail this send, not raise
    // SIGPIPE and kill the server process.
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

AdminListener::~AdminListener() { Shutdown(); }

util::Status AdminListener::Start(int port, Handler handler) {
  if (listen_fd_.load(std::memory_order_acquire) >= 0) {
    return util::Status::InvalidArgument("listener already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Admin plane: localhost.
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::string error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return util::Status::Internal(error);
  }
  if (::listen(fd, 16) < 0) {
    std::string error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return util::Status::Internal(error);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    std::string error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return util::Status::Internal(error);
  }
  handler_ = std::move(handler);
  stopping_.store(false, std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return util::Status::Ok();
}

void AdminListener::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept(); close() releases the port.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  port_.store(0, std::memory_order_release);
}

void AdminListener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) break;
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (or unrecoverable error): stop serving.
    }
    timeval timeout{};
    timeout.tv_sec = kClientIoTimeoutSeconds;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ServeConnection(client);
    ::close(client);
  }
}

void AdminListener::ServeConnection(int client_fd) {
  // Read until the end of the request headers (or a sanity cap).  The
  // admin plane only serves bodyless GETs, so the header block is the
  // whole request.
  std::string request;
  char buffer[2048];
  while (request.size() < 16384 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buffer, static_cast<size_t>(n));
    if (request.find('\n') != std::string::npos &&
        request.find(' ') == std::string::npos) {
      break;  // Garbage with no request line shape; stop reading.
    }
  }
  AdminResponse response;
  size_t line_end = request.find('\n');
  std::string line =
      request.substr(0, line_end == std::string::npos ? request.size()
                                                      : line_end);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos) {
    response.status = 400;
    response.body = "bad request\n";
  } else if (line.substr(0, sp1) != "GET") {
    response.status = 405;
    response.body = "only GET is supported\n";
  } else {
    std::string path =
        sp2 == std::string::npos
            ? line.substr(sp1 + 1)
            : line.substr(sp1 + 1, sp2 - sp1 - 1);
    // Query strings are ignored: the admin surface has no parameters.
    size_t q = path.find('?');
    if (q != std::string::npos) path.resize(q);
    response = handler_ ? handler_(path)
                        : AdminResponse{404, "text/plain; charset=utf-8",
                                        "no handler\n"};
  }
  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     StatusText(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (SendAll(client_fd, head.data(), head.size())) {
    SendAll(client_fd, response.body.data(), response.body.size());
  }
}

}  // namespace kgqan::serve
