// Minimal localhost-only HTTP listener for the operational introspection
// plane (/metrics, /healthz, /stats, /slow).  Deliberately tiny: binds
// 127.0.0.1 only, speaks just enough HTTP/1.0 to satisfy curl and a
// Prometheus scraper (GET, one request per connection, Connection: close),
// and hands the path to a caller-supplied handler.  It is an admin
// surface, not a data plane — one accept thread, one request at a time,
// no keep-alive, no TLS.  A connection's reads and writes time out, so a
// client that connects and goes silent cannot stall the plane.

#ifndef KGQAN_SERVE_ADMIN_HTTP_H_
#define KGQAN_SERVE_ADMIN_HTTP_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

#include "util/status.h"

namespace kgqan::serve {

struct AdminResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class AdminListener {
 public:
  // Maps a request path ("/metrics") to a response.  Called on the accept
  // thread; must be thread-safe with respect to the rest of the server.
  using Handler = std::function<AdminResponse(const std::string& path)>;

  AdminListener() = default;
  ~AdminListener();  // Shutdown().

  AdminListener(const AdminListener&) = delete;
  AdminListener& operator=(const AdminListener&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral; read the chosen port back via
  // port()) and starts the accept thread.
  util::Status Start(int port, Handler handler);

  // The bound port, or 0 when not listening.
  int port() const { return port_.load(std::memory_order_acquire); }

  // Stops accepting, closes the socket, joins the thread (which first
  // finishes the connection in flight, bounded by its I/O timeout).
  // Idempotent.
  void Shutdown();

 private:
  void AcceptLoop();
  void ServeConnection(int client_fd);

  Handler handler_;
  std::atomic<int> listen_fd_{-1};
  std::atomic<int> port_{0};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace kgqan::serve

#endif  // KGQAN_SERVE_ADMIN_HTTP_H_
