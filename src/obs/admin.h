// Minimal dependency-free HTTP/1.1 admin server — the telemetry plane that
// rides alongside the serve daemon's frame protocol.
//
// Endpoints (all GET, one request per connection, Connection: close):
//   /metrics   Prometheus text exposition of the global obs registry
//   /healthz   liveness: 200 while the process runs
//   /readyz    readiness: 200 while the ready check passes, 503 once the
//              daemon starts draining (flips before the frame plane's BYE)
//   /statusz   JSON: build/version info, uptime, plus caller-injected fields
//              (model artifact, batcher queue depth, ...)
//   /tracez    arms the span tracer for ?ms=N milliseconds (default 100,
//              capped) and returns the captured Chrome trace JSON
//
// Wire behavior is deliberately boring and is pinned by tests: a request
// line that does not parse draws 400, headers beyond the cap draw 431, any
// method but GET draws 405, unknown paths draw 404 — and in every case only
// that connection dies; the accept loop and the daemon keep running. The
// socket, accept loop and shutdown self-pipe are net::Listener's: every
// blocking poll here also watches its wake fd, so request_shutdown()
// (async-signal-safe) unsticks readers, /tracez waits, and the accept loop
// at once.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "net/net.h"

namespace jsrev::obs {

class JsonWriter;

class AdminServer {
 public:
  /// Largest request head (request line + headers) accepted; beyond this the
  /// server answers 431 Request Header Fields Too Large.
  static constexpr std::size_t kMaxRequestBytes = 8192;
  /// Longest /tracez capture window honored, milliseconds.
  static constexpr long kMaxTraceMs = 10'000;

  AdminServer();
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds a TCP listener (loopback unless `bind_addr` names another IPv4
  /// address; port 0 picks an ephemeral port, see bound_port()) or a
  /// Unix-domain listener. Throws std::runtime_error on bind/listen failure.
  void listen_tcp(std::uint16_t port, const std::string& bind_addr = {}) {
    listener_.listen_tcp(port, bind_addr);
  }
  void listen_unix(const std::string& path) { listener_.listen_unix(path); }

  /// For TCP listeners bound to port 0: the actual port. 0 otherwise.
  std::uint16_t bound_port() const { return listener_.bound_port(); }

  /// Readiness probe behind /readyz; defaults to "always ready". Must be
  /// callable from any thread for the server's lifetime.
  void set_ready_check(std::function<bool()> check);

  /// Extra /statusz fields: the callback receives the writer positioned
  /// inside the top-level object, after the built-in version/uptime fields,
  /// and appends members with w.kv(...) / nested objects. Must be callable
  /// from any thread for the server's lifetime.
  void set_status_fields(std::function<void(JsonWriter&)> fields);

  /// Accept loop on the calling thread until request_shutdown(). Joins every
  /// connection thread before returning.
  void run();

  /// run() on a background thread; pairs with stop().
  void start();
  /// request_shutdown() + join the start() thread. Idempotent.
  void stop();

  /// Async-signal-safe graceful stop (one write to the self-pipe).
  void request_shutdown() noexcept { listener_.request_shutdown(); }

  bool shutdown_requested() const noexcept {
    return listener_.shutdown_requested();
  }

  /// Connection threads currently tracked (in-flight plus finished-but-not-
  /// yet-reaped). Exposed so tests can pin that the accept loop reaps: a
  /// steady scrape must not grow this without bound.
  std::size_t tracked_connections() { return listener_.tracked_connections(); }

 private:
  void handle_connection(int fd);
  /// Full HTTP response (status line + headers + body) for one request head.
  std::string respond(std::string_view head);
  std::string handle_tracez(std::string_view query);

  net::Listener listener_;

  std::function<bool()> ready_check_;
  std::function<void(JsonWriter&)> status_fields_;
  std::int64_t start_us_ = 0;  // steady-clock birth, for /statusz uptime

  std::mutex trace_mu_;  // /tracez captures are serialized

  std::thread run_thread_;  // start()/stop()
};

/// Tiny blocking HTTP GET for tests, scripts, and `jsr_serve --admin-get`:
/// fetches `path` from `endpoint` ("host:port" or "unix:/path"), stores the
/// response body (sans headers) and returns the HTTP status code, or -1 on
/// connect/protocol failure (with an explanation in *error when non-null).
/// Every connect/read/write is bounded by `timeout_ms` (values <= 0 mean the
/// 10 s default, comfortably past the server's own net::kIoDeadlineMs request
/// deadline), so a wedged daemon fails the call instead of hanging the
/// caller.
int admin_http_get(const std::string& endpoint, const std::string& path,
                   std::string* body, std::string* error = nullptr,
                   long timeout_ms = 10'000);

}  // namespace jsrev::obs
