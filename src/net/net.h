// Connection layer shared by every listener in the repository: the frame
// plane (serve::Server) and the admin plane (obs::AdminServer) each own one
// Listener and keep only their protocol code.
//
// A Listener binds one Unix-domain or TCP socket and runs the accept loop:
// one thread per connection runs the caller's handler, the fd is closed when
// the handler returns, finished threads are joined on the next accept (glibc
// reclaims a joinable thread's stack only on join), and every thread is
// joined before run() returns. The loop bounds what one listener can hold:
//
//   * at most kMaxConnections live connections; an over-cap socket goes to
//     the caller's reject callback on the accept thread, then is closed;
//   * every accepted socket carries a kIoDeadlineMs send timeout, so a peer
//     that stops reading fails the write instead of pinning the writer;
//   * accept() failing with EMFILE/ENFILE waits up to 100 ms on the wake
//     pipe instead of spinning on a listener that stays readable.
//
// Shutdown is a self-pipe: request_shutdown() is async-signal-safe (one
// atomic exchange and at most one write), and handlers poll wake_fd() next
// to their socket so a shutdown unsticks every blocking wait at once.
//
// One thread per connection, not a poll reactor: the served workloads hold a
// handful of long-lived connections, and a reactor would add non-blocking
// write queues plus a cross-thread completion path that nothing exercises.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace jsrev::net {

/// listen() backlog of every listener.
inline constexpr int kBacklog = 64;
/// Send timeout on every accepted socket, and the per-request read deadline
/// the protocols above apply to a partially received request.
inline constexpr int kIoDeadlineMs = 5000;
/// Live connections per listener; the rest are rejected at accept time.
inline constexpr std::size_t kMaxConnections = 256;

/// Writes all of `data` to `fd`, retrying on EINTR and partial writes.
/// Returns false on any error with errno set; EAGAIN/EWOULDBLOCK means the
/// socket's send timeout expired.
bool write_all(int fd, std::string_view data);

/// Connects a stream socket to `endpoint`: "HOST:PORT" (dotted-quad IPv4;
/// an empty host or "localhost" is 127.0.0.1; PORT is all digits in
/// 1..65535) or "unix:PATH". A positive `timeout_ms` bounds the connect and
/// becomes the socket's receive and send timeout, so later reads and writes
/// fail with EAGAIN instead of blocking on a wedged peer. Returns the
/// close-on-exec fd, or -1 with the reason in *error when `error` is
/// non-null.
int dial(const std::string& endpoint, long timeout_ms, std::string* error);

class Listener {
 public:
  /// Per-connection callback; runs on the connection's own thread (handler)
  /// or on the accept thread (reject). Must not throw. The Listener closes
  /// the fd after the callback returns.
  using Handler = std::function<void(int fd)>;

  /// Creates the wake pipe and ignores SIGPIPE process-wide (a peer hanging
  /// up mid-write must fail the write, not kill the process). Throws
  /// std::runtime_error when the pipe cannot be created.
  Listener();
  /// Closes the listening socket and the wake pipe and removes the Unix
  /// socket path. run() must have returned.
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds a Unix-domain listener at `path`, replacing a stale socket file.
  /// Throws std::runtime_error on failure.
  void listen_unix(const std::string& path);
  /// Binds a TCP listener on `bind_addr` (dotted-quad IPv4; empty means
  /// 127.0.0.1). Port 0 picks an ephemeral port; see bound_port(). Throws
  /// std::runtime_error on failure.
  void listen_tcp(std::uint16_t port, const std::string& bind_addr = {});

  /// The bound TCP port; 0 for Unix listeners and before listen_tcp().
  std::uint16_t bound_port() const { return bound_port_; }

  /// Accept loop on the calling thread until request_shutdown(): `handle`
  /// serves each accepted connection on its own thread, `reject` answers
  /// each connection over kMaxConnections (or whose thread cannot start).
  /// Joins every connection thread before returning.
  void run(const Handler& handle, const Handler& reject);

  /// Async-signal-safe; callable from any thread and from signal handlers.
  void request_shutdown() noexcept;

  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Becomes readable, and stays readable, once shutdown is requested.
  int wake_fd() const noexcept { return wake_pipe_[0]; }

  /// Connection threads currently tracked: live ones plus finished ones the
  /// next accept will join.
  std::size_t tracked_connections();

 private:
  // One accepted connection: its thread plus the flag the thread sets when
  // it is done, so the accept loop joins finished threads without blocking
  // on live ones.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  /// Joins and drops every tracked connection whose thread has finished.
  void reap_finished();
  /// Starts `handle` on a thread for `fd`; false at the connection cap or
  /// when the thread cannot start.
  bool spawn(int fd, const Handler& handle);

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string unix_path_;  // unlinked on destruction when non-empty

  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_{false};

  std::mutex conns_mu_;
  std::vector<Conn> conns_;  // capacity kMaxConnections: never reallocates
};

}  // namespace jsrev::net
