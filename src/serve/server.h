// Connection layer of the jsr_serve daemon.
//
// The Server owns the fd plumbing around serve::Batcher: it accepts
// connections on a Unix-domain or TCP listener (or serves exactly one
// fd pair — the daemon's --stdio mode and the in-process tests), reads
// length-prefixed frames (serve/frame.h), routes kClassify payloads into the
// Batcher, and writes responses back under a per-connection write lock so
// batched completions never interleave bytes.
//
// Failure containment is the contract the malformed-frame tests pin down:
// a bad magic byte, an unknown frame type, or an oversized payload draws a
// kError response and closes that one connection — the accept loop, every
// other connection, and the daemon itself keep running. Unparseable scripts
// are not even an error: they flow through the ordinary unparseable ⇒
// malicious verdict with the kParseFailed flag set.
//
// Shutdown is graceful by construction: request_shutdown() (async-signal-
// safe — SIGTERM/SIGINT handlers call it) tickles a self-pipe every reader
// polls; readers stop consuming input, in-flight batches complete, their
// responses flush, and run() joins every connection thread before returning.
// A kQuit frame does the same dance and additionally answers kBye after the
// drain, so a client can confirm its requests all landed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/frame.h"
#include "serve/serve.h"

namespace jsrev::serve {

class Server {
 public:
  /// `model` must outlive the server. Installs a SIG_IGN for SIGPIPE (a
  /// client hanging up mid-response must not kill the daemon).
  Server(const core::ModelView& model, ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one pre-connected fd pair (stdin/stdout in --stdio mode, one
  /// end of a socketpair in tests) on the calling thread; returns after EOF
  /// or kQuit, with every accepted request answered.
  void serve_fd(int in_fd, int out_fd);

  /// Binds a listener. Throws std::runtime_error on bind/listen failure.
  void listen_unix(const std::string& path);
  void listen_tcp(std::uint16_t port);

  /// For TCP listeners bound to port 0: the actual port. 0 otherwise.
  std::uint16_t bound_port() const { return bound_port_; }

  /// Accept loop: one reader thread per connection, until
  /// request_shutdown(). Joins every connection and drains the batcher
  /// before returning.
  void run();

  /// Requests a graceful stop. Async-signal-safe (one write() to a pipe);
  /// callable from signal handlers and from any thread.
  void request_shutdown() noexcept;

  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Readiness for the admin plane's /readyz: true from construction until
  /// the daemon starts draining — request_shutdown() and a received kQuit
  /// both clear it *before* the drain begins, so a load balancer watching
  /// /readyz sees 503 strictly before the frame plane's kBye goes out.
  bool ready() const noexcept { return ready_.load(std::memory_order_relaxed); }

  /// The batcher behind this server (tests inspect queue depth).
  Batcher& batcher() { return batcher_; }

 private:
  struct Conn {
    int in_fd = -1;
    int out_fd = -1;
    bool own_fds = false;  // accepted sockets are closed by us; stdio is not
    std::mutex write_mu;
    std::mutex pending_mu;
    std::condition_variable pending_cv;
    std::size_t pending = 0;          // submitted, not yet answered
    std::atomic<bool> open{true};

    void add_pending();
    void sub_pending();
    void wait_idle();
  };

  enum class Disposition {
    kContinue,  // keep reading this connection
    kClose,     // protocol violation: error answered, drop this connection
    kQuit,      // kQuit received: drain, say kBye, stop the daemon
  };

  /// Reads and dispatches frames until EOF/error/kQuit/shutdown, then waits
  /// for in-flight responses to flush. Returns true when the connection
  /// asked the whole daemon to quit.
  bool conn_loop(const std::shared_ptr<Conn>& conn);

  Disposition handle_frame(const std::shared_ptr<Conn>& conn, Frame frame);

  void write_frame(const std::shared_ptr<Conn>& conn, const Frame& frame);

  // Frame payload cap: the model's max_source_bytes, enforced before a
  // payload buffers.
  const std::size_t max_payload_;
  Batcher batcher_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string unix_path_;  // unlinked on destruction when non-empty

  int wake_pipe_[2] = {-1, -1};  // self-pipe; [1] written by request_shutdown
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> ready_{true};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;

  obs::Counter* connections_ = nullptr;
  obs::Counter* frame_errors_ = nullptr;
  obs::Counter* internal_errors_ = nullptr;
};

}  // namespace jsrev::serve
