// Frame plane of the jsr_serve daemon.
//
// The Server speaks the frame protocol around serve::Batcher: on each
// connection net::Listener accepts (or on exactly one fd pair — the daemon's
// --stdio mode and the in-process tests) it reads length-prefixed frames
// (serve/frame.h), routes kClassify payloads into the Batcher, and writes
// each connection's responses back in request order, whatever order the
// workers finish in (see Conn).
//
// Failure containment is the contract the malformed-frame tests pin down:
// a bad magic byte, an unknown frame type, or an oversized payload draws a
// kError response and closes that one connection — the accept loop, every
// other connection, and the daemon itself keep running. Unparseable scripts
// are not even an error: they flow through the ordinary unparseable ⇒
// malicious verdict with the kParseFailed flag set. Time is bounded per
// connection: a frame must arrive whole within net::kIoDeadlineMs of its
// first byte, and a response write that hits the socket's send timeout
// closes the connection, so a peer that stops reading holds one worker for
// at most one deadline. Both count as serve.errors{kind=timeout}. A peer
// that sends without reading is held back by its own socket (kMaxUnsent).
//
// Shutdown is graceful by construction: request_shutdown() (async-signal-
// safe — SIGTERM/SIGINT handlers call it) tickles the listener's self-pipe
// every reader polls; readers stop consuming input, in-flight requests
// complete, their responses flush, and run() joins every connection thread
// before returning. A kQuit frame does the same dance and additionally
// answers kBye after the drain, so a client can confirm its requests all
// landed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/net.h"
#include "serve/frame.h"
#include "serve/serve.h"

namespace jsrev::serve {

class Server {
 public:
  /// `model` must outlive the server. SIGPIPE is ignored from here on (see
  /// net::Listener): a client hanging up mid-response must not kill the
  /// daemon.
  Server(const core::ModelView& model, ServeOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one pre-connected fd pair (stdin/stdout in --stdio mode, one
  /// end of a socketpair in tests) on the calling thread; returns after EOF
  /// or kQuit, with every accepted request answered.
  void serve_fd(int in_fd, int out_fd);

  /// Binds a listener (TCP on 127.0.0.1). Throws std::runtime_error on
  /// bind/listen failure.
  void listen_unix(const std::string& path) { listener_.listen_unix(path); }
  void listen_tcp(std::uint16_t port) { listener_.listen_tcp(port); }

  /// For TCP listeners bound to port 0: the actual port. 0 otherwise.
  std::uint16_t bound_port() const { return listener_.bound_port(); }

  /// Accept loop: one reader thread per connection, until
  /// request_shutdown(). Joins every connection and drains the batcher
  /// before returning.
  void run();

  /// Requests a graceful stop. Async-signal-safe (one write() to a pipe);
  /// callable from signal handlers and from any thread.
  void request_shutdown() noexcept;

  bool shutdown_requested() const noexcept {
    return listener_.shutdown_requested();
  }

  /// Connection threads the accept loop tracks: live connections plus
  /// finished ones the next accept joins.
  std::size_t tracked_connections() { return listener_.tracked_connections(); }

  /// Readiness for the admin plane's /readyz: true from construction until
  /// the daemon starts draining — request_shutdown() and a received kQuit
  /// both clear it *before* the drain begins, so a load balancer watching
  /// /readyz sees 503 strictly before the frame plane's kBye goes out.
  bool ready() const noexcept { return ready_.load(std::memory_order_relaxed); }

  /// The batcher behind this server (tests inspect queue depth).
  Batcher& batcher() { return batcher_; }

  /// A connection's reader stops reading while this many of its responses
  /// are unsent (reserved slots included), or while this many bytes of
  /// them are (filled slots and the write in progress).
  static constexpr std::size_t kMaxUnsent = 4096;
  static constexpr std::size_t kMaxUnsentBytes = 1 << 20;

 private:
  // One connection's responses, a slot each in request order. Every
  // response reserves its slot when its request is read and fills it when
  // ready; the one thread that fills the head slot while nobody is writing
  // sets `flushing` and writes the filled prefix, outside the lock, until
  // the head is empty. Only that thread writes to out_fd.
  struct Conn {
    int in_fd = -1;
    int out_fd = -1;

    std::mutex mu;
    std::condition_variable unsent_cv;       // fewer responses unsent
    std::deque<std::optional<Frame>> slots;  // front: oldest unsent
    std::uint64_t front_seq = 0;             // sequence number of the front
    std::size_t unsent_bytes = 0;  // filled slots and the write in progress
    bool flushing = false;
    // False once a write failed or close() ran. Only the flusher writes it,
    // or close() while no flush runs, so the flusher reads it unlocked.
    bool open = true;

    /// Takes the next slot; returns its sequence number.
    std::uint64_t reserve();
    /// Blocks while kMaxUnsent responses or kMaxUnsentBytes are unsent.
    void wait_for_room();
    /// Blocks until there are no slots and no flusher.
    void wait_idle();
    /// Waits out a running flush; later responses are dropped unwritten.
    void close();
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

  /// Deposits the response for slot `seq`, then flushes if it is due to.
  void fill(Conn& conn, std::uint64_t seq, Frame frame);
  /// Answers request `id` in its slot `seq` with an `internal error: …`
  /// ERROR, then counts and logs it. Every reserved slot must be filled
  /// once, or no response behind it is written and wait_idle never returns.
  void fail_request(Conn& conn, std::uint64_t seq, std::uint32_t id,
                    const std::exception& e);
  /// A response ready on the reader thread: reserve, then fill.
  void respond(Conn& conn, Frame frame) {
    fill(conn, conn.reserve(), std::move(frame));
  }
  void write_frames(Conn& conn, const std::vector<Frame>& frames);

  // Frame payload cap: the model's max_source_bytes, enforced before a
  // payload buffers.
  const std::size_t max_payload_;
  net::Listener listener_;
  Batcher batcher_;

  std::atomic<bool> ready_{true};

  obs::Counter* connections_ = nullptr;
  obs::Counter* rejected_connections_ = nullptr;
  obs::Counter* frame_errors_ = nullptr;
  obs::Counter* timeout_errors_ = nullptr;
  obs::Counter* internal_errors_ = nullptr;
};

}  // namespace jsrev::serve
