#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/log.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace jsrev::serve {

void Server::Conn::add_pending() {
  std::lock_guard<std::mutex> lock(pending_mu);
  ++pending;
}

void Server::Conn::sub_pending() {
  {
    std::lock_guard<std::mutex> lock(pending_mu);
    --pending;
    if (pending != 0) return;
  }
  pending_cv.notify_all();
}

void Server::Conn::wait_idle() {
  std::unique_lock<std::mutex> lock(pending_mu);
  pending_cv.wait(lock, [this] { return pending == 0; });
}

Server::Server(const core::ModelView& model, ServeOptions opts)
    : max_payload_(model.parse_limits().max_source_bytes),
      batcher_(model, opts) {
  connections_ = obs::metrics().counter("serve.connections");
  rejected_connections_ = obs::metrics().counter(
      "serve.rejected", {{"reason", "connections"}}, obs::kScheduleDependent);
  frame_errors_ = obs::metrics().counter("serve.errors",
                                         {{"kind", "frame"}});
  timeout_errors_ = obs::metrics().counter("serve.errors",
                                           {{"kind", "timeout"}});
  internal_errors_ = obs::metrics().counter("serve.errors",
                                            {{"kind", "internal"}});
}

Server::~Server() {
  request_shutdown();
  batcher_.shutdown();
}

void Server::request_shutdown() noexcept {
  // Readiness drops first (both stores are async-signal-safe): any /readyz
  // probe racing the shutdown sees "draining" before connections do.
  ready_.store(false, std::memory_order_relaxed);
  listener_.request_shutdown();
}

void Server::run() {
  listener_.run(
      [this](int fd) {
        connections_->add();
        serve_fd(fd, fd);
      },
      [this](int fd) {
        // Over the connection cap: one error frame, sent without blocking
        // the accept thread; the listener closes the socket.
        rejected_connections_->add();
        Frame err;
        err.type = FrameType::kError;
        err.payload = "too many connections";
        const std::string bytes = encode_frame(err);
        ::send(fd, bytes.data(), bytes.size(), MSG_DONTWAIT);
      });
  batcher_.drain();
}

void Server::serve_fd(int in_fd, int out_fd) {
  auto conn = std::make_shared<Conn>();
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  // Backstop containment: an exception escaping the connection loop must
  // cost one connection, never the process (an uncaught exception on a
  // connection thread is std::terminate).
  bool quit = false;
  try {
    quit = conn_loop(conn);
  } catch (const std::exception& e) {
    internal_errors_->add();
    obs::LogRecord(obs::LogLevel::kError, "serve.conn_thread_error")
        .kv("what", e.what());
  }
  conn->open.store(false, std::memory_order_relaxed);
  if (quit) request_shutdown();
}

bool Server::conn_loop(const std::shared_ptr<Conn>& conn) {
  using Clock = std::chrono::steady_clock;
  std::string buf;
  std::size_t off = 0;  // first byte of buf not yet decoded into a frame
  // The frame partly in buf (off < buf.size()): when its first byte arrived,
  // and its header id once the header is complete (0 before).
  Clock::time_point frame_start;
  std::uint32_t partial_id = 0;
  char chunk[64 * 1024];
  bool quit = false;
  bool reading = true;

  while (reading && !shutdown_requested()) {
    // An idle connection may wait forever; a partial frame must complete
    // within the I/O deadline of its first byte.
    int timeout_ms = -1;
    if (off < buf.size()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          frame_start + std::chrono::milliseconds(net::kIoDeadlineMs) -
          Clock::now());
      if (left.count() <= 0) {
        timeout_errors_->add();
        static obs::LogRateLimit rl(/*per_sec=*/2.0, /*burst=*/10.0);
        obs::LogRecord(obs::LogLevel::kWarn, "serve.frame_timeout", rl)
            .kv("request_id", partial_id);
        Frame err;
        err.type = FrameType::kError;
        err.id = partial_id;
        err.payload = "frame timed out";
        write_frame(conn, err);
        break;
      }
      timeout_ms = static_cast<int>(left.count());
    }
    pollfd fds[2] = {{conn->in_fd, POLLIN, 0},
                     {listener_.wake_fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // shutdown requested
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t n = ::read(conn->in_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or hard error
    const Clock::time_point read_at = Clock::now();
    // Compact once per read (not once per frame): pipelined small frames
    // would otherwise memmove the rest of the buffer for every frame.
    buf.erase(0, off);
    off = 0;
    if (buf.empty()) frame_start = read_at;
    buf.append(chunk, static_cast<std::size_t>(n));

    while (off < buf.size()) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_frame(std::string_view(buf).substr(off), max_payload_,
                       &frame, &consumed);
      if (st == DecodeStatus::kNeedMore) {
        partial_id = frame.id;
        break;
      }
      if (st != DecodeStatus::kOk) {
        // Malformed wire data: answer with the reason, drop the connection,
        // keep the daemon alive. The stream cannot be resynced, so closing
        // is the only safe recovery.
        frame_errors_->add();
        static obs::LogRateLimit rl(/*per_sec=*/2.0, /*burst=*/10.0);
        obs::LogRecord(obs::LogLevel::kWarn, "serve.frame_error", rl)
            .kv("request_id", frame.id)
            .kv("reason", decode_status_name(st));
        Frame err;
        err.type = FrameType::kError;
        err.id = frame.id;  // header id when it was readable, else 0
        err.payload = std::string("malformed frame: ") +
                      std::string(decode_status_name(st));
        write_frame(conn, err);
        reading = false;
        break;
      }
      off += consumed;
      frame_start = read_at;  // any next frame began in this read
      const std::uint32_t frame_id = frame.id;
      Disposition d;
      try {
        d = handle_frame(conn, std::move(frame));
      } catch (const std::exception& e) {
        // An unexpected serving-path failure used to close the connection
        // silently; now it answers, counts, and logs with the request id so
        // the client-side timeout has a server-side record to join against.
        internal_errors_->add();
        obs::LogRecord(obs::LogLevel::kError, "serve.internal_error")
            .kv("request_id", frame_id)
            .kv("what", e.what());
        Frame err;
        err.type = FrameType::kError;
        err.id = frame_id;
        err.payload = std::string("internal error: ") + e.what();
        write_frame(conn, err);
        d = Disposition::kClose;
      }
      if (d == Disposition::kClose) {
        reading = false;
        break;
      }
      if (d == Disposition::kQuit) {
        quit = true;
        reading = false;
        break;
      }
    }
  }

  if (quit) {
    // Graceful daemon drain: every accepted request (all connections)
    // completes and this connection's responses flush before kBye.
    batcher_.drain();
    conn->wait_idle();
    Frame bye;
    bye.type = FrameType::kBye;
    write_frame(conn, bye);
  } else {
    // Let in-flight responses for this connection flush before closing.
    conn->wait_idle();
  }
  return quit;
}

Server::Disposition Server::handle_frame(const std::shared_ptr<Conn>& conn,
                                         Frame frame) {
  switch (frame.type) {
    case FrameType::kClassify: {
      ServeRequest req;
      req.id = frame.id;
      req.source = std::move(frame.payload);
      req.want_provenance = (frame.flags & kWantProvenance) != 0;
      conn->add_pending();
      batcher_.submit(std::move(req), [this, conn](ServeResponse resp) {
        Frame out;
        out.id = resp.id;
        if (resp.rejected) {
          out.type = FrameType::kError;
          out.payload = std::move(resp.error);
        } else {
          out.type = FrameType::kVerdict;
          if (resp.parse_failed) out.flags |= kParseFailed;
          out.payload = resp.provenance_json.empty()
                            ? std::string(1, static_cast<char>(
                                                 '0' + (resp.verdict & 1)))
                            : std::move(resp.provenance_json);
        }
        write_frame(conn, out);
        conn->sub_pending();
      });
      return Disposition::kContinue;
    }
    case FrameType::kPing: {
      Frame out;
      out.type = FrameType::kPong;
      out.id = frame.id;
      out.payload = std::move(frame.payload);
      write_frame(conn, out);
      return Disposition::kContinue;
    }
    case FrameType::kStats: {
      Frame out;
      out.type = FrameType::kStatsJson;
      out.id = frame.id;
      out.payload = obs::metrics().to_json();
      write_frame(conn, out);
      return Disposition::kContinue;
    }
    case FrameType::kQuit:
      // Readiness flips before the drain starts, so /readyz reports 503
      // strictly before this connection's kBye confirms the drain finished.
      ready_.store(false, std::memory_order_relaxed);
      obs::LogRecord(obs::LogLevel::kInfo, "serve.quit")
          .kv("request_id", frame.id);
      return Disposition::kQuit;
    default: {
      // A response-type frame from a client is a protocol violation, same
      // containment as wire garbage: answer, close, keep serving others.
      frame_errors_->add();
      Frame err;
      err.type = FrameType::kError;
      err.id = frame.id;
      err.payload = "unexpected frame type";
      write_frame(conn, err);
      return Disposition::kClose;
    }
  }
}

void Server::write_frame(const std::shared_ptr<Conn>& conn,
                         const Frame& frame) {
  if (!conn->open.load(std::memory_order_relaxed)) return;
  const std::string bytes = encode_frame(frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (net::write_all(conn->out_fd, bytes)) return;
  conn->open.store(false, std::memory_order_relaxed);
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    // The peer read nothing for a whole send deadline. Shut the socket both
    // ways: the connection's reader sees EOF and stops, and this writer —
    // often the batch worker — goes back to serving everyone else.
    timeout_errors_->add();
    static obs::LogRateLimit rl(/*per_sec=*/2.0, /*burst=*/10.0);
    obs::LogRecord(obs::LogLevel::kWarn, "serve.write_timeout", rl)
        .kv("request_id", frame.id);
    ::shutdown(conn->out_fd, SHUT_RDWR);
  }
}

}  // namespace jsrev::serve
