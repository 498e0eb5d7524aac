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
namespace {

Frame error_frame(std::uint32_t id, std::string reason) {
  return Frame{FrameType::kError, /*flags=*/0, id, std::move(reason)};
}

}  // namespace

std::uint64_t Server::Conn::reserve() {
  std::lock_guard<std::mutex> lock(mu);
  slots.emplace_back();
  return front_seq + slots.size() - 1;
}

void Server::Conn::wait_for_room() {
  std::unique_lock<std::mutex> lock(mu);
  unsent_cv.wait(lock, [this] {
    return slots.size() < kMaxUnsent && unsent_bytes < kMaxUnsentBytes;
  });
}

void Server::Conn::wait_idle() {
  std::unique_lock<std::mutex> lock(mu);
  unsent_cv.wait(lock, [this] { return slots.empty() && !flushing; });
}

void Server::Conn::close() {
  std::unique_lock<std::mutex> lock(mu);
  unsent_cv.wait(lock, [this] { return !flushing; });
  open = false;
}

Server::Server(const core::ModelView& model, ServeOptions opts)
    : max_payload_(model.parse_limits().max_source_bytes),
      batcher_(model, opts) {
  auto& reg = obs::metrics();
  connections_ = reg.counter("serve.connections");
  rejected_connections_ = reg.counter(
      "serve.rejected", {{"reason", "connections"}}, obs::kScheduleDependent);
  frame_errors_ = reg.counter("serve.errors", {{"kind", "frame"}});
  timeout_errors_ = reg.counter("serve.errors", {{"kind", "timeout"}});
  internal_errors_ = reg.counter("serve.errors", {{"kind", "internal"}});
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
        const std::string bytes =
            encode_frame(error_frame(0, "too many connections"));
        ::send(fd, bytes.data(), bytes.size(), MSG_DONTWAIT);
      });
  batcher_.drain();
}

void Server::serve_fd(int in_fd, int out_fd) {
  // Backstop containment: an exception escaping the connection — its
  // state's allocation included — must cost one connection, never the
  // process (an uncaught exception on a connection thread is
  // std::terminate).
  std::shared_ptr<Conn> conn;
  bool quit = false;
  try {
    conn = std::make_shared<Conn>();
    conn->in_fd = in_fd;
    conn->out_fd = out_fd;
    quit = conn_loop(conn);
  } catch (const std::exception& e) {
    internal_errors_->add();
    obs::LogRecord(obs::LogLevel::kError, "serve.conn_thread_error")
        .kv("what", e.what());
  }
  // The caller closes the fd next, and after an exception this connection's
  // requests may still be running: none of them may write to a reused fd.
  if (conn != nullptr) conn->close();
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
        respond(*conn, error_frame(partial_id, "frame timed out"));
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
    // Compact once per read (not once per frame): pipelined small frames
    // would otherwise memmove the rest of the buffer for every frame.
    buf.erase(0, off);
    off = 0;
    if (buf.empty()) frame_start = Clock::now();
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
        // The header id when it was readable, else 0.
        respond(*conn, error_frame(frame.id,
                                   std::string("malformed frame: ") +
                                       std::string(decode_status_name(st))));
        reading = false;
        break;
      }
      off += consumed;
      // Per frame, not per read: one read can hold thousands of STATS.
      conn->wait_for_room();
      const std::uint32_t frame_id = frame.id;
      Disposition d;
      try {
        d = handle_frame(conn, std::move(frame));
      } catch (const std::exception& e) {
        fail_request(*conn, conn->reserve(), frame_id, e);
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
      // Any next frame began in this read; the time spent on this one was
      // the daemon's, so the next one's deadline starts now.
      frame_start = Clock::now();
    }
  }

  if (quit) {
    // Graceful daemon drain: every accepted request (all connections)
    // completes first, and kBye takes this connection's last slot, so it
    // leaves after every verdict.
    batcher_.drain();
    respond(*conn, Frame{FrameType::kBye, /*flags=*/0, /*id=*/0, {}});
  }
  // Let in-flight responses for this connection flush before closing.
  conn->wait_idle();
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
      // The slot is taken before submit, so a rejection (which completes
      // inline) still answers in request order.
      const std::uint64_t seq = conn->reserve();
      try {
        batcher_.submit(std::move(req), [this, conn, seq](ServeResponse resp) {
          if (!resp.error.empty()) {
            fill(*conn, seq, error_frame(resp.id, std::move(resp.error)));
            return;
          }
          Frame out{FrameType::kVerdict, /*flags=*/0, resp.id, {}};
          if (resp.parse_failed) out.flags |= kParseFailed;
          out.payload = resp.provenance_json.empty()
                            ? std::string(1, static_cast<char>(
                                                 '0' + (resp.verdict & 1)))
                            : std::move(resp.provenance_json);
          fill(*conn, seq, std::move(out));
        });
      } catch (const std::exception& e) {
        // Out of memory handing the request over (the completion's storage,
        // the queue, the rejection's log record): submit throws before it
        // calls the completion, so the reserved slot is still empty, and
        // every response behind it waits for it.
        fail_request(*conn, seq, frame.id, e);
        return Disposition::kClose;
      }
      return Disposition::kContinue;
    }
    case FrameType::kPing:
      respond(*conn, Frame{FrameType::kPong, /*flags=*/0, frame.id,
                           std::move(frame.payload)});
      return Disposition::kContinue;
    case FrameType::kStats:
      respond(*conn, Frame{FrameType::kStatsJson, /*flags=*/0, frame.id,
                           obs::metrics().to_json()});
      return Disposition::kContinue;
    case FrameType::kQuit:
      // Readiness flips before the drain starts, so /readyz reports 503
      // strictly before this connection's kBye confirms the drain finished.
      ready_.store(false, std::memory_order_relaxed);
      obs::LogRecord(obs::LogLevel::kInfo, "serve.quit")
          .kv("request_id", frame.id);
      return Disposition::kQuit;
    default:
      // A response-type frame from a client is a protocol violation, same
      // containment as wire garbage: answer, close, keep serving others.
      frame_errors_->add();
      respond(*conn, error_frame(frame.id, "unexpected frame type"));
      return Disposition::kClose;
  }
}

void Server::fail_request(Conn& conn, std::uint64_t seq, std::uint32_t id,
                          const std::exception& e) {
  Frame out = error_frame(id, {});
  try {
    out.payload = std::string("internal error: ") + e.what();
  } catch (const std::exception&) {
    out.payload = "internal error";  // short enough to need no allocation
  }
  fill(conn, seq, std::move(out));
  internal_errors_->add();
  // Logged with the request id, so the client's ERROR has a server-side
  // record to join against; a log that cannot allocate is skipped.
  try {
    obs::LogRecord(obs::LogLevel::kError, "serve.internal_error")
        .kv("request_id", id)
        .kv("what", e.what());
  } catch (const std::exception&) {
  }
}

void Server::fill(Conn& conn, std::uint64_t seq, Frame frame) {
  std::unique_lock<std::mutex> lock(conn.mu);
  conn.unsent_bytes += kFrameHeaderBytes + frame.payload.size();
  conn.slots[seq - conn.front_seq] = std::move(frame);
  if (conn.flushing || !conn.slots.front().has_value()) return;
  conn.flushing = true;
  std::vector<Frame> ready;
  std::size_t ready_bytes = 0;
  try {
    for (;;) {
      while (!conn.slots.empty() && conn.slots.front().has_value()) {
        ready.push_back(std::move(*conn.slots.front()));
        ready_bytes += kFrameHeaderBytes + ready.back().payload.size();
        conn.slots.pop_front();
        ++conn.front_seq;
      }
      if (ready.empty()) break;
      lock.unlock();
      conn.unsent_cv.notify_all();
      write_frames(conn, ready);
      ready.clear();
      lock.lock();
      conn.unsent_bytes -= std::exchange(ready_bytes, 0);
    }
  } catch (const std::exception&) {
    // Out of memory mid-flush: the responses in hand are lost, so this
    // connection's stream ends here, as after a failed write.
    if (!lock.owns_lock()) lock.lock();
    conn.unsent_bytes -= ready_bytes;
    conn.open = false;
    ::shutdown(conn.out_fd, SHUT_RDWR);
    internal_errors_->add();
  }
  conn.flushing = false;
  lock.unlock();
  conn.unsent_cv.notify_all();
}

void Server::write_frames(Conn& conn, const std::vector<Frame>& frames) {
  if (!conn.open) return;
  std::string bytes;
  for (const Frame& f : frames) append_frame(f, &bytes);
  if (net::write_all(conn.out_fd, bytes)) return;
  conn.open = false;
  if (errno == EAGAIN || errno == EWOULDBLOCK) {
    // The peer read nothing for a whole send deadline. Shut the socket both
    // ways: the connection's reader sees EOF and stops, and this writer —
    // often a worker — goes back to serving everyone else.
    timeout_errors_->add();
    static obs::LogRateLimit rl(/*per_sec=*/2.0, /*burst=*/10.0);
    obs::LogRecord(obs::LogLevel::kWarn, "serve.write_timeout", rl)
        .kv("request_id", frames.front().id);
    ::shutdown(conn.out_fd, SHUT_RDWR);
  }
}

}  // namespace jsrev::serve
