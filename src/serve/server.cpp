#include "serve/server.h"

#include <csignal>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/log.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace jsrev::serve {
namespace {

void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Writes all of `data` to `fd`, retrying on EINTR / partial writes.
/// Returns false on any hard error (the peer hung up; SIGPIPE is ignored).
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

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
  ::signal(SIGPIPE, SIG_IGN);
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  connections_ = obs::metrics().counter("serve.connections");
  frame_errors_ = obs::metrics().counter("serve.errors",
                                         {{"kind", "frame"}});
  internal_errors_ = obs::metrics().counter("serve.errors",
                                            {{"kind", "internal"}});
}

Server::~Server() {
  request_shutdown();
  batcher_.shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void Server::request_shutdown() noexcept {
  // Readiness drops first (both stores are async-signal-safe): any /readyz
  // probe racing the shutdown sees "draining" before connections do.
  ready_.store(false, std::memory_order_relaxed);
  shutdown_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // Best-effort, async-signal-safe: one write to the self-pipe wakes every
  // poll(). The result is ignored — a full pipe already guarantees a wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  set_cloexec(fd);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  listen_fd_ = fd;
  unix_path_ = path;
}

void Server::listen_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
}

void Server::run() {
  if (listen_fd_ < 0) {
    throw std::logic_error("Server::run without listen_unix/listen_tcp");
  }
  while (!shutdown_requested()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || shutdown_requested()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    set_cloexec(client);
    connections_->add();

    auto conn = std::make_shared<Conn>();
    conn->in_fd = client;
    conn->out_fd = client;
    conn->own_fds = true;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] {
      // Backstop containment: an exception escaping the connection loop
      // must cost one connection, never the process (an uncaught exception
      // on a thread is std::terminate).
      bool quit = false;
      try {
        quit = conn_loop(conn);
      } catch (const std::exception& e) {
        internal_errors_->add();
        obs::LogRecord(obs::LogLevel::kError, "serve.conn_thread_error")
            .kv("what", e.what());
      }
      conn->open.store(false, std::memory_order_relaxed);
      ::close(conn->in_fd);  // == out_fd for accepted sockets
      if (quit) request_shutdown();
    });
  }

  // Drain: readers have stopped (self-pipe); finish in-flight work, flush
  // every response, then join the connection threads.
  batcher_.drain();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
    conns_.clear();
  }
  for (std::thread& t : threads) t.join();
}

void Server::serve_fd(int in_fd, int out_fd) {
  auto conn = std::make_shared<Conn>();
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  conn->own_fds = false;
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
  std::string buf;
  char chunk[64 * 1024];
  bool quit = false;
  bool reading = true;

  while (reading && !shutdown_requested()) {
    pollfd fds[2] = {{conn->in_fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // shutdown requested
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t n = ::read(conn->in_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or hard error
    buf.append(chunk, static_cast<std::size_t>(n));

    while (!buf.empty()) {
      Frame frame;
      std::size_t consumed = 0;
      const DecodeStatus st =
          decode_frame(buf, max_payload_, &frame, &consumed);
      if (st == DecodeStatus::kNeedMore) break;
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
      buf.erase(0, consumed);
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
  if (!write_all(conn->out_fd, bytes)) {
    conn->open.store(false, std::memory_order_relaxed);
  }
}

}  // namespace jsrev::serve
