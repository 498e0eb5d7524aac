#include "net/net.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace jsrev::net {
namespace {

constexpr int kAcceptBackoffMs = 100;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

timeval to_timeval(long ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return tv;
}

/// Fills *addr for a Unix-domain `path`; false when it does not fit.
bool unix_address(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Fills *addr for dotted-quad `host` ("" and "localhost" are loopback).
bool ipv4_address(const std::string& host, std::uint16_t port,
                  sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string ip =
      host.empty() || host == "localhost" ? std::string("127.0.0.1") : host;
  return ::inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) == 1;
}

/// A close-on-exec stream socket bound to `addr` and listening; throws with
/// `where` in the message.
int bind_listener(int family, const sockaddr* addr, socklen_t len,
                  const std::string& where) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(" + where + ")");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, addr, len) != 0 || ::listen(fd, kBacklog) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("listen(" + where + ")");
  }
  return fd;
}

/// The whole of `text` as a port in 1..65535; 0 when it is anything else.
std::uint16_t parse_port(std::string_view text) {
  if (text.empty() || text.size() > 5) return 0;
  unsigned value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<unsigned>(c - '0');
  }
  return value <= 65535 ? static_cast<std::uint16_t>(value) : 0;
}

}  // namespace

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

int dial(const std::string& endpoint, long timeout_ms, std::string* error) {
  const auto fail = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
    return -1;
  };

  sockaddr_un un{};
  sockaddr_in in{};
  int family = AF_UNIX;
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  if (endpoint.rfind("unix:", 0) == 0) {
    if (!unix_address(endpoint.substr(5), &un)) {
      return fail("unix socket path too long: " + endpoint);
    }
    addr = reinterpret_cast<const sockaddr*>(&un);
    addr_len = sizeof(un);
  } else {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      return fail("endpoint must be HOST:PORT or unix:PATH: " + endpoint);
    }
    const std::uint16_t port =
        parse_port(std::string_view(endpoint).substr(colon + 1));
    if (port == 0) return fail("bad port in endpoint: " + endpoint);
    const std::string host = endpoint.substr(0, colon);
    if (!ipv4_address(host, port, &in)) {
      return fail("bad host (want a dotted-quad IPv4 address): " + host);
    }
    family = AF_INET;
    addr = reinterpret_cast<const sockaddr*>(&in);
    addr_len = sizeof(in);
  }

  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  set_cloexec(fd);
  // SO_SNDTIMEO also bounds connect() on Linux; SO_RCVTIMEO turns a silent
  // peer into EAGAIN on read.
  const timeval tv = to_timeval(timeout_ms);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, addr, addr_len) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EINPROGRESS || err == EAGAIN || err == EWOULDBLOCK) {
      return fail("timed out connecting to " + endpoint);
    }
    return fail("connect(" + endpoint + "): " + std::strerror(err));
  }
  return fd;
}

Listener::Listener() {
  ::signal(SIGPIPE, SIG_IGN);
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);
  conns_.reserve(kMaxConnections);
}

Listener::~Listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void Listener::listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (!unix_address(path, &addr)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  listen_fd_ = bind_listener(
      AF_UNIX, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr), path);
  unix_path_ = path;
}

void Listener::listen_tcp(std::uint16_t port, const std::string& bind_addr) {
  sockaddr_in addr{};
  if (!ipv4_address(bind_addr, port, &addr)) {
    throw std::runtime_error("bad bind address: " + bind_addr);
  }
  listen_fd_ = bind_listener(
      AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
      (bind_addr.empty() ? "127.0.0.1" : bind_addr) + ":" +
          std::to_string(port));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }
}

void Listener::request_shutdown() noexcept {
  // Only the first request writes: the byte is never consumed, so one keeps
  // the pipe readable for every poller, and the pipe can never fill.
  if (shutdown_.exchange(true)) return;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Listener::run(const Handler& handle, const Handler& reject) {
  if (listen_fd_ < 0) {
    throw std::logic_error("net::Listener::run without listen_unix/listen_tcp");
  }
  const timeval send_deadline = to_timeval(kIoDeadlineMs);
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
    if (client < 0) {
      // Out of descriptors: the listener stays readable, so polling again at
      // once would spin. Wait for an fd to free up (or for shutdown).
      if (errno == EMFILE || errno == ENFILE) {
        pollfd wake{wake_pipe_[0], POLLIN, 0};
        ::poll(&wake, 1, kAcceptBackoffMs);
      }
      continue;
    }
    set_cloexec(client);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_deadline,
                 sizeof(send_deadline));

    // Reap before spawning: every accept joins the threads that already
    // finished, so the tracked set stays at the connections in flight
    // instead of growing one joinable thread (and its stack) per connection.
    reap_finished();
    if (!spawn(client, handle)) {
      reject(client);
      ::close(client);
    }
  }

  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (Conn& c : conns) c.thread.join();
}

bool Listener::spawn(int fd, const Handler& handle) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  if (conns_.size() >= kMaxConnections) return false;
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread thread;
  try {
    thread = std::thread([&handle, fd, done] {
      handle(fd);
      ::close(fd);
      done->store(true, std::memory_order_release);
    });
  } catch (const std::exception&) {
    return false;  // out of threads: answer like an over-cap connection
  }
  conns_.push_back({std::move(thread), std::move(done)});
  return true;
}

void Listener::reap_finished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Listener::tracked_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

}  // namespace jsrev::net
