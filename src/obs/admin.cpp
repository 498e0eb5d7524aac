#include "obs/admin.h"

#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "util/version.h"

namespace jsrev::obs {
namespace {

std::int64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

std::string http_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    reason_phrase(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string plain(int status, std::string_view body) {
  return http_response(status, "text/plain; charset=utf-8", body);
}

}  // namespace

AdminServer::AdminServer() : start_us_(mono_us()) {}

AdminServer::~AdminServer() { stop(); }

void AdminServer::set_ready_check(std::function<bool()> check) {
  ready_check_ = std::move(check);
}

void AdminServer::set_status_fields(std::function<void(JsonWriter&)> fields) {
  status_fields_ = std::move(fields);
}

void AdminServer::start() {
  run_thread_ = std::thread([this] { run(); });
}

void AdminServer::stop() {
  request_shutdown();
  if (run_thread_.joinable()) run_thread_.join();
}

void AdminServer::run() {
  listener_.run([this](int fd) { handle_connection(fd); },
                [](int fd) {
                  // Over the connection cap: answer without blocking the
                  // accept thread; the listener closes the socket.
                  const std::string busy =
                      plain(503, "too many connections\n");
                  ::send(fd, busy.data(), busy.size(), MSG_DONTWAIT);
                });
}

void AdminServer::handle_connection(int fd) {
  // One request per connection. Read until the blank line ending the head,
  // bounded by kMaxRequestBytes (→ 431) and the connection layer's I/O
  // deadline (→ 408); every wait also watches the wake fd so shutdown
  // unsticks us.
  std::string buf;
  const std::int64_t deadline_us =
      mono_us() + std::int64_t{net::kIoDeadlineMs} * 1'000;
  std::string response;
  while (true) {
    if (buf.find("\r\n\r\n") != std::string::npos ||
        buf.find("\n\n") != std::string::npos) {
      response = respond(buf);
      break;
    }
    if (buf.size() > kMaxRequestBytes) {
      response = plain(431, "request head too large\n");
      break;
    }
    const std::int64_t left_ms = (deadline_us - mono_us()) / 1'000;
    if (left_ms <= 0) {
      response = plain(408, "timed out reading request\n");
      break;
    }
    pollfd fds[2] = {{fd, POLLIN, 0}, {listener_.wake_fd(), POLLIN, 0}};
    const int rc = ::poll(fds, 2, static_cast<int>(left_ms));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || shutdown_requested()) return;
    if (rc == 0) continue;  // recheck deadline
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer vanished before finishing the request
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  net::write_all(fd, response);
}

std::string AdminServer::respond(std::string_view head) {
  // Request line: METHOD SP TARGET SP HTTP/x.y
  const std::size_t eol = head.find_first_of("\r\n");
  const std::string_view line = head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.substr(sp2 + 1).rfind("HTTP/", 0) != 0) {
    LogRecord(LogLevel::kWarn, "admin_bad_request")
        .kv("line", line.substr(0, 120));
    return plain(400, "malformed request line\n");
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") return plain(405, "only GET is supported\n");

  std::string_view query;
  if (const std::size_t q = target.find('?'); q != std::string_view::npos) {
    query = target.substr(q + 1);
    target = target.substr(0, q);
  }

  if (target == "/metrics") {
    return http_response(200, "text/plain; version=0.0.4; charset=utf-8",
                         render_prometheus(metrics()));
  }
  if (target == "/healthz") return plain(200, "ok\n");
  if (target == "/readyz") {
    const bool ready = !ready_check_ || ready_check_();
    return ready ? plain(200, "ready\n") : plain(503, "draining\n");
  }
  if (target == "/statusz") {
    JsonWriter w;
    w.begin_object();
    w.kv("version", kVersionString);
    w.kv("uptime_s",
         static_cast<double>(mono_us() - start_us_) / 1'000'000.0);
    if (status_fields_) status_fields_(w);
    w.end_object();
    return http_response(200, "application/json", w.str() + "\n");
  }
  if (target == "/tracez") return handle_tracez(query);
  return plain(404, "unknown admin path\n");
}

std::string AdminServer::handle_tracez(std::string_view query) {
  long window_ms = 100;
  if (query.rfind("ms=", 0) == 0) {
    const std::string value(query.substr(3));
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || end == value.c_str() || v < 0) {
      return plain(400, "bad ms= value\n");
    }
    window_ms = v;
  } else if (!query.empty()) {
    return plain(400, "unknown query (want ms=N)\n");
  }
  if (window_ms > kMaxTraceMs) window_ms = kMaxTraceMs;

  // One capture at a time; concurrent requests queue here rather than
  // fighting over the tracer's enabled flag.
  std::lock_guard<std::mutex> lock(trace_mu_);
  Tracer& tracer = Tracer::global();
  const bool was_enabled = Tracer::enabled();
  tracer.clear();
  tracer.set_enabled(true);
  const std::int64_t until_us = mono_us() + window_ms * 1'000;
  while (!shutdown_requested()) {
    const std::int64_t left_ms = (until_us - mono_us()) / 1'000;
    if (left_ms <= 0) break;
    pollfd p{listener_.wake_fd(), POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(left_ms));
    if ((p.revents & POLLIN) != 0) break;
  }
  tracer.set_enabled(was_enabled);
  std::string trace = tracer.export_chrome_json(/*clear_after=*/true);
  LogRecord(LogLevel::kInfo, "admin_trace_capture")
      .kv("window_ms", static_cast<std::int64_t>(window_ms))
      .kv("bytes", static_cast<std::uint64_t>(trace.size()));
  return http_response(200, "application/json", trace);
}

// ---------------------------------------------------------------------------
// Client side

int admin_http_get(const std::string& endpoint, const std::string& path,
                   std::string* body, std::string* error, long timeout_ms) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return -1;
  };
  if (timeout_ms <= 0) timeout_ms = 10'000;

  const int fd = net::dial(endpoint, timeout_ms, error);
  if (fd < 0) return -1;

  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: admin\r\nConnection: close\r\n\r\n";
  if (!net::write_all(fd, request)) {
    ::close(fd);
    return fail("short write sending request");
  }

  std::string response;
  char chunk[8192];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ::close(fd);
      return fail("timed out waiting for response from " + endpoint);
    }
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (response.rfind("HTTP/", 0) != 0) return fail("not an HTTP response");
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return fail("malformed status line");
  const int status = std::atoi(response.c_str() + sp + 1);
  if (status < 100 || status > 599) return fail("malformed status code");
  std::size_t body_at = response.find("\r\n\r\n");
  body_at = body_at == std::string::npos ? response.size() : body_at + 4;
  if (body != nullptr) *body = response.substr(body_at);
  return status;
}

}  // namespace jsrev::obs
