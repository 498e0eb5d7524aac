#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "serve/frame.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using jsrev::serve::Frame;
using jsrev::serve::FrameType;

// A request not answered this long after it was due fails the run.
constexpr double kReplyDeadlineS = 10.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(const std::string& serve_bin, const std::string& model,
               const std::string& sock, const std::string& log)
    : sock_(sock) {
  ::unlink(sock.c_str());
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> args = {serve_bin, "--model", model, "--unix",
                                   sock, "--log-level", "warn"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, serve_bin.c_str(), &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + serve_bin + ": " +
                             std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
}

int Daemon::connect(double timeout_s) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (sock_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + sock_);
  }
  std::memcpy(addr.sun_path, sock_.c_str(), sock_.size() + 1);
  const auto start = Clock::now();
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      return fd;
    }
    ::close(fd);
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      throw std::runtime_error("jsr_serve exited before listening");
    }
    if (seconds_between(start, Clock::now()) > timeout_s) {
      throw std::runtime_error("jsr_serve did not listen on " + sock_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM for jsr_serve");
}

void Daemon::wait_exit(double timeout_s) {
  const auto start = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (seconds_between(start, Clock::now()) > timeout_s) {
      throw std::runtime_error("jsr_serve did not exit after QUIT");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("jsr_serve exited abnormally");
  }
}

// ---------------------------------------------------------------------------
// LoadGen

struct LoadGen::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::size_t outstanding = 0;
  bool open = true;
};

struct LoadGen::Pending {
  bool control = false;
  std::size_t conn = 0;
  std::size_t index = 0;  // request index (classify frames)
  Clock::time_point due;
};

LoadGen::LoadGen(std::vector<int> fds, const std::vector<Request>& requests,
                 const std::vector<Expected>& expected,
                 std::vector<std::size_t> order)
    : requests_(requests), expected_(expected), order_(std::move(order)) {
  for (const int fd : fds) conns_.push_back(Conn{fd, {}, 0, {}, 0, 0, true});
}

LoadGen::~LoadGen() {
  for (const Conn& c : conns_) ::close(c.fd);
}

std::uint32_t LoadGen::send(std::size_t conn, std::uint8_t type,
                            std::uint8_t flags, const std::string& payload) {
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.flags = flags;
  f.id = next_id_++;
  f.payload = payload;
  jsrev::serve::append_frame(f, &conns_[conn].out);
  return f.id;
}

void LoadGen::pump(int timeout_ms) {
  std::vector<pollfd> fds;
  for (const Conn& c : conns_) {
    fds.push_back({c.open ? c.fd : -1,
                   static_cast<short>(POLLIN |
                                      (c.out_off < c.out.size() ? POLLOUT : 0)),
                   0});
  }
  const int rc = ::poll(fds.data(), fds.size(), std::max(0, timeout_ms));
  if (rc < 0 && errno != EINTR) throw_errno("poll");
  const auto now = Clock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (!c.open) continue;
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (w < 0 && (errno == EAGAIN || errno == EINTR)) break;
      if (w <= 0) throw_errno("write to jsr_serve");
      c.out_off += static_cast<std::size_t>(w);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char chunk[64 * 1024];
    for (;;) {
      const ssize_t r = ::read(c.fd, chunk, sizeof chunk);
      if (r < 0 && (errno == EAGAIN || errno == EINTR)) break;
      if (r < 0) throw_errno("read from jsr_serve");
      if (r == 0) {
        // The daemon closes every connection once a QUIT has drained it.
        if (!quitting_) throw std::runtime_error("jsr_serve closed a connection");
        c.open = false;
        break;
      }
      c.in.append(chunk, static_cast<std::size_t>(r));
    }
    for (;;) {
      Frame f;
      std::size_t used = 0;
      const auto st = jsrev::serve::decode_frame(
          std::string_view(c.in).substr(c.in_off), c.in.size(), &f, &used);
      if (st == jsrev::serve::DecodeStatus::kNeedMore) break;
      if (st != jsrev::serve::DecodeStatus::kOk) {
        throw std::runtime_error("malformed reply from jsr_serve");
      }
      c.in_off += used;
      // BYE does not echo an id; it answers the QUIT.
      if (f.type == FrameType::kBye) f.id = quit_id_;
      auto it = pending_.find(f.id);
      if (it == pending_.end()) {
        throw std::runtime_error("reply for unknown request id " +
                                 std::to_string(f.id));
      }
      const Pending p = it->second;
      pending_.erase(it);
      if (p.control) {
        control_replies_[f.id] = std::move(f.payload);
        continue;
      }
      --conns_[p.conn].outstanding;
      if (phase_ == nullptr) continue;
      if (f.type == FrameType::kError) {
        ++phase_->errors;
        continue;
      }
      const Request& req = requests_[p.index];
      int verdict = -1;
      bool parse_failed = (f.flags & jsrev::serve::kParseFailed) != 0;
      if (req.want_provenance) {
        const auto doc = jsrev::obs::json_parse(f.payload);
        const auto* v = doc ? doc->find("verdict") : nullptr;
        const auto* pf = doc ? doc->find("parse_failed") : nullptr;
        if (v != nullptr && pf != nullptr && pf->boolean == parse_failed) {
          verdict = static_cast<int>(v->number);
        }
      } else if (f.payload == "0" || f.payload == "1") {
        verdict = f.payload[0] - '0';
      }
      const Expected& want = expected_[p.index];
      if (f.type != FrameType::kVerdict || verdict != want.verdict ||
          parse_failed != want.parse_failed) {
        ++phase_->mismatches;
      }
      if (phase_->verdicts[p.index] < 0) phase_->verdicts[p.index] = verdict;
      if (phase_->open_loop) {
        phase_->latency_ms.push_back(seconds_between(p.due, now) * 1e3);
      } else if (now >= phase_->count_from && now <= phase_->count_until) {
        ++phase_->counted;
        phase_->last_counted = now;
      }
    }
    if (c.in_off > 0 && c.in_off * 2 >= c.in.size()) {
      c.in.erase(0, c.in_off);
      c.in_off = 0;
    }
  }
}

void LoadGen::check_deadlines() const {
  const auto now = Clock::now();
  for (const auto& [id, p] : pending_) {
    if (seconds_between(p.due, now) > kReplyDeadlineS) {
      throw std::runtime_error("jsr_serve did not answer request " +
                               std::to_string(id) + " within the deadline");
    }
  }
}

std::string LoadGen::await_control(std::uint32_t id, double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    if (auto it = control_replies_.find(id); it != control_replies_.end()) {
      std::string payload = std::move(it->second);
      control_replies_.erase(it);
      return payload;
    }
    if (seconds_between(start, Clock::now()) > timeout_s) {
      throw std::runtime_error("jsr_serve did not answer a control frame");
    }
    pump(10);
  }
}

std::uint32_t LoadGen::send_control(std::uint8_t type) {
  const std::uint32_t id = send(0, type, 0, {});
  pending_[id] = Pending{true, 0, 0, Clock::now()};
  return id;
}

std::string LoadGen::stats() {
  return await_control(send_control(static_cast<std::uint8_t>(FrameType::kStats)), kReplyDeadlineS);
}

void LoadGen::ping() {
  await_control(send_control(static_cast<std::uint8_t>(FrameType::kPing)), kReplyDeadlineS);
}

void LoadGen::quit() {
  quitting_ = true;
  quit_id_ = send_control(static_cast<std::uint8_t>(FrameType::kQuit));
  await_control(quit_id_, 2 * kReplyDeadlineS);
}

PhaseResult LoadGen::run(const PhaseSpec& spec) {
  PhaseResult r;
  r.verdicts.assign(requests_.size(), -1);
  r.open_loop = spec.open_loop;
  phase_ = &r;
  const auto t0 = Clock::now();
  const auto t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(spec.seconds));
  // Closed loop: completions count after a short ramp, until the end.
  r.count_from = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              std::min(0.5, spec.seconds / 10)));
  r.count_until = t_end;

  std::size_t cursor = 0;
  const auto next_request = [&](std::size_t conn, Clock::time_point due) {
    const std::size_t index = order_[(spec.first + cursor++) % order_.size()];
    const Request& req = requests_[index];
    const std::uint32_t id =
        send(conn, static_cast<std::uint8_t>(FrameType::kClassify),
             req.want_provenance ? jsrev::serve::kWantProvenance : 0,
             req.source);
    pending_[id] = Pending{false, conn, index, due};
    ++conns_[conn].outstanding;
    ++r.attempted;
  };

  const auto interval = spec.open_loop
                            ? std::chrono::duration<double>(1.0 / spec.rate)
                            : std::chrono::duration<double>(0);
  std::uint32_t stats_id = 0;
  auto next_stats = t0;
  auto next_deadline_check = t0;
  for (;;) {
    const auto now = Clock::now();
    if (now >= t_end) break;
    int timeout_ms = 50;
    if (spec.open_loop) {
      for (;;) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     interval * static_cast<double>(cursor));
        if (due > now) {
          timeout_ms = static_cast<int>(
              std::chrono::duration<double, std::milli>(due - now).count());
          break;
        }
        const double lag_ms = seconds_between(due, now) * 1e3;
        r.max_lag_ms = std::max(r.max_lag_ms, lag_ms);
        next_request(cursor % conns_.size(), due);
      }
    } else {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        while (conns_[c].outstanding < spec.window) next_request(c, now);
      }
    }
    if (spec.sample_queue && now >= next_stats &&
        (stats_id == 0 || control_replies_.count(stats_id) != 0)) {
      if (stats_id != 0) {
        const std::string json = control_replies_[stats_id];
        control_replies_.erase(stats_id);
        r.queue_depth_max =
            std::max(r.queue_depth_max, parse_stats(json).queue_depth);
      }
      stats_id = send_control(static_cast<std::uint8_t>(FrameType::kStats));
      next_stats = now + std::chrono::milliseconds(100);
    }
    if (now >= next_deadline_check) {
      check_deadlines();
      next_deadline_check = now + std::chrono::milliseconds(100);
    }
    pump(std::min(timeout_ms, 50));
  }
  // Drain: every request sent in the phase must be answered.
  while (!pending_.empty()) {
    check_deadlines();
    pump(50);
  }
  control_replies_.erase(stats_id);
  r.next = (spec.first + cursor) % order_.size();
  // Replies land a batch at a time; ending the window at the last counted
  // reply keeps a batch straddling the phase end from skewing the rate.
  const double counted_s = seconds_between(r.count_from, r.last_counted);
  if (!spec.open_loop && r.counted > 0 && counted_s > 0) {
    r.throughput_rps = static_cast<double>(r.counted) / counted_s;
  }
  phase_ = nullptr;
  return r;
}

namespace {

HistogramSnapshot histogram_of(const jsrev::obs::JsonValue& m) {
  HistogramSnapshot h;
  const auto num = [&m](const char* key) {
    const auto* v = m.find(key);
    return v != nullptr ? v->number : 0.0;
  };
  h.count = num("count");
  h.sum = num("sum");
  if (const auto* b = m.find("bounds")) {
    for (const auto& x : b->array) h.bounds.push_back(x.number);
  }
  if (const auto* b = m.find("buckets")) {
    for (const auto& x : b->array) h.buckets.push_back(x.number);
  }
  return h;
}

}  // namespace

ServeStats parse_stats(const std::string& json) {
  const auto doc = jsrev::obs::json_parse(json);
  const auto* metrics = doc ? doc->find("metrics") : nullptr;
  if (metrics == nullptr) throw std::runtime_error("malformed STATS reply");
  ServeStats s;
  for (const auto& m : metrics->array) {
    const auto* n = m.find("name");
    if (n == nullptr) continue;
    const auto* labels = m.find("labels");
    const auto* stage = labels != nullptr ? labels->find("stage") : nullptr;
    const auto* value = m.find("value");
    if (n->string == "serve.batch_size") {
      s.batch_size = histogram_of(m);
    } else if (n->string == "serve.latency_ms") {
      s.latency_ms = histogram_of(m);
    } else if (n->string == "serve.stage_ms" && stage != nullptr) {
      (stage->string == "analyze" ? s.analyze_ms : s.classify_ms) =
          histogram_of(m);
    } else if (n->string == "serve.rejected" && value != nullptr) {
      s.rejected += value->number;
    } else if (n->string == "serve.queue_depth" && value != nullptr) {
      s.queue_depth = value->number;
    }
  }
  return s;
}

}  // namespace perfbench
