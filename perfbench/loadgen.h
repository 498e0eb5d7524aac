// The daemon under test and the single-process load generator that drives
// it.
//
// Daemon spawns `jsr_serve --unix` as a child process and always reaps it.
// LoadGen holds a fixed set of connections (at most nproc, for the whole run:
// serve::Server keeps every connection's thread until shutdown) and drives
// them from one poll() loop, in one of two shapes:
//
//   * closed loop — each connection keeps `window` requests outstanding and
//     sends the next one as a reply lands; gives saturation throughput.
//   * open loop — request k is due at t0 + k/rate whatever the replies do;
//     latency is timed from the due time, so a stall is charged to every
//     request queued behind it, and the generator's own lag is reported.
//
// Every reply is checked against the in-process verdict for the same bytes.
// Every request has a client-side deadline: a daemon that stops answering
// fails the run instead of hanging it.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// In-process answer for one request: what the daemon must reply.
struct Expected {
  int verdict = 1;
  bool parse_failed = false;
};

class Daemon {
 public:
  /// Spawns `serve_bin --model model --unix sock`, stdout/stderr to `log`.
  Daemon(const std::string& serve_bin, const std::string& model,
         const std::string& sock, const std::string& log);
  /// Stops the child if it still runs (SIGTERM, then SIGKILL) and reaps it.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects to the daemon's socket, retrying until it listens; throws after
  /// `timeout_s`. The returned fd is non-blocking.
  int connect(double timeout_s) const;

  /// Peak resident set (VmHWM) of the child, in MB.
  double peak_rss_mb() const;

  /// Waits for the child to exit (after a QUIT); throws when it does not
  /// exit within `timeout_s` or exits nonzero.
  void wait_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  std::string sock_;
};

struct PhaseSpec {
  std::string name;
  bool open_loop = false;
  double rate = 0.0;        // open loop: requests per second
  std::size_t window = 1;   // closed loop: outstanding requests per connection
  double seconds = 1.0;
  bool sample_queue = false;  // poll STATS for serve.queue_depth meanwhile
  std::size_t first = 0;      // position in the send order to start at
};

struct PhaseResult {
  bool open_loop = false;
  std::size_t attempted = 0;
  std::size_t errors = 0;      // ERROR replies (rejections)
  std::size_t mismatches = 0;  // verdict or parse flag differs from library
  std::vector<double> latency_ms;  // open loop, from each request's due time
  std::size_t next = 0;            // position in the send order to resume at
  double throughput_rps = 0.0;     // closed loop, completions per second
  double max_lag_ms = 0.0;   // open loop: how late the generator sent
  double queue_depth_max = 0.0;
  /// Daemon verdict per request index (-1 = never answered in this phase).
  std::vector<int> verdicts;
  // Closed-loop counting window (after a short ramp, until the phase ends).
  std::chrono::steady_clock::time_point count_from, count_until, last_counted;
  std::size_t counted = 0;
};

/// Cumulative histogram as STATS reports it.
struct HistogramSnapshot {
  double count = 0.0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<double> buckets;  // bounds.size() + 1, last = overflow
};

/// The serve.* part of one STATS reply.
struct ServeStats {
  HistogramSnapshot batch_size, analyze_ms, classify_ms, latency_ms;
  double rejected = 0.0;
  double queue_depth = 0.0;
};

/// Extracts the serve.* metrics from a STATS JSON payload; throws on
/// malformed input.
ServeStats parse_stats(const std::string& json);

class LoadGen {
 public:
  /// Takes ownership of the connected fds. Phases send the requests in
  /// `order` (indices into `requests`), cycling through it.
  LoadGen(std::vector<int> fds, const std::vector<Request>& requests,
          const std::vector<Expected>& expected,
          std::vector<std::size_t> order);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  PhaseResult run(const PhaseSpec& spec);

  /// STATS round trip on the first connection: the daemon's cumulative
  /// metrics registry as JSON.
  std::string stats();

  /// PING round trip on the first connection.
  void ping();

  /// QUIT on the first connection; returns once BYE arrives.
  void quit();

 private:
  struct Conn;
  struct Pending;

  std::uint32_t send(std::size_t conn, std::uint8_t type, std::uint8_t flags,
                     const std::string& payload);
  std::uint32_t send_control(std::uint8_t type);
  /// One poll() round of at most `timeout_ms`: flushes writes, reads and
  /// dispatches replies.
  void pump(int timeout_ms);
  /// Pumps until control reply `id` arrives; returns its payload.
  std::string await_control(std::uint32_t id, double timeout_s);
  void check_deadlines() const;

  std::vector<Conn> conns_;
  const std::vector<Request>& requests_;
  const std::vector<Expected>& expected_;
  std::vector<std::size_t> order_;
  std::uint32_t next_id_ = 1;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::unordered_map<std::uint32_t, std::string> control_replies_;
  PhaseResult* phase_ = nullptr;
  bool quitting_ = false;
  std::uint32_t quit_id_ = 0;
};

}  // namespace perfbench
