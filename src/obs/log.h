// Structured, leveled, rate-limited logging for long-lived processes.
//
// Every record is one JSON object on one line (JSON-lines), written to
// stderr by default: {"ts_ms":...,"level":"warn","event":"serve.slow",
// ...caller key/values...}. Machine-parseable by construction — the admin
// plane's request-correlation story depends on grepping a request_id across
// log records, trace spans, and wire frames, so free-text fprintf diagnostics
// in serving paths are replaced by these records.
//
// Severity is a global knob (set_log_level / --log-level): records below the
// active level cost one relaxed atomic load and a branch — cheap enough for
// per-request call sites.
//
// Rate limiting is per call site: a static LogRateLimit at the site is a
// token bucket (burst + steady refill); when the bucket is empty the record
// is dropped and counted, and the first record after a dry spell carries a
// "suppressed":N member so operators can see what they missed. A daemon
// being hammered with malformed frames logs a bounded stream, not one line
// per attack packet.
//
// The sink is replaceable (tests capture lines; a supervisor could forward
// them); the default sink serializes whole lines under a mutex so concurrent
// connection threads never interleave bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace jsrev::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

const char* log_level_name(LogLevel level) noexcept;
/// Parses "debug" / "info" / "warn" / "error"; false on anything else.
bool log_level_from_name(std::string_view name, LogLevel* out) noexcept;

/// Global severity floor (default kInfo). Records below it are dropped
/// before any formatting happens.
void set_log_level(LogLevel level) noexcept;

/// True when a record at `level` would be emitted (call-site fast path).
bool log_enabled(LogLevel level) noexcept;

/// Replaces the line sink. An empty function restores the default
/// (stderr, one line per record, whole-line atomic under a mutex).
/// The sink receives the serialized record without a trailing newline.
void set_log_sink(std::function<void(std::string_view)> sink);

/// Per-call-site token bucket. Intended usage is one static instance per
/// site:  static obs::LogRateLimit rl(/*per_sec=*/5.0, /*burst=*/10);
class LogRateLimit {
 public:
  constexpr LogRateLimit(double per_sec, double burst) noexcept
      : per_sec_(per_sec), burst_(burst) {}

  /// Takes one token. Returns false (drop the record) when the bucket is
  /// empty; otherwise true, and `*suppressed_out` reports how many records
  /// this site dropped since the last emitted one (0 in steady state).
  bool allow(std::uint64_t* suppressed_out) noexcept;

  std::uint64_t total_suppressed() const noexcept {
    return total_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  const double per_sec_;
  const double burst_;
  std::atomic<bool> init_{false};
  std::atomic<std::int64_t> last_refill_us_{0};
  std::atomic<std::int64_t> tokens_milli_{0};  // tokens * 1000, for atomics
  std::atomic<std::uint64_t> suppressed_{0};   // since last emitted record
  std::atomic<std::uint64_t> total_suppressed_{0};
};

/// Builder for one record. Constructed with the level and an "event" name
/// (dotted, stable — the grep handle); kv() appends members; the destructor
/// serializes and emits. When the level is below the floor (or the rate
/// limit said no) every kv() is a no-op and nothing is formatted.
///
///   obs::LogRecord(obs::LogLevel::kWarn, "serve.slow_request")
///       .kv("request_id", id).kv("latency_ms", ms);
class LogRecord {
 public:
  LogRecord(LogLevel level, std::string_view event);
  /// Rate-limited form; a dropped record is counted in `limit`.
  LogRecord(LogLevel level, std::string_view event, LogRateLimit& limit);
  ~LogRecord();

  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;

  bool enabled() const noexcept { return enabled_; }

  LogRecord& kv(std::string_view key, std::string_view value);
  LogRecord& kv(std::string_view key, const char* value) {
    return kv(key, std::string_view(value));
  }
  LogRecord& kv(std::string_view key, bool value);
  LogRecord& kv(std::string_view key, double value);
  LogRecord& kv(std::string_view key, std::int64_t value);
  LogRecord& kv(std::string_view key, std::uint64_t value);
  LogRecord& kv(std::string_view key, int value) {
    return kv(key, static_cast<std::int64_t>(value));
  }
  LogRecord& kv(std::string_view key, unsigned value) {
    return kv(key, static_cast<std::uint64_t>(value));
  }

 private:
  void begin(LogLevel level, std::string_view event,
             std::uint64_t suppressed);
  void raw_key(std::string_view key);

  bool enabled_ = false;
  std::string line_;
};

}  // namespace jsrev::obs
