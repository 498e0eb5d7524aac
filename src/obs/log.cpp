#include "obs/log.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/json.h"

namespace jsrev::obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};

std::mutex g_sink_mu;
std::function<void(std::string_view)> g_sink;  // empty = stderr default

std::int64_t now_epoch_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::int64_t mono_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void emit_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink) {
    g_sink(line);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

bool log_level_from_name(std::string_view name, LogLevel* out) noexcept {
  if (name == "debug") *out = LogLevel::kDebug;
  else if (name == "info") *out = LogLevel::kInfo;
  else if (name == "warn") *out = LogLevel::kWarn;
  else if (name == "error") *out = LogLevel::kError;
  else return false;
  return true;
}

void set_log_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

void set_log_sink(std::function<void(std::string_view)> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = std::move(sink);
}

// ---------------------------------------------------------------------------
// LogRateLimit

bool LogRateLimit::allow(std::uint64_t* suppressed_out) noexcept {
  const std::int64_t now = mono_now_us();
  if (!init_.exchange(true, std::memory_order_relaxed)) {
    last_refill_us_.store(now, std::memory_order_relaxed);
    tokens_milli_.store(static_cast<std::int64_t>(burst_ * 1000.0),
                        std::memory_order_relaxed);
  }

  // Refill: credit elapsed-time tokens once, by swapping the refill stamp.
  std::int64_t last = last_refill_us_.load(std::memory_order_relaxed);
  if (now > last &&
      last_refill_us_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed)) {
    const double earned =
        static_cast<double>(now - last) * 1e-6 * per_sec_ * 1000.0;
    const auto cap = static_cast<std::int64_t>(burst_ * 1000.0);
    std::int64_t cur = tokens_milli_.load(std::memory_order_relaxed);
    std::int64_t next = 0;
    do {
      next = cur + static_cast<std::int64_t>(earned);
      if (next > cap) next = cap;
    } while (!tokens_milli_.compare_exchange_weak(cur, next,
                                                  std::memory_order_relaxed));
  }

  // Spend: one token = 1000 milli-tokens.
  std::int64_t cur = tokens_milli_.load(std::memory_order_relaxed);
  do {
    if (cur < 1000) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      total_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!tokens_milli_.compare_exchange_weak(cur, cur - 1000,
                                                std::memory_order_relaxed));
  *suppressed_out = suppressed_.exchange(0, std::memory_order_relaxed);
  return true;
}

// ---------------------------------------------------------------------------
// LogRecord

LogRecord::LogRecord(LogLevel level, std::string_view event) {
  if (!log_enabled(level)) return;
  enabled_ = true;
  begin(level, event, 0);
}

LogRecord::LogRecord(LogLevel level, std::string_view event,
                     LogRateLimit& limit) {
  if (!log_enabled(level)) return;
  std::uint64_t suppressed = 0;
  if (!limit.allow(&suppressed)) return;
  enabled_ = true;
  begin(level, event, suppressed);
}

void LogRecord::begin(LogLevel level, std::string_view event,
                      std::uint64_t suppressed) {
  line_.reserve(128);
  line_ += "{\"ts_ms\":";
  line_ += std::to_string(now_epoch_ms());
  line_ += ",\"level\":\"";
  line_ += log_level_name(level);
  line_ += "\",\"event\":\"";
  line_ += json_escape(event);
  line_ += '"';
  if (suppressed != 0) {
    line_ += ",\"suppressed\":";
    line_ += std::to_string(suppressed);
  }
}

LogRecord::~LogRecord() {
  if (!enabled_) return;
  line_ += '}';
  emit_line(line_);
}

void LogRecord::raw_key(std::string_view key) {
  line_ += ",\"";
  line_ += json_escape(key);
  line_ += "\":";
}

LogRecord& LogRecord::kv(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  raw_key(key);
  line_ += '"';
  line_ += json_escape(value);
  line_ += '"';
  return *this;
}

LogRecord& LogRecord::kv(std::string_view key, bool value) {
  if (!enabled_) return *this;
  raw_key(key);
  line_ += value ? "true" : "false";
  return *this;
}

LogRecord& LogRecord::kv(std::string_view key, double value) {
  if (!enabled_) return *this;
  raw_key(key);
  line_ += format_number(value);
  return *this;
}

LogRecord& LogRecord::kv(std::string_view key, std::int64_t value) {
  if (!enabled_) return *this;
  raw_key(key);
  line_ += std::to_string(value);
  return *this;
}

LogRecord& LogRecord::kv(std::string_view key, std::uint64_t value) {
  if (!enabled_) return *this;
  raw_key(key);
  line_ += std::to_string(value);
  return *this;
}

}  // namespace jsrev::obs
