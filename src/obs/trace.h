// Span tracer with Chrome trace-event export.
//
// RAII Span objects bracket a region of work; when tracing is enabled each
// completed span lands in the calling thread's ring buffer as a complete
// ("ph":"X") trace event. export_chrome_json() renders every buffered event
// in the Chrome trace-event format, loadable by chrome://tracing and
// Perfetto (https://ui.perfetto.dev) as-is.
//
// Cost model: when tracing is disabled (the default) constructing a Span is
// one relaxed atomic load and a branch — no clock read, no allocation — so
// spans can stay compiled into every hot path. When enabled, a span costs
// two steady_clock reads plus a bounded copy into a preallocated per-thread
// ring buffer (oldest events are overwritten once a thread exceeds
// kEventsPerThread, so memory stays fixed no matter how long the process
// runs).
//
// Nesting: spans are recorded at destruction on the thread that created
// them, so for any one thread the recorded intervals are properly nested
// (RAII order) — the trace test asserts this invariant on the export.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jsrev::obs {

class Tracer {
 public:
  /// Events retained per thread before the ring wraps.
  static constexpr std::size_t kEventsPerThread = 1 << 15;
  static constexpr std::size_t kMaxName = 47;
  static constexpr std::size_t kMaxCategory = 15;

  static Tracer& global();

  /// Cheap enough to sit in every Span constructor.
  static bool enabled() noexcept {
    return g_enabled.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    g_enabled.store(on, std::memory_order_relaxed);
  }

  /// Appends one complete event for the calling thread. Names longer than
  /// the fixed limits are truncated. Timestamps are microseconds on the
  /// process-local steady clock.
  void record(const char* name, const char* category, std::int64_t begin_us,
              std::int64_t end_us) noexcept;

  /// Microseconds since the tracer's epoch (first use).
  static std::int64_t now_us() noexcept;

  /// Renders every buffered event as {"traceEvents": [...]} and, with
  /// clear_after, empties the buffers so a subsequent export starts fresh.
  std::string export_chrome_json(bool clear_after = false);

  /// Drops all buffered events (buffers stay registered).
  void clear();

  /// Number of events currently buffered across all threads.
  std::size_t event_count() const;

 private:
  struct Event {
    char name[kMaxName + 1];
    char category[kMaxCategory + 1];
    std::int64_t ts_us;
    std::int64_t dur_us;
  };

  struct Buffer {
    explicit Buffer(std::uint32_t id) : tid(id) {
      events.reserve(kEventsPerThread);
    }
    mutable std::mutex mu;  // writer = owning thread; reader = exporter
    std::vector<Event> events;
    std::size_t head = 0;  // next write slot once the ring has wrapped
    bool wrapped = false;
    std::uint32_t tid;
  };

  Buffer* this_thread_buffer();

  static std::atomic<bool> g_enabled;

  mutable std::mutex mu_;  // guards buffers_ registration
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint32_t next_tid_ = 1;
};

/// RAII trace span. `name` and `category` must outlive the span (string
/// literals in practice); both are copied into the event at destruction.
class Span {
 public:
  explicit Span(const char* name, const char* category = "app") noexcept {
    if (Tracer::enabled()) {
      name_ = name;
      category_ = category;
      begin_us_ = Tracer::now_us();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      Tracer::global().record(name_, category_, begin_us_, Tracer::now_us());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // null: tracing was off at construction
  const char* category_ = nullptr;
  std::int64_t begin_us_ = 0;
};

}  // namespace jsrev::obs
