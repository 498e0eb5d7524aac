#include "obs/trace.h"

#include <chrono>
#include <cstring>

#include "obs/json.h"

namespace jsrev::obs {

std::atomic<bool> Tracer::g_enabled{false};

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::now_us() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

Tracer::Buffer* Tracer::this_thread_buffer() {
  thread_local Buffer* buf = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>(next_tid_++));
    return buffers_.back().get();
  }();
  return buf;
}

void Tracer::record(const char* name, const char* category,
                    std::int64_t begin_us, std::int64_t end_us) noexcept {
  Buffer* buf = this_thread_buffer();
  Event e;
  std::strncpy(e.name, name, kMaxName);
  e.name[kMaxName] = '\0';
  std::strncpy(e.category, category, kMaxCategory);
  e.category[kMaxCategory] = '\0';
  e.ts_us = begin_us;
  e.dur_us = end_us - begin_us;
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->events.size() < kEventsPerThread) {
    buf->events.push_back(e);
  } else {
    buf->events[buf->head] = e;
    buf->head = (buf->head + 1) % kEventsPerThread;
    buf->wrapped = true;
  }
}

std::string Tracer::export_chrome_json(bool clear_after) {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    // Oldest-first: a wrapped ring starts at head.
    const std::size_t n = buf->events.size();
    const std::size_t start = buf->wrapped ? buf->head : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = buf->events[(start + i) % n];
      w.begin_object();
      w.kv("name", e.name);
      w.kv("cat", e.category);
      w.kv("ph", "X");
      w.kv("ts", e.ts_us);
      w.kv("dur", e.dur_us);
      w.kv("pid", 1);
      w.kv("tid", static_cast<std::int64_t>(buf->tid));
      w.end_object();
    }
    if (clear_after) {
      // Clear in place; the buffer stays bound to its thread.
      buf->events.clear();
      buf->head = 0;
      buf->wrapped = false;
    }
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
    buf->head = 0;
    buf->wrapped = false;
  }
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    total += buf->events.size();
  }
  return total;
}

}  // namespace jsrev::obs
