// Process-wide metrics registry: named counters, gauges, summaries, and
// fixed-bucket histograms with labels.
//
// Hot-path design: every mutating operation (Counter::add,
// Histogram::observe, ...) is lock-free — each metric owns a small array of
// cache-line-padded shards and a thread writes the shard picked by its
// thread-local slot (assigned round-robin on first use), so concurrent
// writers almost never touch the same line. Reads merge the shards; they are
// exact because shard values only grow monotonically (counters) or are
// summed associatively (sums/counts).
//
// Metric creation (Registry::counter/gauge/summary/histogram) takes a mutex
// and is intended for cold paths: call sites cache the returned pointer
// (metrics live for the process lifetime; pointers never invalidate).
//
// Export is deterministic: metrics sort by (name, labels) and values format
// identically run to run. deterministic_json() additionally excludes
// duration-valued (Unit::kMillis) and schedule-dependent metrics, yielding a
// document that is byte-identical at any thread width for a fixed workload —
// the obs determinism test relies on this.
//
// The whole subsystem can be switched off (set_metrics_enabled(false)):
// mutations become a single relaxed atomic load + branch, which is what the
// obs-off condition of bench_obs_overhead measures.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jsrev::obs {

/// Global metrics kill switch (default on). Off, every mutation no-ops.
void set_metrics_enabled(bool enabled) noexcept;
bool metrics_enabled() noexcept;

namespace detail {

inline constexpr std::size_t kShards = 16;  // power of two

/// Index of the calling thread's shard (stable per thread, round-robin).
std::size_t shard_index() noexcept;

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

/// Adds to an atomic double with a CAS loop (atomic<double>::fetch_add is
/// not universally lock-free; the loop is, for our uncontended shards).
inline void atomic_add(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// What a metric's value measures; used by exporters (kMillis metrics are
/// excluded from the deterministic export — wall time is never identical
/// across runs).
enum class Unit { kCount, kMillis, kBytes };

/// Monotonic counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::CounterCell, detail::kShards> cells_;
};

/// Last-writer-wins instantaneous value with add/sub (queue depths, sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d = 1) noexcept {
    if (!metrics_enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::int64_t d = 1) noexcept { add(-d); }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Streaming distribution summary: count, sum, sum of squares, min, max —
/// enough for exact mean and (sample) stddev without retaining samples.
class Summary {
 public:
  void observe(double v) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  double mean() const noexcept;
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 obs.
  double stddev() const noexcept;
  double min() const noexcept;  // 0 when empty
  double max() const noexcept;  // 0 when empty
  void reset() noexcept;

 private:
  // min/max start at +inf/-inf, so every observation takes the same CAS
  // loops and concurrent observers sharing a shard never overwrite each
  // other; a shard still at its sentinels has seen nothing.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> sumsq{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::array<Cell, detail::kShards> cells_;
};

/// Fixed-bucket histogram: counts of observations <= each upper bound, plus
/// an overflow bucket, count, and sum. Bounds are fixed at creation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Merged per-bucket counts; size bounds().size() + 1 (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Cell {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::vector<double> bounds_;
  std::array<Cell, detail::kShards> cells_;
};

/// Sorted key=value labels attached to a metric instance.
using Labels = std::map<std::string, std::string>;

enum class MetricKind { kCounter, kGauge, kSummary, kHistogram };

/// One metric's identity and merged value(s) at a point in time — the
/// exporter-neutral snapshot row behind to_json() and the Prometheus
/// exposition (obs/prometheus.h).
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  Unit unit = Unit::kCount;
  bool schedule_dependent = false;
  std::string help;
  double value = 0.0;       // counter / gauge
  std::uint64_t count = 0;  // summary / histogram
  double sum = 0.0;         // summary / histogram
  std::vector<double> bounds;          // histogram upper bounds
  std::vector<std::uint64_t> buckets;  // per-bucket counts, last = overflow
};

/// Options given at metric creation.
struct MetricOptions {
  Unit unit = Unit::kCount;
  /// True for metrics whose value legitimately depends on the parallel
  /// schedule (thread-pool queue depths, task counts, per-worker load);
  /// excluded from the deterministic export.
  bool schedule_dependent = false;
  std::string help;
};

// Premade options for the common cases. Fully braced so call sites (and the
// summary() default argument) stay clean under -Wmissing-field-initializers.
inline const MetricOptions kMillisOptions{Unit::kMillis, false, {}};
inline const MetricOptions kScheduleDependent{Unit::kCount, true, {}};
inline const MetricOptions kScheduleDependentMillis{Unit::kMillis, true, {}};

class Registry {
 public:
  /// The process-wide registry every layer reports into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Each getter returns the existing metric when (name, labels) is already
  // registered (options of the first registration win) or creates it.
  // Returned pointers are stable for the registry's lifetime. A name may be
  // used by only one metric kind; mixing kinds throws std::logic_error.
  Counter* counter(std::string_view name, const Labels& labels = {},
                   const MetricOptions& opts = {});
  Gauge* gauge(std::string_view name, const Labels& labels = {},
               const MetricOptions& opts = {});
  Summary* summary(std::string_view name, const Labels& labels = {},
                   const MetricOptions& opts = kMillisOptions);
  Histogram* histogram(std::string_view name, std::vector<double> bounds,
                       const Labels& labels = {},
                       const MetricOptions& opts = {});

  /// Snapshot of every registered metric with its merged current value(s),
  /// sorted by (name, labels). The exporter-neutral feed for to_json() and
  /// the Prometheus exposition writer.
  std::vector<MetricSample> samples() const;

  /// Deterministic full export: every metric with its current value(s),
  /// sorted by (name, labels).
  std::string to_json() const;
  /// Deterministic subset export: counters, gauges, and histogram bucket
  /// counts only, excluding kMillis-unit and schedule-dependent metrics.
  /// Byte-identical across thread widths for a fixed workload.
  std::string deterministic_json() const;
  /// Human-readable table (name, labels, value summary), sorted.
  std::string to_table() const;

  /// Zeroes every registered metric (tests; metric identities survive).
  void reset();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    MetricOptions opts;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Summary> summary;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_or_create(std::string_view name, const Labels& labels,
                        MetricKind kind, const MetricOptions& opts,
                        std::vector<double> bounds = {});
  std::vector<const Entry*> sorted_entries() const;
  std::string export_json(bool deterministic_only) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Shorthand for Registry::global().
inline Registry& metrics() { return Registry::global(); }

}  // namespace jsrev::obs
