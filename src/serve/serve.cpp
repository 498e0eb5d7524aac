#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include <cstdio>

#include "analysis/script_analysis.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/version.h"

namespace jsrev::serve {

void register_build_info(const core::ModelView& model,
                         const std::string& model_path) {
  const core::fmt::ArtifactHeader hdr = model.info().header;
  auto& reg = obs::metrics();
  reg.gauge("build_info", {{"version", kVersionString}},
            {obs::Unit::kCount, false,
             "Build identity; value is always 1, identity in labels"})
      ->set(1);
  reg.gauge("model_info",
            {{"path", model_path},
             {"format", "jsrm-mapped"},
             {"format_version", std::to_string(hdr.version)},
             {"lint_dim", std::to_string(hdr.lint_dim)},
             {"deobfuscate", model.deobfuscate() ? "on" : "off"}},
            {obs::Unit::kCount, false,
             "Served model identity; value is always 1, identity in labels"})
      ->set(1);
}

// ---------------------------------------------------------------------------
// Batcher

namespace {

std::vector<double> batch_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

std::vector<double> millis_bounds() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000};
}

}  // namespace

Batcher::Batcher(const core::ModelView& model, ServeOptions opts)
    : model_(model), opts_(opts) {
  auto& reg = obs::metrics();
  requests_ = reg.counter("serve.requests");
  rejected_full_ =
      reg.counter("serve.rejected", {{"reason", "queue-full"}},
                  obs::kScheduleDependent);
  rejected_draining_ =
      reg.counter("serve.rejected", {{"reason", "draining"}},
                  obs::kScheduleDependent);
  queue_depth_gauge_ =
      reg.gauge("serve.queue_depth", {}, obs::kScheduleDependent);
  batch_size_ = reg.histogram("serve.batch_size", batch_size_bounds(), {},
                              obs::kScheduleDependent);
  stage_analyze_ms_ = reg.histogram("serve.stage_ms", millis_bounds(),
                                    {{"stage", "analyze"}},
                                    obs::kScheduleDependentMillis);
  stage_classify_ms_ = reg.histogram("serve.stage_ms", millis_bounds(),
                                     {{"stage", "classify"}},
                                     obs::kScheduleDependentMillis);
  latency_ms_ = reg.histogram("serve.latency_ms", millis_bounds(), {},
                              obs::kScheduleDependentMillis);
  worker_ = std::thread([this] { worker_loop(); });
}

Batcher::~Batcher() { shutdown(); }

void Batcher::submit(ServeRequest req, Completion done) {
  requests_->add();
  const char* reject = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected_draining_->add();
      reject = "draining";
    } else if (queue_.size() >= opts_.max_queue) {
      rejected_full_->add();
      reject = "queue full";
    } else {
      Pending p;
      p.enqueued = std::chrono::steady_clock::now();
      if (obs::Tracer::enabled()) p.trace_enqueue_us = obs::Tracer::now_us();
      p.req = std::move(req);
      p.done = std::move(done);
      queue_.push_back(std::move(p));
      queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  if (reject != nullptr) {
    // Rejections are the overload signal operators grep for; bounded so a
    // saturated daemon logs a trickle, not one line per turned-away request.
    static obs::LogRateLimit rl(/*per_sec=*/2.0, /*burst=*/10.0);
    obs::LogRecord(obs::LogLevel::kWarn, "serve.rejected", rl)
        .kv("request_id", req.id)
        .kv("reason", reject);
    ServeResponse resp;
    resp.id = req.id;
    resp.rejected = true;
    resp.error = reject;
    done(std::move(resp));
    return;
  }
  work_cv_.notify_one();
}

void Batcher::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void Batcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::size_t Batcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

void Batcher::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      // Greedy coalescing: take everything pending, capped at max_batch.
      const std::size_t take = std::min(queue_.size(), opts_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = batch.size();
      queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    }
    run_batch(std::move(batch));
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = 0;
    }
    drain_cv_.notify_all();
  }
}

void Batcher::run_batch(std::vector<Pending> batch) {
  const std::size_t n = batch.size();
  batch_size_->observe(static_cast<double>(n));

  // Request-correlated queue-wait spans: the gap between enqueue and the
  // moment the worker picked the request up. Recorded retroactively from the
  // stamp submit() took, so tracing must have been live at enqueue time.
  if (obs::Tracer::enabled()) {
    const std::int64_t picked_us = obs::Tracer::now_us();
    for (const Pending& p : batch) {
      if (p.trace_enqueue_us < 0) continue;
      char name[32];
      std::snprintf(name, sizeof name, "req %u queue", p.req.id);
      obs::Tracer::global().record(name, "serve", p.trace_enqueue_us,
                                   picked_us);
    }
  }

  // Stage 1: build + warm one ScriptAnalysis per request in parallel, with
  // the model's exact frontend configuration (the bit-identity contract).
  std::vector<std::unique_ptr<analysis::ScriptAnalysis>> analyses(n);
  {
    const Timer t;
    for (std::size_t i = 0; i < n; ++i) {
      analyses[i] = std::make_unique<analysis::ScriptAnalysis>(
          std::move(batch[i].req.source), model_.parse_limits(),
          model_.deobfuscate());
      if (batch[i].req.want_provenance) analyses[i]->enable_provenance();
    }
    parallel_for_threads(opts_.threads, n, [&](std::size_t i) {
      char name[32];
      std::snprintf(name, sizeof name, "req %u analyze", batch[i].req.id);
      obs::Span span(name, "serve");
      analyses[i]->parse_failed();  // forces the parse (failure is a value)
    });
    stage_analyze_ms_->observe(t.elapsed_ms());
  }

  // Stage 2: classify in parallel. Writes are disjoint per index, so
  // verdicts are bit-identical to the serial path at any width.
  std::vector<ServeResponse> responses(n);
  {
    const Timer t;
    parallel_for_threads(opts_.threads, n, [&](std::size_t i) {
      char name[32];
      std::snprintf(name, sizeof name, "req %u classify", batch[i].req.id);
      obs::Span span(name, "serve");
      ServeResponse& resp = responses[i];
      resp.id = batch[i].req.id;
      resp.parse_failed = analyses[i]->parse_failed();
      resp.verdict = model_.classify(*analyses[i]);
      if (batch[i].req.want_provenance &&
          analyses[i]->provenance() != nullptr) {
        analyses[i]->provenance()->request_id = batch[i].req.id;
        resp.provenance_json = analyses[i]->provenance()->to_json();
      }
    });
    stage_classify_ms_->observe(t.elapsed_ms());
  }

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const double latency_ms =
        std::chrono::duration<double, std::milli>(now - batch[i].enqueued)
            .count();
    latency_ms_->observe(latency_ms);
    if (opts_.slow_ms > 0.0 && latency_ms >= opts_.slow_ms) {
      static obs::LogRateLimit rl(/*per_sec=*/5.0, /*burst=*/20.0);
      obs::LogRecord(obs::LogLevel::kWarn, "serve.slow_request", rl)
          .kv("request_id", batch[i].req.id)
          .kv("latency_ms", latency_ms)
          .kv("batch_size", static_cast<std::uint64_t>(n))
          .kv("parse_failed", responses[i].parse_failed)
          .kv("verdict", responses[i].verdict);
    }
    batch[i].done(std::move(responses[i]));
  }
}

}  // namespace jsrev::serve
