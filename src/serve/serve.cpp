#include "serve/serve.h"

#include <cstdio>
#include <exception>
#include <utility>
#include <vector>

#include "analysis/script_analysis.h"
#include "obs/log.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
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
  internal_errors_ = reg.counter("serve.errors", {{"kind", "internal"}});
  queue_depth_gauge_ =
      reg.gauge("serve.queue_depth", {}, obs::kScheduleDependent);
  queue_stage_ = obs::stage_summary("queue");
  latency_ms_ = reg.histogram(
      "serve.latency_ms",
      {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}, {},
      obs::kScheduleDependentMillis);
  for (std::size_t i = resolve_threads(opts_.threads); i > 0; --i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
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
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

std::size_t Batcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

void Batcher::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping and fully drained
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    lock.unlock();
    run(std::move(p));
    lock.lock();
    --in_flight_;
    drain_cv_.notify_all();
  }
}

void Batcher::run(Pending p) {
  const std::uint32_t id = p.req.id;
  const double queue_ms = p.queued.elapsed_ms();
  queue_stage_->observe(queue_ms);
  char name[32];
  // The queue span is recorded retroactively from the stamp submit() took,
  // so tracing must have been live at enqueue time.
  if (p.trace_enqueue_us >= 0 && obs::Tracer::enabled()) {
    std::snprintf(name, sizeof name, "req %u queue", id);
    obs::Tracer::global().record(name, "serve", p.trace_enqueue_us,
                                 obs::Tracer::now_us());
  }

  ServeResponse resp;
  resp.id = id;
  try {
    std::snprintf(name, sizeof name, "req %u", id);
    obs::Span span(name, "serve");
    // The model's exact frontend configuration: the bit-identity contract.
    analysis::ScriptAnalysis analysis(std::move(p.req.source),
                                      model_.parse_limits(),
                                      model_.deobfuscate());
    if (p.req.want_provenance) analysis.enable_provenance();
    resp.verdict = model_.classify(analysis);
    resp.parse_failed = analysis.parse_failed();
    if (obs::VerdictProvenance* prov = analysis.provenance()) {
      prov->request_id = id;
      prov->stage_ms.queue = queue_ms;
      resp.provenance_json = prov->to_json();
    }
  } catch (const std::exception& e) {
    // Only this request fails (say, out of memory on a huge script): it is
    // answered with the reason, and the worker goes on to the next one.
    internal_errors_->add();
    obs::LogRecord(obs::LogLevel::kError, "serve.internal_error")
        .kv("request_id", id)
        .kv("what", e.what());
    resp = ServeResponse{};
    resp.id = id;
    resp.error = std::string("internal error: ") + e.what();
  }

  const double latency_ms = p.queued.elapsed_ms();
  latency_ms_->observe(latency_ms);
  if (opts_.slow_ms > 0.0 && latency_ms >= opts_.slow_ms) {
    static obs::LogRateLimit rl(/*per_sec=*/5.0, /*burst=*/20.0);
    obs::LogRecord(obs::LogLevel::kWarn, "serve.slow_request", rl)
        .kv("request_id", id)
        .kv("latency_ms", latency_ms)
        .kv("parse_failed", resp.parse_failed)
        .kv("verdict", resp.verdict);
  }
  p.done(std::move(resp));
}

}  // namespace jsrev::serve
