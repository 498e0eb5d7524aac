// Request-level classification core of the jsr_serve daemon.
//
// Deliberately free of socket code so tests and benches drive it in-process
// (the fd plumbing lives in serve/server.h). The model is a core::ModelView
// over a mapped JSRM artifact; parse limits and the deobfuscate flag come
// from it, so daemon verdicts are bit-identical to the view's classify().
//
//  * Batcher — a bounded FIFO served by `threads` dedicated workers (not
//    the shared ThreadPool, whose wait_idle would then wait on daemon
//    traffic). Each worker pops one request and runs it start to finish:
//    ScriptAnalysis, classify, provenance, completion. A verdict depends on
//    its own script only, so a request waits for nothing but its turn.
//
//  * Admission control — js::ParseLimits is the contract: max_source_bytes
//    bounds accepted payloads (the server rejects larger frames before they
//    buffer), and depth/token bombs inside accepted scripts surface as the
//    ordinary unparseable ⇒ malicious verdict. The bounded queue
//    (max_queue) converts overload into immediate "queue full" responses
//    instead of unbounded memory growth.
//
// Telemetry lands in the process-wide obs registry: serve.requests,
// serve.queue_depth, serve.rejected, end-to-end serve.latency_ms and the
// queue wait as stage_ms{stage=queue} — drainable via the STATS frame.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/model_view.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace jsrev::serve {

struct ServeOptions {
  /// Worker threads, each running one request at a time (0 = hardware
  /// concurrency).
  std::size_t threads = 0;
  /// Queue capacity; submissions beyond it are rejected immediately.
  std::size_t max_queue = 4096;
  /// Requests whose enqueue→completion latency reaches this many
  /// milliseconds draw a structured serve.slow_request log record carrying
  /// the request id. 0 disables the check.
  double slow_ms = 0.0;
};

/// Registers the jsr_build_info / jsr_model_info identity gauges (value 1,
/// identity in labels — the Prometheus idiom for exposing build metadata)
/// in the global obs registry. Called once at daemon startup.
/// The model_info labels are format="jsrm-mapped" and the artifact's
/// format_version, lint_dim and deobfuscate flag.
void register_build_info(const core::ModelView& model,
                         const std::string& model_path);

struct ServeRequest {
  std::uint32_t id = 0;
  std::string source;
  bool want_provenance = false;
};

struct ServeResponse {
  std::uint32_t id = 0;
  int verdict = -1;
  /// The script did not parse; verdict is the unparseable convention.
  bool parse_failed = false;
  /// Why no verdict was produced: admission control's reason ("queue full",
  /// "draining") or the failure that stopped this request's classification.
  /// Empty when `verdict` is set.
  std::string error;
  /// Provenance JSON when the request asked for it.
  std::string provenance_json;
};

/// Runs classification requests from a bounded FIFO on its worker threads.
/// Thread-safe: any number of producer threads may submit concurrently.
class Batcher {
 public:
  /// `done` callbacks run on a worker thread, in completion order
  /// (rejections run on the submitting thread); they must not block for
  /// long and must not call back into submit().
  using Completion = std::function<void(ServeResponse)>;

  /// Starts the workers. `model` must outlive the Batcher.
  Batcher(const core::ModelView& model, ServeOptions opts);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues one request. On admission failure `done` fires inline with
  /// the reason in `error`. Throws (std::bad_alloc) only before `done` has
  /// run or been queued, so a caller that catches still owes the answer.
  void submit(ServeRequest req, Completion done);

  /// Blocks until every accepted request has completed.
  void drain();

  /// Drains accepted work, then stops and joins the workers. Idempotent;
  /// subsequent submissions are rejected with "draining".
  void shutdown();

  std::size_t queue_depth() const;

 private:
  struct Pending {
    ServeRequest req;
    Completion done;
    // Started at enqueue; serve.latency_ms = completion - enqueue, so queue
    // wait under overload is part of the reported latency, not hidden by it.
    Timer queued;
    // Tracer timestamp at enqueue, when tracing was live then; -1 otherwise.
    // Lets run() emit a "req N queue" span covering the queue wait.
    std::int64_t trace_enqueue_us = -1;
  };

  void worker_loop();
  void run(Pending p);

  const core::ModelView& model_;
  const ServeOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue became non-empty / stopping
  std::condition_variable drain_cv_;  // queue + in-flight hit zero
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;

  // Cold-path-created, hot-path-cached metric handles.
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejected_full_ = nullptr;
  obs::Counter* rejected_draining_ = nullptr;
  obs::Counter* internal_errors_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Summary* queue_stage_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;

  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace jsrev::serve
