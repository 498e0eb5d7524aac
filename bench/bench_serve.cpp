// Measures the jsr_serve daemon stack end to end — framing, request
// dispatch on the worker threads, per-connection response order, the
// connection layer — against the in-process library path, and hard-gates
// what must never regress: daemon verdicts bit-identical to library
// verdicts for every script.
//
// Two phases over a real Server on a socketpair (the exact code path of
// `jsr_serve --stdio` and the socket modes, minus the kernel socket type):
//
//   * saturation — the client writes every request back to back and reads
//     until all responses land; best-of-N wall clock gives sustained
//     scripts/sec through the daemon, compared with the library's
//     classify_all over the same scripts.
//   * open-loop — requests are paced at ~70% of the measured saturation
//     rate (open loop: the sender never waits for responses, so queueing
//     delay is visible instead of hidden by backpressure), and per-request
//     client-side latency gives p50/p99.
//
// Timing numbers are informational (ratio gates are flaky on a small or
// shared machine); the bit-identity gate is timing-independent and always
// enforced. Emits BENCH_serve.json through the shared envelope (validated
// by `jsr_stats --validate`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "util/timer.h"

namespace {

using namespace jsrev;
using Clock = std::chrono::steady_clock;

std::vector<std::string> build_eval_scripts(std::size_t per_class) {
  dataset::GeneratorConfig gc;
  gc.seed = 727272;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  const std::size_t obf_share = corpus.samples.size() / 2;
  for (auto kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < obf_share; ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 900 + i));
    }
  }
  return scripts;
}

/// One daemon round over `fd`: sends every script as a kClassify frame
/// (paced when `interval` is nonzero), reads until every response arrived.
/// Returns verdicts indexed like `scripts`; fills per-request latencies.
std::vector<int> run_round(int fd, const std::vector<std::string>& scripts,
                           std::chrono::duration<double> interval,
                           std::vector<double>* latency_ms,
                           double* wall_ms_out) {
  const std::size_t n = scripts.size();
  std::vector<int> verdicts(n, -1);
  std::vector<Clock::time_point> sent(n);
  latency_ms->assign(n, 0.0);

  const Timer wall;
  std::thread reader([&] {
    std::string buf;
    char chunk[64 * 1024];
    std::size_t seen = 0;
    while (seen < n) {
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(r));
      for (;;) {
        serve::Frame f;
        std::size_t consumed = 0;
        if (serve::decode_frame(buf, buf.size() + (64u << 20), &f,
                                &consumed) != serve::DecodeStatus::kOk) {
          break;
        }
        buf.erase(0, consumed);
        if (f.type != serve::FrameType::kVerdict || f.id == 0 ||
            f.id > n) {
          continue;
        }
        const std::size_t i = f.id - 1;
        verdicts[i] = f.payload.empty() ? -1 : f.payload[0] - '0';
        (*latency_ms)[i] = std::chrono::duration<double, std::milli>(
                               Clock::now() - sent[i])
                               .count();
        ++seen;
      }
    }
  });

  auto next_send = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (interval.count() > 0.0) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<Clock::duration>(interval);
    }
    serve::Frame f;
    f.type = serve::FrameType::kClassify;
    f.id = static_cast<std::uint32_t>(i + 1);
    f.payload = scripts[i];
    const std::string bytes = serve::encode_frame(f);
    sent[i] = Clock::now();
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
  }
  reader.join();
  *wall_ms_out = wall.elapsed_ms();
  return verdicts;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main() {
  const std::size_t repeats = bench::env_or("JSREV_BENCH_REPEATS", 3);
  const std::size_t train_per_class = bench::env_or("JSREV_BENCH_TRAIN", 80);
  const std::size_t eval_per_class = bench::env_or("JSREV_BENCH_CORPUS", 40);
  const bool relax_timing = std::getenv("JSREV_BENCH_ASAN_RELAX") != nullptr;

  // --- train + persist the artifact the daemon will map -------------------
  dataset::GeneratorConfig gc;
  gc.seed = 72;
  gc.benign_count = train_per_class;
  gc.malicious_count = train_per_class;
  core::Config cfg;
  cfg.seed = 72;
  std::fprintf(stderr, "[bench_serve] training on %zu+%zu scripts\n",
               gc.benign_count, gc.malicious_count);
  core::JsRevealer trainer(cfg);
  trainer.train(dataset::generate_corpus(gc));
  const std::string artifact_path = "serve_bench.jsrm";
  trainer.save_artifact_file(artifact_path);

  const std::vector<std::string> scripts = build_eval_scripts(eval_per_class);

  // --- library baseline ----------------------------------------------------
  core::ModelView library;
  library.map_file(artifact_path);
  const std::vector<int> library_verdicts = library.classify_all(scripts);
  double library_ms = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer t;
    (void)library.classify_all(scripts);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < library_ms) library_ms = ms;
  }

  // --- daemon over a socketpair -------------------------------------------
  core::ModelView model;
  model.map_file(artifact_path);
  serve::Server server(model, {});

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::fprintf(stderr, "bench_serve: socketpair failed\n");
    return 1;
  }
  std::thread server_thread([&] { server.serve_fd(sv[0], sv[0]); });

  // Saturation: back-to-back requests, best-of-N wall clock.
  std::vector<double> lat_ms;
  double sat_wall_ms = 0.0;
  std::vector<int> daemon_verdicts;
  for (std::size_t r = 0; r < repeats; ++r) {
    double wall = 0.0;
    std::vector<int> v = run_round(sv[1], scripts, {}, &lat_ms, &wall);
    if (r == 0 || wall < sat_wall_ms) sat_wall_ms = wall;
    daemon_verdicts = std::move(v);
  }
  const double sat_rate =
      sat_wall_ms > 0.0
          ? static_cast<double>(scripts.size()) / (sat_wall_ms / 1000.0)
          : 0.0;

  // Open loop at ~70% of saturation: queueing is visible, not saturating.
  const double target_rate = sat_rate * 0.7;
  double open_wall_ms = 0.0;
  std::vector<double> open_lat_ms;
  const auto interval = std::chrono::duration<double>(
      target_rate > 0.0 ? 1.0 / target_rate : 0.0);
  const std::vector<int> open_verdicts =
      run_round(sv[1], scripts, interval, &open_lat_ms, &open_wall_ms);
  const double p50 = percentile(open_lat_ms, 0.50);
  const double p99 = percentile(open_lat_ms, 0.99);

  // Graceful stop: QUIT drains, BYE confirms.
  {
    serve::Frame f;
    f.type = serve::FrameType::kQuit;
    const std::string bytes = serve::encode_frame(f);
    (void)!::write(sv[1], bytes.data(), bytes.size());
  }
  server_thread.join();
  ::close(sv[0]);
  ::close(sv[1]);

  // --- the hard gate: daemon == library, verdict for verdict ---------------
  const bool identical = daemon_verdicts == library_verdicts &&
                         open_verdicts == library_verdicts;
  std::printf("bench_serve: %zu scripts through the daemon\n", scripts.size());
  std::printf("  library classify_all   %9.1f ms (best of %zu)\n", library_ms,
              repeats);
  std::printf("  daemon saturation      %9.1f ms  -> %.1f scripts/sec\n",
              sat_wall_ms, sat_rate);
  std::printf("  open loop @ %.0f/sec: p50 %.2f ms, p99 %.2f ms\n",
              target_rate, p50, p99);
  std::printf("  verdict bit-identity daemon vs library: %s\n",
              identical ? "ok" : "FAIL");

  // --- envelope -----------------------------------------------------------
  obs::JsonWriter w;
  obs::write_bench_header(w, "serve");
  w.kv("eval_scripts", static_cast<std::uint64_t>(scripts.size()))
      .kv("repeats", static_cast<std::uint64_t>(repeats))
      .kv_fixed("library_classify_ms", library_ms, 2)
      .kv_fixed("daemon_saturation_ms", sat_wall_ms, 2)
      .kv_fixed("daemon_scripts_per_sec", sat_rate, 1)
      .kv_fixed("open_loop_rate_per_sec", target_rate, 1)
      .kv_fixed("open_loop_p50_ms", p50, 3)
      .kv_fixed("open_loop_p99_ms", p99, 3)
      .kv("verdicts_bit_identical", identical)
      .kv("timing_gate_relaxed", relax_timing)
      .end_object();
  std::ofstream json("BENCH_serve.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_serve.json\n");

  if (!identical) {
    std::printf("GATE FAIL: daemon verdicts not bit-identical to library\n");
    return 1;
  }
  std::printf("gates ok: daemon verdicts bit-identical to library\n");
  return 0;
}
