// Measures what the admin telemetry plane costs the serving hot path, and
// hard-gates the two things that must hold before shipping it:
//
//   * a 10 Hz GET /metrics scrape running concurrently with saturation
//     classification load costs < 2% daemon throughput versus the same
//     load with no scraper (timing gate; relaxed under
//     JSREV_BENCH_ASAN_RELAX because sanitizer builds and noisy
//     containers make percent-level ratios meaningless);
//   * daemon verdicts stay bit-identical to the library path with the
//     admin server armed — telemetry must observe, never perturb.
//
// The scrape-overhead comparison interleaves conditions (unscraped round,
// scraped round, repeat) and takes best-of-N per condition, so slow drift
// in container CPU allotment hits both sides equally instead of biasing
// whichever condition ran last. Every scraped body is additionally run
// through validate_prometheus_text, so a malformed exposition fails the
// bench even when timing is relaxed. Emits BENCH_admin.json through the
// shared envelope (validated by `jsr_stats --validate`).
#include <atomic>
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
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/prometheus.h"
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

/// One saturation round over `fd`: back-to-back kClassify frames, read
/// until every verdict lands. Returns verdicts indexed like `scripts`.
std::vector<int> run_round(int fd, const std::vector<std::string>& scripts,
                           double* wall_ms_out) {
  const std::size_t n = scripts.size();
  std::vector<int> verdicts(n, -1);

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
        verdicts[f.id - 1] = f.payload.empty() ? -1 : f.payload[0] - '0';
        ++seen;
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    serve::Frame f;
    f.type = serve::FrameType::kClassify;
    f.id = static_cast<std::uint32_t>(i + 1);
    f.payload = scripts[i];
    const std::string bytes = serve::encode_frame(f);
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

/// Polls GET /metrics at `hz` until stopped. Bodies are stashed and only
/// validated after join() — a real scraper parses on its own host, so
/// client-side parse CPU must not be charged against daemon throughput
/// (this whole bench shares one core with the daemon). A single failed
/// fetch or malformed exposition poisons the whole bench.
struct Scraper {
  std::string endpoint;
  double hz = 10.0;
  std::atomic<bool> stop{false};
  std::size_t scrapes = 0;
  std::size_t failures = 0;
  std::string first_error;
  std::vector<std::string> bodies;
  std::thread thread;

  void start() {
    thread = std::thread([this] {
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / hz));
      auto next = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        std::string body;
        std::string err;
        const int status =
            obs::admin_http_get(endpoint, "/metrics", &body, &err);
        ++scrapes;
        if (status != 200) {
          if (failures++ == 0) {
            first_error = "status " + std::to_string(status) + " " + err;
          }
        } else {
          bodies.push_back(std::move(body));
        }
        next += interval;
        std::this_thread::sleep_until(next);
      }
    });
  }

  /// Stops the poll loop, then validates every stashed body (untimed).
  void join() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    for (const std::string& body : bodies) {
      std::string err;
      if (!obs::validate_prometheus_text(body, &err)) {
        if (failures++ == 0) first_error = err;
      }
    }
    bodies.clear();
  }
};

}  // namespace

int main() {
  // More repeats than the other benches by default: the gate is a 2% ratio
  // on a shared-container CPU whose round-to-round drift is ±15%, and
  // best-of-N only converges on the true floor with enough rounds.
  const std::size_t repeats = bench::env_or("JSREV_BENCH_REPEATS", 7);
  const std::size_t train_per_class = bench::env_or("JSREV_BENCH_TRAIN", 80);
  const std::size_t eval_per_class = bench::env_or("JSREV_BENCH_CORPUS", 40);
  const bool relax_timing = std::getenv("JSREV_BENCH_ASAN_RELAX") != nullptr;
  const double scrape_hz = 10.0;
  const double overhead_limit = 0.02;

  // --- train + persist the artifact the daemon will map -------------------
  dataset::GeneratorConfig gc;
  gc.seed = 72;
  gc.benign_count = train_per_class;
  gc.malicious_count = train_per_class;
  core::Config cfg;
  cfg.seed = 72;
  std::fprintf(stderr, "[bench_admin] training on %zu+%zu scripts\n",
               gc.benign_count, gc.malicious_count);
  core::JsRevealer trainer(cfg);
  trainer.train(dataset::generate_corpus(gc));
  const std::string artifact_path = "admin_bench.jsrm";
  trainer.save_artifact_file(artifact_path);

  const std::vector<std::string> scripts = build_eval_scripts(eval_per_class);

  // --- library baseline verdicts ------------------------------------------
  core::ModelView library;
  library.map_file(artifact_path);
  const std::vector<int> library_verdicts = library.classify_all(scripts);

  // --- daemon with the admin plane armed ----------------------------------
  core::ModelView model;
  model.map_file(artifact_path);
  serve::Server server(model, {});
  serve::register_build_info(model, artifact_path);

  obs::AdminServer admin;
  admin.listen_tcp(0);
  admin.set_ready_check([&server] { return server.ready(); });
  admin.start();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(admin.bound_port());
  std::printf("bench_admin: admin plane on %s\n", endpoint.c_str());

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::fprintf(stderr, "bench_admin: socketpair failed\n");
    return 1;
  }
  std::thread server_thread([&] { server.serve_fd(sv[0], sv[0]); });

  // Warmup round: first contact pays allocator and page-cache costs that
  // belong to neither condition.
  {
    double wall = 0.0;
    (void)run_round(sv[1], scripts, &wall);
  }

  // Paired conditions: each repeat runs one unscraped and one scraped
  // round back to back (order alternating), and the gate uses the MINIMUM
  // per-pair ratio. The container's CPU allotment drifts ±15% in
  // multi-second epochs, so global best-of-N minima can come from
  // different epochs and differ by more than the 2% gate; adjacent rounds
  // share an epoch and their ratio cancels the drift. Failing only when
  // every pair exceeds the limit is the one-sided test we want: it fires
  // on real overhead, not on one unlucky round.
  double quiet_ms = 0.0;
  double scraped_ms = 0.0;
  std::vector<double> pair_ratios;
  bool identical = true;
  std::size_t total_scrapes = 0;
  std::size_t scrape_failures = 0;
  std::string scrape_error;
  for (std::size_t r = 0; r < repeats; ++r) {
    double wall_quiet = 0.0;
    double wall_scraped = 0.0;
    Scraper scraper;
    scraper.endpoint = endpoint;
    scraper.hz = scrape_hz;

    const bool quiet_first = r % 2 == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool scraped_leg = (leg == 1) == quiet_first;
      double wall = 0.0;
      if (scraped_leg) scraper.start();
      const std::vector<int> v = run_round(sv[1], scripts, &wall);
      if (scraped_leg) scraper.join();
      identical = identical && v == library_verdicts;
      (scraped_leg ? wall_scraped : wall_quiet) = wall;
    }

    if (r == 0 || wall_quiet < quiet_ms) quiet_ms = wall_quiet;
    if (r == 0 || wall_scraped < scraped_ms) scraped_ms = wall_scraped;
    pair_ratios.push_back(wall_quiet > 0.0 ? wall_scraped / wall_quiet
                                           : 1.0);
    total_scrapes += scraper.scrapes;
    scrape_failures += scraper.failures;
    if (scrape_error.empty() && !scraper.first_error.empty()) {
      scrape_error = scraper.first_error;
    }
  }

  // Graceful stop: QUIT drains, BYE confirms; /readyz must already be 503.
  {
    serve::Frame f;
    f.type = serve::FrameType::kQuit;
    const std::string bytes = serve::encode_frame(f);
    (void)!::write(sv[1], bytes.data(), bytes.size());
  }
  server_thread.join();
  std::string ready_body;
  const int ready_status =
      obs::admin_http_get(endpoint, "/readyz", &ready_body);
  admin.stop();
  ::close(sv[0]);
  ::close(sv[1]);

  // --- gates ---------------------------------------------------------------
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double min_pair_ratio =
      pair_ratios.empty() ? 1.0 : pair_ratios.front();
  const double median_pair_ratio =
      pair_ratios.empty() ? 1.0 : pair_ratios[pair_ratios.size() / 2];
  const double overhead = min_pair_ratio - 1.0;
  const bool overhead_ok = overhead <= overhead_limit;
  const bool scrapes_clean = scrape_failures == 0 && total_scrapes > 0;
  const bool drained_not_ready = ready_status == 503;

  const double quiet_rate =
      quiet_ms > 0.0
          ? static_cast<double>(scripts.size()) / (quiet_ms / 1000.0)
          : 0.0;
  const double scraped_rate =
      scraped_ms > 0.0
          ? static_cast<double>(scripts.size()) / (scraped_ms / 1000.0)
          : 0.0;

  std::printf("bench_admin: %zu scripts/round, %zu paired rounds\n",
              scripts.size(), repeats);
  std::printf("  unscraped saturation   %9.1f ms  -> %.1f scripts/sec\n",
              quiet_ms, quiet_rate);
  std::printf("  scraped @ %.0f Hz        %9.1f ms  -> %.1f scripts/sec\n",
              scrape_hz, scraped_ms, scraped_rate);
  std::printf("  scrape overhead        %+9.2f %%  (min paired ratio; "
              "limit %.0f%%%s)\n",
              overhead * 100.0, overhead_limit * 100.0,
              relax_timing ? ", relaxed" : "");
  std::printf("  median paired ratio    %+9.2f %%\n",
              (median_pair_ratio - 1.0) * 100.0);
  std::printf("  scrapes %zu, failures %zu%s%s\n", total_scrapes,
              scrape_failures, scrape_error.empty() ? "" : " — ",
              scrape_error.c_str());
  std::printf("  /readyz after QUIT: %d (want 503)\n", ready_status);
  std::printf("  verdict bit-identity daemon vs library: %s\n",
              identical ? "ok" : "FAIL");

  // --- envelope -----------------------------------------------------------
  obs::JsonWriter w;
  obs::write_bench_header(w, "admin");
  w.kv("eval_scripts", static_cast<std::uint64_t>(scripts.size()))
      .kv("repeats", static_cast<std::uint64_t>(repeats))
      .kv_fixed("scrape_hz", scrape_hz, 1)
      .kv_fixed("unscraped_ms", quiet_ms, 2)
      .kv_fixed("scraped_ms", scraped_ms, 2)
      .kv_fixed("unscraped_scripts_per_sec", quiet_rate, 1)
      .kv_fixed("scraped_scripts_per_sec", scraped_rate, 1)
      .kv_fixed("scrape_overhead_pct", overhead * 100.0, 3)
      .kv_fixed("scrape_overhead_median_pct",
                (median_pair_ratio - 1.0) * 100.0, 3)
      .kv("scrapes", static_cast<std::uint64_t>(total_scrapes))
      .kv("scrape_failures", static_cast<std::uint64_t>(scrape_failures))
      .kv("readyz_after_quit", static_cast<std::uint64_t>(
                                   ready_status > 0 ? ready_status : 0))
      .kv("verdicts_bit_identical", identical)
      .kv("overhead_within_limit", overhead_ok)
      .kv("timing_gate_relaxed", relax_timing)
      .end_object();
  std::ofstream json("BENCH_admin.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_admin.json\n");

  bool ok = true;
  if (!identical) {
    std::printf("GATE FAIL: daemon verdicts not bit-identical to library "
                "with admin armed\n");
    ok = false;
  }
  if (!scrapes_clean) {
    std::printf("GATE FAIL: scrape failures (%zu/%zu): %s\n", scrape_failures,
                total_scrapes, scrape_error.c_str());
    ok = false;
  }
  if (!drained_not_ready) {
    std::printf("GATE FAIL: /readyz after QUIT returned %d, want 503\n",
                ready_status);
    ok = false;
  }
  if (!overhead_ok && !relax_timing) {
    std::printf("GATE FAIL: scrape overhead %.2f%% exceeds %.0f%%\n",
                overhead * 100.0, overhead_limit * 100.0);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("gates ok: bit-identical verdicts, clean exposition, %s\n",
              overhead_ok ? "scrape overhead within limit"
                          : "timing waived (relaxed)");
  return 0;
}
