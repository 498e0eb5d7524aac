// jsr_perfbench: the repository benchmark driver (perfbench/run.py builds
// and runs it; see perfbench/README.md).
//
//   jsr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serve PATH/jsr_serve --workdir DIR
//                 --low-rps R --high-rps R --window W --layer-scripts N
//                 [--tiny] [--inject-mismatch]
//
// One run: generate the workload from the seed, train the model under test
// and write its artifact, classify every request in-process (the reference
// verdicts and detect_ms), spawn jsr_serve several times to time set-up, then
// warm the last daemon up and drive it through six rounds of three phases —
// closed-loop saturation, open loop at the low rate, open loop at the high
// rate — checking every reply. The in-process pass repeats between rounds.
// --trace 1 adds the in-process per-layer pass and STATS snapshots around
// each phase, and prints the per-layer metrics instead of the end-to-end ones.
// The last stdout line is the result object; a wrong verdict makes the exit
// status nonzero.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/script_analysis.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/frame.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupSpawns = 5;
// The daemon phases run this many times over; see run().
constexpr int kRounds = 6;
// In-process reference passes per run: before, between and after the rounds.
constexpr int kReferencePasses = 4;
// Share of --seconds spent on the untimed warm-up before the rounds.
constexpr double kWarmupShare = 0.05;
// The traced stage sum should match the untraced detect_ms within this share.
constexpr double kReconcileBound = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve_bin;
  std::string workdir;
  double low_rps = 0.0;
  double high_rps = 0.0;
  std::size_t window = 0;
  std::size_t layer_scripts = 0;
  bool tiny = false;
  bool inject_mismatch = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--inject-mismatch") {
      a.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--serve") {
      a.serve_bin = v;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--low-rps") {
      a.low_rps = std::stod(v);
    } else if (flag == "--high-rps") {
      a.high_rps = std::stod(v);
    } else if (flag == "--window") {
      a.window = std::stoul(v);
    } else if (flag == "--layer-scripts") {
      a.layer_scripts = std::stoul(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || !have_trace ||
      a.serve_bin.empty() || a.workdir.empty() || a.low_rps <= 0 ||
      a.high_rps <= a.low_rps || a.window == 0) {
    throw std::invalid_argument("missing or invalid arguments");
  }
  return a;
}

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double max_of(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

// Adds the change between two cumulative histograms to `*sum`.
void accumulate(HistogramSnapshot* sum, const HistogramSnapshot& before,
                const HistogramSnapshot& after) {
  sum->count += after.count - before.count;
  sum->sum += after.sum - before.sum;
  sum->bounds = after.bounds;
  sum->buckets.resize(after.buckets.size(), 0.0);
  for (std::size_t i = 0; i < after.buckets.size(); ++i) {
    sum->buckets[i] +=
        after.buckets[i] - (i < before.buckets.size() ? before.buckets[i] : 0);
  }
}

void accumulate(ServeStats* sum, const ServeStats& before,
                const ServeStats& after) {
  accumulate(&sum->batch_size, before.batch_size, after.batch_size);
  accumulate(&sum->analyze_ms, before.analyze_ms, after.analyze_ms);
  accumulate(&sum->classify_ms, before.classify_ms, after.classify_ms);
  accumulate(&sum->latency_ms, before.latency_ms, after.latency_ms);
  sum->rejected += after.rejected - before.rejected;
}

// Quantile of a histogram, interpolated linearly inside the bucket.
double histogram_quantile(const HistogramSnapshot& h, double q) {
  const double target = q * h.count;
  if (h.count <= 0.0 || h.bounds.empty()) return 0.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (cum + h.buckets[i] >= target && h.buckets[i] > 0.0) {
      if (i >= h.bounds.size()) return h.bounds.back();
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      return lo + (h.bounds[i] - lo) * (target - cum) / h.buckets[i];
    }
    cum += h.buckets[i];
  }
  return h.bounds.back();
}

double histogram_mean(const HistogramSnapshot& h) {
  return h.count > 0.0 ? h.sum / h.count : 0.0;
}

// The tail a phase's samples support: p99, or the highest percentile with
// ten samples beyond it when the phase has fewer than 1000.
double tail_quantile(std::size_t samples) {
  const double n = static_cast<double>(samples);
  return n <= 20.0 ? 0.5 : std::min(0.99, 1.0 - 10.0 / n);
}

double tail_of(const std::vector<double>& latency_ms) {
  return percentile(latency_ms, tail_quantile(latency_ms.size()));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const Scale scale = args.tiny ? Scale::kTiny : Scale::kFull;
  const Workload w = make_workload(args.workload, args.seed, scale);
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu training scripts, %zu "
               "requests, input digest %016llx\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.train.size(), w.requests.size(),
               static_cast<unsigned long long>(digest(w)));
  std::filesystem::create_directories(args.workdir);
  const std::string model = args.workdir + "/model.jsrm";

  // --- train the model under test: best of two ---------------------------
  // Training and the reference pass are timed twice and the faster kept:
  // on a shared machine a burst of outside load only ever adds time.
  std::vector<double> train_s;
  std::unique_ptr<jsrev::core::JsRevealer> trainer;
  for (int k = 0; k < 2; ++k) {
    const auto t0 = Clock::now();
    trainer = std::make_unique<jsrev::core::JsRevealer>(w.config);
    trainer->train(w.train);
    trainer->save_artifact_file(model);
    train_s.push_back(since_s(t0));
  }
  const double artifact_mb =
      static_cast<double>(std::filesystem::file_size(model)) / 1e6;

  // --- reference verdicts and detect_ms: 1 thread, serial ----------------
  jsrev::core::ModelView view;
  view.map_file(model);
  view.set_threads(1);
  std::vector<Expected> library(w.requests.size());
  std::vector<double> detect_ms(w.requests.size());
  // Runs before, between and after the daemon phases (kReferencePasses in
  // all); per request the fastest pass counts.
  const auto reference_pass = [&](bool first) {
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      const auto t0 = Clock::now();
      jsrev::analysis::ScriptAnalysis a(w.requests[i].source,
                                        view.parse_limits(),
                                        view.deobfuscate());
      const Expected e{view.classify(a), a.parse_failed()};
      const double ms = since_s(t0) * 1e3;
      if (first) {
        library[i] = e;
        detect_ms[i] = ms;
      } else {
        if (e.verdict != library[i].verdict ||
            e.parse_failed != library[i].parse_failed) {
          throw std::runtime_error("library verdict changed between passes");
        }
        detect_ms[i] = std::min(detect_ms[i], ms);
      }
    }
  };
  reference_pass(true);
  // What the daemon must answer; --inject-mismatch corrupts one answer to
  // prove the gate fires.
  std::vector<Expected> expected = library;
  if (args.inject_mismatch) expected[0].verdict ^= 1;

  std::vector<Metric> layer_metrics;
  LayerReport rep;
  if (args.trace) {
    rep = trace_layers(view, w.requests, args.layer_scripts, kReferencePasses);

    std::vector<double> open_ms, write_ms;
    for (int k = 0; k < 5; ++k) {
      jsrev::core::ModelView v;
      const auto t0 = Clock::now();
      v.map_file(model, /*verify_checksums=*/true);
      open_ms.push_back(since_s(t0) * 1e3);
    }
    for (int k = 0; k < 3; ++k) {
      const auto t0 = Clock::now();
      trainer->save_artifact_file(args.workdir + "/rewrite.jsrm");
      write_ms.push_back(since_s(t0) * 1e3);
    }
    layer_metrics.push_back({"core.artifact_open_ms", median(open_ms), "ms"});
    layer_metrics.push_back(
        {"core.artifact_write_ms", median(write_ms), "ms"});

    // Frame codec over the workload's own payloads.
    std::size_t frames = 0;
    const auto t0 = Clock::now();
    while (frames < w.requests.size() || since_s(t0) < 0.05) {
      const Request& r = w.requests[frames % w.requests.size()];
      jsrev::serve::Frame f;
      f.id = static_cast<std::uint32_t>(frames + 1);
      f.payload = r.source;
      const std::string bytes = jsrev::serve::encode_frame(f);
      jsrev::serve::Frame back;
      std::size_t used = 0;
      if (jsrev::serve::decode_frame(bytes, bytes.size(), &back, &used) !=
              jsrev::serve::DecodeStatus::kOk ||
          back.payload != r.source) {
        throw std::runtime_error("frame codec round trip failed");
      }
      ++frames;
    }
    layer_metrics.push_back(
        {"serve.frame_us", since_s(t0) * 1e6 / static_cast<double>(frames),
         "us"});
  }

  // --- set-up: spawn to first PONG, several times -------------------------
  const std::string sock = args.workdir + "/serve.sock";
  const std::string log = args.workdir + "/serve.log";
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetupSpawns; ++k) {
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.serve_bin, model, sock, log);
    LoadGen probe({daemon->connect(10.0)}, w.requests, expected, w.order);
    probe.ping();
    setup_s.push_back(since_s(t0));
    if (k + 1 < kSetupSpawns) {
      probe.quit();
      daemon->wait_exit(10.0);
    }
  }

  // --- phases, in rounds, over a fixed set of connections -----------------
  const std::size_t nconn = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<int> fds;
  for (std::size_t c = 0; c < nconn; ++c) fds.push_back(daemon->connect(10.0));
  LoadGen gen(std::move(fds), w.requests, expected, w.order);
  // Warm-up: a short closed loop pages in the model and fills the daemon's
  // pools before anything is timed. Its replies are checked all the same.
  const PhaseResult warmup = gen.run(
      {"warmup", false, 0.0, args.window, kWarmupShare * args.seconds});

  // Each round runs all three phases. Throughput is the best round's figure:
  // outside load on a shared host only ever lowers it.
  const double round_s = args.seconds / kRounds;
  const double closed_s = 0.2 * round_s;
  const double open_s = round_s - closed_s;
  const double span = args.low_rps + args.high_rps;
  // Equal sample counts in both open-loop phases. Each phase resumes its
  // walk through the requests where its previous round stopped, so every
  // request is sent about equally often.
  std::vector<PhaseSpec> specs = {
      {"throughput", false, 0.0, args.window, closed_s, args.trace},
      {"low", true, args.low_rps, 0, open_s * args.high_rps / span,
       args.trace},
      {"high", true, args.high_rps, 0, open_s * args.low_rps / span,
       args.trace}};
  std::vector<std::vector<PhaseResult>> results(specs.size());
  // STATS differences over each phase, summed over the rounds.
  std::vector<ServeStats> serve_diff(specs.size());
  ServeStats before = args.trace ? parse_stats(gen.stats()) : ServeStats{};
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t p = 0; p < specs.size(); ++p) {
      results[p].push_back(gen.run(specs[p]));
      specs[p].first = results[p].back().next;
      if (args.trace) {
        const ServeStats after = parse_stats(gen.stats());
        accumulate(&serve_diff[p], before, after);
        before = after;
      }
    }
    // Reference passes spread over the run: a stretch of outside load
    // slows some of them, and per request only the fastest counts.
    if ((round + 1) % (kRounds / (kReferencePasses - 1)) == 0 &&
        round + 1 < kRounds) {
      reference_pass(false);
    }
  }
  const double rss_mb = daemon->peak_rss_mb();
  gen.quit();
  daemon->wait_exit(10.0);
  reference_pass(false);

  // --- correctness and accounting -----------------------------------------
  std::size_t attempted = warmup.attempted;
  std::size_t failed = warmup.errors + warmup.mismatches;
  std::size_t mismatches = warmup.mismatches;
  std::vector<int> verdicts(w.requests.size(), -1);
  // Throughput is the best per-round figure; latency percentiles need every
  // sample of a phase, so they pool the rounds.
  std::vector<std::vector<double>> pooled(specs.size()), rate(specs.size()),
      lag(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    std::size_t sent = 0, errors = 0, wrong = 0;
    for (const PhaseResult& r : results[p]) {
      sent += r.attempted;
      errors += r.errors;
      wrong += r.mismatches;
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i] < 0) verdicts[i] = r.verdicts[i];
      }
      pooled[p].insert(pooled[p].end(), r.latency_ms.begin(),
                       r.latency_ms.end());
      rate[p].push_back(r.throughput_rps);
      lag[p].push_back(r.max_lag_ms);
    }
    attempted += sent;
    failed += errors + wrong;
    mismatches += wrong;
    std::fprintf(stderr,
                 "perfbench: phase %-10s %6zu sent in %d rounds, %zu errors, "
                 "%zu mismatches",
                 specs[p].name.c_str(), sent, kRounds, errors, wrong);
    if (specs[p].open_loop) {
      std::fprintf(stderr,
                   "; %zu latencies, tail = p%.4g, generator lag max %.2f "
                   "ms\n",
                   pooled[p].size(), 100 * tail_quantile(pooled[p].size()),
                   *std::max_element(lag[p].begin(), lag[p].end()));
    } else {
      std::fprintf(stderr, "; %.1f req/s best of rounds\n", max_of(rate[p]));
    }
  }
  double tp = 0, fp = 0, fn = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] < 0) continue;
    const bool mal = w.requests[i].label == 1;
    if (verdicts[i] == 1 && mal) tp += 1;
    if (verdicts[i] == 1 && !mal) fp += 1;
    if (verdicts[i] == 0 && mal) fn += 1;
  }
  const double f1 = tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0.0;
  const bool correct = mismatches == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %zu daemon verdicts differ from the "
                 "library\n", mismatches);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", median(setup_s), "s"},
               {"train_s", *std::min_element(train_s.begin(), train_s.end()),
                "s"},
               {"artifact_mb", artifact_mb, "MB"},
               {"rss_mb", rss_mb, "MB"},
               {"detect_ms", mean(detect_ms), "ms"},
               {"throughput_rps", max_of(rate[0]), "1/s"},
               {"low.p50_ms", percentile(pooled[1], 0.5), "ms"},
               {"low.tail_ms", tail_of(pooled[1]), "ms"},
               {"ok_ratio",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(std::max<std::size_t>(attempted, 1)),
                "ratio"}};
  } else {
    const std::size_t n = std::min(args.layer_scripts, w.requests.size());
    const double untraced = mean(std::vector<double>(
        detect_ms.begin(), detect_ms.begin() + static_cast<long>(n)));
    std::fprintf(stderr, "perfbench: per-layer pass over %zu scripts "
                 "(mean / p50 / share of stage sum; * = not run by this "
                 "model)\n", n);
    for (const Stage& s : rep.stages) {
      const double m = mean(s.ms);
      const double share = rep.stage_sum_ms > 0 ? m / rep.stage_sum_ms : 0.0;
      std::fprintf(stderr, "  %-22s %10.4f ms %10.4f ms %6.1f%%%s\n",
                   s.name.c_str(), m, percentile(s.ms, 0.5), 100 * share,
                   s.in_model ? "" : " *");
      metrics.push_back({s.name, m, "ms"});
      metrics.push_back({s.name + ".p50", percentile(s.ms, 0.5), "ms"});
      metrics.push_back({s.name + ".share", share, "ratio"});
    }
    const double overhead = rep.stage_sum_ms - untraced;
    std::fprintf(stderr, "  stage sum %.4f ms vs untraced detect %.4f ms: "
                 "tracing overhead %+.4f ms (%+.1f%%), %s\n",
                 rep.stage_sum_ms, untraced, overhead,
                 100 * overhead / untraced,
                 std::abs(overhead) <= kReconcileBound * untraced
                     ? "reconciled"
                     : "NOT reconciled within 10%");
    const ServeStats& lo = serve_diff[1];
    const ServeStats& hi = serve_diff[2];
    const double server_low_p50 = histogram_quantile(lo.latency_ms, 0.5);
    metrics.insert(metrics.end(), layer_metrics.begin(), layer_metrics.end());
    metrics.insert(
        metrics.end(),
        {{"deob.iterations", rep.deob_iterations, "count"},
         {"paths.count", rep.paths_count, "count"},
         {"paths.cap_hit_ratio", rep.cap_hit_ratio, "ratio"},
         {"paths.vocab_hit_ratio", rep.vocab_hit_ratio, "ratio"},
         {"lint.diags", rep.lint_diags, "count"},
         {"trace.stage_sum_ms", rep.stage_sum_ms, "ms"},
         {"trace.detect_ms", untraced, "ms"},
         {"trace.overhead_ms", overhead, "ms"},
         {"serve.batch_size", histogram_mean(hi.batch_size), "count"},
         {"serve.queue_depth_max",
          [&] {
            double m = 0;
            for (const PhaseResult& r : results[2]) {
              m = std::max(m, r.queue_depth_max);
            }
            return m;
          }(),
          "count"},
         {"serve.rejected",
          serve_diff[0].rejected + lo.rejected + hi.rejected, "count"},
         {"serve.analyze_ms", histogram_mean(hi.analyze_ms), "ms"},
         {"serve.classify_ms", histogram_mean(hi.classify_ms), "ms"},
         {"serve.server_p50_ms", histogram_quantile(hi.latency_ms, 0.5), "ms"},
         {"serve.server_p99_ms", histogram_quantile(hi.latency_ms, 0.99),
          "ms"},
         {"serve.outside_ms", percentile(pooled[1], 0.5) - server_low_p50,
          "ms"},
         {"high.p50_ms", percentile(pooled[2], 0.5), "ms"},
         {"high.tail_ms", tail_of(pooled[2]), "ms"},
         {"ml.f1", f1, "ratio"},
         {"loadgen.max_lag_ms",
          std::max(*std::max_element(lag[1].begin(), lag[1].end()),
                   *std::max_element(lag[2].begin(), lag[2].end())),
          "ms"}});
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsr_perfbench: %s\n", e.what());
    return 1;
  }
}
