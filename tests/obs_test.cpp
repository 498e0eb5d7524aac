// Tests for the observability layer: metrics registry primitives, the JSON
// toolkit (writer, parser, BENCH envelope, Chrome-trace validation), span
// tracing, per-verdict provenance, and the two cross-cutting invariants the
// subsystem promises —
//  * deterministic_json() is byte-identical at thread widths 1/2/8 for a
//    fixed workload, and
//  * each stage books its stage_ms{stage} sample once, where its work runs:
//    re-classifying a warm corpus books no second parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/script_analysis.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace jsrev {
namespace {

// ---------------------------------------------------------------------------
// Metrics primitives.

TEST(Metrics, CounterAddsMergesShardsAndResets) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, CounterExactUnderConcurrentWriters) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, GaugeSetAddSub) {
  obs::Gauge g;
  g.set(10);
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 13);
  g.set(-4);
  EXPECT_EQ(g.value(), -4);
}

TEST(Metrics, SummaryMomentsAreExact) {
  obs::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.observe(1.0);
  s.observe(3.0);
  s.observe(5.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // sample stddev of {1,3,5}
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

// Writers that share one shard race on its min/max cells. Every observation
// must land in them, including one made while the shard's first observation
// is still in flight.
TEST(Metrics, SummaryExactUnderConcurrentWriters) {
  constexpr int kThreads = 64;  // shards are dealt round-robin: 4 per shard
  constexpr std::size_t kRounds = 2000;
  std::vector<obs::Summary> summaries(kRounds);
  std::atomic<std::size_t> target_shard{0};
  std::latch dealt(kThreads);
  std::latch counted(kThreads);
  std::atomic<int> writers{0};
  std::atomic<std::size_t> gate{0};
  std::atomic<std::size_t> observed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t shard = obs::detail::shard_index();
      if (t == 0) target_shard.store(shard);
      dealt.arrive_and_wait();
      const bool writer = shard == target_shard.load();
      const int id = writer ? writers.fetch_add(1) : -1;
      counted.arrive_and_wait();
      if (!writer) return;
      const std::size_t n = static_cast<std::size_t>(writers.load());
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Spin rather than block, so the round's writers start together;
        // the last writer of a round opens the next one.
        for (int spins = 0; gate.load(std::memory_order_acquire) != r;
             ++spins) {
          if (spins > 10000) std::this_thread::yield();
        }
        summaries[r].observe(static_cast<double>(id + 1));
        if (observed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            (r + 1) * n) {
          gate.store(r + 1, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const int n = writers.load();
  ASSERT_GE(n, 2);
  for (std::size_t r = 0; r < kRounds; ++r) {
    const obs::Summary& s = summaries[r];
    ASSERT_EQ(s.count(), static_cast<std::uint64_t>(n)) << "round " << r;
    ASSERT_DOUBLE_EQ(s.sum(), n * (n + 1) / 2.0) << "round " << r;
    ASSERT_DOUBLE_EQ(s.min(), 1.0) << "round " << r;
    ASSERT_DOUBLE_EQ(s.max(), static_cast<double>(n)) << "round " << r;
  }
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper limits)
  h.observe(7.0);    // <= 10
  h.observe(1000.0); // overflow
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
}

TEST(Metrics, RegistryReturnsStablePointersPerNameAndLabels) {
  obs::Registry reg;
  obs::Counter* a = reg.counter("test.hits", {{"rule", "M01"}});
  obs::Counter* b = reg.counter("test.hits", {{"rule", "M01"}});
  obs::Counter* c = reg.counter("test.hits", {{"rule", "M02"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(c->value(), 0u);
}

TEST(Metrics, RegistryRejectsKindMixOnOneName) {
  obs::Registry reg;
  reg.counter("test.mixed");
  EXPECT_THROW(reg.gauge("test.mixed"), std::logic_error);
  EXPECT_THROW(reg.summary("test.mixed"), std::logic_error);
  EXPECT_THROW(reg.histogram("test.mixed", {1.0}), std::logic_error);
}

TEST(Metrics, KillSwitchTurnsMutationsIntoNoops) {
  obs::Counter c;
  obs::Summary s;
  obs::set_metrics_enabled(false);
  c.add(5);
  s.observe(1.0);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(s.count(), 0u);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Metrics, ExportsAreValidJsonAndSorted) {
  obs::Registry reg;
  reg.counter("z.last")->add(1);
  reg.counter("a.first")->add(2);
  reg.gauge("m.middle")->set(-7);
  const std::string json = reg.to_json();
  std::string error;
  ASSERT_TRUE(obs::json_valid(json, &error)) << error;
  // Sorted by (name, labels): a.first renders before m.middle before z.last.
  EXPECT_LT(json.find("a.first"), json.find("m.middle"));
  EXPECT_LT(json.find("m.middle"), json.find("z.last"));
  ASSERT_TRUE(obs::json_valid(reg.deterministic_json(), &error)) << error;
}

TEST(Metrics, DeterministicExportExcludesDurationsAndScheduleDependent) {
  obs::Registry reg;
  reg.counter("test.kept")->add(1);
  reg.counter("test.sched", {}, obs::kScheduleDependent)->add(1);
  reg.summary("test.ms", {}, obs::kMillisOptions)->observe(1.0);
  const std::string det = reg.deterministic_json();
  EXPECT_NE(det.find("test.kept"), std::string::npos);
  EXPECT_EQ(det.find("test.sched"), std::string::npos);
  EXPECT_EQ(det.find("test.ms"), std::string::npos);
  // The full export keeps everything.
  const std::string full = reg.to_json();
  EXPECT_NE(full.find("test.sched"), std::string::npos);
  EXPECT_NE(full.find("test.ms"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON toolkit.

TEST(Json, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.begin_object()
      .kv("name", "quote\"back\\slash\nnewline")
      .kv("truth", true)
      .kv("count", std::uint64_t{42})
      .kv("neg", std::int64_t{-7})
      .kv_fixed("ratio", 0.125, 3)
      .key("nothing")
      .null_value()
      .key("items")
      .begin_array()
      .value(std::int64_t{1})
      .value("two")
      .begin_object()
      .kv("k", std::int64_t{3})
      .end_object()
      .end_array()
      .end_object();
  std::string error;
  const auto doc = obs::json_parse(w.str(), &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("name")->string, "quote\"back\\slash\nnewline");
  EXPECT_TRUE(doc->find("truth")->boolean);
  EXPECT_DOUBLE_EQ(doc->find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(doc->find("neg")->number, -7.0);
  EXPECT_DOUBLE_EQ(doc->find("ratio")->number, 0.125);
  EXPECT_EQ(doc->find("nothing")->kind, obs::JsonValue::Kind::kNull);
  const obs::JsonValue* items = doc->find("items");
  ASSERT_TRUE(items != nullptr && items->is_array());
  ASSERT_EQ(items->array.size(), 3u);
  EXPECT_DOUBLE_EQ(items->array[0].number, 1.0);
  EXPECT_EQ(items->array[1].string, "two");
  EXPECT_DOUBLE_EQ(items->array[2].find("k")->number, 3.0);
}

TEST(Json, ParserRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing", "\"unterminated",
        "tru", "{\"a\" 1}", "[1 2]", "nan"}) {
    std::string error;
    EXPECT_EQ(obs::json_parse(bad, &error), nullptr) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, BenchEnvelopeWritesAndValidates) {
  obs::JsonWriter w;
  obs::write_bench_header(w, "unit");
  w.kv("payload", std::uint64_t{1}).end_object();
  std::string error;
  EXPECT_TRUE(obs::validate_bench_json(w.str(), "unit", &error)) << error;
  EXPECT_TRUE(obs::validate_bench_json(w.str(), {}, &error)) << error;
  // Wrong bench name and missing envelope fields are both rejected.
  EXPECT_FALSE(obs::validate_bench_json(w.str(), "other", &error));
  EXPECT_FALSE(obs::validate_bench_json("{\"bench\": \"unit\"}", "unit",
                                        &error));
  EXPECT_FALSE(obs::validate_bench_json("[]", {}, &error));
}

TEST(Json, ChromeTraceValidatorChecksShape) {
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace_json(
      R"({"traceEvents": [{"name": "a", "cat": "x", "ph": "X",)"
      R"( "ts": 1, "dur": 2, "pid": 1, "tid": 1}]})",
      &error))
      << error;
  EXPECT_TRUE(obs::validate_chrome_trace_json(R"({"traceEvents": []})",
                                              &error))
      << error;
  EXPECT_FALSE(obs::validate_chrome_trace_json("{}", &error));
  EXPECT_FALSE(obs::validate_chrome_trace_json(
      R"({"traceEvents": [{"name": "a"}]})", &error));
}

// ---------------------------------------------------------------------------
// Span tracer.

TEST(Trace, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(false);
  tracer.clear();
  {
    obs::Span outer("outer", "test");
    obs::Span inner("inner", "test");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, ExportIsWellFormedAndSpansNestPerThread) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const auto burn = [] {
    volatile double x = 0;
    for (int i = 0; i < 20000; ++i) x = x + i;
  };
  const auto spin_spans = [&] {
    for (int i = 0; i < 4; ++i) {
      obs::Span outer("outer", "test");
      burn();
      {
        obs::Span inner("inner", "test");
        burn();
      }
      burn();
    }
  };
  std::thread other(spin_spans);
  spin_spans();
  other.join();
  tracer.set_enabled(false);
  const std::string json = tracer.export_chrome_json(/*clear_after=*/true);
  EXPECT_EQ(tracer.event_count(), 0u);  // clear_after emptied the buffers

  std::string error;
  ASSERT_TRUE(obs::validate_chrome_trace_json(json, &error)) << error;
  const auto doc = obs::json_parse(json, &error);
  ASSERT_NE(doc, nullptr) << error;
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->array.size(), 16u);  // 2 threads x 4 iterations x 2 spans

  // Per-thread nesting invariant: RAII spans recorded on one thread are
  // either disjoint or properly contained — never partially overlapping.
  struct Interval {
    double begin, end;
  };
  std::vector<std::vector<Interval>> by_tid;
  for (const obs::JsonValue& e : events->array) {
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_DOUBLE_EQ(e.find("pid")->number, 1.0);
    const std::string& name = e.find("name")->string;
    EXPECT_TRUE(name == "outer" || name == "inner") << name;
    const auto tid = static_cast<std::size_t>(e.find("tid")->number);
    ASSERT_GE(tid, 1u);
    if (by_tid.size() < tid) by_tid.resize(tid);
    const double ts = e.find("ts")->number;
    by_tid[tid - 1].push_back({ts, ts + e.find("dur")->number});
  }
  for (const auto& intervals : by_tid) {
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      for (std::size_t j = i + 1; j < intervals.size(); ++j) {
        const Interval& a = intervals[i];
        const Interval& b = intervals[j];
        const bool disjoint = a.end <= b.begin || b.end <= a.begin;
        const bool nested = (a.begin <= b.begin && b.end <= a.end) ||
                            (b.begin <= a.begin && a.end <= b.end);
        EXPECT_TRUE(disjoint || nested)
            << "partial overlap: [" << a.begin << "," << a.end << ") vs ["
            << b.begin << "," << b.end << ")";
      }
    }
  }
}

TEST(Trace, LongNamesAreTruncatedNotCorrupted) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const std::string long_name(200, 'n');
  const std::string long_cat(200, 'c');
  { obs::Span span(long_name.c_str(), long_cat.c_str()); }
  tracer.set_enabled(false);
  const std::string json = tracer.export_chrome_json(/*clear_after=*/true);
  std::string error;
  const auto doc = obs::json_parse(json, &error);
  ASSERT_NE(doc, nullptr) << error;
  const obs::JsonValue& e = doc->find("traceEvents")->array.at(0);
  EXPECT_EQ(e.find("name")->string, std::string(obs::Tracer::kMaxName, 'n'));
  EXPECT_EQ(e.find("cat")->string,
            std::string(obs::Tracer::kMaxCategory, 'c'));
}

// ---------------------------------------------------------------------------
// End-to-end invariants over the instrumented pipeline.

dataset::Split small_split(std::size_t per_class, std::size_t train_per_class,
                           std::uint64_t seed) {
  dataset::GeneratorConfig gc;
  gc.seed = seed;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  Rng rng(seed);
  return dataset::split_corpus(corpus, train_per_class, train_per_class, rng);
}

TEST(ObsDeterminism, DeterministicJsonByteIdenticalAcrossThreadWidths) {
  const dataset::Split split = small_split(16, 12, 1234);
  std::vector<std::string> sources;
  for (const auto& s : split.test.samples) sources.push_back(s.source);

  std::vector<std::string> exports;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    obs::metrics().reset();
    core::Config cfg;
    cfg.seed = 7;
    cfg.threads = width;
    cfg.lint_features = true;
    core::JsRevealer det(cfg);
    det.train(split.train);
    det.classify_all(sources);
    exports.push_back(obs::metrics().deterministic_json());
  }
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_EQ(exports[0], exports[1]) << "width 1 vs 2";
  EXPECT_EQ(exports[0], exports[2]) << "width 1 vs 8";
  std::string error;
  EXPECT_TRUE(obs::json_valid(exports[0], &error)) << error;
}

TEST(Provenance, ExplainFillsRecordAndRendersValidJson) {
  const dataset::Split split = small_split(16, 12, 99);
  core::Config cfg;
  cfg.seed = 7;
  cfg.lint_features = true;
  core::JsRevealer det(cfg);
  det.train(split.train);

  const std::string& source = split.test.samples.front().source;
  const obs::VerdictProvenance prov = det.explain(source);
  EXPECT_EQ(prov.detector, "JSRevealer");
  EXPECT_TRUE(prov.verdict == 0 || prov.verdict == 1);
  EXPECT_EQ(prov.source_bytes, source.size());
  EXPECT_FALSE(prov.parse_failed);
  EXPECT_GT(prov.path_count, 0u);
  EXPECT_LE(prov.known_path_count, prov.path_count);
  for (const obs::ClusterAttention& ca : prov.cluster_attention) {
    EXPECT_GT(ca.mass, 0.0);
    EXPECT_GE(ca.feature_index, 0);
  }
  // The verdict matches a plain classification of the same source.
  EXPECT_EQ(prov.verdict, det.classify(source));
  EXPECT_TRUE(std::is_sorted(prov.lint_rules_fired.begin(),
                             prov.lint_rules_fired.end()));

  std::string error;
  const auto doc = obs::json_parse(prov.to_json(), &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->find("detector")->string, "JSRevealer");
  EXPECT_DOUBLE_EQ(doc->find("verdict")->number,
                   static_cast<double>(prov.verdict));
  EXPECT_NE(doc->find("stage_ms"), nullptr);
  EXPECT_NE(doc->find("cluster_attention"), nullptr);
}

TEST(Provenance, ParseFailureIsRecorded) {
  const dataset::Split split = small_split(12, 8, 5);
  core::JsRevealer det;
  det.train(split.train);
  const obs::VerdictProvenance prov = det.explain("function ( {{{");
  EXPECT_TRUE(prov.parse_failed);
  EXPECT_FALSE(prov.parse_error.empty());
  EXPECT_EQ(prov.verdict, 1);  // unparsable scripts classify as malicious
  EXPECT_EQ(prov.path_count, 0u);
}

// Each stage books once, where its work runs: analyze_corpus runs (and
// books) every parse, so classifying the warm corpus twice adds no parse
// sample, and one classify sample per parsed script per call.
TEST(ObsTimings, ClassifyingAWarmCorpusBooksNoSecondParse) {
  dataset::Split split = small_split(16, 12, 42);
  split.test.samples.push_back({"function ( {{{", 1, "", ""});

  core::Config cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  core::JsRevealer det(cfg);
  det.train(split.train);

  const analysis::AnalyzedCorpus corpus =
      detect::analyze_corpus(split.test, cfg.threads);
  std::uint64_t parsed = 0;
  for (const auto& a : corpus.scripts) parsed += a->parse_failed() ? 0 : 1;
  ASSERT_EQ(parsed, corpus.size() - 1);

  obs::Summary* parse = obs::stage_summary("parse");
  obs::Summary* classify = obs::stage_summary("classify");
  const std::uint64_t parse_before = parse->count();
  const std::uint64_t classify_before = classify->count();
  EXPECT_EQ(det.classify_all(corpus), det.classify_all(corpus));
  EXPECT_EQ(parse->count(), parse_before);
  EXPECT_EQ(classify->count(), classify_before + 2 * parsed);
}

}  // namespace
}  // namespace jsrev
