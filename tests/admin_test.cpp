// Admin telemetry plane tests: Prometheus exposition (mapping rules, label
// escaping, cumulative le buckets, the snapshot-JSON round trip that pins
// "one exporter, two consumers" byte-identical), the structured log layer
// (levels, sink capture, per-site rate limiting), the AdminServer's HTTP
// containment contract (400/404/405/431 cost one connection, never the
// server), the Batcher's slow-request record, and the readiness story:
// /readyz flips to 503 strictly before a QUIT's kBye confirms the drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "net/net.h"
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"

namespace jsrev {
namespace {

// ---------------------------------------------------------------------------
// In-test Prometheus text parser: independent of the production validator,
// so a bug shared by writer and validator still fails here.
// ---------------------------------------------------------------------------

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct PromDoc {
  std::map<std::string, std::string> types;  // family -> TYPE
  std::vector<PromSample> samples;

  const PromSample* find(const std::string& name,
                         const std::map<std::string, std::string>& labels = {})
      const {
    for (const PromSample& s : samples) {
      if (s.name == name && s.labels == labels) return &s;
    }
    return nullptr;
  }
};

/// Parses exposition text into *out; ASSERTs (fatal to the caller via the
/// void contract) on syntax it does not expect, so a malformed writer shows
/// up as test failures with context.
void parse_prom(const std::string& text, PromDoc* out) {
  PromDoc& doc = *out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      doc.types[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    if (line[0] == '#') continue;  // HELP / comment

    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const std::size_t eq = line.find('=', i);
        ASSERT_NE(eq, std::string::npos) << line;
        const std::string key = line.substr(i, eq - i);
        ASSERT_EQ(line[eq + 1], '"') << line;
        i = eq + 2;
        std::string val;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            ++i;
            ASSERT_LT(i, line.size()) << line;
            val += line[i] == 'n' ? '\n' : line[i];
          } else {
            val += line[i];
          }
          ++i;
        }
        ASSERT_LT(i, line.size()) << "unterminated label value: " << line;
        ++i;
        s.labels[key] = val;
        if (i < line.size() && line[i] == ',') ++i;
      }
      ASSERT_LT(i, line.size()) << "unterminated label set: " << line;
      ++i;
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string rest = line.substr(i + 1);
    s.value = rest == "+Inf" ? HUGE_VAL : std::strtod(rest.c_str(), nullptr);
    doc.samples.push_back(std::move(s));
  }
}

// ---------------------------------------------------------------------------
// Exposition mapping rules.
// ---------------------------------------------------------------------------

TEST(Prometheus, NameMapping) {
  EXPECT_EQ(obs::prometheus_name("serve.requests", obs::Unit::kCount),
            "jsr_serve_requests");
  // kMillis: trailing _ms strips, _seconds appends (values scale 1e-3).
  EXPECT_EQ(obs::prometheus_name("serve.latency_ms", obs::Unit::kMillis),
            "jsr_serve_latency_seconds");
  EXPECT_EQ(obs::prometheus_name("parse.time", obs::Unit::kMillis),
            "jsr_parse_time_seconds");
  // kBytes: suffix appended only when missing.
  EXPECT_EQ(obs::prometheus_name("model.size_bytes", obs::Unit::kBytes),
            "jsr_model_size_bytes");
  EXPECT_EQ(obs::prometheus_name("model.size", obs::Unit::kBytes),
            "jsr_model_size_bytes");
  // Every illegal character sanitizes to '_'.
  EXPECT_EQ(obs::prometheus_name("a.b-c/d e", obs::Unit::kCount),
            "jsr_a_b_c_d_e");
}

TEST(Prometheus, CounterGaugeRendering) {
  obs::Registry reg;
  reg.counter("serve.requests")->add(41);
  reg.gauge("serve.queue_depth")->set(7);
  reg.counter("serve.errors", {{"kind", "frame"}})->add(3);
  const std::string text = obs::render_prometheus(reg);

  PromDoc doc;
  parse_prom(text, &doc);
  EXPECT_EQ(doc.types.at("jsr_serve_requests_total"), "counter");
  EXPECT_EQ(doc.types.at("jsr_serve_queue_depth"), "gauge");
  ASSERT_NE(doc.find("jsr_serve_requests_total"), nullptr);
  EXPECT_EQ(doc.find("jsr_serve_requests_total")->value, 41.0);
  ASSERT_NE(doc.find("jsr_serve_queue_depth"), nullptr);
  EXPECT_EQ(doc.find("jsr_serve_queue_depth")->value, 7.0);
  ASSERT_NE(doc.find("jsr_serve_errors_total", {{"kind", "frame"}}), nullptr);
  EXPECT_EQ(doc.find("jsr_serve_errors_total", {{"kind", "frame"}})->value,
            3.0);

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST(Prometheus, LabelEscaping) {
  obs::Registry reg;
  reg.counter("evil", {{"path", "a\\b\"c\nd"}})->add(1);
  const std::string text = obs::render_prometheus(reg);
  // On the wire: backslash, quote, newline each escaped.
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos) << text;
  // And the in-test parser recovers the original value.
  PromDoc doc;
  parse_prom(text, &doc);
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].labels.at("path"), "a\\b\"c\nd");

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST(Prometheus, HistogramCumulativeBucketsAndSecondsScaling) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("serve.latency_ms", {1, 5, 25}, {},
                                    obs::kMillisOptions);
  h->observe(0.5);   // <= 1
  h->observe(3.0);   // <= 5
  h->observe(4.0);   // <= 5
  h->observe(100.0); // overflow
  const std::string text = obs::render_prometheus(reg);
  PromDoc doc;
  parse_prom(text, &doc);

  EXPECT_EQ(doc.types.at("jsr_serve_latency_seconds"), "histogram");
  // Bounds are in seconds and the counts are cumulative.
  const PromSample* b1 =
      doc.find("jsr_serve_latency_seconds_bucket", {{"le", "0.001"}});
  const PromSample* b5 =
      doc.find("jsr_serve_latency_seconds_bucket", {{"le", "0.005"}});
  const PromSample* b25 =
      doc.find("jsr_serve_latency_seconds_bucket", {{"le", "0.025"}});
  const PromSample* binf =
      doc.find("jsr_serve_latency_seconds_bucket", {{"le", "+Inf"}});
  ASSERT_NE(b1, nullptr) << text;
  ASSERT_NE(b5, nullptr);
  ASSERT_NE(b25, nullptr);
  ASSERT_NE(binf, nullptr);
  EXPECT_EQ(b1->value, 1.0);
  EXPECT_EQ(b5->value, 3.0);
  EXPECT_EQ(b25->value, 3.0);
  EXPECT_EQ(binf->value, 4.0);

  // _count == +Inf bucket; _sum scales to seconds.
  const PromSample* count = doc.find("jsr_serve_latency_seconds_count");
  const PromSample* sum = doc.find("jsr_serve_latency_seconds_sum");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(count->value, 4.0);
  EXPECT_NEAR(sum->value, 0.1075, 1e-12);

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST(Prometheus, SummaryRendersSumAndCount) {
  obs::Registry reg;
  obs::Summary* s = reg.summary("stage", {}, {});
  s->observe(2.0);
  s->observe(3.0);
  const std::string text = obs::render_prometheus(reg);
  PromDoc doc;
  parse_prom(text, &doc);
  EXPECT_EQ(doc.types.at("jsr_stage"), "summary");
  ASSERT_NE(doc.find("jsr_stage_sum"), nullptr);
  ASSERT_NE(doc.find("jsr_stage_count"), nullptr);
  EXPECT_EQ(doc.find("jsr_stage_sum")->value, 5.0);
  EXPECT_EQ(doc.find("jsr_stage_count")->value, 2.0);
}

// Family names are derived, so distinct registry names can collide after
// sanitization/suffixing: counter "x" and a gauge literally named "x_total"
// both map to family jsr_x_total, and (samples being sorted by registry
// name) the repeat appears non-adjacently. The renderer must keep the first
// owner, drop the collider, and still emit a valid exposition — never a
// second # TYPE line or duplicate series.
TEST(Prometheus, FamilyCollisionDropsColliderAndStaysValid) {
  obs::Registry reg;
  reg.counter("x")->add(1);       // family jsr_x_total
  reg.gauge("x.z")->set(9);       // sorts between "x" and "x_total"
  reg.gauge("x_total")->set(5);   // collides with the counter's family
  const std::string text = obs::render_prometheus(reg);

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error << text;

  PromDoc doc;
  parse_prom(text, &doc);
  EXPECT_EQ(doc.types.at("jsr_x_total"), "counter");
  ASSERT_NE(doc.find("jsr_x_total"), nullptr);
  EXPECT_EQ(doc.find("jsr_x_total")->value, 1.0);  // counter won, gauge gone
  ASSERT_NE(doc.find("jsr_x_z"), nullptr);
  // The drop is visible in-band as a comment, not silent.
  EXPECT_NE(text.find("# collision: dropped jsr_x_total"), std::string::npos)
      << text;

  // The ms→seconds rewrite collides the same way: "a_ms" (kMillis) and an
  // explicit "a_seconds" both render as family jsr_a_seconds.
  obs::Registry reg2;
  reg2.summary("a_ms", {}, obs::kMillisOptions)->observe(2.0);
  reg2.gauge("a_seconds")->set(1);
  const std::string text2 = obs::render_prometheus(reg2);
  EXPECT_TRUE(obs::validate_prometheus_text(text2, &error)) << error << text2;
}

// One exporter, two consumers: rendering straight off the registry and
// rendering the registry's JSON snapshot must be byte-identical. (Help text
// lives only in the live registry, so the fixture registers without it.)
TEST(Prometheus, SnapshotJsonRoundTripIsByteIdentical) {
  obs::Registry reg;
  reg.counter("serve.requests")->add(12);
  reg.counter("serve.errors", {{"kind", "frame"}})->add(2);
  reg.counter("serve.errors", {{"kind", "internal"}})->add(1);
  reg.gauge("queue", {}, obs::kScheduleDependent)->set(5);
  obs::Summary* sum = reg.summary("stage.wait", {}, {});
  sum->observe(1.5);
  sum->observe(2.25);
  obs::Histogram* h = reg.histogram("serve.latency_ms", {1, 10, 100}, {},
                                    obs::kMillisOptions);
  h->observe(0.25);
  h->observe(50.0);
  h->observe(5000.0);

  const std::string direct = obs::render_prometheus(reg);

  std::vector<obs::MetricSample> rows;
  std::string error;
  ASSERT_TRUE(obs::samples_from_metrics_json(reg.to_json(), &rows, &error))
      << error;
  const std::string via_json = obs::render_prometheus(rows);

  EXPECT_EQ(direct, via_json);
  EXPECT_TRUE(obs::validate_prometheus_text(direct, &error)) << error;
}

TEST(Prometheus, ValidatorCatchesStructuralLies) {
  std::string error;
  // Illegal metric name.
  EXPECT_FALSE(obs::validate_prometheus_text("9bad_name 1\n", &error));
  // Unparseable sample line.
  EXPECT_FALSE(obs::validate_prometheus_text("jsr_x{a=\"b\" 1\n", &error));
  // Histogram with non-cumulative buckets.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE jsr_h histogram\n"
      "jsr_h_bucket{le=\"1\"} 5\n"
      "jsr_h_bucket{le=\"2\"} 3\n"
      "jsr_h_bucket{le=\"+Inf\"} 5\n"
      "jsr_h_sum 1\n"
      "jsr_h_count 5\n",
      &error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE jsr_h histogram\n"
      "jsr_h_bucket{le=\"1\"} 2\n"
      "jsr_h_bucket{le=\"+Inf\"} 4\n"
      "jsr_h_sum 1\n"
      "jsr_h_count 5\n",
      &error));
  // Missing +Inf bucket.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE jsr_h histogram\n"
      "jsr_h_bucket{le=\"1\"} 2\n"
      "jsr_h_sum 1\n"
      "jsr_h_count 2\n",
      &error));
  // Duplicate series.
  EXPECT_FALSE(
      obs::validate_prometheus_text("jsr_x 1\njsr_x 2\n", &error));
  // And a well-formed document passes.
  EXPECT_TRUE(obs::validate_prometheus_text(
      "# HELP jsr_ok fine\n# TYPE jsr_ok counter\njsr_ok 3\n", &error))
      << error;
}

// ---------------------------------------------------------------------------
// Structured logging.
// ---------------------------------------------------------------------------

class LogCapture {
 public:
  LogCapture() {
    obs::set_log_sink([this](std::string_view line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(line);
    });
  }
  ~LogCapture() {
    obs::set_log_sink({});
    obs::set_log_level(obs::LogLevel::kInfo);
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

TEST(Log, RecordsAreOneJsonObjectPerLine) {
  LogCapture cap;
  obs::LogRecord(obs::LogLevel::kWarn, "serve.slow_request")
      .kv("request_id", 42u)
      .kv("latency_ms", 12.5)
      .kv("note", "a \"quoted\" string\nwith newline")
      .kv("ok", true);
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find('\n'), std::string::npos);

  std::string error;
  const auto doc = obs::json_parse(lines[0], &error);
  ASSERT_NE(doc, nullptr) << error << ": " << lines[0];
  EXPECT_EQ(doc->find("level")->string, "warn");
  EXPECT_EQ(doc->find("event")->string, "serve.slow_request");
  EXPECT_EQ(doc->find("request_id")->number, 42.0);
  EXPECT_EQ(doc->find("latency_ms")->number, 12.5);
  EXPECT_EQ(doc->find("note")->string, "a \"quoted\" string\nwith newline");
  EXPECT_TRUE(doc->find("ok")->boolean);
  EXPECT_GT(doc->find("ts_ms")->number, 0.0);
}

TEST(Log, LevelFloorFilters) {
  LogCapture cap;
  obs::set_log_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  obs::LogRecord(obs::LogLevel::kInfo, "dropped").kv("k", 1);
  obs::LogRecord(obs::LogLevel::kError, "kept").kv("k", 2);
  const auto lines = cap.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kept\""), std::string::npos);
}

TEST(Log, LevelNamesRoundTrip) {
  for (const auto level :
       {obs::LogLevel::kDebug, obs::LogLevel::kInfo, obs::LogLevel::kWarn,
        obs::LogLevel::kError}) {
    obs::LogLevel back{};
    ASSERT_TRUE(obs::log_level_from_name(obs::log_level_name(level), &back));
    EXPECT_EQ(back, level);
  }
  obs::LogLevel out{};
  EXPECT_FALSE(obs::log_level_from_name("chatty", &out));
}

TEST(Log, RateLimitSuppressesAndReports) {
  LogCapture cap;
  // No refill to speak of within the test: burst 3, then dry.
  obs::LogRateLimit rl(/*per_sec=*/0.001, /*burst=*/3.0);
  for (int i = 0; i < 10; ++i) {
    obs::LogRecord(obs::LogLevel::kWarn, "burst", rl).kv("i", i);
  }
  auto lines = cap.lines();
  EXPECT_EQ(lines.size(), 3u);
  EXPECT_EQ(rl.total_suppressed(), 7u);
  // The next allowed record (fresh limiter state via a new bucket) carries
  // the suppressed count — emulate by a limiter with burst refilled.
  obs::LogRateLimit rl2(/*per_sec=*/1000.0, /*burst=*/1.0);
  obs::LogRecord(obs::LogLevel::kWarn, "one", rl2).kv("i", 0);
  obs::LogRecord(obs::LogLevel::kWarn, "two", rl2).kv("i", 1);
  lines = cap.lines();
  // Depending on timing the second record may refill; only assert that any
  // emitted record after suppression carries "suppressed".
  obs::LogRateLimit rl3(/*per_sec=*/0.001, /*burst=*/1.0);
  obs::LogRecord(obs::LogLevel::kWarn, "a", rl3).kv("i", 0);  // spends burst
  obs::LogRecord(obs::LogLevel::kWarn, "b", rl3).kv("i", 1);  // suppressed
  EXPECT_EQ(rl3.total_suppressed(), 1u);
}

// ---------------------------------------------------------------------------
// AdminServer HTTP behavior (no model needed).
// ---------------------------------------------------------------------------

class AdminHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    admin_.listen_tcp(0);
    ASSERT_NE(admin_.bound_port(), 0);
    admin_.start();
    endpoint_ = "127.0.0.1:" + std::to_string(admin_.bound_port());
  }
  void TearDown() override { admin_.stop(); }

  /// Raw request bytes in, full response text out (for malformed requests
  /// admin_http_get cannot express).
  std::string raw_request(const std::string& bytes) {
    std::string error;
    const int fd = net::dial(endpoint_, 10'000, &error);
    EXPECT_GE(fd, 0) << error;
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    std::string response;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return response;
  }

  obs::AdminServer admin_;
  std::string endpoint_;
};

TEST_F(AdminHttpTest, HealthzIsAlwaysAlive) {
  std::string body, error;
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/healthz", &body, &error), 200)
      << error;
  EXPECT_EQ(body, "ok\n");
}

TEST_F(AdminHttpTest, MetricsServeValidExposition) {
  // The admin server renders the process-global registry; make sure at
  // least one metric exists regardless of test order.
  obs::metrics().counter("admin_test.pings")->add(1);
  std::string body, error;
  ASSERT_EQ(obs::admin_http_get(endpoint_, "/metrics", &body, &error), 200)
      << error;
  EXPECT_TRUE(obs::validate_prometheus_text(body, &error)) << error;
  PromDoc doc;
  parse_prom(body, &doc);
  ASSERT_NE(doc.find("jsr_admin_test_pings_total"), nullptr);
}

TEST_F(AdminHttpTest, StatuszCarriesVersionUptimeAndInjectedFields) {
  admin_.set_status_fields(
      [](obs::JsonWriter& w) { w.kv("model_path", "m.jsrm"); });
  std::string body, error;
  ASSERT_EQ(obs::admin_http_get(endpoint_, "/statusz", &body, &error), 200)
      << error;
  const auto doc = obs::json_parse(body, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_FALSE(doc->find("version")->string.empty());
  EXPECT_GE(doc->find("uptime_s")->number, 0.0);
  EXPECT_EQ(doc->find("model_path")->string, "m.jsrm");
}

TEST_F(AdminHttpTest, ReadyzFollowsTheReadyCheck) {
  std::atomic<bool> ready{true};
  admin_.set_ready_check([&ready] { return ready.load(); });
  std::string body;
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/readyz", &body), 200);
  EXPECT_EQ(body, "ready\n");
  ready.store(false);
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/readyz", &body), 503);
  EXPECT_EQ(body, "draining\n");
}

TEST_F(AdminHttpTest, TracezCapturesSpansInTheWindow) {
  std::thread worker([] {
    for (int i = 0; i < 50; ++i) {
      obs::Span span("admin test work", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::string body, error;
  ASSERT_EQ(obs::admin_http_get(endpoint_, "/tracez?ms=60", &body, &error),
            200)
      << error;
  worker.join();
  EXPECT_TRUE(obs::validate_chrome_trace_json(body, &error)) << error;
  EXPECT_NE(body.find("admin test work"), std::string::npos);
  // Capture restored the disabled default.
  EXPECT_FALSE(obs::Tracer::enabled());
}

TEST_F(AdminHttpTest, UnknownPathIs404) {
  std::string body;
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/nope", &body), 404);
}

TEST_F(AdminHttpTest, NonGetIs405) {
  const std::string resp =
      raw_request("POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(resp.rfind("HTTP/1.1 405", 0), 0u) << resp;
}

TEST_F(AdminHttpTest, GarbageRequestLineIs400AndContained) {
  const std::string resp = raw_request("\x01\x02 garbage here\r\n\r\n");
  EXPECT_EQ(resp.rfind("HTTP/1.1 400", 0), 0u) << resp;
  // Containment: the server still answers the next connection.
  std::string body;
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/healthz", &body), 200);
}

TEST_F(AdminHttpTest, TruncatedRequestLineIs400) {
  const std::string resp = raw_request("GET /healthz\r\n\r\n");  // no version
  EXPECT_EQ(resp.rfind("HTTP/1.1 400", 0), 0u) << resp;
}

TEST_F(AdminHttpTest, OversizedHeadIs431) {
  std::string huge = "GET /healthz HTTP/1.1\r\n";
  huge += "X-Padding: " + std::string(obs::AdminServer::kMaxRequestBytes, 'a');
  const std::string resp = raw_request(huge);
  EXPECT_EQ(resp.rfind("HTTP/1.1 431", 0), 0u) << resp;
  std::string body;
  EXPECT_EQ(obs::admin_http_get(endpoint_, "/healthz", &body), 200);
}

// A steady scrape must not accumulate one joinable (stack-retaining) thread
// per request: the accept loop reaps finished connection threads, so after
// many sequential requests the tracked set stays at in-flight size, not
// request count.
TEST_F(AdminHttpTest, SequentialScrapesDoNotAccumulateThreads) {
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    std::string body;
    ASSERT_EQ(obs::admin_http_get(endpoint_, "/healthz", &body), 200) << i;
  }
  // Each accept reaps everything already finished; only the last few
  // connections can still be in their done-flag window.
  EXPECT_LE(admin_.tracked_connections(), 8u);
}

// A peer that accepts but never answers must fail the client call after its
// deadline instead of hanging --admin-get (and check.sh) forever.
TEST(AdminClient, GetTimesOutAgainstSilentPeer) {
  net::Listener silent;
  silent.listen_tcp(0);
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(silent.bound_port());

  // Never run(): the connect lands in the backlog and no byte ever comes
  // back, which is exactly the wedged-daemon shape the timeout exists for.
  std::string body, error;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(obs::admin_http_get(endpoint, "/healthz", &body, &error,
                                /*timeout_ms=*/300),
            -1);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// Over the connection cap the admin plane answers 503 at once instead of
// queueing the scrape behind connections that may idle for a full deadline.
TEST(AdminUnix, ConnectionsOverTheCapGet503) {
  const std::string path = "admin_test_cap.sock";
  obs::AdminServer admin;
  admin.listen_unix(path);
  admin.start();
  std::vector<int> idle;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    std::string error;
    idle.push_back(net::dial("unix:" + path, 10'000, &error));
    ASSERT_GE(idle.back(), 0) << error;
  }

  std::string error;
  const int fd = net::dial("unix:" + path, 10'000, &error);
  ASSERT_GE(fd, 0) << error;
  std::string response;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;

  for (const int c : idle) ::close(c);
  admin.stop();
}

TEST(AdminUnix, ServesOverUnixSocket) {
  const std::string path = "admin_test.sock";
  obs::AdminServer admin;
  admin.listen_unix(path);
  admin.start();
  std::string body, error;
  EXPECT_EQ(obs::admin_http_get("unix:" + path, "/healthz", &body, &error),
            200)
      << error;
  admin.stop();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Readiness vs. the frame plane's drain, against a real trained model.
// ---------------------------------------------------------------------------

class AdminServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::Config cfg;
    cfg.seed = 91;
    cfg.threads = 2;
    cfg.embed_epochs = 4;
    cfg.cluster_sample_per_class = 400;
    dataset::GeneratorConfig gc;
    gc.seed = 91;
    gc.benign_count = 24;
    gc.malicious_count = 24;
    core::JsRevealer trainer(cfg);
    trainer.train(dataset::generate_corpus(gc));
    model_path_ = new std::string("admin_test_model.jsrm");
    trainer.save_artifact_file(*model_path_);
    model_ = new core::ModelView();
    model_->map_file(*model_path_);
  }

  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete model_;
    delete model_path_;
  }

  static std::string* model_path_;
  static core::ModelView* model_;
};

std::string* AdminServeFixture::model_path_ = nullptr;
core::ModelView* AdminServeFixture::model_ = nullptr;

TEST_F(AdminServeFixture, BuildAndModelInfoGauges) {
  serve::register_build_info(*model_, *model_path_);
  const std::string text = obs::render_prometheus(obs::metrics());
  PromDoc doc;
  parse_prom(text, &doc);

  bool build_seen = false, model_seen = false;
  for (const PromSample& s : doc.samples) {
    if (s.name == "jsr_build_info") {
      build_seen = true;
      EXPECT_EQ(s.value, 1.0);
      EXPECT_FALSE(s.labels.at("version").empty());
    }
    if (s.name == "jsr_model_info") {
      model_seen = true;
      EXPECT_EQ(s.value, 1.0);
      EXPECT_EQ(s.labels.at("path"), *model_path_);
      EXPECT_EQ(s.labels.at("format"), "jsrm-mapped");
      EXPECT_EQ(s.labels.at("deobfuscate"),
                model_->deobfuscate() ? "on" : "off");
      EXPECT_EQ(s.labels.at("lint_dim"),
                std::to_string(model_->info().header.lint_dim));
    }
  }
  EXPECT_TRUE(build_seen);
  EXPECT_TRUE(model_seen);

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
}

TEST_F(AdminServeFixture, SlowRequestDrawsOneCorrelatedLogRecord) {
  LogCapture cap;
  serve::ServeOptions opts;
  opts.slow_ms = 1e-6;  // every request is slow
  {
    serve::Batcher batcher(*model_, opts);
    serve::ServeRequest req;
    req.id = 4242;
    req.source = "var x = 1;";
    batcher.submit(std::move(req), [](serve::ServeResponse) {});
    batcher.drain();
  }

  int records = 0;
  for (const std::string& line : cap.lines()) {
    const auto doc = obs::json_parse(line);
    ASSERT_NE(doc, nullptr) << line;
    if (doc->find("event")->string != "serve.slow_request") continue;
    ++records;
    EXPECT_EQ(doc->find("request_id")->number, 4242.0) << line;
    EXPECT_GT(doc->find("latency_ms")->number, 0.0) << line;
  }
  EXPECT_EQ(records, 1);
}

TEST_F(AdminServeFixture, ReadyzFlips503BeforeQuitsBye) {
  serve::ServeOptions opts;
  opts.threads = 2;
  serve::Server server(*model_, opts);

  obs::AdminServer admin;
  admin.listen_tcp(0);
  admin.set_ready_check([&server] { return server.ready(); });
  admin.start();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(admin.bound_port());

  std::string body;
  ASSERT_EQ(obs::admin_http_get(endpoint, "/readyz", &body), 200);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread serve_thread([&server, fd = sv[1]] { server.serve_fd(fd, fd); });

  // Keep the drain busy, then ask the daemon to quit.
  std::string wire;
  const std::uint32_t kWork = 24;
  for (std::uint32_t i = 1; i <= kWork; ++i) {
    serve::Frame f;
    f.type = serve::FrameType::kClassify;
    f.id = i;
    f.payload = "var x" + std::to_string(i) + " = " + std::to_string(i) + ";";
    serve::append_frame(f, &wire);
  }
  serve::Frame quit;
  quit.type = serve::FrameType::kQuit;
  quit.id = 999;
  serve::append_frame(quit, &wire);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w = ::write(sv[0], wire.data() + off, wire.size() - off);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }

  // Before reading a single response byte, readiness must reach 503: the
  // flip happens when kQuit is processed, strictly before the drain that
  // precedes kBye. Poll (the reader thread races us to the QUIT frame).
  int status = 0;
  for (int tries = 0; tries < 2000; ++tries) {
    status = obs::admin_http_get(endpoint, "/readyz", &body);
    if (status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(status, 503) << "readyz never flipped after QUIT";

  // Only now drain the frame stream: every verdict, then kBye — proof the
  // 503 observation above happened while the connection was still serving.
  std::string stream;
  char chunk[4096];
  std::uint32_t verdicts = 0;
  bool bye = false;
  while (!bye) {
    const ssize_t n = ::read(sv[0], chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "EOF before kBye";
    stream.append(chunk, static_cast<std::size_t>(n));
    while (true) {
      serve::Frame f;
      std::size_t consumed = 0;
      if (serve::decode_frame(stream, 1 << 20, &f, &consumed) !=
          serve::DecodeStatus::kOk) {
        break;
      }
      stream.erase(0, consumed);
      if (f.type == serve::FrameType::kVerdict) ++verdicts;
      if (f.type == serve::FrameType::kBye) {
        bye = true;
        break;
      }
    }
  }
  EXPECT_EQ(verdicts, kWork);
  EXPECT_TRUE(bye);

  serve_thread.join();
  ::close(sv[0]);
  ::close(sv[1]);
  admin.stop();
}

}  // namespace
}  // namespace jsrev
