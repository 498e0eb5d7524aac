// Protocol- and dispatch-level tests for the src/serve daemon stack:
// framing codec edge cases (truncation, oversized lengths, zero-length
// scripts, garbage), Batcher bit-identity against the library path at
// several worker counts, per-request stage booking, admission control
// under overload, and the Server's contracts over real sockets: failure
// containment (a malformed client loses its connection, never the daemon),
// graceful drain, per-connection response order (rejections included), no
// waiting across connections, the unsent-response bounds (count and bytes)
// and no write after a failed reader; plus the per-connection bounds of the
// listener underneath: thread reaping, the partial-frame and send deadlines,
// and the connection cap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analysis/script_analysis.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "net/net.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "util/thread_pool.h"

// Allocation-failure injection: once `g_fail_alloc_skip` allocations of at
// least `g_fail_alloc_at_least` bytes have gone through on the current
// thread, the next one throws std::bad_alloc, as running out of memory
// would, and the trap disarms. Unarmed, these are malloc and free.
thread_local std::size_t g_fail_alloc_at_least = SIZE_MAX;
thread_local std::size_t g_fail_alloc_skip = 0;

void* operator new(std::size_t size) {
  if (size >= g_fail_alloc_at_least) {
    if (g_fail_alloc_skip > 0) {
      --g_fail_alloc_skip;
    } else {
      g_fail_alloc_at_least = SIZE_MAX;
      throw std::bad_alloc();
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
// Out of line, so no call site sees operator new's pointer reach free().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace jsrev {
namespace {

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

serve::Frame classify_frame(std::uint32_t id, std::string payload,
                            std::uint8_t flags = 0) {
  serve::Frame f;
  f.type = serve::FrameType::kClassify;
  f.id = id;
  f.flags = flags;
  f.payload = std::move(payload);
  return f;
}

TEST(Frame, RoundTrip) {
  const serve::Frame in = classify_frame(42, "var x = 1;",
                                         serve::kWantProvenance);
  const std::string bytes = serve::encode_frame(in);
  ASSERT_EQ(bytes.size(), serve::kFrameHeaderBytes + in.payload.size());

  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, serve::FrameType::kClassify);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.flags, serve::kWantProvenance);
  EXPECT_EQ(out.payload, "var x = 1;");
}

TEST(Frame, ZeroLengthPayload) {
  const std::string bytes = serve::encode_frame(classify_frame(7, ""));
  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(consumed, serve::kFrameHeaderBytes);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Frame, TruncationAlwaysNeedsMore) {
  // Every strict prefix of a valid frame decodes to kNeedMore, never to an
  // error and never to a short read.
  const std::string bytes = serve::encode_frame(classify_frame(9, "x = 1;"));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    serve::Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(serve::decode_frame(bytes.substr(0, len), 1 << 20, &out,
                                  &consumed),
              serve::DecodeStatus::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Frame, OversizedLengthIsRejectedBeforeBuffering) {
  // A header advertising more than max_payload fails immediately — the
  // decoder must not wait for (or allocate) the advertised bytes.
  serve::Frame huge = classify_frame(3, std::string(100, 'a'));
  std::string bytes = serve::encode_frame(huge);
  serve::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(serve::decode_frame(bytes, /*max_payload=*/99, &out, &consumed),
            serve::DecodeStatus::kTooLarge);
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(out.id, 3u);  // header fields are reported for the error reply
}

TEST(Frame, GarbageFailsFast) {
  serve::Frame out;
  std::size_t consumed = 0;
  // Wrong very first byte: rejected with a single byte of input.
  EXPECT_EQ(serve::decode_frame("X", 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadMagic);
  // Right first byte, wrong second.
  EXPECT_EQ(serve::decode_frame("JX", 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadMagic);
}

TEST(Frame, UnknownTypeByte) {
  std::string bytes = serve::encode_frame(classify_frame(1, "x"));
  bytes[2] = '\x7f';  // not a FrameType
  serve::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(serve::decode_frame(bytes, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kBadType);
  EXPECT_EQ(out.id, 1u);
}

TEST(Frame, BackToBackFramesDecodeInOrder) {
  std::string stream;
  serve::append_frame(classify_frame(1, "a;"), &stream);
  serve::append_frame(classify_frame(2, "b;"), &stream);
  serve::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(serve::decode_frame(stream, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(out.id, 1u);
  stream.erase(0, consumed);
  ASSERT_EQ(serve::decode_frame(stream, 1 << 20, &out, &consumed),
            serve::DecodeStatus::kOk);
  EXPECT_EQ(out.id, 2u);
  EXPECT_EQ(consumed, stream.size());
}

// ---------------------------------------------------------------------------
// Batcher + Server against a real trained model.
// ---------------------------------------------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::Config cfg;
    cfg.seed = 77;
    cfg.threads = 2;
    cfg.embed_epochs = 4;
    cfg.cluster_sample_per_class = 400;
    dataset::GeneratorConfig gc;
    gc.seed = 77;
    gc.benign_count = 30;
    gc.malicious_count = 30;
    core::JsRevealer trainer(cfg);
    trainer.train(dataset::generate_corpus(gc));
    model_path_ = new std::string("serve_test_model.jsrm");
    trainer.save_artifact_file(*model_path_);
    model_ = new core::ModelView();
    model_->map_file(*model_path_);

    dataset::GeneratorConfig eval;
    eval.seed = 1234;
    eval.benign_count = 12;
    eval.malicious_count = 12;
    scripts_ = new std::vector<std::string>();
    for (const auto& s : dataset::generate_corpus(eval).samples) {
      scripts_->push_back(s.source);
    }
    scripts_->push_back("function broken( {");  // unparseable ⇒ malicious
    scripts_->push_back("");                    // empty program

    core::ModelView library;
    library.map_file(*model_path_);
    library_verdicts_ = new std::vector<int>(library.classify_all(*scripts_));

    // One large parseable script (~205 KB): the fixture's parseable scripts
    // repeated back to back. It takes hundreds of milliseconds to classify,
    // so requests behind it are measurably held or not.
    big_script_ = new std::string();
    while (big_script_->size() < 205 * 1024) {
      for (std::size_t i = 0; i + 2 < scripts_->size(); ++i) {
        *big_script_ += (*scripts_)[i] + "\n;\n";
      }
    }
  }

  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete big_script_;
    delete library_verdicts_;
    delete scripts_;
    delete model_;
    delete model_path_;
  }

  static std::string* model_path_;
  static core::ModelView* model_;
  static std::vector<std::string>* scripts_;
  static std::vector<int>* library_verdicts_;
  static std::string* big_script_;
};

std::string* ServeFixture::model_path_ = nullptr;
core::ModelView* ServeFixture::model_ = nullptr;
std::vector<std::string>* ServeFixture::scripts_ = nullptr;
std::vector<int>* ServeFixture::library_verdicts_ = nullptr;
std::string* ServeFixture::big_script_ = nullptr;

TEST_F(ServeFixture, ModelOpensAsMappedArtifact) {
  EXPECT_TRUE(model_->loaded());
  EXPECT_EQ(model_->name(), "JSRevealer[mapped]");
}

TEST_F(ServeFixture, BatcherMatchesLibraryAtEveryWidth) {
  for (const std::size_t width : {1u, 2u, 8u}) {
    serve::ServeOptions opts;
    opts.threads = width;
    serve::Batcher batcher(*model_, opts);

    std::mutex mu;
    std::vector<int> verdicts(scripts_->size(), -1);
    for (std::size_t i = 0; i < scripts_->size(); ++i) {
      serve::ServeRequest req;
      req.id = static_cast<std::uint32_t>(i);
      req.source = (*scripts_)[i];
      batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
        std::lock_guard<std::mutex> lock(mu);
        verdicts[resp.id] = resp.verdict;
      });
    }
    batcher.drain();
    EXPECT_EQ(verdicts, *library_verdicts_) << "width " << width;
  }
}

TEST_F(ServeFixture, BatcherProvenanceReportsFrontendStageTimes) {
  // The provenance record carries the parse and the path traversal cost
  // instead of zeros, beside the request's queue wait.
  serve::Batcher batcher(*model_, {});
  std::string json;
  serve::ServeRequest req;
  req.id = 5;
  req.source = (*scripts_)[0];
  req.want_provenance = true;
  batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
    json = resp.provenance_json;
  });
  batcher.drain();

  const std::unique_ptr<obs::JsonValue> doc = obs::json_parse(json);
  ASSERT_NE(doc, nullptr) << json;
  const obs::JsonValue* stages = doc->find("stage_ms");
  ASSERT_NE(stages, nullptr) << json;
  ASSERT_NE(doc->find("parse_failed"), nullptr);
  EXPECT_FALSE(doc->find("parse_failed")->boolean);
  for (const char* stage : {"parse", "path_traversal"}) {
    const obs::JsonValue* ms = stages->find(stage);
    ASSERT_NE(ms, nullptr) << stage;
    EXPECT_GT(ms->number, 0.0) << stage << " in " << json;
  }
  ASSERT_NE(stages->find("queue"), nullptr) << json;
  EXPECT_GE(stages->find("queue")->number, 0.0);
}

TEST_F(ServeFixture, BatcherBooksEachRequestStageOnce) {
  // The daemon exports per-request stage time: one parseable request books
  // one stage_ms sample for each stage it runs (its queue wait in the
  // Batcher, the parse in its ScriptAnalysis, the rest in the view's
  // inference body).
  const char* const kStages[] = {"parse", "enhanced_ast", "path_traversal",
                                 "embedding", "classify", "queue"};
  std::vector<std::uint64_t> before;
  for (const char* stage : kStages) {
    before.push_back(obs::stage_summary(stage)->count());
  }

  serve::Batcher batcher(*model_, {});
  bool parse_failed = true;
  serve::ServeRequest req;
  req.id = 6;
  req.source = (*scripts_)[0];
  batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
    parse_failed = resp.parse_failed;
  });
  batcher.drain();

  ASSERT_FALSE(parse_failed);
  for (std::size_t i = 0; i < std::size(kStages); ++i) {
    EXPECT_EQ(obs::stage_summary(kStages[i])->count(), before[i] + 1)
        << kStages[i];
  }
}

TEST_F(ServeFixture, BatcherRejectsBeyondQueueCapacity) {
  serve::ServeOptions opts;
  opts.max_queue = 2;
  serve::Batcher batcher(*model_, opts);

  std::atomic<int> rejected{0}, answered{0};
  // More submissions than the queue holds; the worker drains concurrently,
  // so we only assert the two ends of the invariant: everything gets a
  // response, and nothing rejected was ever classified.
  for (std::uint32_t i = 0; i < 64; ++i) {
    serve::ServeRequest req;
    req.id = i;
    req.source = "var v" + std::to_string(i) + " = 1;";
    batcher.submit(std::move(req), [&](serve::ServeResponse resp) {
      if (!resp.error.empty()) {
        EXPECT_EQ(resp.error, "queue full");
        EXPECT_EQ(resp.verdict, -1);
        rejected.fetch_add(1);
      } else {
        answered.fetch_add(1);
      }
    });
  }
  batcher.drain();
  EXPECT_EQ(rejected.load() + answered.load(), 64);
}

/// Writes all of `bytes` to `fd` (test-side helper; asserts no short write).
void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }
}

/// Connects a test client; reads and writes on it fail after `timeout_ms`
/// instead of hanging the suite.
int connect_client(const std::string& endpoint, long timeout_ms = 60'000) {
  std::string error;
  const int fd = net::dial(endpoint, timeout_ms, &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

/// Reads response frames from `fd` until `n` have arrived or EOF.
std::vector<serve::Frame> read_frames(int fd, std::size_t n) {
  std::vector<serve::Frame> frames;
  std::string buf;
  char chunk[16 * 1024];
  while (frames.size() < n) {
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(r));
    for (;;) {
      serve::Frame f;
      std::size_t consumed = 0;
      if (serve::decode_frame(buf, 64u << 20, &f, &consumed) !=
          serve::DecodeStatus::kOk) {
        break;
      }
      buf.erase(0, consumed);
      frames.push_back(std::move(f));
    }
  }
  return frames;
}

TEST_F(ServeFixture, ConcurrentClientsMatchLibrary) {
  serve::Server server(*model_, {});
  server.listen_tcp(0);
  ASSERT_NE(server.bound_port(), 0);
  std::thread daemon([&] { server.run(); });

  constexpr int kClients = 3;
  std::vector<std::vector<int>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd =
          connect_client("127.0.0.1:" + std::to_string(server.bound_port()));
      if (fd < 0) return;
      std::string out;
      for (std::size_t i = 0; i < scripts_->size(); ++i) {
        serve::append_frame(
            classify_frame(static_cast<std::uint32_t>(i + 1), (*scripts_)[i]),
            &out);
      }
      send_all(fd, out);
      const std::vector<serve::Frame> frames =
          read_frames(fd, scripts_->size());
      per_client[c].assign(scripts_->size(), -1);
      for (const serve::Frame& f : frames) {
        if (f.type == serve::FrameType::kVerdict && f.id >= 1 &&
            f.id <= scripts_->size() && !f.payload.empty()) {
          per_client[c][f.id - 1] = f.payload[0] - '0';
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  server.request_shutdown();
  daemon.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(per_client[c], *library_verdicts_) << "client " << c;
  }
}

TEST_F(ServeFixture, MalformedFrameClosesOnlyThatConnection) {
  serve::Server server(*model_, {});
  server.listen_tcp(0);
  std::thread daemon([&] { server.run(); });

  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.bound_port());

  // Client A sends garbage: it gets an error frame, then EOF.
  {
    const int fd = connect_client(endpoint);
    send_all(fd, "this is not a frame");
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, serve::FrameType::kError);
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // connection closed after the error
    ::close(fd);
  }

  // Client B, connected afterwards, is served normally: the daemon survived.
  {
    const int fd = connect_client(endpoint);
    send_all(fd, serve::encode_frame(classify_frame(5, "var ok = 1;")));
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, serve::FrameType::kVerdict);
    EXPECT_EQ(frames[0].id, 5u);
    ::close(fd);
  }

  server.request_shutdown();
  daemon.join();
}

TEST_F(ServeFixture, QuitDrainsInFlightWorkBeforeBye) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::Server server(*model_, {});
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  // All classifies and the QUIT land in one burst; every verdict must still
  // arrive, and kBye must come last.
  std::string out;
  for (std::size_t i = 0; i < scripts_->size(); ++i) {
    serve::append_frame(
        classify_frame(static_cast<std::uint32_t>(i + 1), (*scripts_)[i]),
        &out);
  }
  serve::Frame quit;
  quit.type = serve::FrameType::kQuit;
  serve::append_frame(quit, &out);
  send_all(sv[1], out);

  const std::vector<serve::Frame> frames =
      read_frames(sv[1], scripts_->size() + 1);
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(frames.size(), scripts_->size() + 1);
  std::vector<int> verdicts(scripts_->size(), -1);
  for (std::size_t i = 0; i < scripts_->size(); ++i) {
    EXPECT_EQ(frames[i].type, serve::FrameType::kVerdict);
    if (frames[i].id >= 1 && frames[i].id <= scripts_->size() &&
        !frames[i].payload.empty()) {
      verdicts[frames[i].id - 1] = frames[i].payload[0] - '0';
    }
  }
  EXPECT_EQ(verdicts, *library_verdicts_);
  EXPECT_EQ(frames.back().type, serve::FrameType::kBye);
}

TEST_F(ServeFixture, PingStatsAndParseFailedFlag) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::Server server(*model_, {});
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  std::string out;
  serve::Frame ping;
  ping.type = serve::FrameType::kPing;
  ping.id = 100;
  ping.payload = "echo";
  serve::append_frame(ping, &out);
  serve::append_frame(classify_frame(101, "function broken( {"), &out);
  serve::Frame stats;
  stats.type = serve::FrameType::kStats;
  stats.id = 102;
  serve::append_frame(stats, &out);
  send_all(sv[1], out);

  const std::vector<serve::Frame> frames = read_frames(sv[1], 3);
  ::shutdown(sv[1], SHUT_WR);  // EOF ends serve_fd
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(frames.size(), 3u);
  bool saw_pong = false, saw_verdict = false, saw_stats = false;
  for (const serve::Frame& f : frames) {
    if (f.type == serve::FrameType::kPong) {
      saw_pong = true;
      EXPECT_EQ(f.id, 100u);
      EXPECT_EQ(f.payload, "echo");
    } else if (f.type == serve::FrameType::kVerdict) {
      saw_verdict = true;
      EXPECT_EQ(f.id, 101u);
      EXPECT_EQ(f.payload, "1");  // unparseable ⇒ malicious
      EXPECT_NE(f.flags & serve::kParseFailed, 0);
    } else if (f.type == serve::FrameType::kStatsJson) {
      saw_stats = true;
      EXPECT_EQ(f.id, 102u);
      EXPECT_NE(f.payload.find("serve.requests"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_pong);
  EXPECT_TRUE(saw_verdict);
  EXPECT_TRUE(saw_stats);
}

// ---------------------------------------------------------------------------
// Per-connection bounds: threads, time and the connection count.
// ---------------------------------------------------------------------------

serve::Frame ping_frame(std::uint32_t id) {
  serve::Frame f;
  f.type = serve::FrameType::kPing;
  f.id = id;
  return f;
}

std::uint64_t counter_value(const char* name, const char* key,
                            const char* value) {
  return obs::metrics().counter(name, {{key, value}})->value();
}

/// Milliseconds since `t0`.
double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST_F(ServeFixture, SequentialConnectionsDoNotAccumulateThreads) {
  serve::Server server(*model_, {});
  server.listen_tcp(0);
  std::thread daemon([&] { server.run(); });
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.bound_port());

  for (std::uint32_t i = 0; i < 2000; ++i) {
    const int fd = connect_client(endpoint);
    ASSERT_GE(fd, 0) << "connection " << i;
    send_all(fd, serve::encode_frame(ping_frame(i)));
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ::close(fd);
    ASSERT_EQ(frames.size(), 1u) << "connection " << i;
    ASSERT_EQ(frames[0].type, serve::FrameType::kPong);
  }
  // Each accept joins the threads that already finished; only the last few
  // connections can still be in flight.
  EXPECT_LE(server.tracked_connections(), 8u);

  server.request_shutdown();
  daemon.join();
}

// A client that asks for many large responses and reads none of them fills
// its socket; the write that blocks is a worker's. The other workers keep
// answering everyone else, and the send deadline closes the stalled
// connection and frees its writer. With one worker, nobody else is
// answered until that deadline fires.
void expect_non_reading_client_does_not_stall_others(
    const core::ModelView& model, std::size_t threads) {
  SCOPED_TRACE("threads " + std::to_string(threads));
  const std::string path = "serve_test_stall.sock";
  serve::ServeOptions opts;
  opts.threads = threads;
  serve::Server server(model, opts);
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });
  const std::uint64_t timeouts_before =
      counter_value("serve.errors", "kind", "timeout");
  obs::Counter* requests = obs::metrics().counter("serve.requests");
  const std::uint64_t requests_before = requests->value();

  constexpr std::uint32_t kStalled = 3000;
  const int stalled = connect_client("unix:" + path);
  std::string out;
  for (std::uint32_t i = 1; i <= kStalled; ++i) {
    serve::append_frame(
        classify_frame(i, "var v" + std::to_string(i) + " = " +
                              std::to_string(i) + ";",
                       serve::kWantProvenance),
        &out);
  }
  send_all(stalled, out);
  // The second client's request must queue behind all of these.
  for (int i = 0; i < 3000 && requests->value() - requests_before < kStalled;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(requests->value() - requests_before, kStalled);

  const int fd = connect_client("unix:" + path, 2 * net::kIoDeadlineMs);
  const auto t0 = std::chrono::steady_clock::now();
  send_all(fd, serve::encode_frame(classify_frame(1, "var ok = 1;")));
  const std::vector<serve::Frame> frames = read_frames(fd, 1);
  const double waited_ms = elapsed_ms(t0);
  ASSERT_EQ(frames.size(), 1u) << "no answer within two send deadlines";
  EXPECT_EQ(frames[0].type, serve::FrameType::kVerdict);
  if (resolve_threads(threads) == 1) {
    EXPECT_LT(waited_ms, 2.0 * net::kIoDeadlineMs);
    EXPECT_GT(counter_value("serve.errors", "kind", "timeout"),
              timeouts_before);
  } else {
    EXPECT_LT(waited_ms, 1.0 * net::kIoDeadlineMs);
    // The stalled write still times out, one deadline after it blocked.
    for (int i = 0; i < 2 * net::kIoDeadlineMs / 10 &&
                    counter_value("serve.errors", "kind", "timeout") ==
                        timeouts_before;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(counter_value("serve.errors", "kind", "timeout"),
              timeouts_before);
  }

  ::close(fd);
  ::close(stalled);
  server.request_shutdown();
  daemon.join();
}

TEST_F(ServeFixture, NonReadingClientDoesNotStallOthers) {
  expect_non_reading_client_does_not_stall_others(
      *model_, serve::ServeOptions{}.threads);
  expect_non_reading_client_does_not_stall_others(*model_, 1);
}

// A client that sends without ever reading stops being read once its
// unsent responses reach the connection's bound, so its writes stall (here
// until its send timeout) instead of piling responses up in the daemon.
// The PONGs queue behind the big script's verdict, so no write of the
// daemon's holds the reader back before the bound does.
TEST_F(ServeFixture, NonReadingClientIsHeldBackByItsSocket) {
  const std::string path = "serve_test_flood.sock";
  serve::Server server(*model_, {});
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });

  // 4.8 MB of PINGs, far past the socket buffers both ways.
  std::string wire = serve::encode_frame(classify_frame(1, *big_script_));
  for (std::uint32_t i = 2; i < 400'000; ++i) {
    serve::append_frame(ping_frame(i), &wire);
  }
  const int fd = connect_client("unix:" + path, /*timeout_ms=*/1000);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w = ::write(fd, wire.data() + off, wire.size() - off);
    if (w <= 0) break;  // send timeout: the daemon stopped reading
    off += static_cast<std::size_t>(w);
  }
  EXPECT_LT(off, wire.size());

  ::close(fd);
  server.request_shutdown();
  daemon.join();
}

// The same bound in bytes. A STATS frame is answered with the whole
// registry and a PONG echoes its PING, so a few hundred of them behind the
// big script are far fewer than kMaxUnsent responses but megabytes of them.
// The reader stops once kMaxUnsentBytes are unsent, and the client's write
// stalls after roughly that much, not after the whole 8 MiB.
TEST_F(ServeFixture, NonReadingClientIsHeldBackByResponseBytes) {
  const std::string path = "serve_test_bytes.sock";
  serve::Server server(*model_, {});
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });

  std::string wire = serve::encode_frame(classify_frame(1, *big_script_));
  std::uint32_t id = 2;
  for (int i = 0; i < 200; ++i) {
    serve::Frame stats;
    stats.type = serve::FrameType::kStats;
    stats.id = id++;
    serve::append_frame(stats, &wire);
  }
  constexpr std::size_t kPingBytes = 256 * 1024;
  for (int i = 0; i < 32; ++i) {
    serve::Frame ping = ping_frame(id++);
    ping.payload.assign(kPingBytes, 'p');
    serve::append_frame(ping, &wire);
  }
  const int fd = connect_client("unix:" + path, /*timeout_ms=*/1000);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w = ::write(fd, wire.data() + off, wire.size() - off);
    if (w <= 0) break;  // send timeout: the daemon stopped reading
    off += static_cast<std::size_t>(w);
  }
  // The daemon took the script, the STATS, PINGs whose PONGs reach the
  // budget (the last one crossing it), one PING and one read in its buffer,
  // and what the socket holds (allowed 1 MiB).
  EXPECT_LT(off, big_script_->size() + serve::Server::kMaxUnsentBytes +
                     3 * kPingBytes + (1u << 20))
      << "of " << wire.size();

  ::close(fd);
  server.request_shutdown();
  daemon.join();
}

// An exception escaping a connection's reader (here std::bad_alloc while
// its read buffer grows for a large PING) ends serve_fd while that
// connection's requests still run. The caller closes the fd as serve_fd
// returns, and another descriptor may take its number at once: the late
// verdicts must not be written into it.
TEST_F(ServeFixture, ReaderFailureStopsWritesBeforeItsFdCloses) {
  int sv[2];
  int pipe_fds[2];  // takes over sv[0]'s number once it is closed
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::pipe(pipe_fds), 0);
  serve::ServeOptions opts;
  opts.threads = 1;
  serve::Server server(*model_, opts);
  const std::uint64_t internal_before =
      counter_value("serve.errors", "kind", "internal");
  std::thread reader([&] {
    g_fail_alloc_at_least = 1u << 20;
    server.serve_fd(sv[0], sv[0]);
    g_fail_alloc_at_least = SIZE_MAX;
    ::close(sv[0]);
  });

  // Two big scripts keep the one worker busy well past the failure.
  std::string wire;
  serve::append_frame(classify_frame(1, *big_script_), &wire);
  serve::append_frame(classify_frame(2, *big_script_), &wire);
  serve::Frame ping = ping_frame(3);
  ping.payload.assign(2u << 20, 'p');
  serve::append_frame(ping, &wire);
  std::size_t off = 0;
  while (off < wire.size()) {  // fails once the reader is gone
    const ssize_t w = ::write(sv[1], wire.data() + off, wire.size() - off);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::shutdown(sv[1], SHUT_WR);
  reader.join();

  ASSERT_EQ(::dup2(pipe_fds[1], sv[0]), sv[0]);
  EXPECT_GT(server.batcher().queue_depth(), 0u) << "no request outlived it";
  server.batcher().drain();
  pollfd pfd{pipe_fds[0], POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "a late verdict reached the reused fd";
  EXPECT_GT(counter_value("serve.errors", "kind", "internal"),
            internal_before);

  for (const int fd : {sv[0], sv[1], pipe_fds[0], pipe_fds[1]}) ::close(fd);
}

// Every allocation the reader makes for a classify, up to and including
// its hand-off to the Batcher, fails once: the skip count walks the trap
// across them until the first request gets its verdict. Whichever one
// fails — the connection's state, the read buffer, the completion's storage
// after the response slot was reserved — the client hears about its
// requests in order, and serve_fd returns at EOF. A slot reserved and never
// filled would hold back every response behind it and hang serve_fd.
TEST_F(ServeFixture, HandOffFailureStillAnswersInRequestOrder) {
  bool first_answered = false;
  bool failure_answered = false;
  for (std::size_t skip = 0; skip < 64 && !first_answered; ++skip) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    serve::ServeOptions opts;
    opts.threads = 1;
    auto server = std::make_unique<serve::Server>(*model_, opts);
    std::promise<void> returned;
    std::future<void> serve_returned = returned.get_future();
    std::thread reader([&server, &returned, fd = sv[0], skip] {
      g_fail_alloc_skip = skip;
      g_fail_alloc_at_least = 1;
      server->serve_fd(fd, fd);
      g_fail_alloc_at_least = SIZE_MAX;
      g_fail_alloc_skip = 0;
      returned.set_value();
    });

    std::string wire;
    serve::append_frame(classify_frame(1, "var x = 1;"), &wire);
    serve::append_frame(classify_frame(2, "var y = 2;"), &wire);
    (void)::write(sv[1], wire.data(), wire.size());  // fails if it is gone
    ::shutdown(sv[1], SHUT_WR);
    // Bounded: a stranded slot never lets serve_fd return.
    if (serve_returned.wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "serve_fd did not return (trap after " << skip
                    << " allocations)";
      reader.detach();       // blocked for good: leave it and its server
      (void)server.release();
      return;
    }
    reader.join();
    ::close(sv[0]);
    const std::vector<serve::Frame> frames = read_frames(sv[1], 2);
    ::close(sv[1]);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].id, i + 1) << "skip " << skip;
      if (frames[i].type == serve::FrameType::kError) {
        EXPECT_EQ(frames[i].payload.rfind("internal error", 0), 0u)
            << frames[i].payload;
        failure_answered = true;
      }
    }
    first_answered =
        !frames.empty() && frames[0].type == serve::FrameType::kVerdict;
  }
  EXPECT_TRUE(first_answered) << "the sweep never got past the hand-off";
  EXPECT_TRUE(failure_answered) << "no failure reached the client";
}

// One worker and room for one waiting request: the one-liners sent behind
// the big script are turned away while it runs, and each rejection
// completes on the reader thread, before the verdicts ahead of it. The
// responses must still leave in request order.
TEST_F(ServeFixture, RejectionsKeepTheirPlaceInResponseOrder) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::ServeOptions opts;
  opts.threads = 1;
  opts.max_queue = 1;
  serve::Server server(*model_, opts);
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  std::string out;
  serve::append_frame(classify_frame(1, *big_script_), &out);
  for (std::uint32_t id = 2; id <= 4; ++id) {
    serve::append_frame(classify_frame(id, "var x = 1;"), &out);
  }
  send_all(sv[1], out);
  const std::vector<serve::Frame> frames = read_frames(sv[1], 4);
  ::shutdown(sv[1], SHUT_WR);  // EOF ends serve_fd
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(frames.size(), 4u);
  int rejected = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(frames[i].id, i + 1);
    if (frames[i].type == serve::FrameType::kError) ++rejected;
  }
  EXPECT_EQ(frames[0].type, serve::FrameType::kVerdict);
  EXPECT_GE(rejected, 1);  // the queue did overflow
}

// Requests on different connections never wait for each other beyond the
// worker count: B's one-liner is answered while A's big script still runs.
TEST_F(ServeFixture, SlowRequestDoesNotHoldAnotherConnection) {
  ASSERT_FALSE(analysis::ScriptAnalysis(*big_script_).parse_failed());
  const std::string path = "serve_test_slow.sock";
  serve::ServeOptions opts;
  opts.threads = 2;
  serve::Server server(*model_, opts);
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });

  const int a = connect_client("unix:" + path);
  const int b = connect_client("unix:" + path);
  send_all(a, serve::encode_frame(classify_frame(1, *big_script_)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  send_all(b, serve::encode_frame(classify_frame(2, "var ok = 1;")));
  const std::vector<serve::Frame> b_frames = read_frames(b, 1);
  pollfd pfd{a, POLLIN, 0};
  const int a_ready = ::poll(&pfd, 1, 0);
  ASSERT_EQ(b_frames.size(), 1u);
  EXPECT_EQ(b_frames[0].type, serve::FrameType::kVerdict);
  EXPECT_EQ(a_ready, 0) << "B was answered only after A";

  const std::vector<serve::Frame> a_frames = read_frames(a, 1);
  ASSERT_EQ(a_frames.size(), 1u);
  EXPECT_EQ(a_frames[0].type, serve::FrameType::kVerdict);
  EXPECT_EQ(a_frames[0].id, 1u);

  ::close(a);
  ::close(b);
  server.request_shutdown();
  daemon.join();
}

TEST_F(ServeFixture, PartialFrameTimesOut) {
  const std::string path = "serve_test_partial.sock";
  serve::Server server(*model_, {});
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });

  // A header declaring 100 payload bytes, then only 10 of them.
  std::string wire =
      serve::encode_frame(classify_frame(7, std::string(100, 'x')));
  wire.resize(serve::kFrameHeaderBytes + 10);
  const int fd = connect_client("unix:" + path, 2 * net::kIoDeadlineMs);
  const auto t0 = std::chrono::steady_clock::now();
  send_all(fd, wire);

  const std::vector<serve::Frame> frames = read_frames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, serve::FrameType::kError);
  EXPECT_EQ(frames[0].id, 7u);
  EXPECT_EQ(frames[0].payload, "frame timed out");
  char byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // then EOF
  EXPECT_LT(elapsed_ms(t0), 2.0 * net::kIoDeadlineMs);
  ::close(fd);

  server.request_shutdown();
  daemon.join();
}

// The partial-frame deadline is the peer's, not the daemon's: a frame that
// arrives behind a PING is timed from when the daemon finished answering
// that PING, not from when its first bytes were read. Here the reader spends
// ~3 s writing a 2 MiB PONG to a client that does not read yet, and the
// rest of the next frame comes ~2.5 s after that.
TEST_F(ServeFixture, PartialFrameIsTimedFromTheEndOfThePreviousOne) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::Server server(*model_, {});
  std::thread daemon([&] {
    server.serve_fd(sv[0], sv[0]);
    ::close(sv[0]);
  });

  serve::Frame ping = ping_frame(1);
  ping.payload.assign(2u << 20, 'p');
  const std::string next = serve::encode_frame(classify_frame(2, "var x;"));
  std::string wire = serve::encode_frame(ping);
  wire += next.substr(0, serve::kFrameHeaderBytes / 2);
  send_all(sv[1], wire);
  std::this_thread::sleep_for(std::chrono::seconds(3));
  const std::vector<serve::Frame> pong = read_frames(sv[1], 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  send_all(sv[1], next.substr(serve::kFrameHeaderBytes / 2));
  const std::vector<serve::Frame> verdict = read_frames(sv[1], 1);
  ::shutdown(sv[1], SHUT_WR);  // EOF ends serve_fd
  daemon.join();
  ::close(sv[1]);

  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0].type, serve::FrameType::kPong);
  ASSERT_EQ(verdict.size(), 1u);
  EXPECT_EQ(verdict[0].type, serve::FrameType::kVerdict) << verdict[0].payload;
  EXPECT_EQ(verdict[0].id, 2u);
}

TEST_F(ServeFixture, ConnectionCapRejectsUntilASlotFrees) {
  const std::string path = "serve_test_cap.sock";
  const std::string endpoint = "unix:" + path;
  serve::Server server(*model_, {});
  server.listen_unix(path);
  std::thread daemon([&] { server.run(); });
  const std::uint64_t rejected_before =
      counter_value("serve.rejected", "reason", "connections");

  // Idle connections have no deadline, so all of these stay live.
  std::vector<int> idle;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    idle.push_back(connect_client(endpoint));
    ASSERT_GE(idle.back(), 0);
  }

  // The next one is answered with an error, then closed.
  {
    const int fd = connect_client(endpoint);
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, serve::FrameType::kError);
    EXPECT_EQ(frames[0].payload, "too many connections");
    char byte;
    EXPECT_EQ(::read(fd, &byte, 1), 0);
    ::close(fd);
  }
  EXPECT_GT(counter_value("serve.rejected", "reason", "connections"),
            rejected_before);

  // Once one idle client leaves, a new connection is served (its thread may
  // take a moment to notice the EOF).
  ::close(idle.back());
  idle.pop_back();
  bool served = false;
  const std::string ping = serve::encode_frame(ping_frame(1));
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    const int fd = connect_client(endpoint);
    // An attempt still over the cap may be answered and closed before this
    // send lands, so its result is not checked; the answer below tells.
    ::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL);
    const std::vector<serve::Frame> frames = read_frames(fd, 1);
    ::close(fd);
    served = frames.size() == 1 && frames[0].type == serve::FrameType::kPong;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);

  for (const int fd : idle) ::close(fd);
  server.request_shutdown();
  daemon.join();
}

}  // namespace
}  // namespace jsrev
