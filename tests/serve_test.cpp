// Protocol- and batching-level tests for the src/serve daemon stack:
// framing codec edge cases (truncation, oversized lengths, zero-length
// scripts, garbage), Batcher bit-identity against the library path at
// several parallel widths, per-request stage booking, admission control
// under overload, and the Server's failure-containment and graceful-drain
// contracts over real sockets (a malformed client loses its connection,
// never the daemon), plus the per-connection bounds of the listener
// underneath: thread reaping, the partial-frame and send deadlines, and the
// connection cap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

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
  }

  static void TearDownTestSuite() {
    std::remove(model_path_->c_str());
    delete library_verdicts_;
    delete scripts_;
    delete model_;
    delete model_path_;
  }

  static std::string* model_path_;
  static core::ModelView* model_;
  static std::vector<std::string>* scripts_;
  static std::vector<int>* library_verdicts_;
};

std::string* ServeFixture::model_path_ = nullptr;
core::ModelView* ServeFixture::model_ = nullptr;
std::vector<std::string>* ServeFixture::scripts_ = nullptr;
std::vector<int>* ServeFixture::library_verdicts_ = nullptr;

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
  // The Batcher forces each parse in its analyze stage, before classify
  // runs; the provenance record must still carry the parse and the path
  // traversal cost instead of zeros.
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
}

TEST_F(ServeFixture, BatcherBooksEachRequestStageOnce) {
  // The daemon exports per-request stage time: one parseable request books
  // one stage_ms sample for each stage it runs (the parse where the batcher
  // forces it, the rest in the view's inference body).
  const char* const kStages[] = {"parse", "enhanced_ast", "path_traversal",
                                 "embedding", "classify"};
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
      if (resp.rejected) {
        EXPECT_EQ(resp.verdict, -1);
        EXPECT_FALSE(resp.error.empty());
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
// its socket; the write that blocks is the batch worker's. The send deadline
// must close that connection and free the worker for everyone else.
TEST_F(ServeFixture, NonReadingClientDoesNotStallOthers) {
  const std::string path = "serve_test_stall.sock";
  serve::Server server(*model_, {});
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
  EXPECT_LT(waited_ms, 2.0 * net::kIoDeadlineMs);
  EXPECT_GT(counter_value("serve.errors", "kind", "timeout"),
            timeouts_before);

  ::close(fd);
  ::close(stalled);
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
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    const int fd = connect_client(endpoint);
    send_all(fd, serve::encode_frame(ping_frame(1)));
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
