// jsr_serve: long-lived classification daemon over a trained JSRM model.
//
// Serving modes (exactly one):
//   --stdio        serve one connection on stdin/stdout (tests, pipelines)
//   --unix PATH    listen on a Unix-domain socket
//   --tcp PORT     listen on 127.0.0.1:PORT (0 = ephemeral; port printed)
//
//   jsr_serve --model M.jsrm --stdio [--threads N] [--max-queue N]
//
// --threads sets how many requests run at once, one worker thread each
// (0 = hardware concurrency); --max-queue bounds the requests waiting for a
// worker (beyond it, ERROR "queue full"). One connection's responses always
// come back in request order.
//
// The model is a JSRM v4 artifact, mapped read-only (zero-copy; `jsr_model
// train --out` writes one). Parse limits and the deobfuscate flag come from
// the model, so the daemon classifies exactly like `jsr_model classify`.
//
// Client helper modes (no model; the wire protocol without a binary client):
//   --encode FILE.JS... [--provenance] [--quit]
//       writes one kClassify frame per file to stdout (ids 1..N), then a
//       kQuit frame when --quit is given.
//   --decode
//       reads response frames from stdin, prints one line per response:
//       "<id>\t<payload>" for verdicts (payload is "0"/"1" or provenance
//       JSON), "<id>\tERROR\t<reason>" for errors, "<id>\tPONG" / "BYE".
//
// So a full round trip is:
//   jsr_serve --encode a.js b.js | jsr_serve --model M --stdio |
//       jsr_serve --decode
//
// SIGTERM/SIGINT request a graceful shutdown: accepted requests finish and
// their responses flush before the process exits. Exit status: 0 = ok,
// 1 = operation failed, 2 = usage error.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/model_view.h"
#include "obs/admin.h"
#include "obs/json.h"
#include "obs/log.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "util/string_util.h"

namespace {

using namespace jsrev;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model M [--stdio | --unix PATH | --tcp PORT]\n"
      "          [--threads N] [--max-queue N]\n"
      "          [--admin [ADDR:]PORT | --admin-unix PATH]\n"
      "          [--log-level debug|info|warn|error] [--slow-ms N]\n"
      "       %s --encode FILE.JS... [--provenance] [--quit]\n"
      "       %s --decode\n"
      "       %s --admin-get HOST:PORT|unix:PATH /path\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int cmd_encode(const std::vector<std::string>& files, bool provenance,
               bool quit) {
  std::string out;
  std::uint32_t id = 0;
  for (const std::string& file : files) {
    serve::Frame f;
    f.type = serve::FrameType::kClassify;
    f.id = ++id;
    if (provenance) f.flags |= serve::kWantProvenance;
    if (!read_file(file, &f.payload)) {
      std::fprintf(stderr, "jsr_serve: cannot read %s\n", file.c_str());
      return 1;
    }
    serve::append_frame(f, &out);
  }
  if (quit) {
    serve::Frame f;
    f.type = serve::FrameType::kQuit;
    f.id = ++id;
    serve::append_frame(f, &out);
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
  return 0;
}

int cmd_decode() {
  std::string buf;
  char chunk[64 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), stdin)) > 0) {
    buf.append(chunk, n);
  }
  std::size_t off = 0;
  while (off < buf.size()) {
    serve::Frame f;
    std::size_t consumed = 0;
    const serve::DecodeStatus st =
        serve::decode_frame(std::string_view(buf).substr(off),
                            buf.size(), &f, &consumed);
    if (st != serve::DecodeStatus::kOk) {
      std::fprintf(stderr, "jsr_serve: --decode: %s at offset %zu\n",
                   std::string(serve::decode_status_name(st)).c_str(), off);
      return 1;
    }
    off += consumed;
    switch (f.type) {
      case serve::FrameType::kVerdict:
        std::printf("%u\t%s%s\n", f.id, f.payload.c_str(),
                    (f.flags & serve::kParseFailed) != 0 ? "\tparse-failed"
                                                         : "");
        break;
      case serve::FrameType::kError:
        std::printf("%u\tERROR\t%s\n", f.id, f.payload.c_str());
        break;
      case serve::FrameType::kPong:
        std::printf("%u\tPONG\n", f.id);
        break;
      case serve::FrameType::kBye:
        std::printf("%u\tBYE\n", f.id);
        break;
      case serve::FrameType::kStatsJson:
        std::printf("%s\n", f.payload.c_str());
        break;
      default:
        std::printf("%u\ttype=%u\n", f.id,
                    static_cast<unsigned>(f.type));
        break;
    }
  }
  return 0;
}

serve::Server* g_server = nullptr;
obs::AdminServer* g_admin = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
  if (g_admin != nullptr) g_admin->request_shutdown();
}

int cmd_admin_get(const std::string& endpoint, const std::string& path) {
  std::string body, error;
  const int status = obs::admin_http_get(endpoint, path, &body, &error);
  if (status < 0) {
    std::fprintf(stderr, "jsr_serve: --admin-get: %s\n", error.c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), stdout);
  if (status != 200) {
    std::fprintf(stderr, "jsr_serve: --admin-get: HTTP %d\n", status);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path, unix_path;
  bool stdio = false, want_tcp = false;
  std::uint64_t tcp_port = 0;
  std::size_t threads = 0, max_queue = 0;
  bool encode = false, decode = false, provenance = false, quit = false;
  std::string admin_spec, admin_unix;
  bool admin_get = false;
  std::uint64_t slow_ms = 0;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--model") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      model_path = v;
    } else if (std::strcmp(argv[i], "--stdio") == 0) {
      stdio = true;
    } else if (std::strcmp(argv[i], "--unix") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      unix_path = v;
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &tcp_port) || tcp_port > 65535) {
        return usage(argv[0]);
      }
      want_tcp = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &threads)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--max-queue") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &max_queue) || max_queue == 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--admin") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      admin_spec = v;
    } else if (std::strcmp(argv[i], "--admin-unix") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      admin_unix = v;
    } else if (std::strcmp(argv[i], "--admin-get") == 0) {
      admin_get = true;
    } else if (std::strcmp(argv[i], "--log-level") == 0) {
      const char* v = next();
      obs::LogLevel level{};
      if (v == nullptr || !obs::log_level_from_name(v, &level)) {
        return usage(argv[0]);
      }
      obs::set_log_level(level);
    } else if (std::strcmp(argv[i], "--slow-ms") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &slow_ms)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--encode") == 0) {
      encode = true;
    } else if (std::strcmp(argv[i], "--decode") == 0) {
      decode = true;
    } else if (std::strcmp(argv[i], "--provenance") == 0) {
      provenance = true;
    } else if (std::strcmp(argv[i], "--quit") == 0) {
      quit = true;
    } else if (argv[i][0] != '-') {
      files.emplace_back(argv[i]);
    } else {
      return usage(argv[0]);
    }
  }

  if (admin_get) {
    // `--admin-get ENDPOINT PATH`: the two bare operands.
    if (encode || decode || files.size() != 2) return usage(argv[0]);
    return cmd_admin_get(files[0], files[1]);
  }
  if (encode) {
    if (decode || files.empty()) return usage(argv[0]);
    return cmd_encode(files, provenance, quit);
  }
  if (decode) return cmd_decode();

  if (model_path.empty() || !files.empty()) return usage(argv[0]);
  const int modes = (stdio ? 1 : 0) + (unix_path.empty() ? 0 : 1) +
                    (want_tcp ? 1 : 0);
  if (modes != 1) return usage(argv[0]);
  if (!admin_spec.empty() && !admin_unix.empty()) return usage(argv[0]);

  try {
    core::ModelView model;
    model.map_file(model_path);
    serve::ServeOptions opts;
    opts.threads = threads;
    if (max_queue != 0) opts.max_queue = max_queue;
    opts.slow_ms = static_cast<double>(slow_ms);

    serve::register_build_info(model, model_path);

    serve::Server server(model, opts);

    // Admin telemetry plane, when asked for: /metrics, /healthz, /readyz,
    // /statusz, /tracez on its own listener, never sharing the frame fds.
    std::unique_ptr<obs::AdminServer> admin;
    if (!admin_spec.empty() || !admin_unix.empty()) {
      admin = std::make_unique<obs::AdminServer>();
      if (!admin_unix.empty()) {
        admin->listen_unix(admin_unix);
      } else {
        std::string addr, port_str = admin_spec;
        if (const std::size_t colon = admin_spec.rfind(':');
            colon != std::string::npos) {
          addr = admin_spec.substr(0, colon);
          port_str = admin_spec.substr(colon + 1);
        }
        std::uint64_t port = 0;
        if (!parse_u64(port_str, &port) || port > 65535) return usage(argv[0]);
        admin->listen_tcp(static_cast<std::uint16_t>(port), addr);
      }
      admin->set_ready_check([&server] { return server.ready(); });
      admin->set_status_fields([&server, &model,
                                &model_path](obs::JsonWriter& w) {
        const core::ArtifactInfo info = model.info();
        w.kv("model_path", model_path);
        w.kv("model_name", model.name());
        w.kv("model_format", "jsrm-mapped");
        w.kv("model_format_version",
             static_cast<std::uint64_t>(info.header.version));
        w.kv("lint_dim", static_cast<std::uint64_t>(info.header.lint_dim));
        w.kv("deobfuscate", model.deobfuscate());
        w.kv("queue_depth",
             static_cast<std::uint64_t>(server.batcher().queue_depth()));
        w.key("sections");
        w.begin_array();
        for (const auto& s : info.sections) w.value(s.name);
        w.end_array();
      });
      admin->start();
      // Port discovery for scripts (ephemeral --admin 0): stdout in socket
      // modes; stderr under --stdio, where stdout carries frames.
      if (admin->bound_port() != 0) {
        std::fprintf(stdio ? stderr : stdout, "admin 127.0.0.1:%u\n",
                     admin->bound_port());
        std::fflush(stdio ? stderr : stdout);
      }
      g_admin = admin.get();
    }

    g_server = &server;
    // Declared after `server` and `admin`, so on any exit from this scope —
    // return or exception unwinding — the globals are nulled *before* either
    // object is destroyed. Without this, an exception escaping run() would
    // destroy the server/admin while a late SIGTERM could still reach them
    // through the signal handler (use-after-free).
    struct SignalTargetGuard {
      ~SignalTargetGuard() {
        g_server = nullptr;
        g_admin = nullptr;
      }
    } signal_target_guard;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    const auto announce = [&](const std::string& endpoint) {
      obs::LogRecord(obs::LogLevel::kInfo, "serve.listening")
          .kv("endpoint", endpoint)
          .kv("model", model_path)
          .kv("format", "jsrm-mapped")
          .kv("deobfuscate", model.deobfuscate());
    };
    if (stdio) {
      announce("stdio");
      server.serve_fd(STDIN_FILENO, STDOUT_FILENO);
    } else if (!unix_path.empty()) {
      server.listen_unix(unix_path);
      announce("unix:" + unix_path);
      server.run();
    } else {
      server.listen_tcp(static_cast<std::uint16_t>(tcp_port));
      announce("tcp:127.0.0.1:" + std::to_string(server.bound_port()));
      server.run();
    }
    if (admin != nullptr) admin->stop();
  } catch (const std::exception& e) {
    obs::LogRecord(obs::LogLevel::kError, "serve.fatal").kv("what", e.what());
    std::fprintf(stderr, "jsr_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
