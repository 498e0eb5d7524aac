// jsr_model: model-artifact lifecycle CLI for the JSRM v4 format.
//
// Subcommands:
//   train --out M.jsrm [--scripts N] [--seed N] [--threads N] [--lint]
//       trains a JsRevealer on a generated corpus and writes the mmap-able
//       artifact (byte-identical at any --threads width).
//   inspect M.jsrm
//       prints the header, the section table (name, offset, size, checksum,
//       verification state), and per-section share of the file.
//   classify M.jsrm FILE.JS...
//       maps the artifact and classifies each file (0 = benign,
//       1 = malicious), exercising the exact zero-copy path a serving
//       process would run.
//
// Exit status: 0 = ok, 1 = operation failed, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "util/string_util.h"

namespace {

using namespace jsrev;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s train --out M.jsrm [--scripts N] [--seed N] [--threads N]\n"
      "          [--lint]\n"
      "       %s inspect M.jsrm\n"
      "       %s classify M.jsrm FILE.JS...\n",
      argv0, argv0, argv0);
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

int cmd_train(int argc, char** argv) {
  std::string out_path;
  std::uint64_t seed = 42;
  std::size_t scripts = 60, threads = 0;
  bool lint = false;
  for (int i = 2; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      out_path = v;
    } else if (std::strcmp(argv[i], "--scripts") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &scripts) || scripts == 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &threads)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &seed)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (out_path.empty()) return usage(argv[0]);

  dataset::GeneratorConfig gc;
  gc.seed = seed;
  gc.benign_count = scripts;
  gc.malicious_count = scripts;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::Config cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.lint_features = lint;
  core::JsRevealer det(cfg);
  det.train(corpus);

  det.save_artifact_file(out_path);
  std::printf("jsr_model: wrote artifact %s (%zu features)\n",
              out_path.c_str(), det.feature_count());
  return 0;
}

int cmd_inspect(const std::string& path) {
  core::ModelView view;
  try {
    view.map_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsr_model: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const core::ArtifactInfo info = view.info();
  const auto& h = info.header;
  std::printf("artifact %s\n", path.c_str());
  std::printf("  version %u, %llu bytes, %u sections\n", h.version,
              static_cast<unsigned long long>(h.file_size), h.section_count);
  std::printf(
      "  embedding_dim=%u feature_dim=%u lint_dim=%u clusters_removed=%u\n",
      h.embedding_dim, h.feature_dim, h.lint_dim, h.clusters_removed);
  std::printf("  vocab_size=%u table_size=%u n_trees=%u path=%u/%u flags=%#x\n",
              h.vocab_size, h.vocab_table_size, h.n_trees, h.path_max_length,
              h.path_max_width, h.flags);
  std::printf("  %-26s %10s %12s %18s  %s\n", "section", "offset", "bytes",
              "fnv1a64", "state");
  for (const core::ArtifactSectionInfo& s : info.sections) {
    std::printf("  %-26s %10llu %12llu %018llx  %s\n", s.name,
                static_cast<unsigned long long>(s.rec.offset),
                static_cast<unsigned long long>(s.rec.size),
                static_cast<unsigned long long>(s.rec.checksum),
                s.checksum_ok ? "ok" : "CORRUPT");
  }
  return 0;
}

int cmd_classify(const std::string& model_path,
                 const std::vector<std::string>& files) {
  core::ModelView view;
  try {
    view.map_file(model_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jsr_model: %s: %s\n", model_path.c_str(), e.what());
    return 1;
  }
  int rc = 0;
  for (const std::string& file : files) {
    std::string source;
    if (!read_file(file, &source)) {
      std::fprintf(stderr, "jsr_model: cannot read %s\n", file.c_str());
      rc = 1;
      continue;
    }
    std::printf("%d\t%s\n", view.classify(source), file.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "train") == 0) {
    return cmd_train(argc, argv);
  }
  if (std::strcmp(cmd, "inspect") == 0) {
    if (argc != 3) return usage(argv[0]);
    return cmd_inspect(argv[2]);
  }
  if (std::strcmp(cmd, "classify") == 0) {
    if (argc < 4) return usage(argv[0]);
    return cmd_classify(argv[2],
                        std::vector<std::string>(argv + 3, argv + argc));
  }
  return usage(argv[0]);
}
