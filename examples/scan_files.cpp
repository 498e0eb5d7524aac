// File-scanning CLI: train a detector (with family classification) and scan
// JavaScript files from disk — the deployment shape the paper's scalability
// claim (RQ4) targets.
//
//   $ ./examples/scan_files file1.js file2.js ...
//   $ ./examples/scan_files --demo        # scan generated samples instead
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/family_classifier.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jsrev;

  // Collect scan targets.
  std::vector<std::pair<std::string, std::string>> targets;  // name, source
  bool demo = argc < 2 || std::strcmp(argv[1], "--demo") == 0;
  if (demo) {
    Rng rng(2026);
    for (int i = 0; i < 4; ++i) {
      std::string tag;
      targets.emplace_back("demo-benign-" + std::to_string(i),
                           dataset::generate_benign(rng, &tag));
      std::string family;
      targets.emplace_back("demo-" + family,
                           dataset::generate_malicious(rng, &family));
      targets.back().first = "demo-" + family + "-" + std::to_string(i);
    }
  } else {
    for (int i = 1; i < argc; ++i) {
      const std::string source = read_file(argv[i]);
      if (source.empty()) {
        std::fprintf(stderr, "warning: %s is empty or unreadable\n", argv[i]);
        continue;
      }
      targets.emplace_back(argv[i], source);
    }
  }
  if (targets.empty()) {
    std::fprintf(stderr, "usage: %s [--demo | file.js ...]\n", argv[0]);
    return 2;
  }

  // Map the cached artifact, or train and cache one (a mapped artifact keeps
  // repeat scans at millisecond startup).
  const char* cache_path = "/tmp/jsrevealer_model.jsrm";
  dataset::GeneratorConfig gc;
  gc.benign_count = 250;
  gc.malicious_count = 250;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  core::ModelView detector;
  try {
    detector.map_file(cache_path);
    std::fprintf(stderr, "mapped cached model from %s\n", cache_path);
  } catch (const std::exception&) {
    // No (valid) cache: train fresh.
    std::fprintf(stderr, "training detector...\n");
    core::JsRevealer trainer(core::Config{});
    trainer.train(corpus);
    try {
      trainer.save_artifact_file(cache_path);
      std::fprintf(stderr, "cached model at %s\n", cache_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: could not cache model: %s\n", e.what());
    }
    detector.from_buffer(trainer.save_artifact());
  }
  core::FamilyClassifier families;
  families.train(detector, corpus);

  // Scan.
  std::printf("%-36s %-10s %-16s %s\n", "file", "verdict", "family",
              "latency");
  for (const auto& [name, source] : targets) {
    Timer t;
    const int verdict = detector.classify(source);
    std::string family = "-";
    if (verdict == 1) {
      family = families.classify(detector, source);
      if (family.empty()) family = "unknown";
    }
    std::printf("%-36s %-10s %-16s %.1f ms\n", name.c_str(),
                verdict == 1 ? "MALICIOUS" : "benign", family.c_str(),
                t.elapsed_ms());
  }
  return 0;
}
