// Shared scale knobs for the bench binaries.
//
// Defaults are sized so the full `for b in build/bench/*` sweep finishes in
// tens of minutes on a laptop-class CPU. The paper's full protocol
// (20k+20k training samples, 5 repeats) can be approached by raising the
// environment variables:
//   JSREV_BENCH_CORPUS  — generated samples per class      (default 280)
//   JSREV_BENCH_TRAIN   — training samples per class       (default 190)
//   JSREV_BENCH_REPEATS — protocol repetitions to average  (default 2)
#pragma once

#include <cstdlib>
#include <string>

#include "harness.h"

namespace jsrev::bench {

inline std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

inline HarnessConfig default_harness_config() {
  HarnessConfig cfg;
  cfg.benign_count = env_or("JSREV_BENCH_CORPUS", 280);
  cfg.malicious_count = cfg.benign_count;
  cfg.train_per_class = env_or("JSREV_BENCH_TRAIN", 190);
  cfg.repeats = static_cast<int>(env_or("JSREV_BENCH_REPEATS", 2));
  return cfg;
}

}  // namespace jsrev::bench
