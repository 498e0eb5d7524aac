#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "dataset/generator.h"
#include "js/parser.h"
#include "js/printer.h"
#include "obfuscators/obfuscator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using jsrev::Rng;
using jsrev::dataset::Corpus;
using jsrev::dataset::GeneratorConfig;

Corpus generate(std::uint64_t seed, std::size_t per_class) {
  GeneratorConfig gc;
  gc.seed = seed;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  return jsrev::dataset::generate_corpus(gc);
}

// Generator scripts, shuffled, with every second one passed through the four
// obfuscators in turn: the paper's traffic, plain and obfuscated.
std::vector<Request> mixed_scripts(std::uint64_t seed, std::size_t per_class) {
  Corpus c = generate(seed, per_class);
  Rng rng(seed ^ 0x5eedf00dULL);
  rng.shuffle(c.samples);
  std::vector<Request> out;
  out.reserve(c.samples.size());
  std::size_t obf_turn = 0;
  for (std::size_t i = 0; i < c.samples.size(); ++i) {
    Request r;
    r.label = c.samples[i].label;
    r.source = std::move(c.samples[i].source);
    if (i % 2 == 1) {
      const auto kind =
          jsrev::obf::kAllObfuscators[obf_turn++ % std::size(
                                          jsrev::obf::kAllObfuscators)];
      r.source = jsrev::obf::make_obfuscator(kind)->obfuscate(r.source,
                                                              seed + i);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Draws `count` requests from `pool`, one from the middle of each of `count`
// equal runs of the pool sorted by size, so the draw's size profile follows
// the pool's.
std::vector<Request> stratified(std::vector<Request> pool, std::size_t count,
                                Rng& rng) {
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Request& a, const Request& b) {
                     return a.source.size() < b.source.size();
                   });
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(pool[(2 * k + 1) * pool.size() / (2 * count)]);
  }
  rng.shuffle(out);
  return out;
}

std::string ident(Rng& rng) {
  static const char* const kNames[] = {"a", "b", "x", "y", "tmp", "val",
                                       "node", "res", "ctx", "buf"};
  return std::string(kNames[rng.below(std::size(kNames))]) +
         std::to_string(rng.below(50));
}

// --- ROADMAP item-1 growth families, each grown to about `bytes` ----------

// Isolated deep leaves: no two leaves are within path length of each other.
std::string deep_leaves(Rng& rng, std::size_t bytes) {
  std::string s;
  while (s.size() < bytes) {
    s += "[[[[[[[[[[[[[" + ident(rng) + "]]]]]]]]]]]]];\n";
  }
  return s;
}

std::string member_chains(Rng& rng, std::size_t bytes) {
  std::string s;
  while (s.size() < bytes) {
    s += ident(rng);
    const std::size_t len = 40 + rng.below(40);
    for (std::size_t i = 0; i < len; ++i) s += "." + ident(rng);
    s += ";\n";
  }
  return s;
}

std::string wide_objects(Rng& rng, std::size_t bytes) {
  std::string s;
  int n = 0;
  while (s.size() < bytes) {
    s += "var cfg" + std::to_string(n++) + " = {";
    const std::size_t keys = 150 + rng.below(100);
    for (std::size_t k = 0; k < keys; ++k) {
      s += (k == 0 ? "" : ", ") + std::string("k") + std::to_string(k) +
           ": " +
           (rng.chance(0.5) ? std::to_string(rng.below(1000))
                            : "\"" + ident(rng) + "\"");
    }
    s += "};\n";
  }
  return s;
}

// The javascript-obfuscator shape deob's inline-indirection pass targets: a
// string table, an offset decoder, and every use routed through it.
std::string string_array_decoder(Rng& rng, std::size_t bytes) {
  const std::size_t n = 40 + bytes / 64;
  std::string s = "var _0xtab = [";
  for (std::size_t i = 0; i < n; ++i) {
    s += (i == 0 ? "'" : ", '") + ident(rng) + "_" + std::to_string(i) + "'";
  }
  s += "];\nfunction _0xdec(i) { i = i - 0x0; var v = _0xtab[i]; return v; }\n";
  while (s.size() < bytes) {
    s += "window[_0xdec(" + std::to_string(rng.below(n)) + ")](_0xdec(" +
         std::to_string(rng.below(n)) + "), _0xdec(" +
         std::to_string(rng.below(n)) + "));\n";
  }
  return s;
}

// Control-flow-flattening dispatcher with many cases.
std::string switch_dispatch(Rng& rng, std::size_t bytes) {
  std::string s;
  int block = 0;
  while (s.size() < bytes) {
    const std::size_t cases = 60 + rng.below(60);
    std::string order;
    for (std::size_t i = 0; i < cases; ++i) {
      order += (i == 0 ? "" : "|") + std::to_string((i * 7 + 3) % cases);
    }
    const std::string b = std::to_string(block++);
    s += "var _ord" + b + " = '" + order + "'.split('|'), _i" + b +
         " = 0;\nwhile (true) {\n  switch (_ord" + b + "[_i" + b + "++]) {\n";
    for (std::size_t c = 0; c < cases; ++c) {
      s += "    case '" + std::to_string(c) + "': " + ident(rng) + " = " +
           ident(rng) + " + " + std::to_string(rng.below(100)) +
           "; continue;\n";
    }
    s += "  }\n  break;\n}\n";
  }
  return s;
}

using Family = std::string (*)(Rng&, std::size_t);
constexpr Family kFamilies[] = {deep_leaves, member_chains, wide_objects,
                                string_array_decoder, switch_dispatch};

// Paper-sized files: generator scripts of one label concatenated up to a
// size from a fixed ladder (mean 64 KB, Table VIII's 62 KB average), with a
// quarter of each file taken by one growth family, in turn.
std::vector<Request> large_files(std::uint64_t seed, std::size_t count) {
  static const std::size_t kKb[] = {32, 48, 64, 80, 96};
  const Corpus pool = generate(seed, 60);
  std::vector<std::vector<const std::string*>> by_label(2);
  for (const auto& s : pool.samples) by_label[s.label].push_back(&s.source);
  Rng rng(seed ^ 0x1a26e5ULL);
  std::vector<Request> out;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.label = static_cast<int>(i % 2);
    const std::size_t target = kKb[i % std::size(kKb)] * 1024;
    r.source = kFamilies[i % std::size(kFamilies)](rng, target / 4);
    const auto& scripts = by_label[r.label];
    while (r.source.size() < target) {
      r.source += "\n;" + *scripts[rng.below(scripts.size())];
    }
    out.push_back(std::move(r));
  }
  return out;
}

bool parses(const std::string& src) {
  try {
    (void)jsrev::js::parse(src);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// Sub-512-byte single statements cut from mixed scripts; about one in ten is
// a truncated fragment that does not parse, and one in ten asks for
// provenance.
std::vector<Request> small_frames(std::uint64_t seed, std::size_t count) {
  const std::vector<Request> scripts = mixed_scripts(seed, count / 8);
  std::vector<Request> pieces;
  for (const Request& s : scripts) {
    jsrev::js::Ast ast;
    try {
      ast = jsrev::js::parse(s.source);
    } catch (const std::exception&) {
      continue;
    }
    for (const jsrev::js::Node* stmt : ast.root->children) {
      std::string text =
          jsrev::js::print(stmt, jsrev::js::PrintStyle::kMinified);
      if (text.size() < 8 || text.size() >= 512) continue;
      pieces.push_back({std::move(text), s.label, false});
    }
  }
  if (pieces.size() < 2) throw std::runtime_error("small_frames: no statements");
  Rng rng(seed ^ 0x54a11ULL);
  pieces = stratified(std::move(pieces), std::min(count, pieces.size() / 2),
                      rng);
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; out.size() < count; ++i) {
    Request r = pieces[i % pieces.size()];
    if (out.size() % 10 == 7) {
      const std::size_t cut = r.source.size() / 3 + rng.below(r.source.size() / 3);
      std::string fragment = r.source.substr(0, cut);
      if (parses(fragment)) fragment += "(";
      if (parses(fragment)) continue;
      r.source = std::move(fragment);
    }
    r.want_provenance = out.size() % 10 == 3;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  Workload w;
  w.name = name;
  // The model under test is the same in every run: its training corpus comes
  // from a fixed seed. So does the script set each workload serves; the
  // run's seed draws the order the scripts are sent in. Drawn per seed, the
  // script set moved corpus_mix's low.p50_ms by 40% between two seeds, far
  // more than outside load moved one seed's runs.
  constexpr std::uint64_t train_seed = 2023;
  constexpr std::uint64_t traffic_seed = 2024 * 1000003ULL + 29;
  w.config.seed = train_seed;
  if (name == "corpus_mix") {
    w.train = generate(train_seed, tiny ? 12 : 30);
    const std::size_t n = tiny ? 12 : 120;
    Rng rng(traffic_seed);
    w.requests = stratified(mixed_scripts(traffic_seed, 2 * n), n, rng);
  } else if (name == "large_files") {
    w.config.deobfuscate = true;
    w.config.lint_features = true;
    w.train = generate(train_seed, tiny ? 12 : 30);
    w.requests = large_files(traffic_seed, tiny ? 5 : 25);
  } else if (name == "small_frames") {
    w.train = generate(train_seed, tiny ? 12 : 30);
    w.requests = small_frames(traffic_seed, tiny ? 60 : 2000);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  // The send order: kOrderCycles seeded permutations back to back. A heavy
  // request delays the ones sent just after it; fresh permutations keep one
  // unlucky ordering from repeating in every cycle.
  constexpr int kOrderCycles = 8;
  Rng rng(seed * 1000003ULL + 29);
  for (int c = 0; c < kOrderCycles; ++c) {
    std::vector<std::size_t> perm(w.requests.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.shuffle(perm);
    w.order.insert(w.order.end(), perm.begin(), perm.end());
  }
  return w;
}

std::uint64_t digest(const Workload& w) {
  std::uint64_t h = jsrev::fnv1a64_begin();
  const auto mix = [&h](std::string_view bytes) {
    const std::uint64_t len = bytes.size();
    h = jsrev::fnv1a64_step(
        h, std::string_view(reinterpret_cast<const char*>(&len), sizeof len));
    h = jsrev::fnv1a64_step(h, bytes);
  };
  for (const auto& s : w.train.samples) {
    mix(s.source);
    mix(std::to_string(s.label));
  }
  for (const Request& r : w.requests) {
    mix(r.source);
    mix(std::to_string(r.label) + (r.want_provenance ? "p" : "-"));
  }
  for (const std::size_t i : w.order) mix(std::to_string(i));
  return h;
}

}  // namespace perfbench
