// jsr_fuzz: seeded mutational fuzzer / differential harness for the JS
// frontend. No external fuzzing engine: the seed corpus comes from the
// dataset generator (benign + malicious genres, plus variants of each
// script through all four obfuscator models), mutations are driven by
// util::Rng, and every run is bit-reproducible from --seed.
//
// Six oracles are checked per input:
//   O1 never-crash: lex→parse terminates with a tree or a structured
//      LexError/ParseError — any other exception (or a sanitizer abort,
//      when built with JSR_SANITIZE=ON) is a finding;
//   O2 round-trip: for input that parses, print→reparse succeeds and
//      yields a structurally equal AST (js::ast_equal), in both pretty and
//      minified styles;
//   O3 obfuscate: obfuscating parseable input yields output that still
//      parses (the path extractors consume obfuscator output downstream);
//   O4 lint-total: Linter::lint never throws, parse failure included, and
//      its parse-failed flag agrees with the direct parse outcome;
//   O5 deob: for input that parses, deobfuscate_source never throws, its
//      output parses, and a second run is a no-op fixpoint (idempotence)
//      that computes exactly one scope analysis. Each pass also runs once on
//      a fresh parse: one that reports zero changes must leave the tree's
//      fingerprint unchanged (the invariant deob::PassContext's cached scope
//      analysis rests on).
//      Before the mutation loop a verdict sweep additionally checks that a
//      small JsRevealer running behind Config::deobfuscate classifies
//      obf(s) exactly like s for clean generator seeds.
//   O6 artifact-robust: truncations and bit flips over a valid JSRM model
//      artifact must surface as ser::ModelFormatError from
//      ModelView::from_buffer — never a crash — and a mutant that still
//      loads (mutation landed in padding) must classify probe scripts
//      exactly like the pristine artifact, never silently differently.
//      Resealed mutants — one payload bit flipped, then the section and
//      header checksums recomputed so the flip reaches the per-record
//      checks — must either raise ModelFormatError or load and featurize +
//      classify every probe with no crash and no exception (the verdict may
//      change: the parameters did). Runs once up front, like the O5
//      verdict sweep.
//   O7 paths: for input that parses, under both the enhanced-AST and the
//      regular-AST path config, every enumerated path's streamed key hash
//      equals fnv1a64 of its rendered key, its id in the O6 model's
//      vocabulary (lookup_all) equals the id of its rendered PathContext,
//      and the enumeration's steps per leaf and path stay under the cost
//      gate's constant (tests/paths_test.cpp).
//
// Usage:
//   $ jsr_fuzz --seed 1 --iters 2000            # CI smoke configuration
//   $ jsr_fuzz --seed 7 --iters 100000 --quiet  # longer local run
//
// Writes throughput + outcome counters to BENCH_fuzz.json (cwd) unless
// --no-json. Exit status: 0 = all oracles held, 1 = at least one finding,
// 2 = usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/script_analysis.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "deob/deob.h"
#include "js/ast_compare.h"
#include "js/lexer.h"
#include "js/parser.h"
#include "js/printer.h"
#include "lint/linter.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "paths/path_extraction.h"
#include "paths/vocab.h"
#include "util/hash.h"
#include "util/serialize.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace jsrev;

constexpr std::size_t kMaxInputBytes = 1u << 16;  // cap mutation growth

// O7's ceiling on paths.pairs_visited per (leaf + path): the cost gate's
// constant in tests/paths_test.cpp.
constexpr double kMaxStepsPerItem = 4.0;

// Fragments the mutator splices in: escape-sequence and delimiter edge
// cases the grammar is most likely to mishandle.
constexpr const char* kDictionary[] = {
    "\"\\x00\"", "\"\\0\"",   "\\u0041", "\\x4",   "\"\\\r\n\"", "0x",
    "0b1",       "/*",        "*/",      "//",     "`",          "${",
    "=>",        "...",       "new ",    "typeof ", "function",  "(((",
    ")))",       "{{{",       "}}}",     "[",      "]",          "'\\01'",
    "\\",        "\r",        "\\0",     "e+",     ".5.",        "in ",
    "with(",     "label:",    ";;",      "?.:",    "/[/]/g",     "\"",
};

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t iters = 2000;
  std::size_t corpus = 48;
  bool quiet = false;
  bool write_json = true;
  std::string json_path = "BENCH_fuzz.json";
};

struct Stats {
  std::uint64_t execs = 0;
  std::uint64_t parse_ok = 0;
  std::uint64_t parse_fail = 0;
  std::uint64_t o2_checked = 0;
  std::uint64_t o3_checked = 0;
  std::uint64_t o5_checked = 0;
  std::uint64_t o5_verdicts = 0;
  std::uint64_t o5_pass_checks = 0;  // zero-change pass runs compared
  std::uint64_t o6_checked = 0;
  std::uint64_t o7_checked = 0;  // (input, path config) pairs
  std::uint64_t o7_paths = 0;    // paths compared
  double o7_max_steps = 0.0;     // largest steps per (leaf + path) seen
  std::uint64_t failures = 0;

  /// Mirrors the run's outcome counters into the process-wide metrics
  /// registry (fuzz.execs / fuzz.parse.{ok,fail} / fuzz.findings), so a
  /// metrics export taken after a fuzz run carries its iteration stats.
  void publish() const {
    auto& reg = jsrev::obs::metrics();
    reg.counter("fuzz.execs")->add(execs);
    reg.counter("fuzz.parse.ok")->add(parse_ok);
    reg.counter("fuzz.parse.fail")->add(parse_fail);
    reg.counter("fuzz.oracle.roundtrip_checked")->add(o2_checked);
    reg.counter("fuzz.oracle.obfuscate_checked")->add(o3_checked);
    reg.counter("fuzz.oracle.deob_checked")->add(o5_checked);
    reg.counter("fuzz.oracle.deob_verdicts_checked")->add(o5_verdicts);
    reg.counter("fuzz.oracle.deob_pass_checked")->add(o5_pass_checks);
    reg.counter("fuzz.oracle.artifact_checked")->add(o6_checked);
    reg.counter("fuzz.oracle.paths_checked")->add(o7_checked);
    reg.counter("fuzz.findings")->add(failures);
  }
};

std::string printable(const std::string& s, std::size_t max_bytes = 100000) {
  std::string out;
  for (std::size_t i = 0; i < s.size() && i < max_bytes; ++i) {
    const unsigned char u = static_cast<unsigned char>(s[i]);
    if (u >= 0x20 && u < 0x7f) {
      out += static_cast<char>(u);
    } else {
      char buf[6];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  if (s.size() > max_bytes) out += "...";
  return out;
}

void report_failure(Stats& stats, const char* oracle, const std::string& why,
                    const std::string& input) {
  ++stats.failures;
  std::fprintf(stderr, "FAIL %s: %s\n  input (%zu bytes): %s\n", oracle,
               why.c_str(), input.size(), printable(input).c_str());
}

// One random mutation. Mutations may produce any byte sequence — the
// oracles only require structured failure, not acceptance.
std::string mutate(Rng& rng, std::string s) {
  if (s.empty()) s = ";";
  switch (rng.below(8)) {
    case 0: {  // flip one byte
      s[rng.below(s.size())] = static_cast<char>(rng.below(256));
      break;
    }
    case 1: {  // insert a random byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(s.size() + 1)),
               static_cast<char>(rng.below(256)));
      break;
    }
    case 2: {  // delete a span
      const std::size_t at = rng.below(s.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                      s.size() - at, 32));
      s.erase(at, len);
      break;
    }
    case 3: {  // duplicate a span
      const std::size_t at = rng.below(s.size());
      const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                      s.size() - at, 64));
      s.insert(at, s.substr(at, len));
      break;
    }
    case 4: {  // truncate (models mid-transfer cutoffs)
      s.resize(rng.below(s.size()) + 1);
      break;
    }
    case 5: {  // splice a dictionary fragment
      const std::size_t di =
          rng.below(sizeof kDictionary / sizeof kDictionary[0]);
      s.insert(rng.below(s.size() + 1), kDictionary[di]);
      break;
    }
    case 6: {  // wrap in nesting (exercises the depth guard)
      const std::size_t depth = 1 + rng.below(64);
      const bool parens = rng.chance(0.5);
      const std::string open(depth, parens ? '(' : '{');
      const std::string close(depth, parens ? ')' : '}');
      s = open + s + close;
      break;
    }
    default: {  // swap two spans' order
      const std::size_t a = rng.below(s.size());
      const std::size_t b = rng.below(s.size());
      std::swap(s[a], s[b]);
      break;
    }
  }
  if (s.size() > kMaxInputBytes) s.resize(kMaxInputBytes);
  return s;
}

std::vector<std::string> build_seed_corpus(const Options& opt) {
  std::vector<std::string> corpus;
  Rng rng(opt.seed);
  for (std::size_t i = 0; i < opt.corpus; ++i) {
    corpus.push_back(i % 2 == 0 ? dataset::generate_benign(rng)
                                : dataset::generate_malicious(rng));
  }
  // Obfuscated variants: machine-shaped trees stress the printer harder
  // than generator output does.
  const std::size_t base = corpus.size();
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto obfuscator = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < base; i += 7) {
      corpus.push_back(obfuscator->obfuscate(corpus[i], rng()));
    }
  }
  for (std::size_t i = 0; i < base; i += 5) {
    corpus.push_back(obf::minify(corpus[i]));
  }
  // Hand-picked frontend edge cases as extra seeds.
  corpus.push_back("var s = \"a\\x00b\\x07c\";");
  corpus.push_back("var t = \"line\\\r\ncontinued\";");
  corpus.push_back("for (var i in {a: 1}) i++;");
  corpus.push_back("x = y / 2; r = /re[/]x/g;");
  return corpus;
}

/// O5 verdict sweep: a small JsRevealer trained and classifying behind
/// Config::deobfuscate must give obf(s) the verdict of s for clean generator
/// seeds — the end-to-end guarantee the normalizer exists to provide. Runs
/// once up front (training a detector per iteration would swamp the fuzz
/// loop); the per-iteration leg of O5 covers mutated inputs.
void run_verdict_sweep(const Options& opt, Stats& stats) {
  dataset::GeneratorConfig gc;
  gc.seed = opt.seed ^ 0x5eedf00dULL;
  gc.benign_count = 24;
  gc.malicious_count = 24;
  const dataset::Corpus train = dataset::generate_corpus(gc);

  core::Config cfg;
  cfg.embed_epochs = 4;
  cfg.embedding_dim = 32;
  cfg.deobfuscate = true;
  core::JsRevealer detector(cfg);
  detector.train(train);

  gc.seed = opt.seed ^ 0xc1ea11ULL;
  gc.benign_count = 6;
  gc.malicious_count = 6;
  gc.apply_wild_obfuscation = false;  // the baseline must be the plain form
  const dataset::Corpus clean = dataset::generate_corpus(gc);

  Rng rng(opt.seed ^ 0x0b5eedULL);
  for (const auto& sample : clean.samples) {
    const int plain = detector.classify(sample.source);
    for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
      ++stats.o5_verdicts;
      const auto obfuscator = obf::make_obfuscator(kind);
      const int got = detector.classify(obfuscator->obfuscate(
          sample.source, static_cast<std::uint32_t>(rng())));
      if (got != plain) {
        report_failure(stats, "O5-deob-verdict",
                       obfuscator->name() + " verdict " + std::to_string(got) +
                           " != plain verdict " + std::to_string(plain),
                       sample.source);
      }
    }
  }
}

/// O6 artifact-robustness sweep: mutate a valid JSRM artifact and require
/// ModelView::from_buffer to either reject it with ser::ModelFormatError or
/// keep classifying exactly like the pristine artifact (a mutation that only
/// touches alignment padding changes nothing observable). Any other
/// exception, a crash, or a silent verdict change is a finding. A resealed
/// mutant that loads may change verdicts but must featurize and classify
/// every probe without an exception. Returns the pristine artifact (O7
/// probes its vocabulary).
std::vector<std::uint8_t> run_artifact_sweep(const Options& opt,
                                             Stats& stats) {
  dataset::GeneratorConfig gc;
  gc.seed = opt.seed ^ 0xa271f0ULL;
  gc.benign_count = 20;
  gc.malicious_count = 20;
  const dataset::Corpus train = dataset::generate_corpus(gc);

  core::Config cfg;
  cfg.embed_epochs = 4;
  cfg.embedding_dim = 32;
  core::JsRevealer detector(cfg);
  detector.train(train);
  const std::vector<std::uint8_t> artifact = detector.save_artifact();

  // Probe scripts + the trainer's verdicts as the baseline.
  gc.seed = opt.seed ^ 0x9e0be5ULL;
  gc.benign_count = 3;
  gc.malicious_count = 3;
  const dataset::Corpus probes = dataset::generate_corpus(gc);
  std::vector<int> baseline;
  for (const auto& s : probes.samples) {
    baseline.push_back(detector.classify(s.source));
  }

  // The pristine artifact itself must load and agree with the trainer.
  {
    ++stats.o6_checked;
    core::ModelView view;
    bool ok = true;
    try {
      view.from_buffer(artifact);
    } catch (const std::exception& e) {
      ok = false;
      report_failure(stats, "O6-artifact",
                     std::string("pristine artifact rejected: ") + e.what(),
                     "<artifact>");
    }
    if (ok) {
      for (std::size_t i = 0; i < probes.samples.size(); ++i) {
        if (view.classify(probes.samples[i].source) != baseline[i]) {
          report_failure(stats, "O6-artifact",
                         "mapped verdict differs from trainer verdict on "
                         "probe " +
                             std::to_string(i),
                         probes.samples[i].source);
        }
      }
    }
  }

  std::vector<core::fmt::SectionRec> payloads;
  for (const core::ArtifactSectionInfo& s : detector.info().sections) {
    if (s.rec.size != 0) payloads.push_back(s.rec);
  }

  Rng rng(opt.seed ^ 0x6a57ULL);
  const auto check_mutant = [&](std::vector<std::uint8_t> mutant,
                                const char* what, bool resealed) {
    ++stats.o6_checked;
    core::ModelView view;
    try {
      view.from_buffer(std::move(mutant));
    } catch (const ser::ModelFormatError&) {
      return;  // structured rejection: exactly the contract
    } catch (const std::exception& e) {
      report_failure(stats, "O6-artifact",
                     std::string(what) + " raised a non-ModelFormatError: " +
                         e.what(),
                     "<artifact>");
      return;
    }
    // Still loads: an unsealed mutation must be behaviorally invisible, a
    // resealed one must still featurize and classify every probe.
    for (std::size_t i = 0; i < probes.samples.size(); ++i) {
      int verdict = 1;
      try {
        (void)view.featurize(probes.samples[i].source);
        verdict = view.classify(probes.samples[i].source);
      } catch (const std::exception& e) {
        report_failure(stats, "O6-artifact",
                       std::string(what) + " loaded but probe " +
                           std::to_string(i) + " raised: " + e.what(),
                       probes.samples[i].source);
        return;
      }
      if (!resealed && verdict != baseline[i]) {
        report_failure(stats, "O6-artifact",
                       std::string(what) +
                           " loaded but silently changed the verdict of "
                           "probe " +
                           std::to_string(i),
                       probes.samples[i].source);
        return;
      }
    }
  };

  for (int round = 0; round < 48; ++round) {
    // Truncation (mid-transfer cutoff): every prefix length is fair game.
    std::vector<std::uint8_t> cut = artifact;
    cut.resize(rng.below(artifact.size()));
    check_mutant(std::move(cut), "truncation", false);

    // Single bit flip anywhere in the file.
    std::vector<std::uint8_t> flipped = artifact;
    const std::size_t at = rng.below(flipped.size());
    flipped[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    check_mutant(std::move(flipped), "bit flip", false);

    // Single bit flip in one non-empty section's payload, resealed.
    const core::fmt::SectionRec& rec =
        payloads[rng.below(payloads.size())];
    std::vector<std::uint8_t> resealed = artifact;
    resealed[rec.offset + rng.below(rec.size)] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    core::fmt::seal(resealed.data());
    check_mutant(std::move(resealed), "resealed payload bit flip", true);
  }
  return artifact;
}

/// O5's pass leg: each pass once on a fresh parse of `input`. A pass that
/// reports zero changes must leave the tree's fingerprint as it was.
void check_passes(const std::string& input, const js::ParseLimits& limits,
                  const std::vector<std::unique_ptr<deob::Pass>>& passes,
                  Stats& stats) {
  for (const auto& pass : passes) {
    js::Ast ast = js::parse(input, limits);
    deob::PassContext ctx(ast);
    const std::uint64_t before = js::ast_fingerprint(ast.root);
    if (pass->run(ctx) != 0) continue;
    ++stats.o5_pass_checks;
    if (js::ast_fingerprint(ast.root) != before) {
      report_failure(stats, "O5-deob-pass",
                     std::string(pass->name()) +
                         " reported no change but changed the tree",
                     input);
    }
  }
}

/// O7 over one parsed input: streamed path keys agree with rendered ones,
/// and the enumeration's cost stays linear.
void check_paths(const std::string& input, const js::ParseLimits& limits,
                 const paths::PathVocabView& vocab, Stats& stats) {
  try {
    const analysis::ScriptAnalysis sa(input, limits);
    for (const bool use_dataflow : {true, false}) {
      ++stats.o7_checked;
      paths::PathConfig cfg;
      cfg.use_dataflow = use_dataflow;
      const paths::PathSet set = paths::enumerate_paths(
          sa.root(), use_dataflow ? &sa.dataflow() : nullptr, cfg);
      const std::vector<std::int32_t> ids = vocab.lookup_all(set);
      const char* mode = use_dataflow ? "enhanced AST" : "regular AST";
      for (std::size_t k = 0; k < set.size(); ++k) {
        ++stats.o7_paths;
        const paths::PathContext pc = set.context(k);
        if (set.hash(k) != fnv1a64(pc.key())) {
          report_failure(stats, "O7-paths",
                         std::string(mode) + ": streamed hash differs for " +
                             printable(pc.key()),
                         input);
          return;
        }
        const std::int32_t want = vocab.lookup(pc);
        if (ids[k] != want) {
          report_failure(stats, "O7-paths",
                         std::string(mode) + ": record id differs from " +
                             "the rendered key's for " + printable(pc.key()),
                         input);
          return;
        }
      }
      const double items =
          static_cast<double>(set.leaves().size() + set.size());
      const double steps = static_cast<double>(set.pairs_visited());
      if (items > 0) {
        stats.o7_max_steps = std::max(stats.o7_max_steps, steps / items);
      }
      if (steps > kMaxStepsPerItem * items) {
        report_failure(stats, "O7-paths",
                       std::string(mode) + ": " +
                           std::to_string(set.pairs_visited()) +
                           " enumeration steps for " +
                           std::to_string(set.leaves().size()) +
                           " leaves and " + std::to_string(set.size()) +
                           " paths",
                       input);
        return;
      }
    }
  } catch (const std::exception& e) {
    report_failure(stats, "O7-paths", std::string("threw: ") + e.what(),
                   input);
  }
}

int run(const Options& opt) {
  const std::vector<std::string> corpus = build_seed_corpus(opt);
  std::vector<std::unique_ptr<obf::Obfuscator>> obfuscators;
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    obfuscators.push_back(obf::make_obfuscator(kind));
  }
  const lint::Linter linter;
  const std::vector<std::unique_ptr<deob::Pass>> passes =
      deob::default_passes();
  const js::ParseLimits limits;  // library defaults — what production sees
  Stats stats;
  Timer wall;

  run_verdict_sweep(opt, stats);
  if (!opt.quiet) {
    std::printf("  O5 verdict sweep: %llu checks, %llu findings\n",
                static_cast<unsigned long long>(stats.o5_verdicts),
                static_cast<unsigned long long>(stats.failures));
  }
  core::ModelView o6_model;
  o6_model.from_buffer(run_artifact_sweep(opt, stats));
  if (!opt.quiet) {
    std::printf("  O6 artifact sweep: %llu checks, %llu findings\n",
                static_cast<unsigned long long>(stats.o6_checked),
                static_cast<unsigned long long>(stats.failures));
  }

  for (std::uint64_t iter = 0; iter < opt.iters; ++iter) {
    // Per-iteration generator derived from (seed, iter) only, so any
    // failing iteration reproduces in isolation.
    Rng rng(hash_combine(opt.seed, iter + 1));
    std::string input = corpus[rng.below(corpus.size())];
    const std::size_t n_mut = 1 + rng.below(4);
    for (std::size_t m = 0; m < n_mut; ++m) input = mutate(rng, input);
    ++stats.execs;

    // --- O1: lex→parse fails as a value or not at all -----------------
    bool parsed = false;
    js::Ast ast;
    try {
      ast = js::parse(input, limits);
      parsed = true;
    } catch (const js::LexError&) {
    } catch (const js::ParseError&) {
    } catch (const std::exception& e) {
      report_failure(stats, "O1-never-crash",
                     std::string("unexpected exception: ") + e.what(), input);
    }
    if (parsed) {
      ++stats.parse_ok;
    } else {
      ++stats.parse_fail;
    }

    if (parsed) {
      // --- O2: print→reparse is a structural fixed point --------------
      ++stats.o2_checked;
      for (const js::PrintStyle style :
           {js::PrintStyle::kPretty, js::PrintStyle::kMinified}) {
        const std::string printed = js::print(ast.root, style);
        try {
          const js::Ast reparsed = js::parse(printed, limits);
          if (!js::ast_equal(ast.root, reparsed.root)) {
            report_failure(stats, "O2-round-trip",
                           "reparsed AST differs structurally; printed: " +
                               printable(printed),
                           input);
          }
        } catch (const std::exception& e) {
          report_failure(stats, "O2-round-trip",
                         std::string("printed form no longer parses (") +
                             e.what() + "); printed: " + printable(printed),
                         input);
        }
      }

      // --- O3: obfuscator output still parses --------------------------
      ++stats.o3_checked;
      const auto& obfuscator = obfuscators[iter % obfuscators.size()];
      try {
        const std::string transformed = obfuscator->obfuscate(input, rng());
        if (!js::parses_ok(transformed, limits)) {
          report_failure(stats, "O3-obfuscate",
                         obfuscator->name() + " output no longer parses",
                         input);
        }
      } catch (const std::exception& e) {
        report_failure(stats, "O3-obfuscate",
                       obfuscator->name() + " threw: " + e.what(), input);
      }

      // --- O5: deobfuscation is total, parseable, idempotent -----------
      ++stats.o5_checked;
      try {
        const deob::SourceResult once = deob::deobfuscate_source(input, limits);
        if (!once.parse_ok) {
          report_failure(stats, "O5-deob",
                         "input parses but deobfuscate_source failed: " +
                             once.error,
                         input);
        } else if (!js::parses_ok(once.source, limits)) {
          report_failure(stats, "O5-deob",
                         "normalized source no longer parses; normalized: " +
                             printable(once.source),
                         input);
        } else {
          const deob::SourceResult twice =
              deob::deobfuscate_source(once.source, limits);
          if (twice.pipeline.total_changes != 0 || twice.source != once.source) {
            report_failure(stats, "O5-deob",
                           "second run is not a fixpoint (" +
                               std::to_string(twice.pipeline.total_changes) +
                               " changes); normalized: " +
                               printable(once.source),
                           input);
          } else if (twice.pipeline.scope_analyses != 1) {
            report_failure(stats, "O5-deob",
                           "second run computed " +
                               std::to_string(twice.pipeline.scope_analyses) +
                               " scope analyses, not 1; normalized: " +
                               printable(once.source),
                           input);
          }
        }
        check_passes(input, limits, passes, stats);
      } catch (const std::exception& e) {
        report_failure(stats, "O5-deob",
                       std::string("deobfuscate_source threw: ") + e.what(),
                       input);
      }

      // --- O7: streamed path keys equal rendered ones; linear cost -----
      check_paths(input, limits, o6_model.vocab(), stats);
    }

    // --- O4: lint is total, and agrees with parse on failure ----------
    try {
      const analysis::ScriptAnalysis sa(input, limits);
      const lint::LintResult lr = linter.lint(sa);
      if (lr.parse_failed == parsed) {
        report_failure(stats, "O4-lint-total",
                       "lint parse_failed disagrees with direct parse",
                       input);
      }
    } catch (const std::exception& e) {
      report_failure(stats, "O4-lint-total",
                     std::string("lint threw: ") + e.what(), input);
    }

    if (!opt.quiet && (iter + 1) % 500 == 0) {
      std::printf("  %llu/%llu iters, %llu parse-ok, %llu findings\n",
                  static_cast<unsigned long long>(iter + 1),
                  static_cast<unsigned long long>(opt.iters),
                  static_cast<unsigned long long>(stats.parse_ok),
                  static_cast<unsigned long long>(stats.failures));
    }
  }

  const double secs = wall.elapsed_ms() / 1000.0;
  const double rate = secs > 0 ? static_cast<double>(stats.execs) / secs : 0;
  std::printf(
      "jsr_fuzz: seed=%llu iters=%llu corpus=%zu | %llu parse-ok, "
      "%llu parse-fail | O2 on %llu, O3 on %llu, O5 on %llu (+%llu verdicts, "
      "%llu pass checks) "
      "| O6 on %llu | O7 on %llu (%llu paths, <= %.2f steps each) | %.2fs "
      "(%.0f execs/s) | %llu findings\n",
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(stats.execs), corpus.size(),
      static_cast<unsigned long long>(stats.parse_ok),
      static_cast<unsigned long long>(stats.parse_fail),
      static_cast<unsigned long long>(stats.o2_checked),
      static_cast<unsigned long long>(stats.o3_checked),
      static_cast<unsigned long long>(stats.o5_checked),
      static_cast<unsigned long long>(stats.o5_verdicts),
      static_cast<unsigned long long>(stats.o5_pass_checks),
      static_cast<unsigned long long>(stats.o6_checked),
      static_cast<unsigned long long>(stats.o7_checked),
      static_cast<unsigned long long>(stats.o7_paths), stats.o7_max_steps,
      secs, rate,
      static_cast<unsigned long long>(stats.failures));

  stats.publish();

  if (opt.write_json) {
    obs::JsonWriter w;
    obs::write_bench_header(w, "fuzz");
    w.kv("seed", opt.seed)
        .kv("iters", stats.execs)
        .kv("corpus_seeds", static_cast<std::uint64_t>(corpus.size()))
        .kv("parse_ok", stats.parse_ok)
        .kv("parse_fail", stats.parse_fail)
        .kv("roundtrip_checked", stats.o2_checked)
        .kv("obfuscate_checked", stats.o3_checked)
        .kv("deob_checked", stats.o5_checked)
        .kv("deob_verdicts_checked", stats.o5_verdicts)
        .kv("deob_pass_checked", stats.o5_pass_checks)
        .kv("artifact_checked", stats.o6_checked)
        .kv("paths_checked", stats.o7_checked)
        .kv("paths_compared", stats.o7_paths)
        .kv_fixed("paths_max_steps_per_item", stats.o7_max_steps, 3)
        .kv_fixed("wall_s", secs, 3)
        .kv_fixed("execs_per_sec", rate, 1)
        .kv("findings", stats.failures)
        .end_object();
    std::ofstream json(opt.json_path);
    json << w.str() << "\n";
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  return stats.failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--iters N] [--corpus N] "
               "[--json PATH | --no-json] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &opt.seed)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &opt.iters)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--corpus") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &opt.corpus) || opt.corpus == 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.json_path = v;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      opt.write_json = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opt.quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  return run(opt);
}
