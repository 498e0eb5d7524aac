#include "analysis/script_analysis.h"

#include <stdexcept>
#include <utility>

#include "deob/deob.h"
#include "js/lexer.h"
#include "js/parser.h"
#include "js/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace jsrev::analysis {

namespace {

// Memoization accounting: every artifact access counts as a hit or a miss
// (miss = this call computed it). The counts are pure function of the
// workload — identical at any thread width — so they live in the
// deterministic export; ratios show what the parse-once layer saves.
struct MemoCounters {
  obs::Counter* hit;
  obs::Counter* miss;
};

MemoCounters memo_counters(const char* artifact) {
  return MemoCounters{
      obs::metrics().counter("analysis.memo.hit", {{"artifact", artifact}}),
      obs::metrics().counter("analysis.memo.miss", {{"artifact", artifact}}),
  };
}

MemoCounters& parse_memo() {
  static MemoCounters c = memo_counters("parse");
  return c;
}
MemoCounters& tokens_memo() {
  static MemoCounters c = memo_counters("tokens");
  return c;
}
MemoCounters& scopes_memo() {
  static MemoCounters c = memo_counters("scopes");
  return c;
}
MemoCounters& dataflow_memo() {
  static MemoCounters c = memo_counters("dataflow");
  return c;
}
MemoCounters& cfgs_memo() {
  static MemoCounters c = memo_counters("cfgs");
  return c;
}
MemoCounters& pdg_memo() {
  static MemoCounters c = memo_counters("pdg");
  return c;
}

bool is_limit_error(const std::string& message) {
  return message.find("ParseLimits::") != std::string::npos;
}

}  // namespace

void ScriptAnalysis::ensure_parsed() const {
  bool computed = false;
  std::call_once(parse_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.parse", "frontend");
    static obs::Counter* ok_counter =
        obs::metrics().counter("analysis.parse.ok");
    static obs::Counter* fail_counter =
        obs::metrics().counter("analysis.parse.failed");
    static obs::Counter* limit_counter =
        obs::metrics().counter("analysis.parse.limit_trips");
    static obs::Summary* parse_stage = obs::stage_summary("parse");
    static obs::Summary* deob_stage = obs::stage_summary("deob");
    Timer t;
    try {
      ast_ = js::parse(source_, limits_);
      parse_ok_ = true;
      ok_counter->add();
    } catch (const std::exception& e) {
      parse_error_ = e.what();
      fail_counter->add();
      if (is_limit_error(parse_error_)) limit_counter->add();
    }
    parse_ms_ = t.elapsed_ms();
    if (!parse_ok_) return;
    parse_stage->observe(parse_ms_);
    if (deobfuscate_) {
      Timer t_deob;
      normalize();
      deob_ms_ = t_deob.elapsed_ms();
      deob_stage->observe(deob_ms_);
    }
  });
  MemoCounters& memo = parse_memo();
  (computed ? memo.miss : memo.hit)->add();
}

void ScriptAnalysis::normalize() const {
  obs::Span span("analysis.deobfuscate", "frontend");
  static obs::Counter* normalized_counter =
      obs::metrics().counter("analysis.deob.normalized");
  static obs::Counter* reparse_failed_counter =
      obs::metrics().counter("analysis.deob.reparse_failed");
  deob::deobfuscate_ast(ast_);
  std::string printed = js::print(ast_.root, js::PrintStyle::kPretty);
  try {
    // Re-parse the printed form so node line numbers index into the source
    // text consumers will see (lint excerpts, token-level detectors).
    ast_ = js::parse(printed, limits_);
    source_ = std::move(printed);
    normalized_counter->add();
  } catch (const std::exception&) {
    // Printed output should always round-trip; the one legitimate way here
    // is a ParseLimits bound tripping on the pretty-printed text. Restore
    // the original, un-normalized state (the original parse succeeded).
    ast_ = js::parse(source_, limits_);
    reparse_failed_counter->add();
  }
}

void ScriptAnalysis::require_ast() const {
  ensure_parsed();
  if (!parse_ok_) {
    throw std::logic_error(
        "ScriptAnalysis: derived analysis requested for an unparseable "
        "script (" +
        parse_error_ + ")");
  }
}

bool ScriptAnalysis::parse_failed() const {
  ensure_parsed();
  return !parse_ok_;
}

const std::string& ScriptAnalysis::parse_error() const {
  ensure_parsed();
  return parse_error_;
}

bool ScriptAnalysis::parse_limit_trip() const {
  ensure_parsed();
  return !parse_ok_ && is_limit_error(parse_error_);
}

const js::Node* ScriptAnalysis::root() const {
  ensure_parsed();
  return parse_ok_ ? ast_.root : nullptr;
}

double ScriptAnalysis::parse_ms() const {
  ensure_parsed();
  return parse_ms_;
}

double ScriptAnalysis::deob_ms() const {
  ensure_parsed();
  return deob_ms_;
}

void ScriptAnalysis::enable_provenance() {
  if (provenance_ == nullptr) {
    provenance_ = std::make_unique<obs::VerdictProvenance>();
  }
}

const std::vector<js::Token>* ScriptAnalysis::tokens() const {
  // Token consumers must lex the same text the AST consumers analyze; under
  // deobfuscate the normalized source only exists once the parse ran.
  if (deobfuscate_) ensure_parsed();
  bool computed = false;
  std::call_once(tokens_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.tokens", "frontend");
    try {
      js::Lexer lexer(source_, limits_);
      tokens_ = std::make_unique<std::vector<js::Token>>(lexer.tokenize());
    } catch (const std::exception&) {
      // Unlexable input: tokens() stays null, mirroring parse_failed().
    }
  });
  MemoCounters& memo = tokens_memo();
  (computed ? memo.miss : memo.hit)->add();
  return tokens_.get();
}

const ScopeInfo& ScriptAnalysis::scopes() const {
  require_ast();
  bool computed = false;
  std::call_once(scopes_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.scopes", "analysis");
    scopes_ = std::make_unique<ScopeInfo>(analyze_scopes(ast_.root));
  });
  MemoCounters& memo = scopes_memo();
  (computed ? memo.miss : memo.hit)->add();
  return *scopes_;
}

const DataFlowInfo& ScriptAnalysis::dataflow() const {
  require_ast();
  bool computed = false;
  std::call_once(dataflow_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.dataflow", "analysis");
    dataflow_ =
        std::make_unique<DataFlowInfo>(analyze_dataflow(ast_.root, scopes()));
  });
  MemoCounters& memo = dataflow_memo();
  (computed ? memo.miss : memo.hit)->add();
  return *dataflow_;
}

const std::vector<Cfg>& ScriptAnalysis::cfgs() const {
  require_ast();
  bool computed = false;
  std::call_once(cfgs_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.cfgs", "analysis");
    cfgs_ = std::make_unique<std::vector<Cfg>>(build_all_cfgs(ast_.root));
  });
  MemoCounters& memo = cfgs_memo();
  (computed ? memo.miss : memo.hit)->add();
  return *cfgs_;
}

const Pdg& ScriptAnalysis::pdg() const {
  require_ast();
  bool computed = false;
  std::call_once(pdg_once_, [this, &computed] {
    computed = true;
    obs::Span span("analysis.pdg", "analysis");
    pdg_ = std::make_unique<Pdg>(build_pdg(ast_.root, scopes(), dataflow()));
  });
  MemoCounters& memo = pdg_memo();
  (computed ? memo.miss : memo.hit)->add();
  return *pdg_;
}

}  // namespace jsrev::analysis
