// Parse-once program-analysis artifact shared by detectors, lint, and
// benches.
//
// A ScriptAnalysis owns one script's source text and every representation
// derived from it: the lexical token stream, the AST, scope resolution,
// data-flow edges, per-function CFGs, and the statement-level PDG. Each
// representation is computed on first access and memoized behind a
// std::once_flag, so concurrent consumers (the per-script detector fan-outs)
// share a single computation instead of re-deriving it per consumer — one
// multi-detector evaluation parses each script exactly once.
//
// Frontend failure is carried as a value (parse_failed()/parse_error())
// instead of an exception, and the repository-wide "unparseable input ⇒
// classified malicious" convention lives here (kUnparseableVerdict /
// classify_or_malicious) rather than in per-detector try/catch blocks.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/pdg.h"
#include "analysis/scope.h"
#include "js/ast.h"
#include "js/parse_limits.h"
#include "js/token.h"
#include "obs/provenance.h"

namespace jsrev::analysis {

class ScriptAnalysis {
 public:
  /// Verdict every detector returns for input its frontend rejects (all the
  /// compared tools refuse scripts they cannot process; the paper's
  /// evaluation counts such scripts as malicious).
  static constexpr int kUnparseableVerdict = 1;

  /// `limits` bounds the frontend's resources (recursion depth, source
  /// bytes, token count); exceeding a limit lands in the same
  /// parse-failed-as-a-value state as a syntax error.
  ///
  /// With `deobfuscate` set, the parse step statically normalizes the
  /// program through the src/deob fixpoint pipeline, then re-parses the
  /// printed result: every downstream consumer — source(), tokens(), the
  /// AST and all derived analyses, lint excerpts with their line numbers —
  /// observes the normalized script, consistently. Unparseable input is
  /// unaffected (normalization needs an AST).
  explicit ScriptAnalysis(std::string source, js::ParseLimits limits = {},
                          bool deobfuscate = false)
      : source_(std::move(source)),
        limits_(limits),
        deobfuscate_(deobfuscate) {}

  // Memoization state (once-flags) pins the object in place.
  ScriptAnalysis(const ScriptAnalysis&) = delete;
  ScriptAnalysis& operator=(const ScriptAnalysis&) = delete;

  /// The script's text. Under `deobfuscate` this is the normalized source
  /// (forcing the parse+normalize on first access), so consumers that
  /// re-lex or excerpt by line agree with the AST.
  const std::string& source() const {
    if (deobfuscate_) ensure_parsed();
    return source_;
  }

  /// Parses on first call; never throws — failure is a value.
  bool parse_failed() const;
  /// The frontend's message when parse_failed(), empty otherwise.
  const std::string& parse_error() const;

  /// Root of the finalized AST, or nullptr when the source does not parse.
  const js::Node* root() const;

  /// Wall-clock cost of this script's parse (0.0 until the parse runs).
  /// A successful parse books this once into obs::stage_summary("parse"),
  /// when it runs, so re-reading a warm analysis never books it again.
  double parse_ms() const;

  /// True when the parse failure came from a ParseLimits bound (depth,
  /// source bytes, token count) rather than malformed syntax.
  bool parse_limit_trip() const;

  /// Opt-in verdict provenance: after enable_provenance(), a
  /// provenance-aware detector (JsRevealer) fills the record as classify()
  /// runs. provenance() stays null until enabled.
  void enable_provenance();
  obs::VerdictProvenance* provenance() const { return provenance_.get(); }

  /// Lexical token stream (ending with kEof), lexed independently of the
  /// parser so token-level consumers (CUJO) never force a parse; nullptr
  /// when the source does not lex.
  const std::vector<js::Token>* tokens() const;

  // Derived analyses, each computed at most once. Precondition: the script
  // parsed (std::logic_error otherwise — gate on parse_failed() or go
  // through classify_or_malicious).
  const ScopeInfo& scopes() const;
  const DataFlowInfo& dataflow() const;      // forces scopes()
  const std::vector<Cfg>& cfgs() const;
  const Pdg& pdg() const;                    // forces scopes() + dataflow()

  /// The shared unparseable-input convention: runs `fn` (the detector's
  /// real classification) when the script parsed, else returns
  /// kUnparseableVerdict.
  template <typename Fn>
  int classify_or_malicious(Fn&& fn) const {
    if (parse_failed()) return kUnparseableVerdict;
    return std::forward<Fn>(fn)();
  }

 private:
  void ensure_parsed() const;
  void normalize() const;    // deob pipeline + reprint + reparse
  void require_ast() const;  // throws std::logic_error on parse failure

  mutable std::string source_;  // rewritten once under deobfuscate_
  js::ParseLimits limits_;
  bool deobfuscate_ = false;

  mutable std::once_flag parse_once_;
  mutable js::Ast ast_;
  mutable bool parse_ok_ = false;
  mutable std::string parse_error_;
  mutable double parse_ms_ = 0.0;
  std::unique_ptr<obs::VerdictProvenance> provenance_;

  mutable std::once_flag tokens_once_;
  mutable std::unique_ptr<std::vector<js::Token>> tokens_;  // null: lex error

  mutable std::once_flag scopes_once_;
  mutable std::unique_ptr<ScopeInfo> scopes_;

  mutable std::once_flag dataflow_once_;
  mutable std::unique_ptr<DataFlowInfo> dataflow_;

  mutable std::once_flag cfgs_once_;
  mutable std::unique_ptr<std::vector<Cfg>> cfgs_;

  mutable std::once_flag pdg_once_;
  mutable std::unique_ptr<Pdg> pdg_;
};

/// A corpus's scripts with their shared analyses, built once (in parallel)
/// and handed to every detector of a multi-detector evaluation. labels[i]
/// mirrors the originating dataset::Corpus sample's label.
struct AnalyzedCorpus {
  std::vector<std::unique_ptr<ScriptAnalysis>> scripts;
  std::vector<int> labels;

  std::size_t size() const noexcept { return scripts.size(); }
};

}  // namespace jsrev::analysis
