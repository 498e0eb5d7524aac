// Static deobfuscation: a pipeline of independent AST-to-AST normalization
// passes run to a fixpoint (DESIGN.md §13).
//
// Each pass statically reverses (or canonicalizes away) something the
// obfuscator models in src/obfuscators emit:
//
//   fold-constants       numeric/string constant folding, String.fromCharCode
//                        and unescape()/atob() literal decoding, literal
//                        branch selection at expression level, and
//                        computed-member → dotted-member canonicalization.
//   inline-indirection   string-array + rotating-decoder detection and
//                        inlining, literal/function-table array inlining
//                        (Jfogs' fog data and dispatch tables),
//                        f.apply(null,[...]) call un-packing, and single-use
//                        temporary un-hoisting (inverts hoist_call_args).
//   unflatten            control-flow-flattening unrolling: the
//                        `while(true){switch(order[i++]){...}}` dispatcher is
//                        matched and its cases re-serialized in execution
//                        order.
//   prune-dead           dead-code and opaque-predicate elimination: constant
//                        branch tests (literals plus dataflow-const
//                        single-write bindings), CFG-unreachable statements,
//                        and unused side-effect-free declarations.
//   canonicalize         normal-form cleanup keyed on scope analysis: bare
//                        block splicing, function-declaration hoisting, var
//                        declaration re-forming (undoing the hoist+assign
//                        decomposition flattening performs), and
//                        deterministic identifier renaming (v0, v1, ...).
//
// The pass-manager (Deobfuscator) iterates the pipeline until an iteration
// reports zero changes or an iteration cap trips; per-pass change counts land
// in the obs registry as deob.pass_changes{pass=...}. Every pass of one run
// shares a PassContext, which holds the tree's scope analysis from its first
// use until a pass reports a change, so an unchanged tree is analyzed once.
//
// Design target: deob is a *normalizer*, not an exact inverter. Wherever an
// obfuscation is ambiguous to invert, the same canonical form is applied to
// both plain and obfuscated inputs, so `deob(obf(s))` converges to the same
// tree as `deob(s)` — the property the fuzz oracle and tests/deob_property
// assert. Semantics are preserved in the same static sense as the
// obfuscators themselves (we never execute JS).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/scope.h"
#include "js/ast.h"
#include "js/parse_limits.h"
#include "js/printer.h"

namespace jsrev::deob {

struct DeobOptions {
  // Upper bound on pipeline iterations. Every structural pass is strictly
  // size-reducing and the canonical forms are idempotent, so real inputs
  // reach a fixpoint in a handful of iterations (stacked obfuscation: one or
  // two per layer); the cap is the non-termination guard the pass-manager
  // enforces regardless.
  int max_iterations = 12;
};

/// One pipeline run's hold on the tree it normalizes. scopes() is the scope
/// analysis of the tree as it stands: computed on first use, then reused
/// until changed() reports a tree change, which drops it and refinalizes the
/// tree (ids/parents). analyze_scopes is a pure function of the finalized
/// tree, so the reused analysis equals a fresh one as long as every write to
/// the tree is reported before the next scopes() call. Lives for one run.
class PassContext {
 public:
  /// Finalizes `ast`, as scope analysis requires.
  explicit PassContext(js::Ast& ast);

  js::Ast& ast() noexcept { return ast_; }
  const analysis::ScopeInfo& scopes();

  /// Reports `c` changes to the tree and returns `c`. c > 0 drops the cached
  /// analysis, then refinalizes the tree.
  int changed(int c);

  /// Scope analyses computed so far.
  int scope_analyses() const noexcept { return scope_analyses_; }

 private:
  js::Ast& ast_;
  std::optional<analysis::ScopeInfo> scopes_;
  int scope_analyses_ = 0;
};

/// One AST-to-AST normalization pass. `run` reports every change it makes to
/// ctx.ast() through ctx.changed() and returns the number of changes applied;
/// zero means the pass is at a fixpoint for this tree and left it untouched.
/// Passes hold no per-run state, so one may run on several trees at once.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const noexcept = 0;
  virtual int run(PassContext& ctx) const = 0;
};

std::unique_ptr<Pass> make_fold_constants_pass();
std::unique_ptr<Pass> make_inline_indirection_pass();
std::unique_ptr<Pass> make_unflatten_pass();
std::unique_ptr<Pass> make_prune_dead_pass();
std::unique_ptr<Pass> make_canonicalize_pass();

/// The default pipeline, in the order the passes compose best (decode →
/// de-indirect → unroll → prune → canonicalize).
std::vector<std::unique_ptr<Pass>> default_passes();

struct PassTotals {
  std::string pass;
  int changes = 0;
};

struct PipelineResult {
  int iterations = 0;
  bool reached_fixpoint = false;
  int total_changes = 0;
  int scope_analyses = 0;  // PassContext::scope_analyses() at the end
  std::vector<PassTotals> per_pass;  // pipeline order, summed over iterations
};

/// The fixpoint pass-manager. Thread-compatible: one Deobfuscator may be
/// shared across threads (run() touches only the Ast it is given and the
/// PassContext it builds for it; the passes are const).
class Deobfuscator {
 public:
  explicit Deobfuscator(DeobOptions opts = {});
  Deobfuscator(std::vector<std::unique_ptr<Pass>> passes,
               DeobOptions opts = {});

  PipelineResult run(js::Ast& ast) const;

  const std::vector<std::unique_ptr<Pass>>& passes() const noexcept {
    return passes_;
  }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  DeobOptions opts_;
};

/// Normalizes a parsed AST in place with the default pipeline and compacts
/// the arena afterwards (ast.root is updated; outside Node* are invalidated,
/// as with any compaction).
PipelineResult deobfuscate_ast(js::Ast& ast, const DeobOptions& opts = {});

struct SourceResult {
  bool parse_ok = false;
  std::string error;   // frontend message when !parse_ok
  std::string source;  // normalized source; the input verbatim on failure
  PipelineResult pipeline;
  int nodes_before = 0;
  int nodes_after = 0;
  std::uint64_t fingerprint_before = 0;
  std::uint64_t fingerprint_after = 0;
};

/// Parse → normalize → print. Unparseable input is returned unchanged with
/// parse_ok=false (the caller keeps the unparseable ⇒ malicious convention).
SourceResult deobfuscate_source(const std::string& source,
                                const js::ParseLimits& limits = {},
                                const DeobOptions& opts = {},
                                js::PrintStyle style = js::PrintStyle::kPretty);

}  // namespace jsrev::deob
