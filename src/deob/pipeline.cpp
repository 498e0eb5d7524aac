// The per-run PassContext, the fixpoint pass-manager and the whole-source
// convenience wrapper.
#include <utility>

#include "deob/deob.h"
#include "js/ast_compare.h"
#include "js/parser.h"
#include "js/visitor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jsrev::deob {

std::vector<std::unique_ptr<Pass>> default_passes() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(make_fold_constants_pass());
  passes.push_back(make_inline_indirection_pass());
  passes.push_back(make_unflatten_pass());
  passes.push_back(make_prune_dead_pass());
  passes.push_back(make_canonicalize_pass());
  return passes;
}

PassContext::PassContext(js::Ast& ast) : ast_(ast) {
  js::finalize_tree(ast_.root);
}

const analysis::ScopeInfo& PassContext::scopes() {
  if (!scopes_) {
    scopes_.emplace(analysis::analyze_scopes(ast_.root));
    ++scope_analyses_;
  }
  return *scopes_;
}

int PassContext::changed(int c) {
  if (c > 0) {
    scopes_.reset();  // before anything can build the next one
    js::finalize_tree(ast_.root);
  }
  return c;
}

Deobfuscator::Deobfuscator(DeobOptions opts)
    : Deobfuscator(default_passes(), opts) {}

Deobfuscator::Deobfuscator(std::vector<std::unique_ptr<Pass>> passes,
                           DeobOptions opts)
    : passes_(std::move(passes)), opts_(opts) {}

PipelineResult Deobfuscator::run(js::Ast& ast) const {
  const obs::Span span("deob.pipeline", "deob");
  auto& reg = obs::metrics();
  static obs::Counter* const runs = obs::metrics().counter("deob.runs");
  static obs::Counter* const iterations =
      obs::metrics().counter("deob.iterations");
  static obs::Counter* const fixpoints =
      obs::metrics().counter("deob.fixpoint_reached");
  static obs::Counter* const cap_hits =
      obs::metrics().counter("deob.iteration_cap_hits");
  static obs::Counter* const scope_analyses =
      obs::metrics().counter("deob.scope_analyses");

  PipelineResult result;
  result.per_pass.reserve(passes_.size());
  std::vector<obs::Counter*> pass_counters;
  pass_counters.reserve(passes_.size());
  for (const auto& pass : passes_) {
    result.per_pass.push_back({std::string(pass->name()), 0});
    pass_counters.push_back(reg.counter(
        "deob.pass_changes", {{"pass", std::string(pass->name())}}));
  }

  runs->add();
  PassContext ctx(ast);
  const int cap = opts_.max_iterations > 0 ? opts_.max_iterations : 1;
  for (int iter = 0; iter < cap; ++iter) {
    ++result.iterations;
    iterations->add();
    int iteration_changes = 0;
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      const int c = passes_[i]->run(ctx);
      result.per_pass[i].changes += c;
      result.total_changes += c;
      iteration_changes += c;
      if (c > 0) pass_counters[i]->add(static_cast<std::uint64_t>(c));
    }
    if (iteration_changes == 0) {
      result.reached_fixpoint = true;
      break;
    }
  }
  (result.reached_fixpoint ? fixpoints : cap_hits)->add();
  result.scope_analyses = ctx.scope_analyses();
  scope_analyses->add(static_cast<std::uint64_t>(result.scope_analyses));
  return result;
}

PipelineResult deobfuscate_ast(js::Ast& ast, const DeobOptions& opts) {
  const Deobfuscator deob(opts);
  PipelineResult result = deob.run(ast);
  ast.compact();
  return result;
}

SourceResult deobfuscate_source(const std::string& source,
                                const js::ParseLimits& limits,
                                const DeobOptions& opts,
                                js::PrintStyle style) {
  SourceResult out;
  out.source = source;
  try {
    js::Ast ast = js::parse(source, limits);
    out.parse_ok = true;
    out.nodes_before = js::count_nodes(ast.root);
    out.fingerprint_before = js::ast_fingerprint(ast.root);
    out.pipeline = deobfuscate_ast(ast, opts);
    out.nodes_after = js::count_nodes(ast.root);
    out.fingerprint_after = js::ast_fingerprint(ast.root);
    out.source = js::print(ast.root, style);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace jsrev::deob
