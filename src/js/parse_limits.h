// Resource limits for the JavaScript frontend.
//
// The lexer and parser process adversarial, untrusted input (heavily
// obfuscated scripts routinely carry pathological nesting; cf. "From
// Obfuscated to Obvious" in PAPERS.md), so resource exhaustion must fail the
// same way malformed syntax does: as a LexError/ParseError the caller can
// catch — never a stack overflow or an unbounded allocation that takes the
// serving process down. ScriptAnalysis converts those errors into its
// parse-failed-as-a-value state, which the centralized "unparseable ⇒
// malicious" convention (kUnparseableVerdict) then routes like any other
// frontend rejection.
//
// Defaults are deliberately generous — orders of magnitude above anything the
// corpus generator or the obfuscators emit — so they only trip on inputs that
// would genuinely endanger the process. The detector pipeline always runs the
// defaults (a JSRM artifact does not record limits, so a trainer and a view
// of its artifact classify alike); per-call overrides go through js::parse
// and analysis::ScriptAnalysis.
#pragma once

#include <cstddef>

namespace jsrev::js {

struct ParseLimits {
  /// Maximum nesting depth of recursive grammar constructs (statements,
  /// expressions, unary chains, `new` chains). The recursive-descent parser
  /// burns a handful of stack frames per level, so this bounds stack growth;
  /// exceeding it throws ParseError, not SIGSEGV. 1000 levels is far beyond
  /// human- or obfuscator-written code (the deepest generator output nests
  /// tens of levels).
  std::size_t max_recursion_depth = 1000;

  /// Maximum source size in bytes the lexer accepts (LexError beyond).
  /// 32 MiB: the largest real-world scripts are low single-digit MiB.
  std::size_t max_source_bytes = 32u * 1024u * 1024u;

  /// Maximum number of tokens the lexer materializes (LexError beyond).
  /// Bounds token-vector memory independently of source size.
  std::size_t max_token_count = 4u * 1000u * 1000u;
};

}  // namespace jsrev::js
