// fold-constants: expression-level constant folding and literal decoding.
//
// Reverses encode_strings (chunked concatenation + String.fromCharCode),
// encode_numbers ((v±δ)∓δ), escape_encode_strings (unescape("%xx..")), and
// the base64 leg of the string-array model (atob("...") on a literal), and
// evaluates literal comparisons/logic so opaque predicates collapse to
// booleans the prune pass can act on. Also canonicalizes obj["prop"] to
// obj.prop when "prop" is a safe identifier.
//
// Folding follows the printer's number round-trip rules: NaN results are
// never folded (a NaN literal would print as the identifier `NaN`), negative
// results are wrapped as Unary("-", literal) — the shape negative numbers
// parse to — and a result of -0 is left unfolded (no literal spells it).
#include <cmath>
#include <string>
#include <vector>

#include "deob/deob.h"
#include "deob/internal.h"
#include "util/base64.h"

namespace jsrev::deob {
namespace {

using detail::is_bool_literal;
using detail::is_identifier;
using detail::is_null_literal;
using detail::is_number_literal;
using detail::is_string_literal;
using detail::literal_truthiness;
using detail::numeric_value;
using js::LiteralType;
using js::Node;
using js::NodeKind;

/// String coercion of a literal operand for `+` folding (nullopt when the
/// operand is not a foldable primary).
std::optional<std::string> string_value(const Node* n) {
  if (is_string_literal(n)) return std::string(n->str);
  if (const std::optional<double> v = numeric_value(n)) {
    return detail::number_to_string(*v);
  }
  if (is_bool_literal(n)) return std::string(n->bval ? "true" : "false");
  if (is_null_literal(n)) return std::string("null");
  return std::nullopt;
}

bool decode_unescape(std::string_view s, std::string& out) {
  const auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(s.size() / 3 + 1);
  for (std::size_t i = 0; i < s.size();) {
    if (s[i] != '%') {
      out += s[i++];
      continue;
    }
    // Only fold fully-decodable %XX sequences; %uXXXX (UTF-16) and stray
    // '%' are left to the runtime.
    if (i + 2 >= s.size()) return false;
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out += static_cast<char>(hi * 16 + lo);
    i += 3;
  }
  return true;
}

/// One fold-constants run over one tree: the arena replacements come from
/// and the changes applied so far.
class Folder {
 public:
  explicit Folder(js::AstArena& arena) : arena_(arena) {}

  /// Folds the tree under `root` bottom-up; returns the changes applied.
  int fold_tree(Node* root) {
    fold(root);
    return changes_;
  }

 private:
  /// Replaces `target` in place (the established transform idiom: no parent
  /// slot hunting; compaction drops the donor husk).
  void replace(Node* target, Node* repl) {
    js::replace_node(target, *repl);
    ++changes_;
  }

  void replace_with_number(Node* target, double v) {
    if (v < 0) {
      Node* neg = arena_.make(NodeKind::kUnaryExpression);
      neg->str = "-";
      neg->children.push_back(arena_.number_literal(-v));
      replace(target, neg);
    } else {
      replace(target, arena_.number_literal(v));
    }
  }

  // NOLINTNEXTLINE(misc-no-recursion)
  void fold(Node* n) {
    if (n == nullptr) return;
    if (n->kind == NodeKind::kProperty && !n->has_flag(Node::kComputed)) {
      fold(n->children[1]);  // the key must stay a literal/identifier
      return;
    }
    for (Node* c : n->children) fold(c);

    switch (n->kind) {
      case NodeKind::kBinaryExpression: fold_binary(n); return;
      case NodeKind::kUnaryExpression: fold_unary(n); return;
      case NodeKind::kLogicalExpression: fold_logical(n); return;
      case NodeKind::kConditionalExpression: fold_conditional(n); return;
      case NodeKind::kCallExpression: fold_call(n); return;
      case NodeKind::kMemberExpression: fold_member(n); return;
      default: return;
    }
  }

  void fold_binary(Node* n) {
    Node* l = n->children[0];
    Node* r = n->children[1];
    const std::string_view op = n->str.view();

    if (op == "+" && (is_string_literal(l) || is_string_literal(r))) {
      const std::optional<std::string> a = string_value(l);
      const std::optional<std::string> b = string_value(r);
      if (a && b) replace(n, arena_.string_literal(*a + *b));
      return;
    }

    const std::optional<double> a = numeric_value(l);
    const std::optional<double> b = numeric_value(r);
    if (!a || !b) return;

    if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
      double v = 0;
      if (op == "+") v = *a + *b;
      else if (op == "-") v = *a - *b;
      else if (op == "*") v = *a * *b;
      else if (op == "/") v = *a / *b;
      else v = std::fmod(*a, *b);
      if (std::isnan(v)) return;                   // NaN has no literal form
      if (v == 0.0 && std::signbit(v)) return;     // nor does -0
      replace_with_number(n, v);
      return;
    }

    if (op == "<" || op == "<=" || op == ">" || op == ">=" || op == "==" ||
        op == "!=" || op == "===" || op == "!==") {
      bool v = false;
      if (op == "<") v = *a < *b;
      else if (op == "<=") v = *a <= *b;
      else if (op == ">") v = *a > *b;
      else if (op == ">=") v = *a >= *b;
      else if (op == "==" || op == "===") v = *a == *b;
      else v = *a != *b;
      if (std::isnan(*a) || std::isnan(*b)) return;  // unreachable: no NaN
      replace(n, arena_.bool_literal(v));
      return;
    }
  }

  void fold_unary(Node* n) {
    if (n->str != "!") return;
    const std::optional<bool> t = literal_truthiness(n->children[0]);
    if (t) replace(n, arena_.bool_literal(!*t));
  }

  void fold_logical(Node* n) {
    const std::optional<bool> t = literal_truthiness(n->children[0]);
    if (!t) return;
    // `lit && X` evaluates to lit when falsy, else X (dually for ||); the
    // left side is a literal so dropping it loses no effects.
    Node* kept = nullptr;
    if (n->str == "&&") kept = *t ? n->children[1] : n->children[0];
    else if (n->str == "||") kept = *t ? n->children[0] : n->children[1];
    if (kept != nullptr) replace(n, kept);
  }

  void fold_conditional(Node* n) {
    const std::optional<bool> t = literal_truthiness(n->children[0]);
    if (t) replace(n, n->children[*t ? 1 : 2]);
  }

  void fold_call(Node* n) {
    Node* callee = n->children[0];
    // String.fromCharCode(c, ...) with ASCII code points. Byte-exact only
    // for 0..127 (our strings are byte strings; >=128 would need UTF-16
    // semantics), which covers everything encode_strings emits.
    if (callee->kind == NodeKind::kMemberExpression &&
        !callee->has_flag(Node::kComputed) &&
        is_identifier(callee->children[0], "String") &&
        is_identifier(callee->children[1], "fromCharCode")) {
      std::string out;
      for (std::size_t i = 1; i < n->children.size(); ++i) {
        const std::optional<double> v = numeric_value(n->children[i]);
        if (!v || *v != std::floor(*v) || *v < 0 || *v > 127) return;
        out += static_cast<char>(static_cast<int>(*v));
      }
      replace(n, arena_.string_literal(out));
      return;
    }
    if (n->children.size() != 2 || !is_string_literal(n->children[1])) return;
    if (is_identifier(callee, "unescape")) {
      std::string decoded;
      if (decode_unescape(n->children[1]->str.view(), decoded)) {
        replace(n, arena_.string_literal(decoded));
      }
      return;
    }
    if (is_identifier(callee, "atob")) {
      // Strict decode or no fold: a real engine throws InvalidCharacterError
      // on malformed input, so folding through the lenient decoder would
      // rewrite a reachable throw into a silently truncated string.
      const std::string_view enc = n->children[1]->str.view();
      if (const std::optional<std::string> dec = base64_decode_strict(enc)) {
        replace(n, arena_.string_literal(*dec));
      }
      return;
    }
  }

  void fold_member(Node* n) {
    if (!n->has_flag(Node::kComputed)) return;
    Node* obj = n->children[0];
    Node* prop = n->children[1];
    // [a, b][1] -> b: an integer-indexed array literal whose discarded
    // elements are pure (the shape a single-use fog/dispatch table takes
    // after it has been inlined into its only read).
    if (obj->kind == NodeKind::kArrayExpression && is_number_literal(prop)) {
      const double d = prop->num;
      const auto idx = static_cast<std::size_t>(d);
      if (d >= 0 && static_cast<double>(idx) == d &&
          idx < obj->children.size()) {
        Node* elem = obj->children[idx];
        bool pure = elem != nullptr;
        for (std::size_t i = 0; pure && i < obj->children.size(); ++i) {
          if (i != idx) pure = detail::is_pure_expression(obj->children[i]);
        }
        if (pure) {
          replace(n, elem);
          return;
        }
      }
    }
    if (!is_string_literal(prop) ||
        !detail::is_safe_identifier_name(prop->str.view())) {
      return;
    }
    n->flags &= static_cast<std::uint8_t>(~Node::kComputed);
    n->children[1] = arena_.identifier(prop->str.view());
    ++changes_;
  }

  js::AstArena& arena_;
  int changes_ = 0;
};

class FoldConstantsPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "fold-constants"; }

  int run(PassContext& ctx) const override {
    return ctx.changed(Folder(ctx.ast().arena).fold_tree(ctx.ast().root));
  }
};

}  // namespace

std::unique_ptr<Pass> make_fold_constants_pass() {
  return std::make_unique<FoldConstantsPass>();
}

}  // namespace jsrev::deob
