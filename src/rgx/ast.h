// Variable regex (RGX) abstract syntax, the paper's core extraction
// language (§3.1):   γ := ε | a | x{γ} | γ·γ | γ∨γ | γ*
// Character-class nodes generalise single letters: a CharSet node stands
// for the disjunction of its letters (the paper's Σ and Σ−{...} shorthands).
#ifndef SPANNERS_RGX_AST_H_
#define SPANNERS_RGX_AST_H_

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/charset.h"
#include "core/variable.h"

namespace spanners {

enum class RgxKind : uint8_t {
  kEpsilon,  // ε
  kChars,    // one letter from a CharSet
  kVar,      // x{γ}
  kConcat,   // γ1 · γ2 · ... (n-ary, flattened)
  kDisj,     // γ1 ∨ γ2 ∨ ... (n-ary, flattened)
  kStar,     // γ*
};

class RgxNode;
/// Immutable shared AST; subtrees may be shared freely.
using RgxPtr = std::shared_ptr<const RgxNode>;

/// A node of an RGX formula. Construct via the factory functions below;
/// they flatten nested concatenations/disjunctions and collapse trivial
/// cases (0/1-ary concat and disj) so ASTs have a canonical shape.
class RgxNode {
 public:
  RgxKind kind() const { return kind_; }
  /// The character class; kind() == kChars.
  const CharSet& chars() const { return chars_; }
  /// The capture variable; kind() == kVar.
  VarId var() const { return var_; }
  /// Children: 1 for kVar/kStar, >= 2 for kConcat/kDisj, 0 otherwise.
  const std::vector<RgxPtr>& children() const { return children_; }
  const RgxPtr& child(size_t i) const { return children_[i]; }

  /// Number of AST nodes (size measure used in benchmarks).
  size_t NodeCount() const;

  /// Levels of this tree, a leaf being 1: how deep every recursive pass
  /// over it goes.
  size_t depth() const { return depth_; }

  // ---- Factories ----

  /// ε (matches the empty spans).
  static RgxPtr Epsilon();
  /// One letter drawn from `cs`. An empty class is rejected at parse time;
  /// building one directly yields an unsatisfiable formula.
  static RgxPtr Chars(CharSet cs);
  /// The single letter `c`.
  static RgxPtr Lit(char c);
  /// The string `s` as a concatenation of letters (ε when empty).
  static RgxPtr Str(std::string_view s);
  /// Σ* — any content. The body of spanRGX variables.
  static RgxPtr AnyStar();
  /// x{body}.
  static RgxPtr Var(VarId x, RgxPtr body);
  /// x{body}, interning the variable name.
  static RgxPtr Var(std::string_view name, RgxPtr body);
  /// x{Σ*} — the spanRGX shorthand written just `x` in the paper.
  static RgxPtr SpanVar(std::string_view name);
  static RgxPtr SpanVar(VarId x);
  /// γ1 · γ2 · ... (ε when `parts` is empty).
  static RgxPtr Concat(std::vector<RgxPtr> parts);
  static RgxPtr Concat(RgxPtr a, RgxPtr b);
  /// γ1 ∨ γ2 ∨ ... `parts` must be non-empty.
  static RgxPtr Disj(std::vector<RgxPtr> parts);
  static RgxPtr Disj(RgxPtr a, RgxPtr b);
  /// γ*.
  static RgxPtr Star(RgxPtr body);
  /// γ+ ≡ γ·γ* (sugar).
  static RgxPtr Plus(RgxPtr body);
  /// γ? ≡ γ ∨ ε (sugar; this is the paper's optional-field idiom).
  static RgxPtr Opt(RgxPtr body);

  /// Deep structural equality.
  static bool Equals(const RgxPtr& a, const RgxPtr& b);

 private:
  friend struct RgxNodeFactory;
  RgxNode(RgxKind kind, CharSet chars, VarId var,
          std::vector<RgxPtr> children)
      : kind_(kind),
        chars_(chars),
        var_(var),
        children_(std::move(children)) {
    for (const RgxPtr& c : children_)
      depth_ = std::max(depth_, c->depth_ + 1);
  }

  RgxKind kind_;
  CharSet chars_;
  VarId var_ = 0;
  std::vector<RgxPtr> children_;
  size_t depth_ = 1;
};

}  // namespace spanners

#endif  // SPANNERS_RGX_AST_H_
