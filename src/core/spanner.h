// High-level facade: a compiled, ready-to-run document spanner.
//
// Wraps pattern parsing, Thompson compilation, fragment detection and
// evaluator selection behind one type:
//
//   Spanner s = Spanner::FromPattern(".*Seller: (x{[^,]*}),.*").ValueOrDie();
//   for (const Mapping& m : s.ExtractAll(doc)) ...
//
// Evaluator choice: sequential automata use the PTIME machinery of
// Theorem 5.7 for decision problems; extraction itself uses the
// output-sensitive run enumeration, with the polynomial-delay Algorithm 1
// available explicitly.
#ifndef SPANNERS_CORE_SPANNER_H_
#define SPANNERS_CORE_SPANNER_H_

#include <string>
#include <string_view>

#include <vector>

#include "automata/enumerate.h"
#include "automata/va.h"
#include "common/arena.h"
#include "common/status.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "rgx/ast.h"

namespace spanners {

class Spanner {
 public:
  /// The extraction strategies a compiled spanner can dispatch to. Exposed
  /// so planning layers (src/engine/) can pick one once per pattern and
  /// reuse the choice across a whole corpus.
  enum class Evaluator : uint8_t {
    kRunEnumeration,    // brute-force run semantics (output-sensitive)
    kSequentialDelay,   // Theorem 5.7 oracle + Algorithm 1 (sequential only)
    kFptDelay,          // Theorem 5.10 FPT oracle + Algorithm 1 (any VA)
  };

  /// Compiles an RGX text pattern (see rgx/parser.h for the syntax).
  static Result<Spanner> FromPattern(std::string_view pattern);
  /// Wraps an existing AST.
  static Spanner FromRgx(RgxPtr rgx);
  /// Wraps an existing automaton (no RGX attached).
  static Spanner FromVa(VA va);

  /// The compiled automaton.
  const VA& va() const { return va_; }
  /// The source formula; nullptr when constructed FromVa.
  const RgxPtr& rgx() const { return rgx_; }
  /// The source pattern text; empty unless constructed FromPattern.
  const std::string& pattern() const { return pattern_; }
  /// var(γ): the capture variables.
  const VarSet& vars() const { return vars_; }
  /// Whether the PTIME sequential machinery applies (§5.2).
  bool is_sequential() const { return sequential_; }

  /// Document-independent evaluator choice, decided once at compile time:
  /// run enumeration for few variables (lowest constant factor), the
  /// guaranteed-polynomial-delay paths otherwise, FPT when non-sequential.
  Evaluator RecommendedEvaluator() const { return recommended_; }

  /// ⟦γ⟧_doc, computed by run enumeration (output-sensitive).
  MappingSet ExtractAll(const Document& doc) const;

  /// ⟦γ⟧_doc computed by an explicit strategy. `kSequentialDelay` requires
  /// is_sequential(). Thread-safe: shares only immutable state, so one
  /// Spanner may serve concurrent extractions. `arena` supplies every
  /// transient structure (it is treated as scratch and Reset() inside —
  /// one arena per thread, reused across documents); the unique result
  /// mappings are appended to *out in unspecified order.
  void ExtractAllInto(Evaluator evaluator, const Document& doc, Arena* arena,
                      std::vector<Mapping>* out) const;

  /// Push-based extraction: every unique result mapping is streamed into
  /// `sink`, built from the sink's pool when one is attached. `arena` is
  /// scratch exactly as in ExtractAllInto. This is the primitive the
  /// algebra operators (src/query/) and the engine compose.
  /// A tripped `cancel` token aborts mid-extraction; rows already pushed
  /// into the sink are partial output the caller must discard (check the
  /// token after the call — a tripped token invalidates the sink).
  void ExtractTo(Evaluator evaluator, const Document& doc, Arena* arena,
                 MappingSink& sink, CancelToken* cancel = nullptr) const;

  /// Incremental polynomial-delay enumeration (Theorem 5.1). The returned
  /// enumerator borrows this spanner and the document.
  MappingEnumerator Enumerate(const Document& doc) const;

  /// Eval (§5.1): can `mu` be extended to an output on `doc`?
  /// Dispatches to Theorem 5.7 (sequential) or Theorem 5.10 (FPT).
  bool Eval(const Document& doc, const ExtendedMapping& mu) const;

  /// ModelCheck (§5.1): is `mu` itself an output on `doc`?
  bool ModelCheck(const Document& doc, const Mapping& mu) const;

  /// NonEmp: does the spanner produce any mapping on `doc`?
  bool Matches(const Document& doc) const;

 private:
  Spanner(RgxPtr rgx, VA va);

  RgxPtr rgx_;  // may be nullptr
  std::string pattern_;  // empty unless FromPattern
  VA va_;
  VarSet vars_;
  bool sequential_;
  Evaluator recommended_;
};

/// "run-enumeration" / "sequential-delay" / "fpt-delay".
std::string_view EvaluatorToString(Spanner::Evaluator e);

}  // namespace spanners

#endif  // SPANNERS_CORE_SPANNER_H_
