// Polynomial-delay enumeration of ⟦γ⟧_d (paper Theorem 5.1, Algorithm 1):
// assign variables one at a time to a span or ⊥, pruning with the Eval
// decision procedure; with a PTIME oracle the delay between two outputs is
// polynomial.
#ifndef SPANNERS_AUTOMATA_ENUMERATE_H_
#define SPANNERS_AUTOMATA_ENUMERATE_H_

#include <functional>
#include <optional>
#include <vector>

#include "automata/va.h"
#include "common/arena.h"
#include "common/cancel.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"

namespace spanners {

/// The Eval[L] decision procedure abstracted: "can this extended mapping
/// be extended to an output?".
using EvalOracle = std::function<bool(const ExtendedMapping&)>;

/// Incremental enumerator implementing the paper's Algorithm 1. Next()
/// produces each mapping of the semantics exactly once; the number of
/// oracle calls between consecutive outputs is O(|vars| · |spans| + 1),
/// hence polynomial delay whenever the oracle is PTIME.
class MappingEnumerator {
 public:
  /// A tripped `cancel` token ends the enumeration early (Next() returns
  /// nullopt as if exhausted); the caller distinguishes completion from
  /// cancellation by checking the token. `arena`, when given with a
  /// token, anchors the memory-budget baseline (pass the oracle scratch
  /// arena so per-call churn counts against the budget).
  MappingEnumerator(VarSet vars, const Document& doc, EvalOracle oracle,
                    CancelToken* cancel = nullptr,
                    const Arena* arena = nullptr);

  /// The next mapping, or nullopt when exhausted (or cancelled).
  std::optional<Mapping> Next();

  /// Oracle invocations since construction (for delay accounting).
  size_t oracle_calls() const { return oracle_calls_; }

  /// Drains the enumerator into a set.
  MappingSet Drain();

  /// Drains into a sink, drawing result storage from the sink's pool and
  /// stopping early when a Push returns false.
  void DrainTo(MappingSink& sink);

 private:
  // One DFS frame: variable index `var_idx` iterating choice `choice_idx`
  // over span(d) ∪ {⊥}. Spans are addressed by their lexicographic rank
  // via Document::SpanAt — nothing is materialized (span(d) is O(n²)).
  struct Frame {
    size_t var_idx;
    size_t choice_idx;
  };

  bool OracleAccepts();
  /// Next(), drawing the produced mapping's storage from `pool` when set.
  std::optional<Mapping> NextPooled(MappingPool* pool);

  std::vector<VarId> vars_;
  const Document* doc_;
  size_t num_spans_;
  EvalOracle oracle_;
  ExtendedMapping current_;
  std::vector<Frame> stack_;
  CancelGauge gauge_;
  bool started_ = false;
  bool done_ = false;
  size_t oracle_calls_ = 0;
};

/// ⟦A⟧_doc for sequential VA via the PTIME matcher (Theorem 5.7 + 5.1).
MappingSet EnumerateSequential(const VA& a, const Document& doc);

/// ⟦A⟧_doc for arbitrary VA via the FPT evaluator (Theorem 5.10 + 5.1).
MappingSet EnumerateVa(const VA& a, const Document& doc);

/// Streaming variants of the same: `scratch` supplies the oracle's
/// transient memory (it is Reset() between oracle calls); results are
/// pushed into `sink`. A tripped `cancel` token ends the stream early;
/// rows already pushed are the caller's to discard (the request surfaces
/// only the error Status).
void EnumerateSequentialTo(const VA& a, const Document& doc, Arena* scratch,
                           MappingSink& sink, CancelToken* cancel = nullptr);
void EnumerateVaTo(const VA& a, const Document& doc, Arena* scratch,
                   MappingSink& sink, CancelToken* cancel = nullptr);

/// Enumerator objects for delay instrumentation. `scratch`, when non-null,
/// must outlive the enumerator and is reused across oracle calls.
MappingEnumerator MakeSequentialEnumerator(const VA& a, const Document& doc,
                                           Arena* scratch = nullptr,
                                           CancelToken* cancel = nullptr);
MappingEnumerator MakeVaEnumerator(const VA& a, const Document& doc,
                                   Arena* scratch = nullptr,
                                   CancelToken* cancel = nullptr);

}  // namespace spanners

#endif  // SPANNERS_AUTOMATA_ENUMERATE_H_
