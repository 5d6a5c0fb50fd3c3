// Brute-force run semantics of VA / VAstk (paper §3.2): explores every run
// configuration explicitly. Exponential in the number of variables —
// intended as ground truth for tests and small documents only. Efficient
// evaluation lives in matcher.h / fpt.h / enumerate.h.
#ifndef SPANNERS_AUTOMATA_RUN_EVAL_H_
#define SPANNERS_AUTOMATA_RUN_EVAL_H_


#include "automata/va.h"
#include "common/arena.h"
#include "common/cancel.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"

namespace spanners {

/// ⟦A⟧_d under variable-*set* semantics: variables open/close in any order,
/// each at most once, opens may dangle (the variable is then unused).
MappingSet RunEval(const VA& a, const Document& doc);

/// ⟦A⟧_d under variable-*stack* semantics (VAstk): only the most recently
/// opened, still-open variable may be closed.
MappingSet RunEvalStack(const VA& a, const Document& doc);

/// Streaming cores: `arena` is scratch (Reset() on entry — do not keep
/// live allocations in it across the call); each unique result mapping is
/// pushed into `sink` (in unspecified but deterministic order), built from
/// the sink's pool when one is attached. Reusing one arena across
/// documents makes steady-state evaluation allocation-free.
/// `vars`, when given, must equal a.Vars(); callers that precompute it
/// (Spanner) save the per-document recomputation on the hot path.
/// A tripped `cancel` token aborts the configuration search; partial
/// results are discarded (nothing further reaches the sink) and the
/// caller reports the token's Status instead.
void RunEvalTo(const VA& a, const Document& doc, Arena* arena,
               MappingSink& sink, const VarSet* vars = nullptr,
               CancelToken* cancel = nullptr);
void RunEvalStackTo(const VA& a, const Document& doc, Arena* arena,
                    MappingSink& sink, const VarSet* vars = nullptr,
                    CancelToken* cancel = nullptr);

/// True iff A produces only hierarchical mappings on `doc`.
bool IsHierarchicalOn(const VA& a, const Document& doc);

}  // namespace spanners

#endif  // SPANNERS_AUTOMATA_RUN_EVAL_H_
