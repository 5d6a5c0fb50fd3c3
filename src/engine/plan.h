// ExtractionPlan: a Spanner plus everything the engine wants decided once
// per pattern instead of once per document — fragment analysis (functional
// / sequential / spanRGX, via rgx/analysis.h), evaluator selection between
// run enumeration, the Theorem 5.7 sequential path and the Theorem 5.10
// FPT path, and per-call scratch reuse. A compiled plan is immutable and
// safe to share across threads; mutable scratch lives in a caller-owned
// PlanScratch (one per worker thread).
#ifndef SPANNERS_ENGINE_PLAN_H_
#define SPANNERS_ENGINE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/lazy_dfa.h"
#include "common/arena.h"
#include "common/cancel.h"
#include "common/status.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "core/spanner.h"
#include "engine/prefilter.h"
#include "obs/metrics.h"
#include "rules/rule.h"

namespace spanners {
namespace engine {

/// One-time structural analysis of a compiled pattern.
struct PlanInfo {
  bool sequential_va = false;   // §5.2 PTIME machinery applies
  bool functional_rgx = false;  // [Fagin et al.] fragment (total mappings)
  bool span_rgx = false;        // §3.3 fragment: vars wrap Σ* only
  size_t num_vars = 0;
  size_t num_states = 0;
  size_t num_transitions = 0;
  Spanner::Evaluator evaluator = Spanner::Evaluator::kRunEnumeration;
  /// Literal requirement gating this plan ("" when it cannot prune).
  std::string prefilter;
  /// Alphabet atoms of the lazy-DFA membership gate (0 = no gate built).
  size_t dfa_atoms = 0;

  /// e.g. "sequential, functional; 2 vars, 14 states; run-enumeration;
  /// prefilter lit("Seller: "); lazy-dfa 7 atoms".
  std::string ToString() const;
};

/// Reusable per-thread scratch for Extract calls: arenas and the pooled
/// result storage survive across documents (the arenas are Reset(), not
/// freed, between them), so steady-state extraction does not touch malloc.
struct PlanScratch {
  /// Evaluator scratch; Reset() by the leaf evaluators per extraction.
  Arena arena;
  /// Relational-operator scratch (join tables, dedup sets) for compiled
  /// queries; Reset() once per document by query::CompiledQuery, never by
  /// the leaf evaluators — build-side state survives leaf extractions.
  Arena query_arena;
  /// Recycled result-Mapping entry vectors; refilled from consumed output.
  MappingPool pool;
  /// Satisfied-clause bitset of the multi-query shared Aho–Corasick pass
  /// (engine::MultiQueryExtractor); sized on first use, reused across
  /// documents.
  std::vector<uint64_t> multi_clause_bits;
  /// Cancellation/budget token governing every extraction run through
  /// this scratch; not owned, may be null (never cancels). Once it trips,
  /// extraction results obtained through this scratch are meaningless —
  /// callers check the token, convert with CancelToken::ToStatus(), and
  /// discard partial output.
  CancelToken* cancel = nullptr;
};

/// Monotonic extraction counters of one plan; safe under concurrent
/// extraction. They count every time a document is offered to the plan,
/// whoever offers it: a batch over the plan alone, a query scan, or any
/// MultiQueryExtractor fleet that holds the plan. A plan listed twice in
/// one fleet is offered each document twice and counts it twice.
///
/// Counter semantics. Each offered document lands in exactly one of the
/// four disjoint outcomes {ac_gate_skipped, prefilter_skipped,
/// dfa_skipped, evaluated()}, and `documents` is their sum:
///     documents == ac_gate_skipped + prefilter_skipped + dfa_skipped
///                  + evaluated().
/// The skip counters record which tier REJECTED the document (cheapest
/// tier first — a document the AC pass rejects is never offered to the
/// prefilter, and so on); `mappings` accumulates only over evaluated
/// documents. With the plan's gating disabled only a fleet's shared AC
/// pass can skip a document.
struct PlanStats {
  uint64_t documents = 0;
  uint64_t mappings = 0;
  /// Documents rejected by the literal prefilter (no automaton touched).
  uint64_t prefilter_skipped = 0;
  /// Documents rejected by the lazy-DFA membership gate.
  uint64_t dfa_skipped = 0;
  /// Documents rejected for this plan by the *shared* multi-query
  /// Aho–Corasick pass (one corpus scan gating every resident plan).
  /// Only MultiQueryExtractor bumps this; a plan run alone counts its
  /// literal rejections under prefilter_skipped.
  uint64_t ac_gate_skipped = 0;

  /// Documents that survived every gate and reached an evaluator.
  uint64_t evaluated() const {
    const uint64_t skipped =
        ac_gate_skipped + prefilter_skipped + dfa_skipped;
    return documents >= skipped ? documents - skipped : 0;
  }

  /// Element-wise accumulation (fleet-level aggregation over plans).
  PlanStats& operator+=(const PlanStats& o);

  /// Derived view with tier-skip percentages, e.g. "1000 docs: 950
  /// skipped (95.0% — 900 ac, 30 prefilter, 20 dfa), 50 evaluated
  /// (5.0%), 37 mappings".
  std::string ToString() const;
};

/// The engine's unit of per-document work: anything that can produce the
/// deterministically sorted mapping set of one document. Implemented by
/// ExtractionPlan (one compiled pattern) and query::CompiledQuery (a whole
/// algebra expression); BatchExtractor parallelizes over this interface,
/// so every representation shares the same corpus machinery.
class DocumentExtractor {
 public:
  virtual ~DocumentExtractor() = default;

  /// The output variables (the column set of formatted rows).
  virtual const VarSet& vars() const = 0;

  /// Fills *out (cleared first) with the document's unique mappings in
  /// Mapping::operator< order. `scratch` supplies arenas and pooled
  /// mapping storage; one scratch per worker thread.
  virtual void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                                 std::vector<Mapping>* out) const = 0;

  /// A literal requirement every matching document meets (what a posting
  /// index narrows a batch by), or null when there is none to offer.
  virtual const Prefilter* required_literals() const { return nullptr; }
};

class ExtractionPlan : public DocumentExtractor {
 public:
  /// Parses, compiles and analyses `pattern`.
  static Result<ExtractionPlan> Compile(std::string_view pattern);

  /// Plans an already-built spanner (e.g. one assembled via the Theorem
  /// 4.5 algebra). `pattern` is a display/cache key; defaults to the
  /// spanner's own pattern text.
  static ExtractionPlan FromSpanner(Spanner spanner, std::string pattern = "");

  /// Plans a rule program — the union-of-rules semantics of §4.3. Every
  /// rule must be tree-like (Lemma B.1 turns each into an RGX; the program
  /// becomes one disjunction), so rule programs flow through the exact
  /// plan/cache/evaluator machinery patterns use. NotSupported when a rule
  /// is not tree-like after normalisation. `key` is the cache/display key.
  static Result<ExtractionPlan> FromRuleProgram(
      const std::vector<ExtractionRule>& rules, std::string key);

  ExtractionPlan(ExtractionPlan&&) = default;
  ExtractionPlan& operator=(ExtractionPlan&&) = default;

  const Spanner& spanner() const { return spanner_; }
  const std::string& pattern() const { return pattern_; }
  const PlanInfo& info() const { return info_; }
  const VarSet& vars() const override { return spanner_.vars(); }

  /// The literal requirement gating this plan (match-all when it cannot
  /// prune) and the lazy-DFA membership gate (never null).
  const Prefilter& prefilter() const { return prefilter_; }
  const Prefilter* required_literals() const override { return &prefilter_; }
  const LazyDfa& lazy_dfa() const { return *dfa_; }

  /// Turns the prefilter + lazy-DFA document gate off (on by default),
  /// also when a fleet runs the plan. For benchmarks and differential
  /// tests; set before sharing the plan across threads.
  void set_gating_enabled(bool on) { gating_enabled_ = on; }
  bool gating_enabled() const { return gating_enabled_; }

  /// Fills *out (cleared first, its previous mappings recycled through the
  /// scratch pool) with the document's unique mappings in Mapping::operator<
  /// order. The engine's per-document hot path: zero heap traffic once
  /// arena and pool have reached their high-water marks.
  void ExtractSortedInto(const Document& doc, PlanScratch* scratch,
                         std::vector<Mapping>* out) const override;

  /// What a fleet's shared Aho–Corasick pass (MultiQueryExtractor) found
  /// for this plan in one document.
  enum class SharedGate : uint8_t {
    kNone,        // the plan takes no part in a shared pass
    kClauseMet,   // some literal of prefilter().clauses()[0] occurs
    kClauseMiss,  // none does: the document has no mappings
  };

  /// ExtractSortedInto for a fleet member, told what the shared pass
  /// decided. kClauseMiss skips the document outright; kClauseMet skips
  /// the prefilter when clause 0 is its only clause (with more clauses it
  /// runs the whole prefilter); then the lazy DFA and the evaluator run
  /// as in ExtractSortedInto.
  void ExtractSortedInto(const Document& doc, SharedGate shared,
                         PlanScratch* scratch,
                         std::vector<Mapping>* out) const;

  /// Streams ⟦γ⟧_doc into `sink` in the evaluator's (unsorted) order —
  /// the composable primitive used by algebra scan nodes.
  void ExtractTo(const Document& doc, PlanScratch* scratch,
                 MappingSink& sink) const;

  /// Snapshot of the monotonic counters.
  PlanStats stats() const;

 private:
  ExtractionPlan(Spanner spanner, std::string pattern);

  /// Where one offered document landed; indexes Counters::landed.
  enum class Outcome : uint8_t {
    kAcSkipped,
    kPrefilterSkipped,
    kDfaSkipped,
    kEvaluated,
  };

  /// The gate cascade: true when the document provably has no mappings
  /// (the shared pass, the literal prefilter or the lazy DFA rejected
  /// it), counted as that tier's skip. A tripped `cancel` answers false
  /// (no proof): the evaluator stage notices the trip and aborts there.
  bool GateRejects(const Document& doc, SharedGate shared,
                   CancelToken* cancel) const;

  /// The evaluator stage: streams ⟦γ⟧_doc into `sink` under the
  /// tier.eval_* span, sorts *sorted (the vector behind `sink`) when
  /// given, and counts the document as evaluated.
  void Evaluate(const Document& doc, PlanScratch* scratch, MappingSink& sink,
                std::vector<Mapping>* sorted) const;

  /// Records where a document landed: the plan's counters and, with
  /// telemetry on, the engine.* registry counters.
  void Count(Outcome outcome, uint64_t mappings) const;

  Spanner spanner_;
  std::string pattern_;
  PlanInfo info_;
  Prefilter prefilter_;
  // unique_ptr: the DFA owns a mutex (unmovable) and the plan must move.
  std::unique_ptr<LazyDfa> dfa_;
  bool gating_enabled_ = true;
  // Per-plan stats on the telemetry subsystem's sharded-counter primitive
  // (obs::Counter): always-on — PlanStats works without enabling obs —
  // and contention-free across worker threads. No `documents` counter:
  // stats() derives it, so a skipped document costs one add. unique_ptr
  // keeps the plan movable despite the embedded atomics.
  struct Counters {
    obs::Counter landed[4];  // indexed by Outcome
    obs::Counter mappings;
  };
  std::unique_ptr<Counters> counters_;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_PLAN_H_
