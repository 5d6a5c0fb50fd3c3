// MultiQueryExtractor: runs a whole fleet of resident plans over a corpus
// with ONE document scan gating all of them. A spanner service keeps many
// compiled plans cached (PlanCache) and sees the same corpus under every
// one of them; running the plans sequentially costs one prefilter
// memmem/DFA pass per plan per document. This tier instead compiles every
// plan's MOST SELECTIVE required-literal clause (clauses()[0] — the
// longest-minimum-literal one; selective literals are also the rare ones,
// so the combined automaton leaves its root state rarely and the scan
// fast-forwards with memchr) into one shared Aho–Corasick automaton and,
// per document:
//
//      document text
//           │  one shared AC pass (every plan's strongest clause at once)
//           ▼
//   plan bitset ──► plan p's clause 0 found?        ──no──► skip p
//           │ yes
//   ┌───────┼─ plan p's own per-document path (ExtractionPlan) ─────────┐
//   │       ▼                                                           │
//   │ p's full prefilter, if it has more clauses  ──rejects──► skip p   │
//   │       │ passes                                                    │
//   │       ▼                                                           │
//   │ p's lazy-DFA membership gate                ──rejects──► skip p   │
//   │       │ passes                                                    │
//   │       ▼                                                           │
//   │ p's evaluator (run enumeration / Thm 5.7 / Thm 5.10)              │
//   └───────────────────────────────────────────────────────────────────┘
//
// The fleet owns only the shared pass; everything below it, the per-plan
// counters included, is the plan's ExtractSortedInto told what the pass
// found (ExtractionPlan::SharedGate), so a plan gates, evaluates and
// counts the same way alone and in any fleet. Only plans that survive
// every tier reach an evaluator, so the dominant cost on a
// low-selectivity fleet — scanning the 99% of documents that match
// nothing — is paid once per document instead of once per plan per
// document. Results are byte-identical to running each plan alone (each
// tier is sound: the shared pass computes exactly the plan's own
// strongest-clause satisfaction, and survivors re-run their complete
// prefilter), delivered per plan in deterministic corpus order.
//
// Thread safety: the extractor is immutable after construction; one
// instance is shared by every worker of a BatchExtractor::ExtractMulti
// call.
#ifndef SPANNERS_ENGINE_MULTI_QUERY_H_
#define SPANNERS_ENGINE_MULTI_QUERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/aho_corasick.h"
#include "core/document.h"
#include "core/mapping.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"

namespace spanners {
namespace engine {

class MultiQueryExtractor {
 public:
  /// Builds the shared gate over `plans` (typically PlanCache residents).
  /// Plan order is preserved and defines the output order of ExtractMulti.
  /// With build_shared_gate=false the combined Aho–Corasick automaton is
  /// skipped entirely — every plan runs its own full prefilter/DFA cascade
  /// (still byte-identical, just without the shared pass). That is the
  /// degraded-mode escape hatch when the automaton would exceed a
  /// server's memory budget (BuildFleetWithinBudget). Each plan's
  /// gating_enabled() governs its own cascade either way.
  explicit MultiQueryExtractor(
      std::vector<std::shared_ptr<const ExtractionPlan>> plans,
      bool build_shared_gate = true);

  /// Convenience: every plan resident in `cache`, in deterministic
  /// (key-sorted) order.
  static MultiQueryExtractor FromCache(const PlanCache& cache);

  size_t num_plans() const { return plans_.size(); }
  const ExtractionPlan& plan(size_t i) const { return *plans_[i]; }
  const std::shared_ptr<const ExtractionPlan>& plan_ptr(size_t i) const {
    return plans_[i];
  }

  /// Extracts one document under every plan: out[p] is filled (cleared
  /// first, previous mappings recycled through the scratch pool) with the
  /// sorted ⟦γ_p⟧_doc — byte-identical to plans_[p]->ExtractSortedInto.
  /// `out` must hold num_plans() slots. One scratch per worker thread;
  /// its multi_clause_bits vector is the AC pass's satisfied-clause set.
  void ExtractAllSortedInto(const Document& doc, PlanScratch* scratch,
                            std::vector<Mapping>** out) const;

  /// plan(i).stats(): the plan's own counters, which count every document
  /// offered to it by any fleet or batch (see PlanStats).
  PlanStats plan_stats(size_t i) const { return plans_[i]->stats(); }

  /// Total distinct gate literals across the fleet (0 = no shared gate;
  /// every plan falls through to its DFA tier).
  size_t num_gate_literals() const { return gate_literals_; }
  /// Plans with at least one prefilter clause (gateable by the AC pass).
  size_t num_gated_plans() const { return gated_plans_; }

  /// Fleet-owned memory beyond the shared plans: the combined automaton's
  /// flat goto table plus the pattern→plan CSR and per-plan bookkeeping.
  /// This is the number a serving memory budget compares against — the
  /// plans themselves are cache residents and exist either way.
  size_t ApproxMemoryBytes() const;

  /// e.g. "multi-query: 32 plans (32 literal-gated), aho-corasick: …".
  std::string ToString() const;

 private:
  std::vector<std::shared_ptr<const ExtractionPlan>> plans_;
  // Whether plan p participates in the shared pass (has a prefilter
  // clause) and, per document, which bit of the scratch bitset records
  // its strongest clause's satisfaction (the bit index is p itself).
  std::vector<uint8_t> plan_gated_;
  // The combined automaton over every plan's strongest clause; pattern
  // id → the plan bits it satisfies (CSR: pattern_plan_offsets_ has
  // num patterns + 1 entries into pattern_plan_ids_).
  std::unique_ptr<const AhoCorasick> ac_;
  std::vector<uint32_t> pattern_plan_offsets_;
  std::vector<uint32_t> pattern_plan_ids_;
  size_t gate_literals_ = 0;
  size_t gated_plans_ = 0;
};

/// Builds the fleet over `plans`; when the fleet's own memory
/// (ApproxMemoryBytes) exceeds `budget_bytes`, rebuilds it without the
/// shared gate, whose automaton is the only non-trivial allocation, and
/// sets *degraded. 0 = unlimited.
std::shared_ptr<const MultiQueryExtractor> BuildFleetWithinBudget(
    std::vector<std::shared_ptr<const ExtractionPlan>> plans,
    size_t budget_bytes, bool* degraded);

/// Generation-checked holder of a PlanCache's resident fleet. Building a
/// MultiQueryExtractor costs a full ResidentPlans() snapshot plus an
/// Aho–Corasick construction over every gated plan's strongest clause —
/// previously paid on EVERY serving-loop batch, even when the cache had
/// not changed at all. Get() instead rebuilds only when
/// PlanCache::generation() has moved since the last build (a membership
/// change: insert, eviction, Clear); an unchanged cache returns the
/// cached fleet with one atomic load and a mutex hop.
///
/// The generation is read BEFORE the snapshot: a membership change racing
/// the build bumps the generation past the recorded one, so the next
/// Get() conservatively rebuilds — the fleet can lag one batch behind a
/// concurrent insert (exactly as a FromCache snapshot could) but can
/// never get stuck stale. Returned fleets are shared_ptr-owned: a caller
/// mid-extraction keeps its fleet alive across any rebuild.
class CachedFleet {
 public:
  /// `cache` is borrowed and must outlive this holder.
  explicit CachedFleet(const PlanCache& cache) : cache_(cache) {}

  /// The fleet over the cache's current residents, rebuilt only when the
  /// cache's membership generation changed. Thread-safe.
  std::shared_ptr<const MultiQueryExtractor> Get();

  /// Caps the fleet's own memory: Get() builds through
  /// BuildFleetWithinBudget, and degraded() stays true until a later
  /// rebuild fits again. 0 = unlimited.
  void set_memory_budget(size_t bytes) {
    memory_budget_bytes_.store(bytes, std::memory_order_relaxed);
  }
  /// Whether the current fleet was built gateless to satisfy the budget.
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Fleet constructions performed so far (1 after the first Get()).
  uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  const PlanCache& cache_;
  std::mutex mu_;
  std::shared_ptr<const MultiQueryExtractor> fleet_;  // guarded by mu_
  uint64_t built_generation_ = 0;                     // guarded by mu_
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<size_t> memory_budget_bytes_{0};
  std::atomic<bool> degraded_{false};
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_MULTI_QUERY_H_
