// Lazy determinization of VA letter behaviour (the engine's membership
// fast path). The VA's variable operations are relaxed to ε, which leaves
// a classical NFA over the letter transitions; its subset construction is
// materialized on the fly, one transition at a time, over an
// atom-compressed alphabet (PartitionAtoms refines every letter CharSet
// into disjoint atoms; a 256-entry byte→atom table classifies input
// bytes). The resulting DFA decides in one table lookup per byte whether
// ⟦A⟧_doc can be non-empty:
//
//  - for a *sequential* VA the relaxation is exact: runs are structurally
//    op-consistent, so DFA acceptance ⟺ NonEmp (the Theorem 5.7 state-set
//    simulation collapses to cached table lookups);
//  - for an arbitrary VA it is a sound over-approximation: every real run
//    is a run of the relaxed NFA, so "no DFA match" still proves
//    ⟦A⟧_doc = ∅. The engine only acts on the negative answer when the
//    VA is not sequential.
//
// The transition cache is shared across documents and threads: readers
// walk the tables under a shared lock; a missing transition is computed
// once under the exclusive lock. Memory is bounded (max states / bytes);
// at the bound the cache evicts its coldest states (least recently
// touched by a transition computation) instead of giving up, so a plan
// whose working set exceeds the budget keeps its hot core resident and
// stays on the fast path. Readers detect an eviction through a generation
// counter and restart the document scan; a scan that restarts too often
// (a genuinely thrashing working set) reports "unknown" for that call
// only, and the caller decides by running the evaluator — answers stay
// exact either way.
#ifndef SPANNERS_AUTOMATA_LAZY_DFA_H_
#define SPANNERS_AUTOMATA_LAZY_DFA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "automata/va.h"
#include "common/cancel.h"

namespace spanners {

struct LazyDfaOptions {
  /// Upper bound on resident DFA states before cold ones are evicted.
  size_t max_states = 4096;
  /// Upper bound on transition-table bytes before cold states are evicted.
  size_t max_table_bytes = size_t{16} << 20;
  /// A single Matches call restarting more than this often (evictions kept
  /// invalidating its path) reports "unknown" instead of spinning.
  size_t max_restarts = 8;
};

struct LazyDfaStats {
  size_t num_atoms = 0;    // alphabet atoms (excluding the dead class)
  size_t num_states = 0;   // resident DFA states
  uint64_t misses = 0;     // transitions computed (cache extensions)
  uint64_t evictions = 0;  // cold states evicted at the memory bound
  uint64_t fallbacks = 0;  // calls answered "unknown" (caller simulates)
  bool overflowed = false; // at least one call fell back
};

class LazyDfa {
 public:
  explicit LazyDfa(const VA& a, LazyDfaOptions options = {});

  LazyDfa(const LazyDfa&) = delete;
  LazyDfa& operator=(const LazyDfa&) = delete;

  /// Whether the relaxed NFA accepts `text` — amortized one byte→atom
  /// classification plus one table lookup per byte. Thread-safe; the
  /// per-plan transition cache grows across calls and is shared by every
  /// calling thread. nullopt when this call could not be completed within
  /// the memory bound (no state had room even after evicting, or
  /// concurrent evictions kept invalidating the scan): the caller must
  /// decide by NFA simulation. Later calls try again — an unknown is
  /// per-call, never sticky.
  /// A tripped `cancel` token also yields nullopt (polled once per
  /// CancelGauge::kScanChunkBytes input bytes); callers that would react
  /// to nullopt by simulating must check the token first — after a trip
  /// the right move is to abort, not to fall back.
  std::optional<bool> Matches(std::string_view text,
                              CancelToken* cancel = nullptr) const;

  size_t num_atoms() const { return atoms_.size(); }
  LazyDfaStats stats() const;

 private:
  // One interned DFA state: an ε/op-closed, sorted subset of VA states
  // plus its (lazily filled) successor row, indexed by atom id. Row slot 0
  // is the dead class (bytes outside every letter CharSet) and always
  // holds kDeadState. kUnknownState marks a not-yet-computed transition.
  struct State {
    std::vector<StateId> subset;
    std::vector<uint32_t> row;  // size atoms_.size() + 1
    bool accepting = false;
    /// Recency for eviction, from use_clock_: bumped when this state is
    /// created, found by Intern, or extended by ComputeTransition. (A
    /// fully cached traversal does not bump — cheap reads stay cheap — so
    /// "cold" means "no transition computed from or into it recently";
    /// a wrongly evicted hot state is rebuilt by one miss, which re-bumps
    /// it.)
    uint64_t last_used = 0;
  };

  static constexpr uint32_t kDeadState = 0;
  static constexpr uint32_t kUnknownState = UINT32_MAX;

  /// Closure of `subset` under ε and (relaxed) variable-op transitions;
  /// returns the sorted, deduplicated result.
  std::vector<StateId> Closure(std::vector<StateId> subset) const;

  /// Interns `subset` (must be closed+sorted), creating a new state when
  /// unseen — evicting cold states first if the bounds require it
  /// (`pinned` is the state the caller is extending and is never
  /// evicted). Returns kUnknownState when there is no room even after
  /// eviction. Precondition: exclusive lock held (const: cache members
  /// are mutable).
  uint32_t Intern(std::vector<StateId> subset, uint32_t pinned) const;

  /// Evicts the coldest ~quarter of resident states (never the dead
  /// state, the start state, or `pinned`): un-interns them, clears their
  /// rows, resets every surviving row entry that pointed at them to
  /// kUnknownState, and bumps generation_ so in-flight readers restart.
  /// Returns the number of states evicted. Precondition: exclusive lock.
  size_t EvictColdStates(uint32_t pinned) const;

  /// Computes states_[from].row[atom]. Precondition: exclusive lock held.
  /// Returns kUnknownState when the bounds leave no room.
  uint32_t ComputeTransition(uint32_t from, uint32_t atom) const;

  // Owned copy: plans embedding a LazyDfa stay movable (a reference into
  // the embedding object would dangle after a move).
  const VA va_;
  const LazyDfaOptions options_;
  std::vector<CharSet> atoms_;     // disjoint; atom id = index + 1
  uint16_t byte_to_atom_[256];     // 0 = dead class
  uint32_t start_state_;

  mutable std::shared_mutex mu_;
  // deque: stable addresses across growth (readers hold references while
  // the writer appends). Evicted slots are recycled via free_slots_.
  mutable std::deque<State> states_;
  mutable std::map<std::vector<StateId>, uint32_t> interned_;
  mutable std::vector<uint32_t> free_slots_;
  mutable size_t table_bytes_ = 0;
  mutable uint64_t misses_ = 0;
  mutable uint64_t use_clock_ = 0;   // advanced per transition computation
  mutable uint64_t generation_ = 0;  // advanced per eviction batch
  mutable uint64_t evictions_ = 0;
  // Incremented under the shared lock (reader gave up): atomic.
  mutable std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace spanners

#endif  // SPANNERS_AUTOMATA_LAZY_DFA_H_
