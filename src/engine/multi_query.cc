#include "engine/multi_query.h"

#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/span.h"

namespace spanners {
namespace engine {

namespace {

obs::Histogram* AcScanHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("tier.ac_scan_ns");
  return h;
}

}  // namespace

MultiQueryExtractor::MultiQueryExtractor(
    std::vector<std::shared_ptr<const ExtractionPlan>> plans,
    bool build_shared_gate)
    : plans_(std::move(plans)) {
  // The shared pass tracks ONE clause per plan — its strongest
  // (clauses()[0], longest minimum literal). Selective literals are rare
  // literals, so the combined automaton stays in its memchr-accelerated
  // root state for almost every byte; the plan's weaker clauses are
  // re-checked per surviving document by its own prefilter, where they
  // cost a memmem over the rare candidate instead of automaton states on
  // every byte of the corpus. Each distinct literal becomes one pattern
  // feeding every plan that shares it (common in a fleet of similar
  // queries).
  plan_gated_.resize(plans_.size(), 0);
  // Gateless (degraded-memory) build: no combined automaton, so every
  // plan runs its own full cascade — degraded mode still skips
  // non-matching documents per plan, just without the shared pass.
  if (!build_shared_gate) return;
  std::vector<std::string> patterns;
  std::vector<std::vector<uint32_t>> plans_of_pattern;
  std::unordered_map<std::string, size_t> pattern_index;
  for (size_t p = 0; p < plans_.size(); ++p) {
    const std::vector<Prefilter::Clause>& clauses =
        plans_[p]->prefilter().clauses();
    if (clauses.empty()) continue;
    plan_gated_[p] = 1;
    ++gated_plans_;
    for (const std::string& lit : clauses[0].literals) {
      auto [it, inserted] = pattern_index.emplace(lit, patterns.size());
      if (inserted) {
        patterns.push_back(lit);
        plans_of_pattern.emplace_back();
      }
      plans_of_pattern[it->second].push_back(static_cast<uint32_t>(p));
    }
  }

  gate_literals_ = patterns.size();
  if (!patterns.empty()) {
    ac_ = std::make_unique<const AhoCorasick>(patterns);
    pattern_plan_offsets_.reserve(patterns.size() + 1);
    pattern_plan_offsets_.push_back(0);
    for (const std::vector<uint32_t>& ids : plans_of_pattern) {
      pattern_plan_ids_.insert(pattern_plan_ids_.end(), ids.begin(),
                               ids.end());
      pattern_plan_offsets_.push_back(
          static_cast<uint32_t>(pattern_plan_ids_.size()));
    }
  }
}

MultiQueryExtractor MultiQueryExtractor::FromCache(const PlanCache& cache) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (auto& [key, plan] : cache.ResidentPlans())
    plans.push_back(std::move(plan));
  return MultiQueryExtractor(std::move(plans));
}

size_t MultiQueryExtractor::ApproxMemoryBytes() const {
  size_t bytes = 0;
  if (ac_ != nullptr) bytes += ac_->table_bytes();
  bytes += pattern_plan_offsets_.capacity() * sizeof(uint32_t);
  bytes += pattern_plan_ids_.capacity() * sizeof(uint32_t);
  bytes += plan_gated_.capacity();
  bytes += plans_.size() * sizeof(std::shared_ptr<const ExtractionPlan>);
  return bytes;
}

void MultiQueryExtractor::ExtractAllSortedInto(const Document& doc,
                                               PlanScratch* scratch,
                                               std::vector<Mapping>** out)
    const {
  const std::string_view text = doc.text();
  const size_t num_plans = plans_.size();
  CancelToken* cancel = scratch->cancel;
  std::vector<uint64_t>& bits = scratch->multi_clause_bits;

  // Once per document: the combined pass over every plan's strongest
  // clause. Bit p records exactly what plan p's own prefilter would
  // compute for that clause, so gating decisions — and therefore results
  // — match the plans run alone. The scan stops early once every gated
  // plan is satisfied.
  if (ac_ != nullptr) {
    obs::ObsSpan span(AcScanHistogram(), "ac_scan");
    bits.assign((num_plans + 63) / 64, 0);
    size_t remaining = gated_plans_;
    if (!text.empty()) {
      ac_->Scan(
          text,
          [&](uint32_t pattern, size_t) {
            for (uint32_t k = pattern_plan_offsets_[pattern];
                 k < pattern_plan_offsets_[pattern + 1]; ++k) {
              const uint32_t p = pattern_plan_ids_[k];
              uint64_t& word = bits[p >> 6];
              const uint64_t bit = uint64_t{1} << (p & 63);
              if ((word & bit) == 0) {
                word |= bit;
                if (--remaining == 0) return false;
              }
            }
            return true;
          },
          cancel);
    }
    // A trip mid-scan left the bitset partial; gating decisions derived
    // from it would be wrong. Bail — the caller discards via the token.
    if (cancel != nullptr && cancel->tripped()) return;
  }

  // Every plan then runs its own cascade from what the pass found.
  for (size_t p = 0; p < num_plans; ++p) {
    if (cancel != nullptr && cancel->tripped()) return;
    using SharedGate = ExtractionPlan::SharedGate;
    SharedGate shared = SharedGate::kNone;
    if (plan_gated_[p])
      shared = (bits[p >> 6] >> (p & 63) & 1) != 0 ? SharedGate::kClauseMet
                                                   : SharedGate::kClauseMiss;
    plans_[p]->ExtractSortedInto(doc, shared, scratch, out[p]);
  }
}

std::shared_ptr<const MultiQueryExtractor> BuildFleetWithinBudget(
    std::vector<std::shared_ptr<const ExtractionPlan>> plans,
    size_t budget_bytes, bool* degraded) {
  auto fleet = std::make_shared<const MultiQueryExtractor>(plans);
  *degraded = budget_bytes > 0 && fleet->ApproxMemoryBytes() > budget_bytes;
  if (*degraded) {
    // The gateless fleet still answers byte-identically; every plan
    // filters on its own.
    fleet = std::make_shared<const MultiQueryExtractor>(
        std::move(plans), /*build_shared_gate=*/false);
  }
  return fleet;
}

std::shared_ptr<const MultiQueryExtractor> CachedFleet::Get() {
  std::lock_guard<std::mutex> lock(mu_);
  // Read the generation before snapshotting: if a membership change lands
  // between the two, it bumps the counter past `gen` and the next Get()
  // rebuilds — stale-forever is impossible.
  const uint64_t gen = cache_.generation();
  if (fleet_ == nullptr || built_generation_ != gen) {
    std::vector<std::shared_ptr<const ExtractionPlan>> plans;
    for (auto& [key, plan] : cache_.ResidentPlans())
      plans.push_back(std::move(plan));
    bool degraded = false;
    fleet_ = BuildFleetWithinBudget(
        std::move(plans), memory_budget_bytes_.load(std::memory_order_relaxed),
        &degraded);
    rebuilds_.fetch_add(degraded ? 2 : 1, std::memory_order_relaxed);
    degraded_.store(degraded, std::memory_order_relaxed);
    built_generation_ = gen;
  }
  return fleet_;
}

std::string MultiQueryExtractor::ToString() const {
  std::string out = "multi-query: " + std::to_string(plans_.size()) +
                    " plans (" + std::to_string(gated_plans_) +
                    " literal-gated, " + std::to_string(gate_literals_) +
                    " gate literals)";
  if (ac_ != nullptr) out += ", " + ac_->ToString();
  return out;
}

}  // namespace engine
}  // namespace spanners
