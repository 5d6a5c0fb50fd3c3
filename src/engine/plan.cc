#include "engine/plan.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "obs/span.h"
#include "rgx/analysis.h"
#include "rules/convert.h"

namespace spanners {
namespace engine {

namespace {

/// Registry handles of the engine's per-tier metrics, resolved once.
/// Histogram counts double as per-tier document counts: every document
/// that ENTERS a tier records one observation in that tier's histogram,
/// and the engine.* counters record where documents LANDED.
struct EngineMetrics {
  obs::Histogram* prefilter_ns;
  obs::Histogram* dfa_gate_ns;
  obs::Histogram* eval_ns[3];  // indexed by Spanner::Evaluator
  obs::Counter* documents;
  obs::Counter* mappings;
  // Indexed by ExtractionPlan::Outcome, minus kAcSkipped: that counter is
  // registered on first use (AcGateSkipped), so a run without a fleet
  // reports no engine.ac_gate_skipped at all.
  obs::Counter* landed[4];
};

const EngineMetrics& Metrics() {
  static const EngineMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    EngineMetrics m;
    m.prefilter_ns = r.GetHistogram("tier.prefilter_ns");
    m.dfa_gate_ns = r.GetHistogram("tier.dfa_gate_ns");
    m.eval_ns[0] = r.GetHistogram("tier.eval_run_enum_ns");
    m.eval_ns[1] = r.GetHistogram("tier.eval_sequential_ns");
    m.eval_ns[2] = r.GetHistogram("tier.eval_fpt_ns");
    m.documents = r.GetCounter("engine.documents");
    m.mappings = r.GetCounter("engine.mappings");
    m.landed[0] = nullptr;
    m.landed[1] = r.GetCounter("engine.prefilter_skipped");
    m.landed[2] = r.GetCounter("engine.dfa_skipped");
    m.landed[3] = r.GetCounter("engine.evaluated");
    return m;
  }();
  return m;
}

obs::Counter* AcGateSkipped() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("engine.ac_gate_skipped");
  return c;
}

// Static trace labels per evaluator family (trace events keep pointers).
constexpr const char* kEvalSpanName[3] = {"eval.run_enum", "eval.sequential",
                                          "eval.fpt"};

std::string Percent(uint64_t part, uint64_t whole) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * double(part) / double(whole));
  return buf;
}

}  // namespace

PlanStats& PlanStats::operator+=(const PlanStats& o) {
  documents += o.documents;
  mappings += o.mappings;
  prefilter_skipped += o.prefilter_skipped;
  dfa_skipped += o.dfa_skipped;
  ac_gate_skipped += o.ac_gate_skipped;
  return *this;
}

std::string PlanStats::ToString() const {
  const uint64_t skipped =
      ac_gate_skipped + prefilter_skipped + dfa_skipped;
  std::string out = std::to_string(documents) + " docs: " +
                    std::to_string(skipped) + " skipped (" +
                    Percent(skipped, documents) + " — " +
                    std::to_string(ac_gate_skipped) + " ac, " +
                    std::to_string(prefilter_skipped) + " prefilter, " +
                    std::to_string(dfa_skipped) + " dfa), " +
                    std::to_string(evaluated()) + " evaluated (" +
                    Percent(evaluated(), documents) + "), " +
                    std::to_string(mappings) + " mappings";
  return out;
}

std::string PlanInfo::ToString() const {
  std::string out;
  out += sequential_va ? "sequential" : "non-sequential";
  if (functional_rgx) out += ", functional";
  if (span_rgx) out += ", spanRGX";
  out += "; " + std::to_string(num_vars) + " vars, " +
         std::to_string(num_states) + " states; ";
  out += std::string(EvaluatorToString(evaluator));
  if (!prefilter.empty()) out += "; prefilter " + prefilter;
  if (dfa_atoms > 0)
    out += "; lazy-dfa " + std::to_string(dfa_atoms) + " atoms";
  return out;
}

ExtractionPlan::ExtractionPlan(Spanner spanner, std::string pattern)
    : spanner_(std::move(spanner)),
      pattern_(std::move(pattern)),
      prefilter_(Prefilter::FromRgx(spanner_.rgx())),
      dfa_(std::make_unique<LazyDfa>(spanner_.va())),
      counters_(std::make_unique<Counters>()) {
  info_.sequential_va = spanner_.is_sequential();
  if (spanner_.rgx() != nullptr) {
    info_.functional_rgx = IsFunctional(spanner_.rgx());
    info_.span_rgx = IsSpanRgx(spanner_.rgx());
  }
  info_.num_vars = spanner_.vars().size();
  info_.num_states = spanner_.va().NumStates();
  info_.num_transitions = spanner_.va().NumTransitions();
  info_.evaluator = spanner_.RecommendedEvaluator();
  if (prefilter_.CanPrune()) {
    info_.prefilter = prefilter_.ToString();
    // Many-literal requirements evaluate as one automaton pass, not
    // per-literal memmem probes; worth surfacing in --stats.
    if (prefilter_.uses_aho_corasick()) info_.prefilter += " [aho-corasick]";
  }
  info_.dfa_atoms = dfa_->num_atoms();
}

Result<ExtractionPlan> ExtractionPlan::Compile(std::string_view pattern) {
  SPANNERS_ASSIGN_OR_RETURN(Spanner s, Spanner::FromPattern(pattern));
  return ExtractionPlan(std::move(s), std::string(pattern));
}

ExtractionPlan ExtractionPlan::FromSpanner(Spanner spanner,
                                           std::string pattern) {
  if (pattern.empty()) pattern = spanner.pattern();
  return ExtractionPlan(std::move(spanner), std::move(pattern));
}

Result<ExtractionPlan> ExtractionPlan::FromRuleProgram(
    const std::vector<ExtractionRule>& rules, std::string key) {
  if (rules.empty())
    return Status::InvalidArgument("empty rule program");
  // Lemma B.1 rule-by-rule, then one disjunction for the §4.3 union
  // semantics — the program compiles like any other formula from here on.
  std::vector<RgxPtr> members;
  members.reserve(rules.size());
  for (const ExtractionRule& rule : rules) {
    SPANNERS_ASSIGN_OR_RETURN(RgxPtr rgx, TreeRuleToRgx(rule));
    members.push_back(std::move(rgx));
  }
  return ExtractionPlan(Spanner::FromRgx(RgxNode::Disj(std::move(members))),
                        std::move(key));
}

bool ExtractionPlan::GateRejects(const Document& doc, SharedGate shared,
                                 CancelToken* cancel) const {
  if (shared == SharedGate::kClauseMiss) {
    Count(Outcome::kAcSkipped, 0);
    return true;
  }
  if (!gating_enabled_) return false;
  // A met clause 0 is all a one-clause prefilter would check; with more
  // clauses the whole prefilter runs (one memmem pass over a document
  // that is already a rare candidate).
  const size_t settled = shared == SharedGate::kClauseMet ? 1 : 0;
  if (prefilter_.clauses().size() > settled) {
    bool pass;
    {
      obs::ObsSpan span(Metrics().prefilter_ns, "prefilter");
      pass = prefilter_.Matches(doc.text(), cancel);
    }
    if (!pass) {
      Count(Outcome::kPrefilterSkipped, 0);
      return true;
    }
  }
  // The lazy DFA over-approximates ⟦A⟧ for any VA (ops relaxed to ε), so
  // its negative answer is always authoritative; nullopt = cache overflow
  // (or a tripped token), decide by the full evaluator instead — which
  // aborts immediately when the token tripped.
  std::optional<bool> verdict;
  {
    obs::ObsSpan span(Metrics().dfa_gate_ns, "dfa_gate");
    verdict = dfa_->Matches(doc.text(), cancel);
  }
  if (verdict.has_value() && !*verdict) {
    Count(Outcome::kDfaSkipped, 0);
    return true;
  }
  return false;
}

void ExtractionPlan::Evaluate(const Document& doc, PlanScratch* scratch,
                              MappingSink& sink,
                              std::vector<Mapping>* sorted) const {
  CountingSink counting(sink);
  {
    obs::ObsSpan span(Metrics().eval_ns[size_t(info_.evaluator)],
                      kEvalSpanName[size_t(info_.evaluator)]);
    spanner_.ExtractTo(info_.evaluator, doc, &scratch->arena, counting,
                       scratch->cancel);
    if (sorted != nullptr) std::sort(sorted->begin(), sorted->end());
  }
  Count(Outcome::kEvaluated, counting.count());
}

void ExtractionPlan::Count(Outcome outcome, uint64_t mappings) const {
  counters_->landed[size_t(outcome)].Add(1);
  if (outcome == Outcome::kEvaluated) counters_->mappings.Add(mappings);
  if (!obs::Enabled()) return;
  const EngineMetrics& m = Metrics();
  m.documents->Add(1);
  (outcome == Outcome::kAcSkipped ? AcGateSkipped()
                                  : m.landed[size_t(outcome)])
      ->Add(1);
  if (outcome == Outcome::kEvaluated) m.mappings->Add(mappings);
}

void ExtractionPlan::ExtractSortedInto(const Document& doc,
                                       PlanScratch* scratch,
                                       std::vector<Mapping>* out) const {
  ExtractSortedInto(doc, SharedGate::kNone, scratch, out);
}

void ExtractionPlan::ExtractSortedInto(const Document& doc, SharedGate shared,
                                       PlanScratch* scratch,
                                       std::vector<Mapping>* out) const {
  scratch->pool.RecycleAll(out);  // previous results refill the pool
  if (GateRejects(doc, shared, scratch->cancel)) return;  // *out is empty
  VectorSink sink(out, &scratch->pool);
  Evaluate(doc, scratch, sink, out);
}

void ExtractionPlan::ExtractTo(const Document& doc, PlanScratch* scratch,
                               MappingSink& sink) const {
  if (GateRejects(doc, SharedGate::kNone, scratch->cancel)) return;
  Evaluate(doc, scratch, sink, nullptr);
}

PlanStats ExtractionPlan::stats() const {
  PlanStats s;
  s.ac_gate_skipped = counters_->landed[size_t(Outcome::kAcSkipped)].Load();
  s.prefilter_skipped =
      counters_->landed[size_t(Outcome::kPrefilterSkipped)].Load();
  s.dfa_skipped = counters_->landed[size_t(Outcome::kDfaSkipped)].Load();
  s.mappings = counters_->mappings.Load();
  s.documents = counters_->landed[size_t(Outcome::kEvaluated)].Load() +
                s.ac_gate_skipped + s.prefilter_skipped + s.dfa_skipped;
  return s;
}

}  // namespace engine
}  // namespace spanners
