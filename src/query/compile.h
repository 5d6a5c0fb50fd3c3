// Lowering SpannerExpr onto the engine's single plan pipeline.
//
// Compilation walks the expression bottom-up. Maximal subtrees built from
// leaves, union and projection stay inside one variable-set automaton
// (Theorem 4.5 closure via automata/ops.h — evaluation then costs one
// automaton pass); natural join and string-equality selection are lowered
// to arena-backed relational operators over streamed mappings, following
// the tractability split of Peterfreund et al. 2019 (relational algebra
// over spanners): ∪/π push down, ⋈/ς= evaluate on materialized build
// sides with hash lookup. Every automaton boundary becomes a scan of an
// ExtractionPlan obtained through the shared PlanCache keyed by the
// subtree's canonical text — rule programs included — so repeated
// (sub)queries compile once process-wide.
#ifndef SPANNERS_QUERY_COMPILE_H_
#define SPANNERS_QUERY_COMPILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "engine/plan.h"
#include "engine/plan_cache.h"
#include "query/expr.h"

namespace spanners {
namespace query {

/// A node of the lowered operator tree (scan / union / project / join /
/// select-eq); opaque outside compile.cc.
class PhysicalNode;

struct QueryCompileOptions {
  /// Shared compile cache for scan plans (pattern and rule-program leaves
  /// and fused ∪/π subtrees). May be nullptr: every scan then compiles
  /// privately. The same cache may serve PlanCache::GetOrCompile raw
  /// patterns: query entries live under QueryPlanCacheKey, which no raw
  /// pattern can collide with.
  engine::PlanCache* cache = nullptr;
};

/// The PlanCache key under which the compiled plan for a (sub)expression
/// with the given canonical text is stored. Prefixed with ')' — ParseRgx
/// rejects any pattern starting with an unmatched close parenthesis, so
/// GetOrCompile can never cache a raw pattern under a colliding key.
std::string QueryPlanCacheKey(const std::string& canonical_text);

/// An executable query: a physical operator tree whose scans are cached
/// ExtractionPlans. Immutable and thread-safe after compilation — one
/// CompiledQuery may serve concurrent extractions, each with its own
/// PlanScratch; plugs into BatchExtractor via engine::DocumentExtractor.
class CompiledQuery : public engine::DocumentExtractor {
 public:
  static Result<CompiledQuery> Compile(const ExprPtr& expr,
                                       const QueryCompileOptions& options = {});

  /// Output variables (the formatted column set).
  const VarSet& vars() const override { return vars_; }
  /// The canonical expression text this query was compiled from.
  const std::string& text() const { return text_; }

  /// The physical shape after pushdown, e.g.
  /// "join(scan[union(...)], select_eq[x=y](scan[rule(...)]))".
  std::string PlanString() const;
  /// Number of scan (automaton) leaves — 1 when the whole expression
  /// fused into a single VA.
  size_t num_scans() const;

  /// Engine hot path: unique mappings in Mapping::operator< order.
  void ExtractSortedInto(const Document& doc, engine::PlanScratch* scratch,
                         std::vector<Mapping>* out) const override;

 private:
  CompiledQuery(std::shared_ptr<const PhysicalNode> root, VarSet vars,
                std::string text);

  std::shared_ptr<const PhysicalNode> root_;
  VarSet vars_;
  std::string text_;
};

}  // namespace query
}  // namespace spanners

#endif  // SPANNERS_QUERY_COMPILE_H_
