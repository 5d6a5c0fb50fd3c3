// Tests for the composable query layer (src/query/): expression
// construction and canonical text, the query parser, pushdown shape of
// compilation, algebra-operator correctness against a naive
// reference_eval-based oracle (fixed and randomized), plan-cache behaviour
// for pattern and rule-program leaves, and batch determinism across
// thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "query/compile.h"
#include "query/expr.h"
#include "query/parser.h"
#include "rgx/parser.h"
#include "rgx/printer.h"
#include "rgx/reference_eval.h"
#include "rules/rule_eval.h"
#include "workload/generators.h"

namespace spanners {
namespace query {
namespace {

using engine::BatchExtractor;
using engine::BatchOptions;
using engine::BatchResult;
using engine::Corpus;
using engine::PlanCache;
using engine::PlanScratch;

// ⟦·⟧_doc through the engine's per-document path, with private scratch.
MappingSet ExtractOne(const engine::DocumentExtractor& extractor,
                      const Document& doc) {
  PlanScratch scratch;
  std::vector<Mapping> out;
  extractor.ExtractSortedInto(doc, &scratch, &out);
  return MappingSet(std::move(out));
}

ExprPtr MustPattern(std::string_view pattern) {
  auto e = SpannerExpr::Pattern(pattern);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

/// `n` nested projections around rgx("x{a}").
std::string NestedProjects(size_t n) {
  std::string q;
  for (size_t i = 0; i < n; ++i) q += "project(";
  q += "rgx(\"x{a}\")";
  for (size_t i = 0; i < n; ++i) q += ",x)";
  return q;
}

/// op(rgx("x{a}"), …) with `n` operands.
std::string Chain(const std::string& op, size_t n) {
  std::string q = op + "(";
  for (size_t i = 0; i < n; ++i)
    q += i == 0 ? "rgx(\"x{a}\")" : ",rgx(\"x{a}\")";
  return q + ")";
}

ExprPtr MustParse(std::string_view text) {
  auto e = ParseQuery(text);
  EXPECT_TRUE(e.ok()) << e.status().ToString();
  return std::move(e).value();
}

CompiledQuery MustCompile(const ExprPtr& e, PlanCache* cache = nullptr) {
  QueryCompileOptions options;
  options.cache = cache;
  auto q = CompiledQuery::Compile(e, options);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

// The naive semantics of an expression: reference (Table 2) evaluation at
// pattern leaves, exhaustive rule-tuple enumeration at rule leaves, and
// the MappingSet algebra above — everything the compiled path must match.
MappingSet OracleEval(const ExprPtr& e, const Document& doc) {
  switch (e->kind()) {
    case SpannerExpr::Kind::kPattern:
      return ReferenceEval(e->rgx(), doc);
    case SpannerExpr::Kind::kRules:
      return UnionRuleEval(e->rules(), doc);
    case SpannerExpr::Kind::kUnion:
      return MappingSet::Union(OracleEval(e->child(0), doc),
                               OracleEval(e->child(1), doc));
    case SpannerExpr::Kind::kProject:
      return OracleEval(e->child(0), doc).Project(e->keep());
    case SpannerExpr::Kind::kNaturalJoin:
      return MappingSet::Join(OracleEval(e->child(0), doc),
                              OracleEval(e->child(1), doc));
    case SpannerExpr::Kind::kSelectEq: {
      MappingSet in = OracleEval(e->child(0), doc);
      MappingSet out;
      for (const Mapping& m : in) {
        auto sx = m.Get(e->eq_x()), sy = m.Get(e->eq_y());
        if (sx && sy && doc.content(*sx) == doc.content(*sy))
          out.Insert(m);
      }
      return out;
    }
  }
  ADD_FAILURE() << "unknown kind";
  return MappingSet();
}

// Cross-checks the compiled pipeline against the oracle and returns the
// (agreed) result size, so callers can additionally assert a case is not
// vacuously empty-vs-empty.
size_t ExpectMatchesOracle(const ExprPtr& e, const Document& doc) {
  CompiledQuery q = MustCompile(e);
  MappingSet got = ExtractOne(q, doc);
  MappingSet want = OracleEval(e, doc);
  EXPECT_EQ(got, want) << "query: " << e->ToString() << "\nplan: "
                       << q.PlanString() << "\ndoc: \"" << doc.text()
                       << "\"\ngot:  " << got.ToString(&doc)
                       << "\nwant: " << want.ToString(&doc);
  return want.size();
}

// ---- expression construction -------------------------------------------

TEST(SpannerExprTest, VarsPropagateThroughOperators) {
  ExprPtr p1 = MustPattern("x{a*}b");
  ExprPtr p2 = MustPattern("a y{b*}");
  EXPECT_EQ(p1->vars().ToString(), "{x}");
  EXPECT_EQ(SpannerExpr::Union(p1, p2)->vars().size(), 2u);
  EXPECT_EQ(SpannerExpr::NaturalJoin(p1, p2)->vars().size(), 2u);
  VarSet keep;
  keep.Insert(Variable::Intern("y"));
  EXPECT_EQ(SpannerExpr::Project(SpannerExpr::Union(p1, p2), keep)->vars()
                .ToString(),
            "{y}");
}

TEST(SpannerExprTest, SelectEqRequiresInputVariables) {
  ExprPtr p = MustPattern("x{a*} y{b*}");
  EXPECT_TRUE(
      SpannerExpr::SelectEq(p, Variable::Intern("x"), Variable::Intern("y"))
          .ok());
  EXPECT_FALSE(
      SpannerExpr::SelectEq(p, Variable::Intern("x"), Variable::Intern("z"))
          .ok());
}

TEST(SpannerExprTest, SelectEqOperandsAreNormalised) {
  ExprPtr p = MustPattern("x{a*} y{b*}");
  auto xy = SpannerExpr::SelectEq(p, Variable::Intern("y"),
                                  Variable::Intern("x"));
  ASSERT_TRUE(xy.ok());
  EXPECT_EQ(Variable::Name((*std::move(xy).value()).eq_x()), "x");
}

TEST(SpannerExprTest, RuleProgramLeafParsesRules) {
  auto e = SpannerExpr::RuleProgram({"a x{.*} && x.(b* y{.*})"});
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ((*e)->rules().size(), 1u);
  EXPECT_TRUE((*e)->vars().Contains(Variable::Intern("x")));
  EXPECT_TRUE((*e)->vars().Contains(Variable::Intern("y")));
}

// ---- parser -------------------------------------------------------------

TEST(QueryParserTest, RoundTripsCanonicalText) {
  const char* queries[] = {
      "rgx(\"x{a*}b\")",
      "union(rgx(\"x{a}\"), rgx(\"x{b}\"))",
      "join(rgx(\"x{a*}.*\"), rgx(\".*y{b*}\"))",
      "project(union(rgx(\"x{a} y{b}\"), rgx(\"x{b} y{a}\")), x)",
      "eq(rgx(\"x{[ab]*}c(y{[ab]*})\"), x, y)",
      "rule(\"a(x{.*}) && x.(b*)\")",
  };
  for (const char* text : queries) {
    ExprPtr e = MustParse(text);
    ExprPtr again = MustParse(e->ToString());
    EXPECT_EQ(e->ToString(), again->ToString()) << text;
  }
}

TEST(QueryParserTest, StringEscapes) {
  // \" unescapes to a quote, \\ to one backslash, \e passes through for
  // the RGX parser.
  ExprPtr e = MustParse("rgx(\"a\\\\\\\\b|\\\\e\")");
  EXPECT_EQ(e->pattern(), "a\\\\b|\\e");
}

TEST(QueryParserTest, NaryUnionAndJoinFoldLeft) {
  ExprPtr e = MustParse(
      "union(rgx(\"x{a}\"), rgx(\"x{b}\"), rgx(\"x{ab}\"))");
  ASSERT_EQ(e->kind(), SpannerExpr::Kind::kUnion);
  EXPECT_EQ(e->child(0)->kind(), SpannerExpr::Kind::kUnion);
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("frobnicate(rgx(\"a\"))").ok());
  EXPECT_FALSE(ParseQuery("rgx(\"unterminated").ok());
  EXPECT_FALSE(ParseQuery("union(rgx(\"a\"))").ok());
  EXPECT_FALSE(ParseQuery("eq(rgx(\"x{a}\"), x, missing)").ok());
  EXPECT_FALSE(ParseQuery("rgx(\"a\") trailing").ok());
  EXPECT_FALSE(ParseQuery("rgx(\"[\")").ok());  // RGX error propagates
  // Nesting past the limit is refused with a clean error, not a stack
  // overflow: deep operators, and long union/join chains (which fold into
  // a left-deep tree).
  for (const std::string& deep :
       {NestedProjects(50000), NestedProjects(kMaxNestingDepth),
        Chain("union", kMaxNestingDepth + 1),
        Chain("join", 50000)}) {
    Result<ExprPtr> r = ParseQuery(deep);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("nests deeper than"),
              std::string::npos)
        << r.status().ToString();
  }
}

// The deepest queries the limit admits parse, compile and extract.
TEST(QueryParserTest, DeepestAcceptedNestingCompilesAndExtracts) {
  for (const std::string& deepest :
       {NestedProjects(kMaxNestingDepth - 1),
        Chain("union", kMaxNestingDepth)}) {
    CompiledQuery q = MustCompile(MustParse(deepest));
    EXPECT_EQ(ExtractOne(q, Document("a")).size(), 1u);
  }
}

// ---- pushdown shape -----------------------------------------------------

TEST(QueryCompileTest, UnionAndProjectionFuseIntoOneScan) {
  ExprPtr e = MustParse(
      "project(union(rgx(\"x{a} y{b*}\"), rgx(\"x{b} y{a*}\")), x)");
  CompiledQuery q = MustCompile(e);
  EXPECT_EQ(q.num_scans(), 1u) << q.PlanString();
  EXPECT_EQ(q.vars().ToString(), "{x}");
}

TEST(QueryCompileTest, JoinLowersToRelationalOperator) {
  ExprPtr e = MustParse("join(rgx(\"x{a*}.*\"), rgx(\".*y{b*}\"))");
  CompiledQuery q = MustCompile(e);
  EXPECT_EQ(q.num_scans(), 2u);
  EXPECT_EQ(q.PlanString().substr(0, 5), "join(");
}

TEST(QueryCompileTest, SelectEqLowersAboveScan) {
  ExprPtr e = MustParse("eq(rgx(\"x{[ab]*}c(y{[ab]*})\"), x, y)");
  CompiledQuery q = MustCompile(e);
  EXPECT_EQ(q.num_scans(), 1u);
  EXPECT_EQ(q.PlanString().substr(0, 10), "select_eq[");
}

TEST(QueryCompileTest, UnionAboveJoinStaysRelationalOnThatBranch) {
  ExprPtr e = MustParse(
      "union(join(rgx(\"x{a}.*\"), rgx(\".*y{b}\")), rgx(\"x{b} y{a}\"))");
  CompiledQuery q = MustCompile(e);
  EXPECT_EQ(q.num_scans(), 3u);
  EXPECT_EQ(q.PlanString().substr(0, 6), "union(");
}

// ---- fixed-case correctness --------------------------------------------

TEST(QueryEvalTest, UnionMatchesOracle) {
  ExprPtr e = MustParse("union(rgx(\"x{a}b*\"), rgx(\"a*(x{b})\"))");
  EXPECT_EQ(ExpectMatchesOracle(e, Document("ab")), 2u);
  EXPECT_GT(ExpectMatchesOracle(e, Document("aab")), 0u);
  ExpectMatchesOracle(e, Document(""));
}

TEST(QueryEvalTest, JoinOnSharedVariableMatchesOracle) {
  // x must be the same span in both operands.
  ExprPtr e = MustParse(
      "join(rgx(\"x{a*}b.*\"), rgx(\"x{[ab]*}b(y{.*})\"))");
  EXPECT_GT(ExpectMatchesOracle(e, Document("aabab")), 0u);
  EXPECT_GT(ExpectMatchesOracle(e, Document("bb")), 0u);
}

TEST(QueryEvalTest, CrossProductJoinMatchesOracle) {
  ExprPtr e = MustParse("join(rgx(\".*x{a}.*\"), rgx(\".*y{b}.*\"))");
  EXPECT_EQ(ExpectMatchesOracle(e, Document("abab")), 4u);
}

TEST(QueryEvalTest, JoinWithPartialMappingsMatchesOracle) {
  // The ε branches leave x unassigned on some outputs, exercising the
  // partial-mapping compatibility scan of the join on both sides.
  ExprPtr e = MustParse(
      "join(rgx(\"(x{a}|\\e)b.*\"), rgx(\"(x{a}|\\e)b(y{b*})\"))");
  EXPECT_GT(ExpectMatchesOracle(e, Document("abb")), 0u);
  EXPECT_GT(ExpectMatchesOracle(e, Document("bb")), 0u);
  ExpectMatchesOracle(e, Document("b"));
  ExpectMatchesOracle(e, Document("ba"));
}

TEST(QueryEvalTest, SelectEqMatchesOracle) {
  ExprPtr e = MustParse("eq(rgx(\"x{[ab]*}c(y{[ab]*})\"), x, y)");
  EXPECT_EQ(ExpectMatchesOracle(e, Document("abcab")), 1u);
  EXPECT_EQ(ExpectMatchesOracle(e, Document("abcba")), 0u);
  ExpectMatchesOracle(e, Document("cc"));
  EXPECT_GT(ExpectMatchesOracle(e, Document("c")), 0u);  // ε == ε
}

TEST(QueryEvalTest, ProjectOverJoinMatchesOracle) {
  ExprPtr e = MustParse(
      "project(join(rgx(\"x{a*}b.*\"), rgx(\"x{a*}b(y{.*})\")), y)");
  EXPECT_GT(ExpectMatchesOracle(e, Document("aabb")), 0u);
}

TEST(QueryEvalTest, RuleProgramLeafMatchesOracle) {
  ExprPtr e = MustParse("rule(\"a(x{.*}) && x.(b*)\")");
  EXPECT_EQ(ExpectMatchesOracle(e, Document("abb")), 1u);
  EXPECT_EQ(ExpectMatchesOracle(e, Document("ab")), 1u);
  EXPECT_EQ(ExpectMatchesOracle(e, Document("ba")), 0u);
}

TEST(QueryEvalTest, JoinOfRuleAndPatternMatchesOracle) {
  ExprPtr e = MustParse(
      "join(rule(\"a(x{.*}) && x.(b*)\"), rgx(\"a(x{b*})\"))");
  EXPECT_EQ(ExpectMatchesOracle(e, Document("abb")), 1u);
  EXPECT_EQ(ExpectMatchesOracle(e, Document("a")), 1u);
}

// ---- randomized cross-check against the oracle --------------------------

TEST(QueryRandomizedTest, AlgebraMatchesOracleOnRandomDocuments) {
  std::mt19937 rng(20260727);
  workload::RandomRgxOptions opts;
  opts.max_depth = 3;
  opts.num_vars = 2;
  opts.letters = "ab";
  size_t checked = 0;
  for (int round = 0; round < 40; ++round) {
    RgxPtr r1 = workload::RandomRgx(opts, &rng);
    RgxPtr r2 = workload::RandomRgx(opts, &rng);
    auto p1r = SpannerExpr::Pattern(ToPattern(r1));
    auto p2r = SpannerExpr::Pattern(ToPattern(r2));
    ASSERT_TRUE(p1r.ok()) << ToPattern(r1);
    ASSERT_TRUE(p2r.ok()) << ToPattern(r2);
    ExprPtr p1 = std::move(p1r).value();
    ExprPtr p2 = std::move(p2r).value();

    std::vector<ExprPtr> exprs;
    exprs.push_back(SpannerExpr::Union(p1, p2));
    exprs.push_back(SpannerExpr::NaturalJoin(p1, p2));
    VarSet keep;
    keep.Insert(Variable::Intern("x0"));
    exprs.push_back(SpannerExpr::Project(SpannerExpr::Union(p1, p2), keep));
    exprs.push_back(
        SpannerExpr::Project(SpannerExpr::NaturalJoin(p1, p2), keep));
    ExprPtr joined = SpannerExpr::NaturalJoin(p1, p2);
    if (joined->vars().Contains(Variable::Intern("x0")) &&
        joined->vars().Contains(Variable::Intern("x1"))) {
      auto eq = SpannerExpr::SelectEq(joined, Variable::Intern("x0"),
                                      Variable::Intern("x1"));
      ASSERT_TRUE(eq.ok());
      exprs.push_back(std::move(eq).value());
    }

    std::uniform_int_distribution<size_t> len(0, 5);
    for (int d = 0; d < 3; ++d) {
      Document doc = workload::RandomDocument("ab", len(rng), &rng);
      for (const ExprPtr& e : exprs) {
        ExpectMatchesOracle(e, doc);
        ++checked;
      }
    }
  }
  // Sanity: the loop really exercised a few hundred (expr, doc) pairs.
  EXPECT_GT(checked, 400u);
}

// ---- plan cache ---------------------------------------------------------

TEST(QueryCacheTest, RuleProgramLeavesAreServedFromPlanCache) {
  PlanCache cache;
  ExprPtr e = MustParse(
      "join(rule(\"a(x{.*}) && x.(b*)\"), rgx(\"a(x{b*})\"))");
  MustCompile(e, &cache);
  auto after_first = cache.stats();
  // Both scan leaves resident, both compiled exactly once.
  EXPECT_EQ(after_first.size, 2u);
  EXPECT_EQ(after_first.misses, 2u);

  MustCompile(e, &cache);
  auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses) << "recompiled a leaf";
  EXPECT_GE(after_second.hits, after_first.hits + 2) << "cache not hit";

  // The rule leaf is addressable by its (prefixed) canonical text.
  EXPECT_NE(cache.Peek(QueryPlanCacheKey("rule(\"a(x{.*}) && x.(b*)\")")),
            nullptr);
}

TEST(QueryCacheTest, FusedSubtreesShareLeafCompilations) {
  PlanCache cache;
  ExprPtr u = MustParse("union(rgx(\"x{a}\"), rgx(\"x{b}\"))");
  CompiledQuery q = MustCompile(u, &cache);
  EXPECT_EQ(q.num_scans(), 1u);
  // Leaves were cached individually plus the fused scan.
  EXPECT_NE(cache.Peek(QueryPlanCacheKey("rgx(\"x{a}\")")), nullptr);
  EXPECT_NE(cache.Peek(QueryPlanCacheKey("union(rgx(\"x{a}\"), rgx(\"x{b}\"))")),
            nullptr);

  // A second query reusing one leaf hits its cached plan.
  auto before = cache.stats();
  MustCompile(MustParse("join(rgx(\"x{a}\"), rgx(\"y{b}\"))"), &cache);
  EXPECT_GE(cache.stats().hits, before.hits + 1);
}

TEST(QueryCacheTest, RawPatternAndCanonicalQueryKeysDoNotCollide) {
  PlanCache cache;
  // A raw RGX pattern whose text is exactly the canonical form of a
  // query: it matches the literal string rgx("a"), not the letter a.
  auto literal = cache.GetOrCompile("rgx(\"a\")");
  ASSERT_TRUE(literal.ok());
  CompiledQuery q = MustCompile(MustParse("rgx(\"a\")"), &cache);

  Document doc("a");
  EXPECT_EQ(ExtractOne(q, doc).size(), 1u);  // the pattern `a` matches
  EXPECT_TRUE(ExtractOne(**literal, doc).empty());  // the literal does not
  EXPECT_EQ(cache.stats().size, 2u);  // two distinct entries

  // Nor can a malformed pattern spelling a reserved query key be served
  // the query's cached plan: it fails to compile, as without a cache.
  EXPECT_FALSE(cache.GetOrCompile(QueryPlanCacheKey("rgx(\"a\")")).ok());
}

// ---- engine integration -------------------------------------------------

TEST(QueryBatchTest, BatchOutputIsThreadCountIndependent) {
  workload::CorpusOptions co;
  co.documents = 60;
  co.rows_per_document = 2;
  Corpus corpus(workload::ServerLogCorpus(co));

  ExprPtr e = MustParse(
      "union(rgx(\"(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) (p{[^ \\n]*}) "
      "[0-9]+( err=(c{[a-z]+})|\\e)\\n.*\"), "
      "rgx(\"(.*\\n|\\e)[a-z0-9]+ GET (p{[^ \\n]*}) [0-9]+\\n.*\"))");
  CompiledQuery q = MustCompile(e);

  BatchOptions o1;
  o1.num_threads = 1;
  BatchOptions o8;
  o8.num_threads = 8;
  o8.min_docs_per_shard = 4;
  BatchResult r1 = BatchExtractor(o1).Extract(q, corpus);
  BatchResult r8 = BatchExtractor(o8).Extract(q, corpus);
  ASSERT_EQ(r1.per_doc.size(), r8.per_doc.size());
  EXPECT_EQ(r1.per_doc, r8.per_doc);
  EXPECT_GT(r1.total_mappings, 0u);
}

TEST(QueryBatchTest, ExtractSortedIntoReusesScratchAcrossDocuments) {
  ExprPtr e = MustParse("join(rgx(\"x{a*}b.*\"), rgx(\"x{a*}b(y{b*})\"))");
  CompiledQuery q = MustCompile(e);
  PlanScratch scratch;
  std::vector<Mapping> out;
  std::mt19937 rng(7);
  for (int i = 0; i < 20; ++i) {
    Document doc = workload::RandomDocument("ab", 6, &rng);
    q.ExtractSortedInto(doc, &scratch, &out);
    MappingSet got(out);
    EXPECT_EQ(got, OracleEval(e, doc)) << doc.text();
  }
  // The pool captured recycled mapping storage along the way.
  EXPECT_GE(scratch.pool.free_count(), 0u);
}

}  // namespace
}  // namespace query
}  // namespace spanners
