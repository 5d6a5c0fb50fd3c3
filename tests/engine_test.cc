// Tests for the batch-extraction engine: corpora and sharding, extraction
// plans (evaluator agreement), the work-stealing pool, batch determinism
// across thread counts, and wire formatting.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <sstream>
#include <utility>

#include "engine/engine.h"
#include "rgx/parser.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

// ⟦γ⟧_doc through the plan's per-document path (gate, evaluator,
// counters), with private scratch.
MappingSet ExtractOne(const ExtractionPlan& plan, const Document& doc) {
  PlanScratch scratch;
  std::vector<Mapping> out;
  plan.ExtractSortedInto(doc, &scratch, &out);
  return MappingSet(std::move(out));
}

// ---- Corpus ------------------------------------------------------------

TEST(CorpusTest, FromDelimitedSplitsAtNewlines) {
  Corpus c = Corpus::FromDelimited("one\ntwo\nthree");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].text(), "one");
  EXPECT_EQ(c[2].text(), "three");
}

TEST(CorpusTest, TrailingDelimiterAddsNoEmptyDocument) {
  Corpus c = Corpus::FromDelimited("a\nb\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[1].text(), "b");
}

TEST(CorpusTest, InteriorEmptyDocumentsAreKept) {
  Corpus c = Corpus::FromDelimited("a\n\nb");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[1].text(), "");
}

TEST(CorpusTest, EmptyInputIsEmptyCorpus) {
  EXPECT_TRUE(Corpus::FromDelimited("").empty());
}

TEST(CorpusTest, NulDelimiter) {
  std::string text("a\nb\0c", 5);
  Corpus c = Corpus::FromDelimited(text, '\0');
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].text(), "a\nb");
  EXPECT_EQ(c[1].text(), "c");
}

TEST(CorpusTest, FromStreamAndTotalBytes) {
  std::istringstream in("xx\nyyy\n");
  Corpus c = Corpus::FromStream(in);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.TotalBytes(), 5u);
}

TEST(CorpusTest, AppendMovesDocumentsInOrder) {
  Corpus a = Corpus::FromDelimited("1\n2");
  Corpus b = Corpus::FromDelimited("3");
  a.Append(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].text(), "3");
  Corpus empty;
  empty.Append(std::move(a));
  EXPECT_EQ(empty.size(), 3u);
}

TEST(CorpusTest, FromFileMissingFails) {
  Result<Corpus> r = Corpus::FromFile("/nonexistent/corpus.txt");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- sharding ----------------------------------------------------------

TEST(ShardingTest, CoversEveryDocumentExactlyOnceInOrder) {
  workload::CorpusOptions o;
  o.documents = 137;
  Corpus corpus(workload::LandRegistryCorpus(o));
  ShardingOptions so;
  so.max_shards = 8;
  so.min_docs_per_shard = 4;
  std::vector<Shard> shards = ShardCorpus(corpus, so);
  ASSERT_FALSE(shards.empty());
  EXPECT_LE(shards.size(), 8u);
  size_t next = 0;
  for (const Shard& s : shards) {
    EXPECT_EQ(s.begin, next);
    EXPECT_GT(s.end, s.begin);
    next = s.end;
  }
  EXPECT_EQ(next, corpus.size());
}

TEST(ShardingTest, RespectsMinDocsPerShard) {
  Corpus corpus(std::vector<Document>(10, Document("abc")));
  ShardingOptions so;
  so.max_shards = 100;
  so.min_docs_per_shard = 4;
  std::vector<Shard> shards = ShardCorpus(corpus, so);
  for (size_t i = 0; i + 1 < shards.size(); ++i)
    EXPECT_GE(shards[i].size(), 4u);
}

TEST(ShardingTest, EmptyCorpusHasNoShards) {
  EXPECT_TRUE(ShardCorpus(Corpus(), ShardingOptions()).empty());
}

// ---- thread pool -------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitIdleOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not deadlock
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i)
    pool.Submit([&] {
      pool.Submit([&count] { count.fetch_add(1); });
    });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

// ---- ExtractionPlan ----------------------------------------------------

TEST(PlanTest, CompileErrorPropagates) {
  Result<ExtractionPlan> r = ExtractionPlan::Compile("x{a");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The parser's nesting limit exists so every later pass stays on the
// stack: the deepest patterns it admits must still compile and extract.
TEST(PlanTest, DeepestAcceptedPatternsCompileAndExtract) {
  std::string starred_groups = "a";
  for (size_t i = 1; i < kMaxNestingDepth; ++i)
    starred_groups = "(" + starred_groups + ")*";
  const std::string patterns[] = {
      "x{" + std::string(kMaxNestingDepth - 1, '(') + "a*" +
          std::string(kMaxNestingDepth - 1, ')') + "}",
      "x{a" + std::string(kMaxNestingDepth - 2, '*') + "}",
      starred_groups,
  };
  for (const std::string& pattern : patterns) {
    Result<ExtractionPlan> plan = ExtractionPlan::Compile(pattern);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(ExtractOne(*plan, Document("aa")).size(), 1u);
    EXPECT_EQ(ExtractOne(*plan, Document("b")).size(), 0u);
  }
}

TEST(PlanTest, AnalysisFlags) {
  ExtractionPlan p = ExtractionPlan::Compile("x{a*}y{b*}").ValueOrDie();
  EXPECT_TRUE(p.info().sequential_va);
  EXPECT_TRUE(p.info().functional_rgx);
  EXPECT_FALSE(p.info().span_rgx);
  EXPECT_EQ(p.info().num_vars, 2u);
  EXPECT_EQ(p.pattern(), "x{a*}y{b*}");
  EXPECT_FALSE(p.info().ToString().empty());

  ExtractionPlan nonseq = ExtractionPlan::Compile("(x{a}|a)*").ValueOrDie();
  EXPECT_FALSE(nonseq.info().sequential_va);
}

TEST(PlanTest, EveryEvaluatorAgreesWithRunSemantics) {
  // Ground truth: brute-force run enumeration (the seed's ExtractAll).
  Spanner s = Spanner::FromPattern(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  workload::LandRegistryOptions o;
  o.rows = 12;
  Document doc = workload::LandRegistryDocument(o);
  MappingSet truth = s.ExtractAll(doc);
  ASSERT_FALSE(truth.empty());
  auto extract_with = [&](Spanner::Evaluator evaluator) {
    Arena arena;
    std::vector<Mapping> out;
    s.ExtractAllInto(evaluator, doc, &arena, &out);
    return MappingSet(std::move(out));
  };
  EXPECT_EQ(extract_with(Spanner::Evaluator::kRunEnumeration), truth);
  EXPECT_EQ(extract_with(Spanner::Evaluator::kSequentialDelay), truth);
  EXPECT_EQ(extract_with(Spanner::Evaluator::kFptDelay), truth);
}

TEST(PlanTest, RecommendedEvaluatorPrefersRunEnumerationForFewVars) {
  Spanner s = Spanner::FromPattern("x{a*}").ValueOrDie();
  EXPECT_EQ(s.RecommendedEvaluator(), Spanner::Evaluator::kRunEnumeration);
}

TEST(PlanTest, StatsCountDocumentsAndMappings) {
  ExtractionPlan p = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  ExtractOne(p, Document("aa"));
  ExtractOne(p, Document(""));
  PlanStats stats = p.stats();
  EXPECT_EQ(stats.documents, 2u);
  // Exact mapping count is pinned by the extraction itself, not guessed:
  uint64_t expected = ExtractOne(p, Document("aa")).size() + 1;  // "" has {ε}
  EXPECT_EQ(stats.mappings, expected);
}

TEST(PlanTest, ExtractSortedIntoIsSortedAndRecyclesOutput) {
  ExtractionPlan p =
      ExtractionPlan::Compile(".*(x{[a-z]+}).*").ValueOrDie();
  PlanScratch scratch;
  std::vector<Mapping> out;
  p.ExtractSortedInto(Document("ab cd"), &scratch, &out);
  ASSERT_GT(out.size(), 1u);
  for (size_t i = 0; i + 1 < out.size(); ++i) EXPECT_TRUE(out[i] < out[i + 1]);
  const size_t first = out.size();
  p.ExtractSortedInto(Document("z"), &scratch, &out);
  EXPECT_EQ(out.size(), 1u);  // cleared first, not appended to
  EXPECT_GE(scratch.pool.free_count(), first - 1);  // storage recycled
}

// ---- PlanCache ---------------------------------------------------------

TEST(PlanCacheTest, HitMissCounters) {
  PlanCache cache;
  auto a = cache.GetOrCompile("x{a*}").ValueOrDie();
  auto b = cache.GetOrCompile("x{a*}").ValueOrDie();
  EXPECT_EQ(a.get(), b.get());  // same shared plan
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(PlanCacheTest, CompileErrorsAreNotCached) {
  PlanCache cache;
  EXPECT_FALSE(cache.GetOrCompile("x{a").ok());
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCacheOptions o;
  o.capacity = 2;
  PlanCache cache(o);
  cache.GetOrCompile("a").ValueOrDie();
  cache.GetOrCompile("b").ValueOrDie();
  cache.GetOrCompile("a").ValueOrDie();  // refresh a; b is now LRU
  cache.GetOrCompile("c").ValueOrDie();  // evicts b
  PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.Peek("b"), nullptr);
  EXPECT_NE(cache.Peek("c"), nullptr);
}

TEST(PlanCacheTest, EvictedPlanStaysUsable) {
  PlanCacheOptions o;
  o.capacity = 1;
  PlanCache cache(o);
  auto plan = cache.GetOrCompile("x{a*}").ValueOrDie();
  cache.GetOrCompile("b*").ValueOrDie();  // evicts x{a*}
  EXPECT_EQ(cache.Peek("x{a*}"), nullptr);
  EXPECT_EQ(ExtractOne(*plan, Document("a")).size(), 1u);  // still works
}

TEST(PlanCacheTest, ClearDropsEverything) {
  PlanCache cache;
  cache.GetOrCompile("a").ValueOrDie();
  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
}

// ---- BatchExtractor ----------------------------------------------------

// Corpus extraction must equal per-document ExtractAll for every thread
// count — the engine may only reorganize work, never change results.
TEST(BatchExtractorTest, MatchesPerDocumentExtractionForEveryThreadCount) {
  workload::CorpusOptions o;
  o.documents = 64;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  std::vector<std::vector<Mapping>> expected;
  for (const Document& d : corpus)
    expected.push_back(plan.spanner().ExtractAll(d).Sorted());

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    BatchResult result = extractor.Extract(plan, corpus);
    ASSERT_EQ(result.per_doc.size(), corpus.size());
    EXPECT_EQ(result.per_doc, expected) << "threads=" << threads;
  }
}

// With per-worker arenas enabled (the default), the fully formatted output
// must stay byte-identical between 1 and 8 threads: worker-local scratch
// may never leak into results.
TEST(BatchExtractorTest, ArenaBackedOutputByteIdenticalAcrossThreadCounts) {
  workload::CorpusOptions o;
  o.documents = 96;
  o.rows_per_document = 2;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  auto formatted = [&](size_t threads) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    BatchResult result = extractor.Extract(plan, corpus);
    std::string out;
    for (size_t i = 0; i < result.per_doc.size(); ++i)
      for (const Mapping& m : result.per_doc[i])
        out += ToTsvRow(i, m, plan.spanner().vars(), corpus[i]);
    return out;
  };

  std::string one = formatted(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, formatted(8));
}

// ExtractSortedInto with one scratch reused — Reset(), not freed — across
// documents must agree with a fresh scratch per call.
TEST(ExtractionPlanTest, ExtractSortedIntoMatchesFreshScratchAcrossDocuments) {
  workload::CorpusOptions o;
  o.documents = 32;
  o.rows_per_document = 3;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  PlanScratch scratch;
  std::vector<Mapping> got;
  for (const Document& doc : corpus) {
    plan.ExtractSortedInto(doc, &scratch, &got);
    EXPECT_EQ(got, ExtractOne(plan, doc).Sorted());
  }
  EXPECT_GT(scratch.arena.bytes_reserved(), 0u);
}

TEST(BatchExtractorTest, EmptyCorpus) {
  ExtractionPlan plan = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  BatchExtractor extractor;
  BatchResult result = extractor.Extract(plan, Corpus());
  EXPECT_TRUE(result.per_doc.empty());
  EXPECT_EQ(result.total_mappings, 0u);
  EXPECT_EQ(result.shards, 0u);
  EXPECT_EQ(result.MatchedDocuments(), 0u);
}

// The empty pattern is ε: it matches exactly the empty document, with the
// empty mapping as its only output.
TEST(BatchExtractorTest, EmptyPattern) {
  ExtractionPlan plan = ExtractionPlan::Compile("").ValueOrDie();
  EXPECT_EQ(plan.info().num_vars, 0u);
  Corpus corpus = Corpus::FromDelimited("\nabc\n\n");  // "", "abc", ""
  BatchExtractor extractor;
  BatchResult result = extractor.Extract(plan, corpus);
  ASSERT_EQ(result.per_doc.size(), corpus.size());
  EXPECT_EQ(result.per_doc[0].size(), 1u);  // ∅ on ""
  EXPECT_TRUE(result.per_doc[1].empty());   // ε doesn't match "abc"
}

TEST(BatchExtractorTest, ReusableAcrossBatches) {
  ExtractionPlan plan = ExtractionPlan::Compile("x{a*}").ValueOrDie();
  BatchOptions bo;
  bo.num_threads = 2;
  BatchExtractor extractor(bo);
  Corpus c1 = Corpus::FromDelimited("a\naa");
  Corpus c2 = Corpus::FromDelimited("aaa");
  BatchResult r1 = extractor.Extract(plan, c1);
  BatchResult r2 = extractor.Extract(plan, c2);
  EXPECT_EQ(r1.per_doc.size(), 2u);
  EXPECT_EQ(r2.per_doc.size(), 1u);
  EXPECT_EQ(r2.per_doc[0].size(), 1u);  // x spans the whole document
}

// ---- formatting --------------------------------------------------------

TEST(FormatTest, TsvRowPinsWireFormat) {
  Document doc("Seller: John,");
  VarSet vars;
  VarId x = Variable::Intern("x"), y = Variable::Intern("y");
  vars.Insert(x);
  vars.Insert(y);
  Mapping m = Mapping::Single(x, Span(9, 13));  // "John"
  EXPECT_EQ(TsvHeader(vars), "doc\tx.span\tx.text\ty.span\ty.text");
  EXPECT_EQ(ToTsvRow(7, m, vars, doc), "7\t9..13\tJohn\t⊥\t");
}

TEST(FormatTest, TsvEscapesControlCharacters) {
  Document doc("a\tb");
  VarSet vars;
  VarId x = Variable::Intern("x");
  vars.Insert(x);
  Mapping m = Mapping::Single(x, doc.Whole());
  EXPECT_EQ(ToTsvRow(0, m, vars, doc), "0\t1..4\ta\\tb");
}

TEST(FormatTest, JsonRowPinsWireFormat) {
  Document doc("say \"hi\"");
  VarSet vars;
  VarId x = Variable::Intern("x"), y = Variable::Intern("y");
  vars.Insert(x);
  vars.Insert(y);
  Mapping m = Mapping::Single(x, Span(5, 9));  // "\"hi\""
  EXPECT_EQ(ToJsonRow(3, m, vars, doc),
            "{\"doc\":3,\"x\":{\"span\":[5,9],\"text\":\"\\\"hi\\\"\"},"
            "\"y\":null}");
}

// ---- prefilter + lazy-DFA gate ------------------------------------------

// The gate may only skip provably-empty documents: gated and ungated
// plans must produce byte-identical batch results for every thread count,
// on random formulas over random corpora.
TEST(GateTest, GatedAndUngatedResultsIdenticalAcrossThreadCounts) {
  std::mt19937 rng(41);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 10);
  for (int round = 0; round < 12; ++round) {
    RgxPtr rgx = workload::RandomRgx(o, &rng);
    std::vector<Document> docs;
    for (int i = 0; i < 48; ++i)
      docs.push_back(workload::RandomDocument("ab", len_pick(rng), &rng));
    Corpus corpus(std::move(docs));

    ExtractionPlan gated = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    ExtractionPlan plain = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    plain.set_gating_enabled(false);

    for (size_t threads : {1u, 2u, 8u}) {
      BatchOptions bo;
      bo.num_threads = threads;
      bo.min_docs_per_shard = 4;
      BatchExtractor extractor(bo);
      BatchResult got = extractor.Extract(gated, corpus);
      BatchResult want = extractor.Extract(plain, corpus);
      ASSERT_EQ(got.per_doc, want.per_doc)
          << "round " << round << " threads " << threads;
    }
  }
}

// On the low-selectivity needle corpus the gate must (a) change nothing
// about the output and (b) actually skip the non-matching majority.
TEST(GateTest, NeedleCorpusIsGateSkippedButResultIdentical) {
  workload::NeedleOptions o;
  o.documents = 300;
  o.doc_bytes = 256;
  o.match_rate = 0.05;
  Corpus corpus(workload::NeedleCorpus(o));

  ExtractionPlan gated =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  ExtractionPlan plain =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::NeedleRgx()));
  plain.set_gating_enabled(false);

  BatchOptions bo;
  bo.num_threads = 2;
  bo.min_docs_per_shard = 8;
  BatchExtractor extractor(bo);
  BatchResult got = extractor.Extract(gated, corpus);
  BatchResult want = extractor.Extract(plain, corpus);
  EXPECT_EQ(got.per_doc, want.per_doc);
  EXPECT_GT(got.MatchedDocuments(), 0u);

  PlanStats stats = gated.stats();
  EXPECT_EQ(stats.documents, corpus.size());
  EXPECT_EQ(stats.prefilter_skipped + got.MatchedDocuments(), corpus.size())
      << "every non-matching document should fall to the literal scan";
  EXPECT_EQ(plain.stats().prefilter_skipped, 0u);
}

// The gate cascade may skip a document only when ⟦γ⟧_doc is empty, so a
// plan's result is non-empty exactly when NonEmp holds.
TEST(GateTest, PlanNonEmptinessAgreesWithSpannerMatches) {
  std::mt19937 rng(43);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 9);
  for (int round = 0; round < 25; ++round) {
    RgxPtr rgx = workload::RandomRgx(o, &rng);
    ExtractionPlan plan = ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx));
    PlanScratch scratch;  // reused: the evaluator must Reset() it
    std::vector<Mapping> out;
    for (int d = 0; d < 15; ++d) {
      Document doc = workload::RandomDocument("ab", len_pick(rng), &rng);
      bool want = plan.spanner().Matches(doc);
      EXPECT_EQ(!ExtractOne(plan, doc).empty(), want)
          << "round " << round << " doc '" << doc.text() << "'";
      plan.ExtractSortedInto(doc, &scratch, &out);
      EXPECT_EQ(!out.empty(), want)
          << "round " << round << " doc '" << doc.text() << "' (scratch)";
    }
  }
}

TEST(GateTest, PlanInfoReportsGateTiers) {
  ExtractionPlan plan =
      ExtractionPlan::Compile(".*Seller: (x{[^,\\n]*}),.*").ValueOrDie();
  std::string info = plan.info().ToString();
  EXPECT_NE(info.find("prefilter"), std::string::npos) << info;
  EXPECT_NE(info.find("Seller: "), std::string::npos) << info;
  EXPECT_NE(info.find("lazy-dfa"), std::string::npos) << info;
  EXPECT_GT(plan.lazy_dfa().num_atoms(), 0u);
}

// ---- streamed per-shard extraction --------------------------------------

// ExtractStream must deliver exactly Extract's result, shard by shard, in
// corpus order, for every thread count.
TEST(BatchExtractorTest, ExtractStreamMatchesExtractAndIsInOrder) {
  workload::CorpusOptions o;
  o.documents = 120;
  o.rows_per_document = 2;
  Corpus corpus(workload::ServerLogCorpus(o));
  ExtractionPlan plan =
      ExtractionPlan::FromSpanner(Spanner::FromRgx(workload::LogLineRgx()));

  BatchOptions ro;
  ro.num_threads = 1;
  BatchResult want = BatchExtractor(ro).Extract(plan, corpus);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);

    std::vector<std::vector<Mapping>> streamed;
    size_t calls = 0;
    BatchExtractor::StreamStats stats = extractor.ExtractStream(
        plan, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<Mapping>>& per_doc) {
          ASSERT_EQ(doc_begin, streamed.size()) << "shards out of order";
          ASSERT_EQ(doc_end - doc_begin, per_doc.size());
          for (auto& ms : per_doc) streamed.push_back(std::move(ms));
          ++calls;
        });
    ASSERT_EQ(streamed.size(), corpus.size());
    EXPECT_EQ(streamed, want.per_doc) << "threads=" << threads;
    EXPECT_EQ(calls, stats.shards);
    EXPECT_EQ(stats.total_mappings, want.total_mappings);
    EXPECT_EQ(stats.matched_documents, want.MatchedDocuments());
  }
}

TEST(BatchExtractorTest, ExtractStreamEmptyCorpus) {
  ExtractionPlan plan = ExtractionPlan::Compile("a*").ValueOrDie();
  Corpus corpus;
  BatchExtractor extractor;
  size_t calls = 0;
  BatchExtractor::StreamStats stats = extractor.ExtractStream(
      plan, corpus,
      [&](size_t, size_t, std::vector<std::vector<Mapping>>&) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(stats.shards, 0u);
  EXPECT_EQ(stats.total_mappings, 0u);
}

TEST(FormatTest, ParseOutputFormat) {
  OutputFormat f;
  EXPECT_TRUE(ParseOutputFormat("tsv", &f));
  EXPECT_EQ(f, OutputFormat::kTsv);
  EXPECT_TRUE(ParseOutputFormat("json", &f));
  EXPECT_EQ(f, OutputFormat::kJson);
  EXPECT_FALSE(ParseOutputFormat("xml", &f));
}

}  // namespace
}  // namespace engine
}  // namespace spanners
