// Tests for single-pass multi-query extraction: byte-identity of
// ExtractMulti against running every plan alone (the gate may reorganize
// work, never change results) across thread counts, ordered streaming,
// per-plan skip counters, and the PlanCache-resident entry point.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "workload/generators.h"

namespace spanners {
namespace engine {
namespace {

std::vector<std::shared_ptr<const ExtractionPlan>> CompileAll(
    const std::vector<std::string>& patterns) {
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  for (const std::string& p : patterns)
    plans.push_back(std::make_shared<const ExtractionPlan>(
        ExtractionPlan::Compile(p).ValueOrDie()));
  return plans;
}

// ExtractMulti must be byte-identical to per-plan extraction for every
// plan, across thread counts {1, 2, 8} — the ISSUE's acceptance bar.
TEST(MultiQueryTest, FleetByteIdenticalToPerPlanExtractionAcrossThreads) {
  workload::FleetOptions o;
  o.num_patterns = 12;
  o.documents = 160;
  o.doc_bytes = 300;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  auto plans = CompileAll(generated.patterns);
  MultiQueryExtractor fleet(plans);

  // Ground truth: each plan alone, through fresh (gated) plans so the
  // fleet's shared counters/caches cannot leak into the expectation.
  std::vector<std::vector<std::vector<Mapping>>> expected;
  {
    BatchOptions bo;
    bo.num_threads = 1;
    BatchExtractor extractor(bo);
    for (const std::string& p : generated.patterns) {
      ExtractionPlan alone = ExtractionPlan::Compile(p).ValueOrDie();
      expected.push_back(extractor.Extract(alone, corpus).per_doc);
    }
  }

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    MultiBatchResult result = extractor.ExtractMulti(fleet, corpus);
    ASSERT_EQ(result.per_plan.size(), plans.size());
    for (size_t p = 0; p < plans.size(); ++p)
      EXPECT_EQ(result.per_plan[p].per_doc, expected[p])
          << "plan " << p << " threads " << threads;
  }
}

// Random formulas (not fleet-shaped: some without any usable literal, so
// part of the fleet is AC-gated and part falls through to the DFA tier).
TEST(MultiQueryTest, RandomPlansGatedFleetMatchesUngatedFleet) {
  std::mt19937 rng(59);
  workload::RandomRgxOptions o;
  o.num_vars = 2;
  o.letters = "ab";
  std::uniform_int_distribution<size_t> len_pick(0, 10);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::shared_ptr<const ExtractionPlan>> plans;
    std::vector<std::shared_ptr<const ExtractionPlan>> plain_plans;
    for (int p = 0; p < 6; ++p) {
      RgxPtr rgx = workload::RandomRgx(o, &rng);
      plans.push_back(std::make_shared<const ExtractionPlan>(
          ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx))));
      auto plain = std::make_shared<ExtractionPlan>(
          ExtractionPlan::FromSpanner(Spanner::FromRgx(rgx)));
      plain->set_gating_enabled(false);
      plain_plans.push_back(std::move(plain));
    }
    std::vector<Document> docs;
    for (int i = 0; i < 40; ++i)
      docs.push_back(workload::RandomDocument("ab", len_pick(rng), &rng));
    Corpus corpus(std::move(docs));

    MultiQueryExtractor gated(plans);
    MultiQueryExtractor ungated(plain_plans, /*build_shared_gate=*/false);

    for (size_t threads : {1u, 2u}) {
      BatchOptions bo;
      bo.num_threads = threads;
      bo.min_docs_per_shard = 4;
      BatchExtractor extractor(bo);
      MultiBatchResult got = extractor.ExtractMulti(gated, corpus);
      MultiBatchResult want = extractor.ExtractMulti(ungated, corpus);
      for (size_t p = 0; p < plans.size(); ++p)
        ASSERT_EQ(got.per_plan[p].per_doc, want.per_plan[p].per_doc)
            << "round " << round << " plan " << p << " threads " << threads;
    }
  }
}

TEST(MultiQueryTest, ExtractMultiStreamMatchesExtractMultiInOrder) {
  workload::FleetOptions o;
  o.num_patterns = 6;
  o.documents = 120;
  o.doc_bytes = 200;
  o.match_rate = 0.05;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(CompileAll(generated.patterns));

  BatchOptions ro;
  ro.num_threads = 1;
  MultiBatchResult want = BatchExtractor(ro).ExtractMulti(fleet, corpus);

  for (size_t threads : {1u, 2u, 8u}) {
    BatchOptions bo;
    bo.num_threads = threads;
    bo.min_docs_per_shard = 4;
    BatchExtractor extractor(bo);
    std::vector<std::vector<std::vector<Mapping>>> streamed(
        fleet.num_plans());
    size_t calls = 0;
    BatchExtractor::StreamStats stats = extractor.ExtractMultiStream(
        fleet, corpus,
        [&](size_t doc_begin, size_t doc_end,
            std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
          ASSERT_EQ(per_plan.size(), fleet.num_plans());
          ASSERT_EQ(doc_begin, streamed[0].size()) << "shards out of order";
          ASSERT_EQ(doc_end - doc_begin, per_plan[0].size());
          for (size_t p = 0; p < per_plan.size(); ++p)
            for (auto& ms : per_plan[p]) streamed[p].push_back(std::move(ms));
          ++calls;
        });
    EXPECT_EQ(calls, stats.shards);
    EXPECT_EQ(stats.total_mappings, want.total_mappings);
    for (size_t p = 0; p < fleet.num_plans(); ++p)
      EXPECT_EQ(streamed[p], want.per_plan[p].per_doc)
          << "plan " << p << " threads " << threads;
  }
}

TEST(MultiQueryTest, PerPlanStatsAccountForEveryDocument) {
  workload::FleetOptions o;
  o.num_patterns = 4;
  o.documents = 100;
  o.doc_bytes = 200;
  o.match_rate = 0.1;
  workload::PatternFleet generated = workload::MakePatternFleet(o);
  Corpus corpus(std::move(generated.documents));
  MultiQueryExtractor fleet(CompileAll(generated.patterns));
  EXPECT_EQ(fleet.num_gated_plans(), 4u);
  EXPECT_GT(fleet.num_gate_literals(), 0u);

  BatchOptions bo;
  bo.num_threads = 2;
  MultiBatchResult result = BatchExtractor(bo).ExtractMulti(fleet, corpus);

  for (size_t p = 0; p < fleet.num_plans(); ++p) {
    PlanStats s = fleet.plan_stats(p);
    EXPECT_EQ(s.documents, corpus.size()) << p;
    // Every document is either rejected by the shared AC pass (no tag
    // literal), the remaining-clause prefilter tier, the DFA tier, or
    // extracted; the fleet corpus is built so AC rejections = non-needle
    // documents exactly.
    EXPECT_EQ(s.ac_gate_skipped + s.prefilter_skipped + s.dfa_skipped +
                  result.per_plan[p].MatchedDocuments(),
              corpus.size())
        << p;
    EXPECT_GT(s.ac_gate_skipped, 0u) << p;
    EXPECT_EQ(s.mappings, result.per_plan[p].total_mappings) << p;
    EXPECT_FALSE(s.ToString().empty());
    // The fleet reports the plan's own counters.
    const PlanStats own = fleet.plan(p).stats();
    EXPECT_EQ(own.documents, s.documents) << p;
    EXPECT_EQ(own.mappings, s.mappings) << p;
    EXPECT_EQ(own.ac_gate_skipped, s.ac_gate_skipped) << p;
    EXPECT_EQ(own.prefilter_skipped, s.prefilter_skipped) << p;
    EXPECT_EQ(own.dfa_skipped, s.dfa_skipped) << p;
  }
  EXPECT_NE(fleet.ToString().find("4 plans"), std::string::npos);
}

TEST(MultiQueryTest, FromCacheGathersResidentPlansDeterministically) {
  PlanCache cache;
  cache.GetOrCompile(".*bbb(x{a*}).*").ValueOrDie();
  cache.GetOrCompile(".*aaa(x{a*}).*").ValueOrDie();
  std::vector<std::pair<std::string,
                        std::shared_ptr<const ExtractionPlan>>>
      resident = cache.ResidentPlans();
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident[0].first, ".*aaa(x{a*}).*");  // key-sorted
  EXPECT_EQ(resident[1].first, ".*bbb(x{a*}).*");

  MultiQueryExtractor fleet = MultiQueryExtractor::FromCache(cache);
  ASSERT_EQ(fleet.num_plans(), 2u);
  EXPECT_EQ(fleet.plan(0).pattern(), ".*aaa(x{a*}).*");

  Corpus corpus = Corpus::FromDelimited("aaa\nbbbaa\nzzz");
  MultiBatchResult result = BatchExtractor().ExtractMulti(fleet, corpus);
  EXPECT_EQ(result.per_plan[0].MatchedDocuments(), 1u);  // "aaa"
  EXPECT_EQ(result.per_plan[1].MatchedDocuments(), 1u);  // "bbbaa"
}

TEST(MultiQueryTest, EmptyCorpusAndEmptyFleet) {
  MultiQueryExtractor empty_fleet(
      std::vector<std::shared_ptr<const ExtractionPlan>>{});
  BatchExtractor extractor;
  MultiBatchResult r = extractor.ExtractMulti(empty_fleet, Corpus());
  EXPECT_TRUE(r.per_plan.empty());
  EXPECT_EQ(r.total_mappings, 0u);

  auto plans = CompileAll({"x{a*}"});
  MultiQueryExtractor fleet(plans);
  r = extractor.ExtractMulti(fleet, Corpus());
  ASSERT_EQ(r.per_plan.size(), 1u);
  EXPECT_TRUE(r.per_plan[0].per_doc.empty());

  size_t calls = 0;
  BatchExtractor::StreamStats stats = extractor.ExtractMultiStream(
      fleet, Corpus(),
      [&](size_t, size_t, std::vector<std::vector<std::vector<Mapping>>>&) {
        ++calls;
      });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(stats.total_mappings, 0u);
}

// Plans with no extractable literal (match-all prefilter) must flow
// through the fleet untouched by the AC tier.
TEST(MultiQueryTest, UngateablePlansStillExtractEverything) {
  auto plans = CompileAll({"x{a*}", ".*needle(y{[0-9]+}).*"});
  MultiQueryExtractor fleet(plans);
  EXPECT_EQ(fleet.num_gated_plans(), 1u);
  Corpus corpus = Corpus::FromDelimited("aa\nneedle7\n");
  MultiBatchResult result = BatchExtractor().ExtractMulti(fleet, corpus);
  EXPECT_EQ(result.per_plan[0].MatchedDocuments(), 1u);  // "aa" only
  EXPECT_EQ(result.per_plan[1].MatchedDocuments(), 1u);
  PlanStats s0 = fleet.plan_stats(0);
  EXPECT_EQ(s0.ac_gate_skipped, 0u);  // no clauses: AC cannot reject it
}

// CachedFleet must reuse the built fleet while the cache's membership is
// unchanged — hits bump recency, not the generation — and rebuild exactly
// when a plan is inserted, evicted or the cache cleared.
TEST(MultiQueryTest, CachedFleetRebuildsOnlyWhenMembershipChanges) {
  PlanCache cache;
  CachedFleet cached(cache);

  std::shared_ptr<const MultiQueryExtractor> f0 = cached.Get();
  EXPECT_EQ(f0->num_plans(), 0u);
  EXPECT_EQ(cached.rebuilds(), 1u);
  EXPECT_EQ(cached.Get(), f0);  // no change: same fleet, no rebuild
  EXPECT_EQ(cached.rebuilds(), 1u);

  cache.GetOrCompile(".*aaa(x{b*}).*").ValueOrDie();
  std::shared_ptr<const MultiQueryExtractor> f1 = cached.Get();
  EXPECT_EQ(cached.rebuilds(), 2u);
  EXPECT_EQ(f1->num_plans(), 1u);
  EXPECT_NE(f1, f0);

  // Cache HITS must not invalidate the fleet.
  for (int i = 0; i < 5; ++i)
    cache.GetOrCompile(".*aaa(x{b*}).*").ValueOrDie();
  EXPECT_EQ(cached.Get(), f1);
  EXPECT_EQ(cached.rebuilds(), 2u);

  cache.GetOrCompile(".*ccc(x{d*}).*").ValueOrDie();
  EXPECT_EQ(cached.Get()->num_plans(), 2u);
  EXPECT_EQ(cached.rebuilds(), 3u);

  cache.Clear();
  EXPECT_EQ(cached.Get()->num_plans(), 0u);
  EXPECT_EQ(cached.rebuilds(), 4u);
  // The fleet handed out before Clear stays usable (shared ownership).
  EXPECT_EQ(f1->num_plans(), 1u);
}

// Interleaved inserts and capacity evictions: after every membership
// change the cached fleet's output must be identical to a fleet built
// fresh from ResidentPlans() — the cached path may only skip rebuilds,
// never serve a stale membership.
TEST(MultiQueryTest, CachedFleetInterleavedInsertEvictStaysIdentical) {
  PlanCacheOptions po;
  po.capacity = 3;  // small: inserts beyond 3 evict the LRU plan
  PlanCache cache(po);
  CachedFleet cached(cache);
  Corpus corpus = Corpus::FromDelimited(
      "tag00 payload\ntag01 payload\ntag02 payload\ntag03 payload\n"
      "tag04 payload\nnothing here\ntag02 again and tag04");
  BatchExtractor extractor;

  uint64_t last_generation = cache.generation();
  for (int step = 0; step < 12; ++step) {
    char pattern[64];
    std::snprintf(pattern, sizeof(pattern), ".*tag%02d (x{[a-z]+}).*",
                  step % 5);
    cache.GetOrCompile(pattern).ValueOrDie();
    if (step % 3 == 2)  // re-touch an old pattern: hit, membership intact
      cache.GetOrCompile(".*tag00 (x{[a-z]+}).*").ValueOrDie();

    std::shared_ptr<const MultiQueryExtractor> got = cached.Get();
    MultiQueryExtractor want = MultiQueryExtractor::FromCache(cache);
    ASSERT_EQ(got->num_plans(), want.num_plans()) << "step " << step;
    MultiBatchResult got_r = extractor.ExtractMulti(*got, corpus);
    MultiBatchResult want_r = extractor.ExtractMulti(want, corpus);
    ASSERT_EQ(got_r.per_plan.size(), want_r.per_plan.size());
    for (size_t p = 0; p < want_r.per_plan.size(); ++p)
      ASSERT_EQ(got_r.per_plan[p].per_doc, want_r.per_plan[p].per_doc)
          << "step " << step << " plan " << p;

    // Sanity on the generation contract itself: membership changed on
    // insert/evict steps, so the counter moved; size never exceeds cap.
    EXPECT_LE(cache.stats().size, po.capacity);
    EXPECT_GE(cache.generation(), last_generation);
    last_generation = cache.generation();
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // 5 distinct patterns cycled through a 3-slot cache: far fewer rebuilds
  // than Get() calls would be wrong here (every insert evicts), but the
  // hit-only steps must not have forced extra rebuilds beyond membership
  // changes. Upper bound: one rebuild per Get() call; the real assertion
  // is identity above — this pins that rebuilds at least happened.
  EXPECT_GE(cached.rebuilds(), 5u);
}

}  // namespace
}  // namespace engine
}  // namespace spanners
