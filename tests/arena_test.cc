// Tests for the arena memory subsystem: chunked growth and Reset() reuse
// of Arena, ArenaVector semantics, and the flat open-addressing sets
// (FlatKeySet, FlatMappingSet) including collision, tombstone and rehash
// behavior, cross-checked against the std-based MappingSet.
#include "common/arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "automata/run_eval.h"
#include "core/mapping.h"
#include "core/spanner.h"

namespace spanners {
namespace {

// ---- Arena --------------------------------------------------------------

TEST(ArenaTest, AllocationsAreDistinctAndWritable) {
  Arena arena;
  int* a = arena.AllocateArray<int>(10);
  int* b = arena.AllocateArray<int>(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  for (int i = 0; i < 10; ++i) {
    a[i] = i;
    b[i] = -i;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], -i);
  }
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena;
  arena.Allocate(1, 1);
  void* p8 = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  arena.Allocate(3, 1);
  void* p16 = arena.Allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p16) % 16, 0u);
}

TEST(ArenaTest, ChunkGrowthOnOverflow) {
  Arena arena(/*first_chunk_bytes=*/128);
  EXPECT_EQ(arena.num_chunks(), 0u);
  arena.Allocate(64);
  EXPECT_EQ(arena.num_chunks(), 1u);
  // Overflow the first chunk several times; chunks grow geometrically.
  for (int i = 0; i < 20; ++i) arena.Allocate(100);
  EXPECT_GT(arena.num_chunks(), 1u);
  EXPECT_GE(arena.bytes_used(), 64u + 20u * 100u);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedChunk) {
  Arena arena(/*first_chunk_bytes=*/128);
  char* big = arena.AllocateArray<char>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 'x';
  big[(1 << 20) - 1] = 'y';
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
}

TEST(ArenaTest, ResetReusesChunksWithoutFreeing) {
  Arena arena(/*first_chunk_bytes=*/256);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  const size_t reserved = arena.bytes_reserved();
  const size_t chunks = arena.num_chunks();
  ASSERT_GT(chunks, 1u);

  // After Reset the same allocation pattern must fit in the retained
  // chunks: no new reservation, same chunk count.
  for (int round = 0; round < 5; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    for (int i = 0; i < 100; ++i) arena.Allocate(64);
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
    EXPECT_EQ(arena.num_chunks(), chunks) << "round " << round;
  }
}

TEST(ArenaTest, ZeroByteAllocationIsValid) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
  EXPECT_NE(arena.AllocateArray<int>(0), nullptr);
}

// ---- ArenaVector --------------------------------------------------------

TEST(ArenaVectorTest, PushBackGrowthPreservesContents) {
  Arena arena;
  ArenaVector<uint32_t> v(&arena);
  for (uint32_t i = 0; i < 1000; ++i) v.push_back(i * 3);
  ASSERT_EQ(v.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * 3);
  v.pop_back();
  EXPECT_EQ(v.size(), 999u);
  EXPECT_EQ(v.back(), 998u * 3);
}

TEST(ArenaVectorTest, ResizeValueInitializesNewElements) {
  Arena arena;
  ArenaVector<uint64_t> v(&arena);
  v.push_back(7);
  v.resize(5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 7u);
  for (size_t i = 1; i < 5; ++i) EXPECT_EQ(v[i], 0u);
}

TEST(ArenaVectorTest, AppendAndClearReuseCapacity) {
  Arena arena;
  ArenaVector<char> v(&arena);
  const char data[] = "abcdef";
  v.append(data, 6);
  EXPECT_EQ(v.size(), 6u);
  const size_t used = arena.bytes_used();
  v.clear();
  v.append(data, 6);  // fits in existing capacity: no new arena traffic
  EXPECT_EQ(arena.bytes_used(), used);
  EXPECT_EQ(std::memcmp(v.data(), data, 6), 0);
}

// ---- FlatKeySet ---------------------------------------------------------

TEST(FlatKeySetTest, InsertReportsNewVsDuplicate) {
  Arena arena;
  FlatKeySet set(&arena);
  auto [p1, fresh1] = set.Insert("alpha", 5);
  EXPECT_TRUE(fresh1);
  auto [p2, fresh2] = set.Insert("alpha", 5);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(p1, p2);  // duplicate returns the originally stored bytes
  auto [p3, fresh3] = set.Insert("alphA", 5);
  EXPECT_TRUE(fresh3);
  EXPECT_NE(p3, p1);
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatKeySetTest, StoredPointersSurviveRehash) {
  Arena arena;
  FlatKeySet set(&arena, /*initial_capacity=*/8);
  std::vector<std::pair<std::string, const char*>> stored;
  for (int i = 0; i < 500; ++i) {
    std::string key = "key-" + std::to_string(i * 977);
    auto [p, fresh] = set.Insert(key.data(), static_cast<uint32_t>(key.size()));
    ASSERT_TRUE(fresh);
    stored.emplace_back(key, p);
  }
  EXPECT_GT(set.rehash_count(), 0u);
  EXPECT_EQ(set.size(), 500u);
  for (const auto& [key, p] : stored) {
    // Still present, still pointing at the same arena bytes.
    auto [q, fresh] = set.Insert(key.data(), static_cast<uint32_t>(key.size()));
    EXPECT_FALSE(fresh);
    EXPECT_EQ(q, p);
    EXPECT_EQ(std::memcmp(p, key.data(), key.size()), 0);
  }
}

TEST(FlatKeySetTest, HandlesEmbeddedNulAndBinaryKeys) {
  Arena arena;
  FlatKeySet set(&arena);
  const char a[] = {0, 1, 0, 2};
  const char b[] = {0, 1, 0, 3};
  EXPECT_TRUE(set.Insert(a, 4).second);
  EXPECT_TRUE(set.Insert(b, 4).second);
  EXPECT_FALSE(set.Insert(a, 4).second);
  // Same prefix, different length.
  EXPECT_TRUE(set.Insert(a, 3).second);
  EXPECT_EQ(set.size(), 3u);
}

// ---- FlatMappingSet -----------------------------------------------------

std::vector<SpanTuple> Tuples(std::initializer_list<SpanTuple> ts) {
  return std::vector<SpanTuple>(ts);
}

TEST(FlatMappingSetTest, InsertContainsAndDuplicates) {
  Arena arena;
  FlatMappingSet set(&arena);
  auto m1 = Tuples({{1, 1, 3}, {2, 3, 5}});
  auto m2 = Tuples({{1, 1, 3}, {2, 3, 6}});
  EXPECT_TRUE(set.Insert(m1.data(), 2));
  EXPECT_FALSE(set.Insert(m1.data(), 2));
  EXPECT_TRUE(set.Insert(m2.data(), 2));
  EXPECT_TRUE(set.Contains(m1.data(), 2));
  EXPECT_TRUE(set.Contains(m2.data(), 2));
  // The empty mapping is a valid member, distinct from any non-empty one.
  EXPECT_TRUE(set.Insert(nullptr, 0));
  EXPECT_FALSE(set.Insert(nullptr, 0));
  EXPECT_EQ(set.size(), 3u);
}

TEST(FlatMappingSetTest, CollisionsResolvedByProbing) {
  // With capacity 8 and many inserts, slot collisions are guaranteed;
  // correctness must not depend on hash spread.
  Arena arena;
  FlatMappingSet set(&arena, /*initial_capacity=*/8);
  std::vector<std::vector<SpanTuple>> rows;
  for (uint32_t i = 0; i < 200; ++i)
    rows.push_back(Tuples({{1, i + 1, i + 2}, {2, i + 2, i + 40}}));
  for (auto& r : rows) ASSERT_TRUE(set.Insert(r.data(), 2));
  EXPECT_EQ(set.size(), 200u);
  for (auto& r : rows) EXPECT_TRUE(set.Contains(r.data(), 2));
  EXPECT_GT(set.rehash_count(), 0u);
}

TEST(FlatMappingSetTest, EraseplantsTombstoneAndReinsertWorks) {
  Arena arena;
  FlatMappingSet set(&arena);
  auto m1 = Tuples({{1, 1, 2}});
  auto m2 = Tuples({{1, 2, 3}});
  auto m3 = Tuples({{1, 3, 4}});
  set.Insert(m1.data(), 1);
  set.Insert(m2.data(), 1);
  set.Insert(m3.data(), 1);

  EXPECT_TRUE(set.Erase(m2.data(), 1));
  EXPECT_FALSE(set.Erase(m2.data(), 1));  // already gone
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.tombstones(), 1u);
  EXPECT_FALSE(set.Contains(m2.data(), 1));
  EXPECT_TRUE(set.Contains(m1.data(), 1));
  EXPECT_TRUE(set.Contains(m3.data(), 1));

  // Reinsert after erase: the insert reuses the first tombstone on its
  // probe path (group probing keeps lookups correct past tombstones).
  EXPECT_TRUE(set.Insert(m2.data(), 1));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.tombstones(), 0u);
  EXPECT_TRUE(set.Contains(m2.data(), 1));
}

TEST(FlatMappingSetTest, RandomizedInsertEraseAgreesWithReference) {
  std::mt19937 rng(11);
  Arena arena;
  FlatMappingSet flat(&arena, /*initial_capacity=*/8);
  std::set<std::pair<uint32_t, uint32_t>> reference;  // (begin, end) of var 1
  for (int op = 0; op < 5000; ++op) {
    uint32_t b = rng() % 40 + 1;
    uint32_t e = b + rng() % 4;
    SpanTuple t{1, b, e};
    switch (rng() % 3) {
      case 0:
        EXPECT_EQ(flat.Insert(&t, 1), reference.insert({b, e}).second)
            << "op " << op;
        break;
      case 1:
        EXPECT_EQ(flat.Erase(&t, 1), reference.erase({b, e}) > 0)
            << "op " << op;
        break;
      case 2:
        EXPECT_EQ(flat.Contains(&t, 1), reference.count({b, e}) > 0)
            << "op " << op;
        break;
    }
    ASSERT_EQ(flat.size(), reference.size()) << "op " << op;
  }
}

TEST(FlatMappingSetTest, RehashSweepsTombstones) {
  Arena arena;
  FlatMappingSet set(&arena, /*initial_capacity=*/8);
  std::vector<std::vector<SpanTuple>> rows;
  for (uint32_t i = 0; i < 50; ++i)
    rows.push_back(Tuples({{7, i + 1, i + 5}}));
  for (auto& r : rows) set.Insert(r.data(), 1);
  for (size_t i = 0; i < rows.size(); i += 2) set.Erase(rows[i].data(), 1);
  EXPECT_GT(set.tombstones(), 0u);

  // Grow past the load threshold to force a rehash.
  std::vector<std::vector<SpanTuple>> more;
  for (uint32_t i = 100; i < 200; ++i)
    more.push_back(Tuples({{7, i + 1, i + 5}}));
  for (auto& r : more) set.Insert(r.data(), 1);

  EXPECT_EQ(set.tombstones(), 0u);  // swept by the rehash
  for (size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(set.Contains(rows[i].data(), 1), i % 2 == 1) << i;
  for (auto& r : more) EXPECT_TRUE(set.Contains(r.data(), 1));
}

TEST(FlatMappingSetTest, ForEachVisitsEveryLiveMappingOnce) {
  Arena arena;
  FlatMappingSet set(&arena);
  for (uint32_t i = 0; i < 30; ++i) {
    auto m = Tuples({{3, i + 1, i + 2}});
    set.Insert(m.data(), 1);
  }
  auto erased = Tuples({{3, 5, 6}});
  set.Erase(erased.data(), 1);

  std::set<uint32_t> begins;
  set.ForEach([&](const SpanTuple* t, uint32_t n) {
    ASSERT_EQ(n, 1u);
    EXPECT_TRUE(begins.insert(t->begin).second) << "visited twice";
  });
  EXPECT_EQ(begins.size(), 29u);
  EXPECT_EQ(begins.count(5), 0u);
}

TEST(FlatMappingSetTest, AgreesWithMappingSetOnRandomInput) {
  std::mt19937 rng(7);
  Arena arena;
  FlatMappingSet flat(&arena);
  MappingSet reference;
  for (int i = 0; i < 2000; ++i) {
    uint32_t nvars = rng() % 4;
    std::vector<SpanTuple> tuples;
    Mapping m;
    for (uint32_t v = 1; v <= nvars; ++v) {
      uint32_t b = rng() % 6 + 1;
      uint32_t e = b + rng() % 4;
      tuples.push_back(SpanTuple{v, b, e});
      m.Set(v, Span(b, e));
    }
    bool flat_new =
        flat.Insert(tuples.data(), static_cast<uint32_t>(tuples.size()));
    bool ref_new = !reference.Contains(m);
    reference.Insert(m);
    EXPECT_EQ(flat_new, ref_new) << "insert #" << i;
  }
  EXPECT_EQ(flat.size(), reference.size());
}

// ---- arena-backed evaluation matches the wrapper API --------------------

TEST(ArenaEvalTest, RunEvalToMatchesRunEvalAndIsReusable) {
  Spanner s = Spanner::FromPattern(
                  ".*Seller: (x{[^,\\n]*}), Tax: (y{[0-9]*}).*")
                  .ValueOrDie();
  std::vector<Document> docs = {
      Document("a,Seller: Alice, Tax: 12,z\nb,Seller: Bob, Tax: 7,w\n"),
      Document("nothing here"),
      Document("Seller: Carol, Tax: 99"),
  };
  Arena arena;  // one arena reused across all documents
  for (const Document& doc : docs) {
    std::vector<Mapping> got;
    VectorSink sink(&got);
    RunEvalTo(s.va(), doc, &arena, sink);
    std::sort(got.begin(), got.end());
    std::vector<Mapping> want = RunEval(s.va(), doc).Sorted();
    EXPECT_EQ(got, want) << doc.text();
  }
}

}  // namespace
}  // namespace spanners
