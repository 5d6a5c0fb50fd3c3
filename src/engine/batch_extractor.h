// BatchExtractor: runs a per-document job — one DocumentExtractor (a
// compiled pattern plan or a whole algebra query) or a MultiQueryExtractor
// fleet — over a document source on a fixed work-stealing thread pool.
// The source is an in-memory Corpus, or a persisted segment whose posting
// index narrows the batch to candidate documents. Every entry point runs
// the same shard loop: the documents to extract are cut into
// byte-balanced shards (≈ 4 × threads of them, so stealing can rebalance
// skew), each worker extracts its shard through its own scratch, and the
// calling thread receives completed shards strictly in corpus order. The
// streaming entry points hand each shard to a consumer; the collecting
// ones gather the stream into one result. Output is therefore
// deterministic and independent of the thread count: per_doc[i] is the
// sorted ⟦γ⟧_{d_i}.
#ifndef SPANNERS_ENGINE_BATCH_EXTRACTOR_H_
#define SPANNERS_ENGINE_BATCH_EXTRACTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/mapping.h"
#include "engine/corpus.h"
#include "engine/multi_query.h"
#include "engine/plan.h"
#include "engine/thread_pool.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

namespace spanners {
namespace engine {

struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Never shard finer than this many documents.
  size_t min_docs_per_shard = 16;
};

struct BatchResult {
  /// per_doc[i]: sorted mappings of corpus document i.
  std::vector<std::vector<Mapping>> per_doc;
  uint64_t total_mappings = 0;
  size_t shards = 0;

  /// Documents with at least one mapping.
  size_t MatchedDocuments() const;
};

/// One ExtractMulti call's output: per_plan[p] is byte-identical to the
/// BatchResult of running plan p alone over the same corpus.
struct MultiBatchResult {
  std::vector<BatchResult> per_plan;
  uint64_t total_mappings = 0;  // across every plan
  size_t shards = 0;
};

/// Accounting of one batch over a persisted segment: how much the posting
/// index narrowed the scan, what the lookup cost, and the mmap paging the
/// candidate materialization incurred. Mirrored into obs index.* metrics.
struct IndexedStats {
  size_t corpus_docs = 0;
  /// Documents actually materialized and extracted (== corpus_docs when
  /// the index could not narrow the query).
  size_t candidate_docs = 0;
  /// Whether the index produced an explicit candidate set (some clause
  /// was indexable); false = full scan over the store.
  bool narrowed = false;
  uint64_t postings_touched = 0;  // posting entries decoded
  uint64_t terms_probed = 0;      // term-table binary searches
  uint64_t lookup_ns = 0;         // candidate-set computation wall time
  uint64_t minor_faults = 0;      // getrusage deltas across the call
  uint64_t major_faults = 0;

  /// candidate_docs / corpus_docs in [0, 1]; 1.0 for an empty corpus.
  double CandidateRatio() const {
    return corpus_docs == 0
               ? 1.0
               : static_cast<double>(candidate_docs) / corpus_docs;
  }
};

/// Where a batch's documents come from: an in-memory Corpus (implicitly
/// convertible), or a persisted segment. Segment documents are copied out
/// of the mapping (SegmentStore::MaterializeDoc) as they are extracted, so
/// results never dangle after the store closes. With a posting index only
/// candidate documents are extracted: the union of every plan's
/// NgramIndex::Candidates, or every document when some plan cannot be
/// narrowed (or the job is a query). Candidates are a superset of the
/// matching documents and each still runs the full gate cascade, so the
/// output is byte-identical, for every thread count, to extracting
/// store.ReadAll(); non-candidates simply have no mappings. A segment
/// batch fills *stats (when given). Everything is borrowed and must
/// outlive the call.
class DocumentSource {
 public:
  // Implicit, so every Extract* call still takes a Corpus directly.
  DocumentSource(const Corpus& corpus) : corpus_(&corpus) {}
  DocumentSource(const storage::SegmentStore& store,
                 const storage::NgramIndex* index,
                 IndexedStats* stats = nullptr)
      : store_(&store), index_(index), stats_(stats) {}

  size_t num_docs() const {
    return corpus_ != nullptr ? corpus_->size() : store_->num_docs();
  }
  /// Document i: a reference into the corpus, or a copy out of the
  /// segment held in *held (valid until *held changes).
  const Document& doc(size_t i, Document* held) const {
    if (corpus_ != nullptr) return (*corpus_)[i];
    *held = store_->MaterializeDoc(i);
    return *held;
  }

 private:
  friend class BatchExtractor;
  size_t doc_bytes(size_t i) const {
    return corpus_ != nullptr ? (*corpus_)[i].text().size()
                              : store_->doc_bytes(i);
  }

  const Corpus* corpus_ = nullptr;
  const storage::SegmentStore* store_ = nullptr;
  const storage::NgramIndex* index_ = nullptr;
  IndexedStats* stats_ = nullptr;
};

class BatchExtractor {
 public:
  explicit BatchExtractor(BatchOptions options = {});

  size_t num_threads() const { return pool_.num_threads(); }

  /// Token governing the NEXT Extract* call (and every one after, until
  /// replaced): each worker polls it between documents and hands it to the
  /// evaluators so it aborts mid-document too. Not owned; null = never
  /// cancels. Set it before the call, from the same thread — the extractor
  /// is not reentrant anyway. After a trip the result is partial and
  /// meaningless: the caller checks the token, never the result. With no
  /// token (or an untripped one) results are byte-identical to a run
  /// without this feature — the polls have no other side effect.
  void set_cancel(CancelToken* cancel) { cancel_ = cancel; }
  CancelToken* cancel() const { return cancel_; }

  /// Extracts every document of `source` under `extractor` — an
  /// ExtractionPlan or a query::CompiledQuery. Blocking; safe to call
  /// repeatedly (the pool is reused across batches — each worker's
  /// extraction arenas and mapping pool are Reset()/recycled between
  /// documents, never freed). The extractor and source must outlive the
  /// call (they are borrowed, not copied). Not safe to call concurrently
  /// on the same BatchExtractor: the per-worker scratch is reused across
  /// calls.
  BatchResult Extract(const DocumentExtractor& extractor,
                      const DocumentSource& source);

  /// Aggregate of a streamed extraction (ExtractStream's return value).
  struct StreamStats {
    uint64_t total_mappings = 0;
    size_t matched_documents = 0;
    size_t shards = 0;
  };

  /// Receives one completed shard: the sorted mappings of corpus documents
  /// [doc_begin, doc_end), with per_doc[i] belonging to document
  /// doc_begin + i. The slice may be consumed destructively (moved from);
  /// its storage is released after the call returns. Consecutive shards
  /// cover consecutive document ranges; documents outside every shard (an
  /// index found no candidate at all) have no mappings.
  using ShardConsumer = std::function<void(
      size_t doc_begin, size_t doc_end,
      std::vector<std::vector<Mapping>>& per_doc)>;

  /// Streamed variant of Extract: `consumer` is invoked once per shard,
  /// in corpus order, on the calling thread, while later shards are still
  /// extracting — output never materializes the whole BatchResult, so peak
  /// memory is bounded by the in-flight window (≈ 2 × threads shards)
  /// instead of the corpus. The emitted stream is byte-identical for every
  /// thread count: shard boundaries and per-document mapping order do not
  /// depend on scheduling. Same borrowing and non-reentrancy rules as
  /// Extract.
  StreamStats ExtractStream(const DocumentExtractor& extractor,
                            const DocumentSource& source,
                            const ShardConsumer& consumer);

  /// Runs a whole plan fleet over the source in a single pass: each
  /// document is scanned once by the fleet's shared Aho–Corasick gate and
  /// extracted under every surviving plan, instead of one full corpus
  /// sweep per plan. Output per_plan[p] is byte-identical — for every
  /// thread count — to Extract(fleet.plan(p), source). Same borrowing and
  /// non-reentrancy rules as Extract.
  MultiBatchResult ExtractMulti(const MultiQueryExtractor& fleet,
                                const DocumentSource& source);

  /// Receives one completed multi-query shard: per_plan[p][i - doc_begin]
  /// is the sorted mapping set of corpus document i under plan p. The
  /// slice may be consumed destructively; storage is released after the
  /// call returns.
  using MultiShardConsumer = std::function<void(
      size_t doc_begin, size_t doc_end,
      std::vector<std::vector<std::vector<Mapping>>>& per_plan)>;

  /// Streamed ExtractMulti: shards arrive in corpus order on the calling
  /// thread while later shards still extract; StreamStats aggregates over
  /// every plan (matched_documents counts documents matched by at least
  /// one plan). Byte-identical for every thread count.
  StreamStats ExtractMultiStream(const MultiQueryExtractor& fleet,
                                 const DocumentSource& source,
                                 const MultiShardConsumer& consumer);

  /// ExtractMulti over a persisted segment, narrowed by `index` (may be
  /// null): shorthand for ExtractMulti(fleet, {store, index, stats}).
  MultiBatchResult ExtractIndexedMulti(const MultiQueryExtractor& fleet,
                                       const storage::SegmentStore& store,
                                       const storage::NgramIndex* index,
                                       IndexedStats* stats = nullptr);

 private:
  /// The per-document work: one extractor, or a whole fleet.
  struct Job;

  /// The shard loop behind every entry point: picks the documents to
  /// extract (index candidates or all), shards them by bytes, extracts
  /// each shard on the pool and hands shards to `consumer` in corpus
  /// order, per plan (a single extractor is plan 0).
  StreamStats Drive(const Job& job, const DocumentSource& source,
                    const MultiShardConsumer& consumer);

  BatchOptions options_;
  ThreadPool pool_;
  CancelToken* cancel_ = nullptr;
  // One scratch (arenas + mapping pool) per pool worker, addressed via
  // ThreadPool::CurrentWorkerIndex(); unique_ptr keeps addresses stable.
  std::vector<std::unique_ptr<PlanScratch>> worker_scratch_;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_BATCH_EXTRACTOR_H_
