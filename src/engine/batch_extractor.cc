#include "engine/batch_extractor.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <utility>

#include "obs/span.h"

namespace spanners {
namespace engine {

namespace {

/// Whole-document wall time (gate + evaluator + sort), one observation per
/// (document, extractor) — and per (document, fleet) in multi mode, where
/// a single observation covers every resident plan. Trace events carry the
/// corpus document index as their arg, so a Chrome-trace view lines the
/// per-tier spans up under the document they belong to.
obs::Histogram* DocHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram("engine.doc_ns");
  return h;
}

/// Snapshot of this process's page-fault counters (minor, major).
std::pair<uint64_t, uint64_t> PageFaults() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return {0, 0};
  return {static_cast<uint64_t>(ru.ru_minflt),
          static_cast<uint64_t>(ru.ru_majflt)};
}

/// Mirrors one indexed call's accounting into the obs index.* metrics.
void RecordIndexedStats(const IndexedStats& stats) {
  if (!obs::Enabled()) return;
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter* corpus_docs = reg.GetCounter("index.corpus_docs");
  static obs::Counter* candidate_docs =
      reg.GetCounter("index.candidate_docs");
  static obs::Counter* postings = reg.GetCounter("index.postings_touched");
  static obs::Counter* terms = reg.GetCounter("index.terms_probed");
  static obs::Counter* minflt = reg.GetCounter("index.minor_faults");
  static obs::Counter* majflt = reg.GetCounter("index.major_faults");
  static obs::Histogram* lookup_ns = reg.GetHistogram("index.lookup_ns");
  corpus_docs->Add(stats.corpus_docs);
  candidate_docs->Add(stats.candidate_docs);
  postings->Add(stats.postings_touched);
  terms->Add(stats.terms_probed);
  minflt->Add(stats.minor_faults);
  majflt->Add(stats.major_faults);
  lookup_ns->Record(stats.lookup_ns);
}

/// Shards ≈ threads × this, so work stealing can rebalance skew.
constexpr size_t kShardOversubscription = 4;

/// One shard's results: [plan][document - shard begin].
using PerPlanSlice = std::vector<std::vector<std::vector<Mapping>>>;

/// Moves one shard's per-document slice into the collected result.
void Gather(size_t doc_begin, std::vector<std::vector<Mapping>>& slice,
            BatchResult* result) {
  for (size_t i = 0; i < slice.size(); ++i) {
    result->total_mappings += slice[i].size();
    result->per_doc[doc_begin + i] = std::move(slice[i]);
  }
}

}  // namespace

struct BatchExtractor::Job {
  const DocumentExtractor* extractor = nullptr;  // exactly one is set
  const MultiQueryExtractor* fleet = nullptr;

  size_t num_plans() const {
    return fleet != nullptr ? fleet->num_plans() : 1;
  }
  /// Literal requirement of plan p, or null when it has none to offer.
  const Prefilter* requirement(size_t p) const {
    return fleet != nullptr ? &fleet->plan(p).prefilter()
                            : extractor->required_literals();
  }
  /// The segment documents this job must extract: the union of every
  /// plan's posting-list candidates. A plan the index cannot narrow (or no
  /// index at all) widens the union to every document — its matches could
  /// be anywhere.
  storage::CandidateSet Candidates(const storage::NgramIndex* index,
                                   storage::LookupStats* lookup) const {
    storage::CandidateSet cand;
    cand.all = false;
    for (size_t p = 0; p < num_plans(); ++p) {
      const Prefilter* req = requirement(p);
      if (index == nullptr || req == nullptr) return {};
      storage::CandidateSet c = index->Candidates(*req, lookup);
      if (c.all) return c;
      std::vector<uint32_t> merged;
      merged.reserve(cand.docs.size() + c.docs.size());
      std::set_union(cand.docs.begin(), cand.docs.end(), c.docs.begin(),
                     c.docs.end(), std::back_inserter(merged));
      cand.docs = std::move(merged);
    }
    return cand;
  }
  /// Fills out[p] with the sorted mappings of `doc` under plan p.
  void Run(const Document& doc, PlanScratch* scratch,
           std::vector<Mapping>** out) const {
    if (fleet != nullptr) {
      fleet->ExtractAllSortedInto(doc, scratch, out);
    } else {
      extractor->ExtractSortedInto(doc, scratch, out[0]);
    }
  }
};

size_t BatchResult::MatchedDocuments() const {
  size_t n = 0;
  for (const auto& ms : per_doc)
    if (!ms.empty()) ++n;
  return n;
}

BatchExtractor::BatchExtractor(BatchOptions options)
    : options_(options), pool_(options.num_threads) {
  worker_scratch_.reserve(pool_.num_threads());
  for (size_t i = 0; i < pool_.num_threads(); ++i)
    worker_scratch_.push_back(std::make_unique<PlanScratch>());
}

BatchExtractor::StreamStats BatchExtractor::Drive(
    const Job& job, const DocumentSource& source,
    const MultiShardConsumer& consumer) {
  StreamStats stats;
  const size_t num_plans = job.num_plans();
  const size_t num_docs = source.num_docs();

  // The documents to extract, in corpus order: every document, or over a
  // segment the job's index candidates.
  storage::CandidateSet cand;  // all = true: every document
  IndexedStats indexed;
  std::pair<uint64_t, uint64_t> faults0{0, 0};
  if (source.store_ != nullptr) {
    faults0 = PageFaults();
    storage::LookupStats lookup;
    const auto t0 = std::chrono::steady_clock::now();
    cand = job.Candidates(source.index_, &lookup);
    indexed.lookup_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    indexed.corpus_docs = num_docs;
    indexed.candidate_docs = cand.CountIn(num_docs);
    indexed.narrowed = !cand.all;
    indexed.postings_touched = lookup.postings_touched;
    indexed.terms_probed = lookup.terms_probed;
  }
  const size_t count = num_plans == 0 ? 0 : cand.CountIn(num_docs);
  auto doc_of = [&cand](size_t j) -> size_t {
    return cand.all ? j : cand.docs[j];
  };

  ShardingOptions sharding;
  sharding.max_shards = pool_.num_threads() * kShardOversubscription;
  sharding.min_docs_per_shard = options_.min_docs_per_shard;
  // Shards over the documents to extract, balanced by their bytes; each
  // delivers the document range from its first document up to the next
  // shard's, so the ranges tile the corpus when anything is extracted.
  const std::vector<Shard> work = ShardBySize(
      count, [&](size_t j) { return source.doc_bytes(doc_of(j)); },
      sharding);
  std::vector<Shard> ranges(work.size());
  for (size_t s = 0; s < work.size(); ++s) {
    ranges[s].begin = s == 0 ? 0 : ranges[s - 1].end;
    ranges[s].end = s + 1 == work.size() ? num_docs : doc_of(work[s].end);
  }
  stats.shards = work.size();

  // Workers fill per-shard slices and flag completion; the calling thread
  // drains completed shards strictly in corpus order, so the emitted
  // stream is deterministic for any thread count. Every worker extracts
  // through its own arena-backed scratch, Reset() between documents.
  struct ShardState {
    PerPlanSlice per_plan;
    bool done = false;  // guarded by mu
  };
  std::vector<ShardState> state(work.size());
  std::mutex mu;
  std::condition_variable cv;
  // In-flight bound: enough shards to keep every worker busy while the
  // consumer drains, but strictly fewer than the sharder can produce
  // (threads × kShardOversubscription), so a slow consumer genuinely caps
  // materialized results instead of admitting them all.
  const size_t window = std::max<size_t>(1, pool_.num_threads() * 2);

  auto submit = [&](size_t s) {
    pool_.Submit([&, s] {
      PlanScratch& scratch =
          *worker_scratch_[ThreadPool::CurrentWorkerIndex()];
      scratch.cancel = cancel_;  // unconditionally: clears stale tokens too
      ShardState& st = state[s];
      st.per_plan.assign(num_plans, std::vector<std::vector<Mapping>>(
                                        ranges[s].size()));
      std::vector<std::vector<Mapping>*> slots(num_plans);
      Document held;
      for (size_t j = work[s].begin; j < work[s].end; ++j) {
        if (cancel_ != nullptr && cancel_->tripped()) break;
        const size_t d = doc_of(j);
        obs::ObsSpan span(DocHistogram(), "doc", d);
        for (size_t p = 0; p < num_plans; ++p)
          slots[p] = &st.per_plan[p][d - ranges[s].begin];
        job.Run(source.doc(d, &held), &scratch, slots.data());
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        st.done = true;
      }
      cv.notify_all();
    });
  };

  // Submitted tasks reference the locals above; if the consumer throws,
  // they must all finish before this frame unwinds.
  struct DrainGuard {
    ThreadPool& pool;
    ~DrainGuard() { pool.WaitIdle(); }
  } drain{pool_};

  size_t next_submit = 0;
  for (size_t consumed = 0; consumed < work.size(); ++consumed) {
    while (next_submit < work.size() && next_submit < consumed + window)
      submit(next_submit++);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return state[consumed].done; });
    }
    ShardState& st = state[consumed];
    for (size_t d = 0; d < ranges[consumed].size(); ++d) {
      bool matched = false;
      for (size_t p = 0; p < num_plans; ++p) {
        stats.total_mappings += st.per_plan[p][d].size();
        matched = matched || !st.per_plan[p][d].empty();
      }
      if (matched) ++stats.matched_documents;
    }
    consumer(ranges[consumed].begin, ranges[consumed].end, st.per_plan);
    // Release the slice eagerly: streamed memory stays bounded even when
    // one shard produced a huge result.
    PerPlanSlice().swap(st.per_plan);
  }

  if (source.store_ != nullptr) {
    const std::pair<uint64_t, uint64_t> faults1 = PageFaults();
    indexed.minor_faults = faults1.first - faults0.first;
    indexed.major_faults = faults1.second - faults0.second;
    RecordIndexedStats(indexed);
    if (source.stats_ != nullptr) *source.stats_ = indexed;
  }
  return stats;
}

BatchResult BatchExtractor::Extract(const DocumentExtractor& extractor,
                                    const DocumentSource& source) {
  BatchResult result;
  result.per_doc.resize(source.num_docs());
  result.shards = Drive(Job{&extractor, nullptr}, source,
                        [&result](size_t doc_begin, size_t,
                                  PerPlanSlice& slice) {
                          Gather(doc_begin, slice[0], &result);
                        })
                      .shards;
  return result;
}

BatchExtractor::StreamStats BatchExtractor::ExtractStream(
    const DocumentExtractor& extractor, const DocumentSource& source,
    const ShardConsumer& consumer) {
  return Drive(Job{&extractor, nullptr}, source,
               [&consumer](size_t doc_begin, size_t doc_end,
                           PerPlanSlice& slice) {
                 consumer(doc_begin, doc_end, slice[0]);
               });
}

MultiBatchResult BatchExtractor::ExtractMulti(const MultiQueryExtractor& fleet,
                                              const DocumentSource& source) {
  MultiBatchResult result;
  result.per_plan.resize(fleet.num_plans());
  for (BatchResult& br : result.per_plan) br.per_doc.resize(source.num_docs());
  const StreamStats stats = Drive(
      Job{nullptr, &fleet}, source,
      [&result](size_t doc_begin, size_t, PerPlanSlice& slice) {
        for (size_t p = 0; p < slice.size(); ++p)
          Gather(doc_begin, slice[p], &result.per_plan[p]);
      });
  result.shards = stats.shards;
  result.total_mappings = stats.total_mappings;
  for (BatchResult& br : result.per_plan) br.shards = stats.shards;
  return result;
}

BatchExtractor::StreamStats BatchExtractor::ExtractMultiStream(
    const MultiQueryExtractor& fleet, const DocumentSource& source,
    const MultiShardConsumer& consumer) {
  return Drive(Job{nullptr, &fleet}, source, consumer);
}

MultiBatchResult BatchExtractor::ExtractIndexedMulti(
    const MultiQueryExtractor& fleet, const storage::SegmentStore& store,
    const storage::NgramIndex* index, IndexedStats* stats) {
  return ExtractMulti(fleet, DocumentSource(store, index, stats));
}

}  // namespace engine
}  // namespace spanners
