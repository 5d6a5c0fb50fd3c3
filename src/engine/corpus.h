// A corpus: an ordered collection of documents extracted as one batch.
// Documents keep their insertion index, so engine results can be reported
// in a deterministic, thread-count-independent order. Also corpus sharding:
// byte-balanced contiguous ranges handed to worker threads.
#ifndef SPANNERS_ENGINE_CORPUS_H_
#define SPANNERS_ENGINE_CORPUS_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/document.h"

namespace spanners {
namespace engine {

/// An immutable-after-build, index-addressed document collection.
class Corpus {
 public:
  Corpus() = default;
  explicit Corpus(std::vector<Document> docs) : docs_(std::move(docs)) {}

  /// Splits `text` at `delimiter`, one document per piece. A trailing
  /// delimiter does not produce an extra empty document; interior empty
  /// pieces are kept (an empty document is a valid Σ-string).
  static Corpus FromDelimited(std::string_view text, char delimiter = '\n');

  /// Reads the whole stream and splits at `delimiter`.
  static Corpus FromStream(std::istream& in, char delimiter = '\n');

  /// Reads and splits a file. Fails with kInvalidArgument when unreadable.
  static Result<Corpus> FromFile(const std::string& path,
                                 char delimiter = '\n');

  void Add(Document doc) { docs_.push_back(std::move(doc)); }

  /// Moves every document of `other` onto the end of this corpus.
  void Append(Corpus&& other);

  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }
  const Document& operator[](size_t i) const { return docs_[i]; }
  const std::vector<Document>& docs() const { return docs_; }

  auto begin() const { return docs_.begin(); }
  auto end() const { return docs_.end(); }

  /// Σ |d_i|: total corpus size in characters.
  size_t TotalBytes() const;

 private:
  std::vector<Document> docs_;
};

/// A contiguous [begin, end) range of corpus indices processed by one task.
struct Shard {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const Shard& o) const {
    return begin == o.begin && end == o.end;
  }
};

struct ShardingOptions {
  /// Upper bound on the number of shards (≈ threads × oversubscription so
  /// work stealing can rebalance skewed documents).
  size_t max_shards = 1;
  /// Lower bound on documents per shard; avoids drowning tiny corpora in
  /// scheduling overhead.
  size_t min_docs_per_shard = 16;
};

/// Partitions [0, count) into at most `options.max_shards` contiguous
/// shards, balanced by item size (a shard closes once it holds
/// ≥ total/max_shards bytes and ≥ min_docs_per_shard items). Every item
/// lands in exactly one shard; shards are returned in order. No items →
/// no shards.
std::vector<Shard> ShardBySize(size_t count,
                               const std::function<size_t(size_t)>& size_of,
                               const ShardingOptions& options);

/// ShardBySize over the corpus's document sizes, in corpus order.
std::vector<Shard> ShardCorpus(const Corpus& corpus,
                               const ShardingOptions& options);

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_CORPUS_H_
