#include "engine/corpus.h"

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace spanners {
namespace engine {

Corpus Corpus::FromDelimited(std::string_view text, char delimiter) {
  std::vector<Document> docs;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      // Last piece; skip it when it is the empty remainder of a trailing
      // delimiter (or an entirely empty input).
      if (start < text.size())
        docs.emplace_back(std::string(text.substr(start)));
      break;
    }
    docs.emplace_back(std::string(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return Corpus(std::move(docs));
}

Corpus Corpus::FromStream(std::istream& in, char delimiter) {
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  return FromDelimited(text, delimiter);
}

Result<Corpus> Corpus::FromFile(const std::string& path, char delimiter) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::InvalidArgument("cannot open corpus file: " + path);
  return FromStream(in, delimiter);
}

void Corpus::Append(Corpus&& other) {
  if (docs_.empty()) {
    docs_ = std::move(other.docs_);
    return;
  }
  docs_.insert(docs_.end(), std::make_move_iterator(other.docs_.begin()),
               std::make_move_iterator(other.docs_.end()));
  other.docs_.clear();
}

size_t Corpus::TotalBytes() const {
  size_t total = 0;
  for (const Document& d : docs_) total += d.text().size();
  return total;
}

std::vector<Shard> ShardBySize(size_t count,
                               const std::function<size_t(size_t)>& size_of,
                               const ShardingOptions& options) {
  std::vector<Shard> shards;
  if (count == 0) return shards;

  const size_t max_shards = options.max_shards == 0 ? 1 : options.max_shards;
  const size_t min_docs =
      options.min_docs_per_shard == 0 ? 1 : options.min_docs_per_shard;
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += size_of(i);
  // Byte budget per shard; +1 so the last shard absorbs rounding rather
  // than spilling into a tiny max_shards+1'th shard.
  const size_t budget = total / max_shards + 1;

  Shard current{0, 0};
  size_t bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += size_of(i);
    current.end = i + 1;
    if (bytes >= budget && current.size() >= min_docs &&
        shards.size() + 1 < max_shards) {
      shards.push_back(current);
      current = Shard{i + 1, i + 1};
      bytes = 0;
    }
  }
  if (current.size() > 0) shards.push_back(current);
  return shards;
}

std::vector<Shard> ShardCorpus(const Corpus& corpus,
                               const ShardingOptions& options) {
  return ShardBySize(
      corpus.size(), [&](size_t i) { return corpus[i].text().size(); },
      options);
}

}  // namespace engine
}  // namespace spanners
