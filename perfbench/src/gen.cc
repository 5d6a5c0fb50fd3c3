// pb_gen — writes one benchmark workload's inputs from a seed.
//
//   pb_gen KIND SEED OUTDIR [key=value ...]
//
// KIND is dense, wide, fleet or served. Every document comes from the
// src/workload generators; SEED picks each document's generator seed, so
// the same seed always writes the same bytes. OUTDIR receives:
//
//   corpus.txt       the corpus, NUL-delimited (what spanex -0 reads)
//   corpus.seg(.idx) the same corpus as a persisted segment + trigram index
//   setup.txt        a one-document corpus of the same kind, small enough
//                    that running a plan over it costs little next to
//                    start-up (set-up timing): one log line, or one
//                    fleet document
//   setup.seg(.idx)  the same, persisted
//   patterns.txt     the workload's plans, one RGX per line
//   stream.txt       served only: the interactive extract documents
//   pool.txt         the register/unregister pattern pool
//
// Keys: docs=N (corpus documents), stream=N (served stream documents),
// pool=N (pool patterns).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "engine/corpus.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"
#include "workload/generators.h"

namespace {

using namespace spanners;

// The 3-variable log-line plan of workload::LogLineRgx(), as source text.
const char kLogLinePattern[] =
    "(.*\\n|\\e)[a-z0-9]+ (m{[A-Z]+}) (p{[^ \\n]*}) "
    "[0-9]+( err=(c{[a-z]+})|\\e)\\n.*";

// Seven variables over two adjacent log lines: host, method and path of
// the first line; host, method, path and status of the second.
const char kWidePattern[] =
    "(.*\\n|\\e)(h{[a-z0-9]+}) (m{[A-Z]+}) (p{[^ \\n]*}) [0-9]+"
    "( [^\\n]*|\\e)\\n(g{[a-z0-9]+}) (n{[A-Z]+}) (q{[^ \\n]*}) "
    "(s{[0-9]+})( [^\\n]*|\\e)\\n.*";

constexpr size_t kFleetPlans = 16;

// Spreads the run seed over 32 bits so neighbouring seeds give unrelated
// per-document generator seeds.
uint32_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 31;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 29;
  return static_cast<uint32_t>(z);
}

// Server-log documents whose line counts cycle through `line_counts`, so
// every seed has the same length mix and every byte-balanced shard of the
// corpus gets an equal share of each length; only the lines' content
// depends on the seed.
std::vector<Document> LogDocs(size_t n, const std::vector<size_t>& line_counts,
                              double error_probability, uint64_t seed,
                              uint64_t salt) {
  std::vector<Document> docs;
  docs.reserve(n);
  const uint32_t base = Mix(seed, salt);
  for (size_t i = 0; i < n; ++i) {
    workload::LogOptions o;
    o.lines = line_counts[i % line_counts.size()];
    o.error_probability = error_probability;
    o.seed = base + static_cast<uint32_t>(i);
    docs.push_back(workload::ServerLogDocument(o));
  }
  return docs;
}

// Like LogDocs, but each document of L lines is drawn until its length is
// exactly `bytes_per_line` * L bytes (the closest of 256 draws otherwise).
// The wide plan's cost grows with about the fourth power of a document's
// bytes, so fixing every length keeps the cost of a pass alike across
// seeds; only the lines' content depends on the seed.
std::vector<Document> SizedLogDocs(size_t n, const std::vector<size_t>& line_counts,
                                   size_t bytes_per_line, uint64_t seed,
                                   uint64_t salt) {
  std::vector<Document> docs;
  docs.reserve(n);
  const uint32_t base = Mix(seed, salt);
  for (size_t i = 0; i < n; ++i) {
    workload::LogOptions o;
    o.lines = line_counts[i % line_counts.size()];
    o.error_probability = 0.0;
    const size_t target = bytes_per_line * o.lines;
    Document best;
    size_t best_miss = SIZE_MAX;
    for (uint32_t draw = 0; draw < 256 && best_miss > 0; ++draw) {
      o.seed = base + static_cast<uint32_t>(i) * 256 + draw;
      Document d = workload::ServerLogDocument(o);
      const size_t len = d.text().size();
      const size_t miss = len > target ? len - target : target - len;
      if (miss < best_miss) {
        best_miss = miss;
        best = std::move(d);
      }
    }
    docs.push_back(std::move(best));
  }
  return docs;
}

size_t NeedleLines(const Document& d) {
  size_t count = 0;
  for (size_t at = d.text().find("EVT"); at != std::string::npos;
       at = d.text().find("EVT", at + 3))
    ++count;
  return count;
}

// Places `count` marks evenly among the unmarked slots of `kinds`, setting
// each to `kind`.
void Spread(std::vector<int>& kinds, size_t count, int kind) {
  size_t free = 0;
  for (int k : kinds) free += k == 0;
  size_t j = 0;
  for (int& k : kinds) {
    if (k != 0) continue;
    if ((j + 1) * count / free > j * count / free) k = kind;
    ++j;
  }
}

// Fleet documents of workload::MakePatternFleet (16 plans, ~512 B, 1%
// match per plan), with the number of documents carrying one and two
// needle lines fixed at their expected shares of `n` (13.76% and 1.04%)
// and spread evenly through the corpus. Each document is drawn until its
// needle count is the one its slot asks for. Documents with needles are
// the ones the evaluator sees, and with independent draws their number
// moved a pass by up to 8% between seeds; only the documents' content
// depends on the seed.
workload::PatternFleet FleetDocs(size_t n, uint64_t seed, uint64_t salt) {
  workload::FleetOptions o;
  o.num_patterns = kFleetPlans;
  o.documents = 1;
  o.doc_bytes = 512;
  o.match_rate = 0.01;
  const double k = kFleetPlans, r = o.match_rate;
  const double p1 = k * r * std::pow(1 - r, k - 1);
  const double p2 = k * (k - 1) / 2 * r * r * std::pow(1 - r, k - 2);
  std::vector<int> kinds(n, 0);  // 0 marks a slot still unassigned
  Spread(kinds, static_cast<size_t>(std::llround(p2 * n)), 2);
  Spread(kinds, static_cast<size_t>(std::llround(p1 * n)), 1);
  workload::PatternFleet fleet;
  fleet.patterns = workload::MakePatternFleet(o).patterns;
  uint32_t draw = Mix(seed, salt);
  for (size_t i = 0; i < n; ++i) {
    for (;;) {
      o.seed = draw++;
      Document d = std::move(workload::MakePatternFleet(o).documents[0]);
      if (NeedleLines(d) == static_cast<size_t>(kinds[i])) {
        fleet.documents.push_back(std::move(d));
        break;
      }
    }
  }
  return fleet;
}

bool WriteText(const std::string& path, const std::vector<Document>& docs) {
  std::ofstream out(path, std::ios::binary);
  for (const Document& d : docs) {
    out << d.text();
    out.put('\0');
  }
  return static_cast<bool>(out);
}

bool WriteLines(const std::string& path, const std::vector<std::string>& v) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& s : v) out << s << '\n';
  return static_cast<bool>(out);
}

bool WriteSegment(const std::string& path, const std::vector<Document>& docs) {
  engine::Corpus corpus{std::vector<Document>(docs)};
  Status written = storage::SegmentStore::Write(corpus, path);
  if (!written.ok()) {
    std::cerr << "pb_gen: " << written.ToString() << "\n";
    return false;
  }
  Result<storage::SegmentStore> store = storage::SegmentStore::Open(path);
  if (!store.ok()) {
    std::cerr << "pb_gen: " << store.status().ToString() << "\n";
    return false;
  }
  storage::NgramIndex index = storage::NgramIndex::Build(*store);
  Status saved = index.Save(storage::IndexPathFor(path));
  if (!saved.ok()) {
    std::cerr << "pb_gen: " << saved.ToString() << "\n";
    return false;
  }
  return true;
}

bool WriteCorpus(const std::string& dir, const std::string& stem,
                 const std::vector<Document>& docs) {
  return WriteText(dir + "/" + stem + ".txt", docs) &&
         WriteSegment(dir + "/" + stem + ".seg", docs);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: pb_gen dense|wide|fleet|served SEED OUTDIR "
                 "[docs=N] [stream=N] [pool=N]\n";
    return 2;
  }
  const std::string kind = argv[1];
  const uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const std::string dir = argv[3];
  std::map<std::string, size_t> keys = {
      {"docs", 1000}, {"stream", 4096}, {"pool", 512}};
  for (int i = 4; i < argc; ++i) {
    std::string kv = argv[i];
    size_t eq = kv.find('=');
    if (eq == std::string::npos || !keys.count(kv.substr(0, eq))) {
      std::cerr << "pb_gen: bad argument '" << kv << "'\n";
      return 2;
    }
    keys[kv.substr(0, eq)] = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
  }
  const size_t n = keys["docs"];

  std::vector<Document> corpus, setup;
  std::vector<std::string> patterns;
  if (kind == "dense") {
    const std::vector<size_t> lens = {4, 8, 16, 32, 64};
    corpus = LogDocs(n, lens, 0.2, seed, 10);
    setup = LogDocs(1, {1}, 0.2, seed, 20);
    patterns = {kLogLinePattern};
  } else if (kind == "wide") {
    // Error-free lines of 20 bytes on average (19.7 is the generator's
    // mean); every document is sized to exactly 20 bytes a line.
    corpus = SizedLogDocs(n, {2, 2, 3, 4}, 20, seed, 30);
    setup = LogDocs(1, {1}, 0.0, seed, 40);
    patterns = {kWidePattern};
  } else if (kind == "fleet" || kind == "served") {
    workload::PatternFleet fleet = FleetDocs(n, seed, 50);
    corpus = std::move(fleet.documents);
    patterns = std::move(fleet.patterns);
    setup = FleetDocs(1, seed, 60).documents;
  } else {
    std::cerr << "pb_gen: unknown kind '" << kind << "'\n";
    return 2;
  }
  bool ok = WriteCorpus(dir, "corpus", corpus) &&
            WriteCorpus(dir, "setup", setup) &&
            WriteLines(dir + "/patterns.txt", patterns);
  if (ok && kind == "served")
    ok = WriteText(dir + "/stream.txt",
                   FleetDocs(keys["stream"], seed, 70).documents);
  // Pool patterns share the fleet plans' shape, over tags no document
  // carries, so registering one never changes a fleet session's rows.
  std::vector<std::string> pool;
  for (size_t k = 0; k < keys["pool"]; ++k)
    pool.push_back(".*POOL" + std::to_string(k) +
                   " id=(x{[0-9]+}) code=(y{[A-Z]+})\\n.*");
  ok = ok && WriteLines(dir + "/pool.txt", pool);
  if (!ok) {
    std::cerr << "pb_gen: failed writing " << dir << "\n";
    return 1;
  }
  return 0;
}
