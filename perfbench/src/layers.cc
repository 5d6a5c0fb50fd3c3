// pb_layers — the benchmark's traced run: times the calls into each
// layer's public functions on one workload's inputs and prints the
// per-layer metrics as one JSON object.
//
//   pb_layers --patterns FILE --docs FILE --seg FILE [--socket PATH]
//             [--threads N] [--untraced-wall-ms MS] [--untraced-cpu-ms MS]
//             [--indexed] [--spans FILE]
//
// --indexed says the workload's program reads --seg through its index.
// --docs is the NUL-delimited text the workload's program evaluates (the
// corpus offline, the interactive stream when served); --seg is the
// workload's persisted segment with its .idx beside it. --socket names a
// running spanexd for the ping round trip. The --untraced-* figures are
// the same workload's end-to-end run without tracing; the program relates
// its own spans to them.
//
// Spans (name, start, end, parent, request id) are kept in memory and
// written to --spans when the run ends, each with its self time: its
// duration minus the time its child spans cover.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "core/document.h"
#include "core/mapping.h"
#include "engine/batch_extractor.h"
#include "engine/corpus.h"
#include "engine/format.h"
#include "engine/multi_query.h"
#include "engine/plan.h"
#include "server/client.h"
#include "server/json.h"
#include "storage/ngram_index.h"
#include "storage/segment.h"

#include "io.h"

namespace {

using namespace spanners;
using engine::ExtractionPlan;
using engine::MultiQueryExtractor;
using perfbench::NowNs;

[[noreturn]] void Die(const std::string& msg) {
  std::cerr << "pb_layers: " << msg << "\n";
  std::exit(1);
}

// ---- spans -----------------------------------------------------------

struct Span {
  std::string name;
  uint64_t start = 0, end = 0;
  int64_t parent = -1;
  int64_t req = -1;
};

class Tracer {
 public:
  size_t Begin(std::string name, int64_t parent = -1, int64_t req = -1) {
    spans_.push_back({std::move(name), NowNs(), 0, parent, req});
    return spans_.size() - 1;
  }
  uint64_t End(size_t i) {
    spans_[i].end = NowNs();
    return spans_[i].end - spans_[i].start;
  }
  // Spans are recorded on one thread and children close before their
  // parent, so a child's interval never overlaps a sibling's.
  std::vector<uint64_t> SelfTimes() const {
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    return self;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    const std::vector<uint64_t> self = SelfTimes();
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req
          << ",\"self_ns\":" << self[i] << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

Tracer tracer;

// ---- inputs ------------------------------------------------------------

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  if (!perfbench::ReadLines(path, &out)) Die("cannot read " + path);
  return out;
}

std::vector<Document> ReadDocs(const std::string& path) {
  std::vector<std::string> texts;
  if (!perfbench::ReadDocs(path, &texts)) Die("cannot read " + path);
  std::vector<Document> out;
  for (std::string& t : texts) out.push_back(Document(std::move(t)));
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double KiB(uint64_t bytes) { return static_cast<double>(bytes) / 1024.0; }

// Least-squares slope of log(ns) against log(bytes).
double LogLogSlope(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (auto [x, y] : pts) {
    const double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double n = static_cast<double>(pts.size());
  const double den = n * sxx - sx * sx;
  return den == 0 ? 0 : (n * sxy - sx * sy) / den;
}

struct Args {
  std::string patterns, docs, seg, socket, spans;
  size_t threads = 4;
  double untraced_wall_ms = 0;
  double untraced_cpu_ms = 0;
  bool indexed = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--patterns") a.patterns = val();
    else if (k == "--docs") a.docs = val();
    else if (k == "--seg") a.seg = val();
    else if (k == "--socket") a.socket = val();
    else if (k == "--spans") a.spans = val();
    else if (k == "--threads") a.threads = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--untraced-wall-ms") a.untraced_wall_ms = std::strtod(val().c_str(), nullptr);
    else if (k == "--untraced-cpu-ms") a.untraced_cpu_ms = std::strtod(val().c_str(), nullptr);
    else if (k == "--indexed") a.indexed = true;
    else Die("unknown argument " + k);
  }
  if (a.patterns.empty() || a.docs.empty() || a.seg.empty())
    Die("--patterns, --docs and --seg are required");
  return a;
}

// Formats one document's rows the way spanex and spanexd do: plain rows
// for a single plan, rows with the plan column for a fleet.
void FormatRows(std::string* out, const MultiQueryExtractor& fleet, size_t p,
                size_t doc_index, const std::vector<Mapping>& ms,
                const Document& doc) {
  const VarSet& vars = fleet.plan(p).vars();
  for (const Mapping& m : ms) {
    if (fleet.num_plans() == 1)
      engine::AppendMappingRow(out, engine::OutputFormat::kTsv, doc_index, m,
                               vars, doc);
    else
      engine::AppendFleetMappingRow(out, engine::OutputFormat::kTsv, p,
                                    doc_index, m, vars, doc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const std::vector<std::string> patterns = ReadLines(a.patterns);
  const std::vector<Document> docs = ReadDocs(a.docs);
  if (patterns.empty() || docs.empty()) Die("no patterns or no documents");
  std::map<std::string, double> m;  // metric name → value
  const size_t root = tracer.Begin("layers");

  // engine.plan: compile every plan; median over rounds of the per-plan
  // mean.
  std::vector<std::shared_ptr<const ExtractionPlan>> plans;
  {
    std::vector<double> per_plan_us;
    for (int round = 0; round < 5; ++round) {
      const size_t s = tracer.Begin("engine.plan.compile", root);
      std::vector<std::shared_ptr<const ExtractionPlan>> compiled;
      for (const std::string& p : patterns) {
        Result<ExtractionPlan> plan = ExtractionPlan::Compile(p);
        if (!plan.ok()) Die("compile failed: " + plan.status().ToString());
        compiled.push_back(
            std::make_shared<const ExtractionPlan>(std::move(plan).value()));
      }
      per_plan_us.push_back(tracer.End(s) / 1e3 / patterns.size());
      plans = std::move(compiled);
    }
    m["engine.plan_compile_us"] = Median(per_plan_us);
  }
  const size_t n_plans = plans.size();

  // common.aho_corasick + engine.multi_query + server: one pass of a
  // fresh fleet over every document, formatting each document's rows as
  // spanexd does (exact survivor counts; per-document service time).
  engine::PlanScratch scratch;
  std::vector<std::vector<Mapping>> outs(n_plans);
  std::vector<std::vector<Mapping>*> out_ptrs(n_plans);
  for (size_t p = 0; p < n_plans; ++p) out_ptrs[p] = &outs[p];
  std::vector<size_t> unmatched;
  std::string row_buf;
  uint64_t service_ns = 0;
  {
    MultiQueryExtractor fleet(plans);
    const size_t s = tracer.Begin("engine.multi_query.pass", root);
    for (size_t i = 0; i < docs.size(); ++i) {
      const size_t d = tracer.Begin("server.service", s, int64_t(i));
      fleet.ExtractAllSortedInto(docs[i], &scratch, out_ptrs.data());
      row_buf.clear();
      bool any = false;
      for (size_t p = 0; p < n_plans; ++p) {
        FormatRows(&row_buf, fleet, p, i, outs[p], docs[i]);
        any |= !outs[p].empty();
      }
      service_ns += tracer.End(d);
      if (!any) unmatched.push_back(i);
    }
    tracer.End(s);
    uint64_t offered = 0, evaluated = 0;
    for (size_t p = 0; p < n_plans; ++p) {
      offered += fleet.plan_stats(p).documents;
      evaluated += fleet.plan_stats(p).evaluated();
    }
    m["engine.fleet_survivor_ratio"] =
        offered ? double(evaluated) / double(offered) : 0;
    m["server.service_us"] = service_ns / 1e3 / double(docs.size());
  }
  MultiQueryExtractor fleet(plans);
  uint64_t unmatched_bytes = 0;
  {
    const size_t s = tracer.Begin("engine.multi_query.gate", root);
    for (size_t i : unmatched) {
      fleet.ExtractAllSortedInto(docs[i], &scratch, out_ptrs.data());
      unmatched_bytes += docs[i].text().size();
    }
    const uint64_t ns = tracer.End(s);
    if (unmatched_bytes > 0)
      m["engine.fleet_gate_ns_per_kib"] = ns / KiB(unmatched_bytes);
  }

  // engine.prefilter, automata.lazy_dfa, automata evaluators and
  // engine.format, plan by plan over every document, each tier on the
  // documents the tier before it let through.
  uint64_t pre_ns = 0, pre_bytes = 0, dfa_ns = 0, dfa_bytes = 0;
  uint64_t eval_ns = 0, eval_bytes = 0, fmt_ns = 0;
  uint64_t fallbacks = 0, mappings = 0, rows = 0;
  std::vector<std::pair<double, double>> eval_points;  // (bytes, ns)
  Arena arena;
  std::vector<Mapping> ms;
  for (size_t p = 0; p < n_plans; ++p) {
    const ExtractionPlan& plan = *plans[p];
    std::vector<size_t> pass_pre, pass_dfa;
    size_t s = tracer.Begin("engine.prefilter", root, int64_t(p));
    for (size_t i = 0; i < docs.size(); ++i) {
      pre_bytes += docs[i].text().size();
      if (plan.prefilter().Matches(docs[i].text())) pass_pre.push_back(i);
    }
    pre_ns += tracer.End(s);
    s = tracer.Begin("automata.lazy_dfa", root, int64_t(p));
    for (size_t i : pass_pre) {
      dfa_bytes += docs[i].text().size();
      std::optional<bool> hit = plan.lazy_dfa().Matches(docs[i].text());
      if (!hit.has_value()) ++fallbacks;
      if (hit.value_or(true)) pass_dfa.push_back(i);
    }
    dfa_ns += tracer.End(s);
    for (size_t i : pass_dfa) {
      ms.clear();
      const size_t e = tracer.Begin("automata.eval", root, int64_t(i));
      plan.spanner().ExtractAllInto(plan.info().evaluator, docs[i], &arena,
                                    &ms);
      const uint64_t ns = tracer.End(e);
      eval_ns += ns;
      eval_bytes += docs[i].text().size();
      eval_points.push_back({double(docs[i].text().size()), double(ns)});
      mappings += ms.size();
      row_buf.clear();
      const size_t f = tracer.Begin("engine.format", root, int64_t(i));
      FormatRows(&row_buf, fleet, p, i, ms, docs[i]);
      fmt_ns += tracer.End(f);
      rows += ms.size();
    }
  }
  m["engine.prefilter_ns_per_kib"] = pre_bytes ? pre_ns / KiB(pre_bytes) : 0;
  m["automata.lazy_dfa_ns_per_kib"] = dfa_bytes ? dfa_ns / KiB(dfa_bytes) : 0;
  m["automata.lazy_dfa_fallbacks"] = double(fallbacks);
  m["automata.eval_ns_per_kib"] = eval_bytes ? eval_ns / KiB(eval_bytes) : 0;
  m["automata.mappings"] = double(mappings);
  m["engine.format_ns_per_row"] = rows ? double(fmt_ns) / double(rows) : 0;
  m["engine.rows"] = double(rows);
  if (unmatched_bytes == 0) {
    // Every document matches some plan (the log workloads), so no pass
    // isolates the shared gate; report the two gate tiers every document
    // crosses, the literal scan and the lazy DFA, per KiB.
    m["engine.fleet_gate_ns_per_kib"] =
        m["engine.prefilter_ns_per_kib"] + m["automata.lazy_dfa_ns_per_kib"];
  }
  {
    // Length buckets of powers of two; the fit runs over bucket medians
    // (documents themselves when fewer than two buckets are filled).
    std::map<int, std::vector<std::pair<double, double>>> buckets;
    for (auto pt : eval_points)
      buckets[int(std::floor(std::log2(std::max(pt.first, 1.0))))].push_back(pt);
    std::vector<std::pair<double, double>> fit;
    for (auto& [b, pts] : buckets) {
      std::vector<double> xs, ys;
      for (auto [x, y] : pts) {
        xs.push_back(x);
        ys.push_back(y);
      }
      fit.push_back({Median(xs), Median(ys)});
    }
    m["automata.eval_len_slope"] =
        LogLogSlope(fit.size() >= 2 ? fit : eval_points);
  }

  // engine.batch_extractor + engine.thread_pool: whole in-process passes
  // at 1 and N threads, rows formatted as spanex does. The N-thread pass
  // is the traced pass: one span per delivered shard.
  engine::Corpus corpus{std::vector<Document>(docs)};
  auto pass = [&](size_t threads, bool trace_shards) {
    engine::BatchOptions bo;
    bo.num_threads = threads;
    engine::BatchExtractor batch(bo);
    std::string sink;
    const size_t s = tracer.Begin(
        "engine.pass.t" + std::to_string(threads), root);
    if (n_plans == 1) {
      batch.ExtractStream(
          *plans[0], corpus,
          [&](size_t begin, size_t, std::vector<std::vector<Mapping>>& per) {
            const size_t c =
                trace_shards ? tracer.Begin("engine.pass.shard", s, begin) : 0;
            sink.clear();
            for (size_t i = 0; i < per.size(); ++i)
              FormatRows(&sink, fleet, 0, begin + i, per[i], docs[begin + i]);
            if (trace_shards) tracer.End(c);
          });
    } else {
      batch.ExtractMultiStream(
          fleet, corpus,
          [&](size_t begin, size_t,
              std::vector<std::vector<std::vector<Mapping>>>& per_plan) {
            const size_t c =
                trace_shards ? tracer.Begin("engine.pass.shard", s, begin) : 0;
            sink.clear();
            for (size_t p = 0; p < per_plan.size(); ++p)
              for (size_t i = 0; i < per_plan[p].size(); ++i)
                FormatRows(&sink, fleet, p, begin + i, per_plan[p][i],
                           docs[begin + i]);
            if (trace_shards) tracer.End(c);
          });
    }
    return tracer.End(s) / 1e6;
  };
  const double t1 = pass(1, false);
  const double tn = pass(a.threads, true);
  m["engine.pass_ms.t1"] = t1;
  m["engine.pass_ms.t4"] = tn;
  m["engine.scaling_t4"] = tn > 0 ? t1 / tn : 0;
  m["harness.traced_vs_untraced"] =
      a.untraced_wall_ms > 0 ? tn / a.untraced_wall_ms : 0;

  // storage: open the segment and its index, look up candidates, copy the
  // candidates out, and compare the indexed pass with the scan.
  std::vector<double> seg_ms, idx_ms;
  std::optional<storage::SegmentStore> store;
  std::optional<storage::NgramIndex> index;
  for (int round = 0; round < 5; ++round) {
    size_t s = tracer.Begin("storage.segment_open", root);
    Result<storage::SegmentStore> st = storage::SegmentStore::Open(a.seg);
    seg_ms.push_back(tracer.End(s) / 1e6);
    if (!st.ok()) Die(st.status().ToString());
    s = tracer.Begin("storage.index_open", root);
    Result<storage::NgramIndex> ix = storage::NgramIndex::Open(
        storage::IndexPathFor(a.seg), st->num_docs());
    idx_ms.push_back(tracer.End(s) / 1e6);
    if (!ix.ok()) Die(ix.status().ToString());
    store = std::move(st).value();
    index = std::move(ix).value();
  }
  m["storage.segment_open_ms"] = Median(seg_ms);
  m["storage.index_open_ms"] = Median(idx_ms);
  std::vector<uint8_t> candidate(store->num_docs(), 0);
  {
    const size_t s = tracer.Begin("storage.candidates", root);
    for (size_t p = 0; p < n_plans; ++p) {
      storage::LookupStats ls;
      storage::CandidateSet cs = index->Candidates(plans[p]->prefilter(), &ls);
      if (cs.all) std::fill(candidate.begin(), candidate.end(), 1);
      for (uint32_t d : cs.docs) candidate[d] = 1;
    }
    m["storage.candidates_us"] = tracer.End(s) / 1e3;
  }
  {
    uint64_t bytes = 0;
    const size_t s = tracer.Begin("storage.materialize", root);
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (!candidate[i]) continue;
      Document d = store->MaterializeDoc(i);
      bytes += d.text().size();
    }
    const uint64_t ns = tracer.End(s);
    m["storage.materialize_ns_per_kib"] = bytes ? ns / KiB(bytes) : 0;
  }
  {
    engine::BatchOptions bo;
    bo.num_threads = a.threads;
    engine::BatchExtractor batch(bo);
    const engine::Corpus held = store->ReadAll();
    std::vector<double> indexed_ms, scan_ms;
    engine::IndexedStats stats;
    const uint64_t started = NowNs();
    for (int round = 0; round < 3 && NowNs() - started < 2000000000ull;
         ++round) {
      size_t s = tracer.Begin("storage.indexed_pass", root);
      stats = engine::IndexedStats();
      batch.ExtractIndexedMulti(fleet, *store, &*index, &stats);
      indexed_ms.push_back(tracer.End(s) / 1e6);
      s = tracer.Begin("storage.scan_pass", root);
      batch.ExtractMulti(fleet, held);
      scan_ms.push_back(tracer.End(s) / 1e6);
    }
    m["storage.candidate_ratio"] = stats.CandidateRatio();
    m["storage.postings_touched"] = double(stats.postings_touched);
    m["storage.index_vs_scan"] = Median(indexed_ms) / Median(scan_ms);
  }
  uint64_t candidate_pass_ns = 0;
  if (a.indexed) {
    // Indexed runs gate and evaluate only the candidates.
    const size_t s = tracer.Begin("engine.multi_query.candidates", root);
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (!candidate[i]) continue;
      const Document d = store->MaterializeDoc(i);
      fleet.ExtractAllSortedInto(d, &scratch, out_ptrs.data());
    }
    candidate_pass_ns = tracer.End(s);
  }

  // server: request decoding and the I/O loop floor.
  {
    std::vector<std::string> lines;
    for (size_t i = 0; i < docs.size(); ++i) {
      std::string line =
          "{\"op\":\"extract\",\"id\":" + std::to_string(i) + ",\"doc\":";
      server::AppendJsonString(&line, docs[i].text());
      lines.push_back(line + ",\"doc_index\":" + std::to_string(i) +
                      ",\"format\":\"tsv\"}");
    }
    std::vector<double> per_req;
    for (int round = 0; round < 3; ++round) {
      const size_t s = tracer.Begin("server.json_parse", root);
      for (const std::string& line : lines)
        if (!server::ParseJson(line).ok()) Die("request does not parse");
      per_req.push_back(double(tracer.End(s)) / double(lines.size()));
    }
    m["server.json_parse_ns_per_req"] = Median(per_req);
  }
  if (!a.socket.empty()) {
    Result<server::Client> client = server::Client::Connect(a.socket);
    if (!client.ok()) Die(client.status().ToString());
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const size_t s = tracer.Begin("server.ping", root, i);
      Status st = client->Ping();
      rtt.push_back(tracer.End(s) / 1e3);
      if (!st.ok()) Die(st.ToString());
    }
    m["server.ping_rtt_us"] = Median(rtt);
  }
  // The share of the untraced run's CPU time that no layer span covers:
  // gate + evaluator + formatting (or the indexed pass) plus compile.
  if (a.untraced_cpu_ms > 0) {
    double layers_ms = m["engine.plan_compile_us"] * n_plans / 1e3 +
                       fmt_ns / 1e6;
    if (a.indexed)
      layers_ms += m["storage.segment_open_ms"] + m["storage.index_open_ms"] +
                   m["storage.candidates_us"] / 1e3 + candidate_pass_ns / 1e6;
    else
      layers_ms += (pre_ns + dfa_ns + eval_ns) / 1e6;
    m["engine.outside_layers_frac"] = 1.0 - layers_ms / a.untraced_cpu_ms;
  }
  tracer.End(root);
  if (!a.spans.empty() && !tracer.Write(a.spans)) Die("cannot write spans");

  std::cout << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    std::cout << (first ? "" : ",") << "\"" << k << "\":" << buf;
    first = false;
  }
  std::cout << "}\n";
  return 0;
}
