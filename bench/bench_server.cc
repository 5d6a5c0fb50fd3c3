// Benchmarks for the spanexd serving path.
//
// BM_ServedBatch_Fleet pairs, within each iteration, one extract_batch
// served over the AF_UNIX JSONL protocol (client → admission queue →
// executor → chunked row stream back) against one in-process
// ExtractMulti over the identical corpus and fleet. The served_ratio
// counter — served throughput as a fraction of in-process throughput —
// is what tools/run_bench.sh gates (≥ 0.90): the protocol, framing and
// socket hops may cost at most 10% on a real extraction workload.
//
// BM_ServerOpenLoop drives one server with N concurrent clients, each
// issuing single-document extract requests open-loop (fire the next
// request the moment the previous answer lands), and reports aggregate
// qps plus client-observed p50/p99 latency — the serving profile a
// resident spanexd shows under fan-in.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/generators.h"

namespace spanners {
namespace {

using engine::BatchExtractor;
using engine::BatchOptions;
using engine::Corpus;
using engine::MultiBatchResult;
using engine::MultiQueryExtractor;
using engine::OutputFormat;

/// One server on its own Serve() thread, fleet patterns pre-registered by
/// the returned control client. Drains and joins on destruction.
class BenchServer {
 public:
  BenchServer(Corpus corpus, size_t num_threads) {
    server::ServerOptions options;
    options.socket_path =
        "/tmp/bench_spanexd_" +
        std::to_string(reinterpret_cast<uintptr_t>(this)) + ".sock";
    options.num_threads = num_threads;
    options.queue_capacity = 4096;
    options.max_inflight_per_client = 64;
    socket_path_ = options.socket_path;
    server_.emplace(std::move(options), std::move(corpus));
    Status started = server_->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_server: %s\n",
                   started.ToString().c_str());
      std::abort();
    }
    thread_ = std::thread([this] { server_->Serve(); });
  }

  ~BenchServer() {
    server_->RequestDrain();
    thread_.join();
    std::remove(socket_path_.c_str());
  }

  server::Client Connect() {
    Result<server::Client> c = server::Client::Connect(socket_path_);
    if (!c.ok()) {
      std::fprintf(stderr, "bench_server: %s\n",
                   c.status().ToString().c_str());
      std::abort();
    }
    return std::move(c).value();
  }

 private:
  std::optional<server::Server> server_;
  std::string socket_path_;
  std::thread thread_;
};

workload::PatternFleet BenchFleet() {
  workload::FleetOptions o;
  o.documents = 2000;
  o.doc_bytes = 450;
  o.num_patterns = 8;
  return workload::MakePatternFleet(o);
}

// Served extract_batch vs in-process ExtractMulti, paired per iteration
// (same machine state, same corpus, same plans — the difference IS the
// serving overhead). Arg is the extraction thread count on both sides.
void BM_ServedBatch_Fleet(benchmark::State& state) {
  workload::PatternFleet generated = BenchFleet();
  Corpus corpus(std::move(generated.documents));
  const size_t docs_per_pass = corpus.size();
  const size_t threads = size_t(state.range(0));

  std::vector<std::shared_ptr<const engine::ExtractionPlan>> plans;
  for (const std::string& p : generated.patterns)
    plans.push_back(std::make_shared<const engine::ExtractionPlan>(
        engine::ExtractionPlan::Compile(p).ValueOrDie()));
  MultiQueryExtractor fleet(plans);
  BatchOptions bo;
  bo.num_threads = threads;
  BatchExtractor inproc(bo);
  MultiBatchResult inproc_result;

  BenchServer bench_server(Corpus(corpus.docs()), threads);
  server::Client client = bench_server.Connect();
  for (const std::string& p : generated.patterns) {
    if (!client.Register(p).ok()) std::abort();
  }

  size_t served_bytes = 0;
  auto run_served = [&] {
    served_bytes = 0;
    Result<server::Client::ExtractSummary> summary = client.ExtractBatch(
        OutputFormat::kTsv, /*header=*/false, /*all_resident=*/false,
        [&](const std::string& row) { served_bytes += row.size() + 1; });
    if (!summary.ok()) std::abort();
  };
  run_served();                                       // warm-up
  inproc_result = inproc.ExtractMulti(fleet, corpus);

  using Clock = std::chrono::steady_clock;
  double served_s = 0, inproc_s = 0;
  for (auto _ : state) {
    auto t0 = Clock::now();
    run_served();
    auto t1 = Clock::now();
    inproc_result = inproc.ExtractMulti(fleet, corpus);
    auto t2 = Clock::now();
    served_s += std::chrono::duration<double>(t1 - t0).count();
    inproc_s += std::chrono::duration<double>(t2 - t1).count();
    benchmark::DoNotOptimize(served_bytes);
    benchmark::DoNotOptimize(inproc_result);
  }
  const double docs =
      static_cast<double>(state.iterations()) * docs_per_pass;
  const double served_rate = served_s > 0 ? docs / served_s : 0;
  const double inproc_rate = inproc_s > 0 ? docs / inproc_s : 0;
  state.counters["served_docs/s"] = served_rate;
  state.counters["inproc_docs/s"] = inproc_rate;
  state.counters["served_ratio"] =
      inproc_rate > 0 ? served_rate / inproc_rate : 0;
  state.counters["plans"] = static_cast<double>(plans.size());
}
BENCHMARK(BM_ServedBatch_Fleet)
    ->Arg(1)  // also the /1/ quick-filter name CI runs
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Open-loop fan-in: Arg clients each hammer single-document extract
// requests; the benchmark reports aggregate qps and the client-observed
// p50/p99. One extraction (one small document under one plan) is cheap,
// so this measures the serving machinery — parse, admit, execute,
// respond — under concurrency, not the extractor.
void BM_ServerOpenLoop(benchmark::State& state) {
  const size_t num_clients = size_t(state.range(0));
  Corpus corpus;
  corpus.Add(Document("ERR 123 one line document"));
  BenchServer bench_server(std::move(corpus), /*num_threads=*/2);

  const std::string doc = "ERR 4981 alpha beta gamma delta";
  for (auto _ : state) {
    std::vector<std::vector<double>> latencies(num_clients);
    constexpr int kRequestsPerClient = 200;
    std::vector<std::thread> clients;
    clients.reserve(num_clients);
    using Clock = std::chrono::steady_clock;
    const auto wall0 = Clock::now();
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        server::Client client = bench_server.Connect();
        if (!client.Register(".*ERR x{[0-9]+}.*").ok()) std::abort();
        latencies[c].reserve(kRequestsPerClient);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const auto t0 = Clock::now();
          Result<server::Client::ExtractSummary> summary =
              client.Extract(doc, /*doc_index=*/0, OutputFormat::kTsv,
                             /*header=*/false, nullptr);
          const auto t1 = Clock::now();
          if (!summary.ok()) std::abort();
          latencies[c].push_back(
              std::chrono::duration<double>(t1 - t0).count());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall =
        std::chrono::duration<double>(Clock::now() - wall0).count();

    std::vector<double> all;
    for (const std::vector<double>& l : latencies)
      all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end());
    const double qps = wall > 0 ? double(all.size()) / wall : 0;
    state.counters["qps"] = qps;
    state.counters["p50_us"] = 1e6 * all[all.size() / 2];
    state.counters["p99_us"] = 1e6 * all[all.size() * 99 / 100];
    state.counters["clients"] = static_cast<double>(num_clients);
  }
}
BENCHMARK(BM_ServerOpenLoop)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace spanners
