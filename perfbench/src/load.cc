// pb_load — drives a running spanexd over its JSONL socket for the
// benchmark's served workloads.
//
//   pb_load --socket PATH --patterns FILE --out DIR [options]
//
// Every connection first registers the plans of --patterns (one RGX per
// line) and is then "ready"; the monotonic time of that moment is printed
// as `ready_ns`. With --setup-only the program stops there. Otherwise:
//
//  * --conns N interactive connections send an open-loop stream of
//    single-document extract requests over the documents of --stream
//    (NUL-delimited). Arrivals are a seeded Poisson schedule, fixed
//    before the run; the stream steps through --rates (total requests per
//    second over all interactive connections), --step-ms each, after
//    --warmup-ms at the first rate that no step counts. Requests
//    are pipelined: a request is written when it is due, whether or not
//    earlier answers have arrived, and its latency runs from its due time.
//    One in --register-every requests is instead a register of a
//    Zipf-drawn --pool pattern, followed by an unregister of the returned
//    handle as soon as the handle arrives.
//  * One more connection, with --batch-think-ms > 0, runs extract_batch
//    over the server's held corpus in a closed loop, pausing the think
//    time after each answer.
//  * With --stats, a further connection asks for the stats report at every
//    step boundary and writes the answers to DIR/stats.jsonl.
//
// Output: DIR/events.tsv (one line per request: conn, op, id, doc, step,
// due, sent, done in ns, status), DIR/rows.jsonl (each response line that
// carries rows, prefixed by its connection and a tab), DIR/batch_rows.txt
// (the first batch's rows) and a JSON summary on stdout.
//
// --replay-pool N runs a different program: on one connection, N Zipf
// draws from the pool, each registered and unregistered in turn; it prints
// the 90th percentile register round trip and the stats report. Its
// plan-cache counts are deterministic.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io.h"
#include "server/json.h"

namespace {

using perfbench::NowNs;

[[noreturn]] void Die(const std::string& msg) {
  std::cerr << "pb_load: " << msg << "\n";
  std::exit(1);
}

std::string JsonString(std::string_view s) {
  std::string out;
  spanners::server::AppendJsonString(&out, s);
  return out;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  if (!perfbench::ReadLines(path, &out)) Die("cannot read " + path);
  return out;
}

std::vector<std::string> ReadDocs(const std::string& path) {
  std::vector<std::string> out;
  if (!perfbench::ReadDocs(path, &out)) Die("cannot read " + path);
  return out;
}

// The few response fields the harness needs, read straight off the
// server's compact JSON: every response line starts with {"id":N.
int64_t ResponseId(const std::string& line) {
  static const char kPrefix[] = "{\"id\":";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return -1;
  return std::strtoll(line.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
}
bool Has(const std::string& line, const char* needle) {
  return line.find(needle) != std::string::npos;
}
int64_t IntField(const std::string& line, const std::string& key) {
  size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + key.size() + 3, nullptr, 10);
}
std::string ErrorCode(const std::string& line) {
  size_t at = line.find("\"code\":\"");
  if (at == std::string::npos) return "Unknown";
  at += 8;
  return line.substr(at, line.find('"', at) - at);
}

// A connected AF_UNIX stream socket with line framing.
struct Conn {
  int fd = -1;
  std::string in;       // bytes read, not yet split into lines
  std::string out;      // bytes queued, not yet written
  size_t out_off = 0;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void Connect(const std::string& path, uint64_t deadline_ns) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (;;) {
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) Die("socket: " + std::string(std::strerror(errno)));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
        return;
      ::close(fd);
      fd = -1;
      if (NowNs() > deadline_ns) Die("cannot connect to " + path);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void SetNonBlocking() {
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  // Blocking write of one request line.
  void SendAll(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) Die("send: " + std::string(std::strerror(errno)));
      off += static_cast<size_t>(n);
    }
  }

  // Blocking read of one response line.
  std::string ReadLine() {
    for (;;) {
      size_t nl = in.find('\n');
      if (nl != std::string::npos) {
        std::string line = in.substr(0, nl);
        in.erase(0, nl + 1);
        return line;
      }
      char buf[65536];
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) Die("connection closed by server");
      in.append(buf, static_cast<size_t>(n));
    }
  }

  // Non-blocking: flush as much of `out` as the socket takes.
  void Flush() {
    while (out_off < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) Die("send: " + std::string(std::strerror(errno)));
      out_off += static_cast<size_t>(n);
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }

  // Non-blocking: read what is there; returns complete lines.
  void Drain(std::vector<std::string>* lines) {
    for (;;) {
      char buf[65536];
      ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n == 0) Die("connection closed by server");
      if (n < 0) Die("recv: " + std::string(std::strerror(errno)));
      in.append(buf, static_cast<size_t>(n));
    }
    size_t start = 0;
    for (size_t nl; (nl = in.find('\n', start)) != std::string::npos;
         start = nl + 1)
      lines->push_back(in.substr(start, nl - start));
    in.erase(0, start);
  }
};

// Sends one request and waits for its (single-line) answer.
std::string Call(Conn& c, const std::string& request) {
  c.SendAll(request + "\n");
  return c.ReadLine();
}

void RegisterAll(Conn& c, const std::vector<std::string>& patterns,
                 int64_t* next_id) {
  for (const std::string& p : patterns) {
    std::string resp = Call(c, "{\"op\":\"register\",\"id\":" +
                                   std::to_string((*next_id)++) +
                                   ",\"pattern\":" + JsonString(p) + "}");
    if (!Has(resp, "\"ok\":true")) Die("register failed: " + resp);
  }
}

// Zipf(s = 1) over [0, n).
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) cdf_[k] = (sum += 1.0 / double(k + 1));
    for (double& v : cdf_) v /= sum;
  }
  size_t operator()(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0, 1)(rng);
    size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

enum class Op { kExtract, kRegister, kUnregister, kBatch, kStats };
const char* OpName(Op op) {
  switch (op) {
    case Op::kExtract: return "extract";
    case Op::kRegister: return "register";
    case Op::kUnregister: return "unregister";
    case Op::kBatch: return "batch";
    case Op::kStats: return "stats";
  }
  return "?";
}

struct Request {
  size_t conn = 0;
  Op op = Op::kExtract;
  int64_t id = 0;
  int64_t doc = -1;  // stream document (extract) or pool pattern (register)
  int step = -1;
  uint64_t due = 0, sent = 0, done = 0;
  std::string status = "pending";
};

struct Args {
  std::string socket, patterns, stream, pool, out;
  std::vector<double> rates;
  uint64_t step_ms = 2000;
  uint64_t warmup_ms = 0;
  uint64_t seed = 1;
  size_t conns = 3;
  size_t register_every = 200;
  uint64_t batch_think_ms = 0;
  bool stats = false;
  bool setup_only = false;
  size_t replay_pool = 0;
  uint64_t connect_timeout_ms = 20000;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--socket") a.socket = val();
    else if (k == "--patterns") a.patterns = val();
    else if (k == "--stream") a.stream = val();
    else if (k == "--pool") a.pool = val();
    else if (k == "--out") a.out = val();
    else if (k == "--rates") {
      std::stringstream ss(val());
      for (std::string r; std::getline(ss, r, ',');)
        a.rates.push_back(std::strtod(r.c_str(), nullptr));
    } else if (k == "--step-ms") a.step_ms = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--warmup-ms") a.warmup_ms = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--conns") a.conns = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--register-every")
      a.register_every = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--batch-think-ms")
      a.batch_think_ms = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--stats") a.stats = true;
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--replay-pool")
      a.replay_pool = std::strtoull(val().c_str(), nullptr, 10);
    else Die("unknown argument " + k);
  }
  if (a.socket.empty() || a.patterns.empty()) Die("--socket and --patterns are required");
  return a;
}

int ReplayPool(const Args& a) {
  Conn c;
  c.Connect(a.socket, NowNs() + a.connect_timeout_ms * 1000000ull);
  std::vector<std::string> pool = ReadLines(a.pool);
  Zipf zipf(pool.size());
  std::mt19937_64 rng(a.seed * 7919 + 17);
  int64_t id = 1;
  std::vector<uint64_t> register_ns;
  for (size_t i = 0; i < a.replay_pool; ++i) {
    const uint64_t start = NowNs();
    std::string resp =
        Call(c, "{\"op\":\"register\",\"id\":" + std::to_string(id++) +
                    ",\"pattern\":" + JsonString(pool[zipf(rng)]) + "}");
    register_ns.push_back(NowNs() - start);
    int64_t handle = IntField(resp, "handle");
    if (handle < 0) Die("register failed: " + resp);
    resp = Call(c, "{\"op\":\"unregister\",\"id\":" + std::to_string(id++) +
                       ",\"handle\":" + std::to_string(handle) + "}");
    if (!Has(resp, "\"ok\":true")) Die("unregister failed: " + resp);
  }
  std::sort(register_ns.begin(), register_ns.end());
  const uint64_t p90 =
      register_ns.empty() ? 0 : register_ns[(register_ns.size() * 9 - 1) / 10];
  std::cout << "{\"register_p90_ns\":" << p90 << ",\"stats\":"
            << Call(c, "{\"op\":\"stats\",\"id\":" + std::to_string(id) + "}")
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.replay_pool > 0) return ReplayPool(a);

  const std::vector<std::string> patterns = ReadLines(a.patterns);
  const bool batch = a.batch_think_ms > 0;
  const size_t n_conns = a.conns + (batch ? 1 : 0) + (a.stats ? 1 : 0);
  const size_t batch_conn = a.conns;
  const size_t stats_conn = a.conns + (batch ? 1 : 0);

  // Set-up: connect, answer a ping, register every session's plans.
  std::vector<Conn> conns(n_conns);
  const uint64_t connect_deadline = NowNs() + a.connect_timeout_ms * 1000000ull;
  int64_t next_id = 1;
  conns[0].Connect(a.socket, connect_deadline);
  if (!Has(Call(conns[0], "{\"op\":\"ping\",\"id\":0}"), "\"ok\":true"))
    Die("ping failed");
  for (size_t c = 0; c < n_conns; ++c) {
    if (c > 0) conns[c].Connect(a.socket, connect_deadline);
    if (c != stats_conn || !a.stats) RegisterAll(conns[c], patterns, &next_id);
  }
  const uint64_t ready_ns = NowNs();
  if (a.setup_only) {
    std::cout << "{\"ready_ns\":" << ready_ns << "}\n";
    return 0;
  }

  const std::vector<std::string> stream = ReadDocs(a.stream);
  const std::vector<std::string> pool =
      a.register_every > 0 ? ReadLines(a.pool) : std::vector<std::string>{""};
  if (stream.empty() || pool.empty() || a.rates.empty()) Die("nothing to send");
  Zipf zipf(pool.size());

  // The whole open-loop schedule, fixed before the first send: per
  // interactive connection, Poisson arrivals at rate/conns in each step.
  // A warm-up period at the first rate precedes step 0; its requests
  // carry step -1.
  const uint64_t step_ns = a.step_ms * 1000000ull;
  const uint64_t warmup_ns = a.warmup_ms * 1000000ull;
  const uint64_t t_start = NowNs() + 50000000ull;  // 50 ms to settle
  const uint64_t t0 = t_start + warmup_ns;
  const uint64_t t_end = t0 + step_ns * a.rates.size();
  // A deque: appending (unregisters, batches, stats) keeps references to
  // earlier requests valid.
  std::deque<Request> reqs;
  std::vector<std::vector<size_t>> schedule(a.conns);  // indices into reqs
  std::mt19937_64 rng(a.seed * 1000003 + 11);
  for (size_t c = 0; c < a.conns; ++c) {
    uint64_t t = t_start;
    for (int s = warmup_ns ? -1 : 0; s < int(a.rates.size()); ++s) {
      const double rate = a.rates[s < 0 ? 0 : s] / double(a.conns);
      std::exponential_distribution<double> gap(rate / 1e9);
      const uint64_t step_begin = s < 0 ? t_start : t0 + step_ns * s;
      const uint64_t step_end = t0 + step_ns * (s + 1);
      if (t < step_begin) t = step_begin;
      for (;;) {
        t += static_cast<uint64_t>(gap(rng));
        if (t >= step_end) break;
        Request r;
        r.conn = c;
        r.step = s;
        r.due = t;
        if (a.register_every > 0 &&
            std::uniform_int_distribution<size_t>(0, a.register_every - 1)(rng) == 0) {
          r.op = Op::kRegister;
          r.doc = static_cast<int64_t>(zipf(rng));
        } else {
          r.doc = static_cast<int64_t>(
              std::uniform_int_distribution<size_t>(0, stream.size() - 1)(rng));
        }
        schedule[c].push_back(reqs.size());
        reqs.push_back(r);
      }
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].id = next_id++;

  // Unanswered requests by id, per connection. The server answers some
  // ops (register, stats) on its I/O thread, ahead of queued extracts, so
  // answers are matched by id, not by order.
  std::vector<std::unordered_map<int64_t, size_t>> awaiting(n_conns);
  std::vector<size_t> cursor(a.conns, 0);
  std::ofstream rows_out(a.out + "/rows.jsonl", std::ios::binary);
  std::ofstream stats_out;
  if (a.stats) stats_out.open(a.out + "/stats.jsonl", std::ios::binary);
  std::string first_batch_rows;
  std::vector<uint64_t> batch_digests;
  uint64_t batch_digest = 1469598103934665603ull;
  bool batch_first = true;
  uint64_t batch_next_send = batch ? t_start : UINT64_MAX;
  size_t next_stats_step = 0;

  auto send = [&](size_t c, size_t ri, const std::string& line) {
    Request& r = reqs[ri];
    r.sent = NowNs();
    conns[c].out += line;
    conns[c].out += '\n';
    awaiting[c].emplace(r.id, ri);
  };
  auto add_req = [&](size_t c, Op op, int64_t doc, int step) {
    Request r;
    r.conn = c;
    r.op = op;
    r.doc = doc;
    r.step = step;
    r.id = next_id++;
    r.due = NowNs();
    reqs.push_back(r);
    return reqs.size() - 1;
  };

  for (Conn& c : conns) c.SetNonBlocking();
  size_t outstanding_batch = 0;
  for (;;) {
    const uint64_t now = NowNs();
    // Send everything due.
    for (size_t c = 0; c < a.conns; ++c) {
      while (cursor[c] < schedule[c].size() &&
             reqs[schedule[c][cursor[c]]].due <= now) {
        const size_t ri = schedule[c][cursor[c]++];
        const Request& r = reqs[ri];
        if (r.op == Op::kRegister) {
          send(c, ri, "{\"op\":\"register\",\"id\":" + std::to_string(r.id) +
                          ",\"pattern\":" + JsonString(pool[r.doc]) + "}");
        } else {
          send(c, ri, "{\"op\":\"extract\",\"id\":" + std::to_string(r.id) +
                          ",\"doc\":" + JsonString(stream[r.doc]) +
                          ",\"doc_index\":" + std::to_string(r.doc) +
                          ",\"format\":\"tsv\"}");
        }
      }
    }
    if (batch && outstanding_batch == 0 && now >= batch_next_send &&
        now < t_end) {
      size_t ri = add_req(batch_conn, Op::kBatch, -1, -1);
      reqs[ri].due = now;
      send(batch_conn, ri,
           "{\"op\":\"extract_batch\",\"id\":" + std::to_string(reqs[ri].id) +
               ",\"format\":\"tsv\"}");
      outstanding_batch = 1;
    }
    if (a.stats && next_stats_step <= a.rates.size() &&
        now >= t0 + step_ns * next_stats_step) {
      size_t ri = add_req(stats_conn, Op::kStats,
                          static_cast<int64_t>(next_stats_step), -1);
      send(stats_conn, ri,
           "{\"op\":\"stats\",\"id\":" + std::to_string(reqs[ri].id) + "}");
      ++next_stats_step;
    }
    for (Conn& c : conns) c.Flush();

    // Done when the schedule is exhausted and every answer is in.
    bool idle = now >= t_end;
    for (size_t c = 0; c < n_conns && idle; ++c)
      idle = awaiting[c].empty() &&
             (c >= a.conns || cursor[c] == schedule[c].size());
    if (idle && (!a.stats || next_stats_step > a.rates.size())) break;
    if (now > t_end + 60000000000ull) Die("answers still missing 60 s after the schedule");

    // Wait for input, output room, or the next due send (at most 100 ms).
    const uint64_t after = NowNs();
    uint64_t next_due = after + 100000000ull;
    for (size_t c = 0; c < a.conns; ++c)
      if (cursor[c] < schedule[c].size())
        next_due = std::min(next_due, reqs[schedule[c][cursor[c]]].due);
    if (batch && outstanding_batch == 0 && batch_next_send < t_end)
      next_due = std::min(next_due, batch_next_send);
    if (a.stats && next_stats_step <= a.rates.size())
      next_due = std::min(next_due, t0 + step_ns * next_stats_step);
    std::vector<pollfd> fds(n_conns);
    for (size_t c = 0; c < n_conns; ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = POLLIN | (conns[c].out.empty() ? 0 : POLLOUT);
    }
    const uint64_t wait_ns = next_due > after ? next_due - after : 0;
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000ull),
                           static_cast<long>(wait_ns % 1000000000ull)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR)
      Die("poll: " + std::string(std::strerror(errno)));

    for (size_t c = 0; c < n_conns; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::vector<std::string> lines;
      conns[c].Drain(&lines);
      const uint64_t t = NowNs();
      for (const std::string& line : lines) {
        auto it = awaiting[c].find(ResponseId(line));
        if (it == awaiting[c].end())
          Die("unexpected response: " + line.substr(0, 200));
        Request& r = reqs[it->second];
        const bool is_rows = Has(line, "\"rows\":[");
        if (is_rows && r.op == Op::kExtract)
          rows_out << c << '\t' << line << '\n';
        if (is_rows && r.op == Op::kBatch) {
          // Digest the rows alone: the line also carries the request id.
          for (unsigned char ch : line.substr(line.find("\"rows\":["))) {
            batch_digest ^= ch;
            batch_digest *= 1099511628211ull;
          }
          if (batch_first) first_batch_rows += line + "\n";
        }
        bool finished = !is_rows || Has(line, "\"done\":true");
        if (Has(line, "\"ok\":false")) {
          r.status = ErrorCode(line);
          finished = true;
        } else if (finished) {
          r.status = "ok";
        }
        if (!finished) continue;
        r.done = t;
        awaiting[c].erase(it);
        if (r.op == Op::kStats) stats_out << r.doc << '\t' << line << '\n';
        if (r.op == Op::kRegister && r.status == "ok") {
          const size_t ri = add_req(c, Op::kUnregister, r.doc, r.step);
          send(c, ri, "{\"op\":\"unregister\",\"id\":" +
                          std::to_string(reqs[ri].id) + ",\"handle\":" +
                          std::to_string(IntField(line, "handle")) + "}");
        }
        if (r.op == Op::kBatch) {
          outstanding_batch = 0;
          batch_next_send = t + a.batch_think_ms * 1000000ull;
          batch_digests.push_back(batch_digest);
          batch_digest = 1469598103934665603ull;
          batch_first = false;
        }
      }
    }
  }

  std::ofstream events(a.out + "/events.tsv", std::ios::binary);
  for (const Request& r : reqs)
    events << r.conn << '\t' << OpName(r.op) << '\t' << r.id << '\t' << r.doc
           << '\t' << r.step << '\t' << r.due << '\t' << r.sent << '\t'
           << r.done << '\t' << r.status << '\n';
  std::ofstream(a.out + "/batch_rows.txt", std::ios::binary) << first_batch_rows;
  bool batches_agree = true;
  for (uint64_t d : batch_digests) batches_agree &= d == batch_digests.front();
  std::cout << "{\"ready_ns\":" << ready_ns << ",\"t0_ns\":" << t0
            << ",\"step_ns\":" << step_ns << ",\"requests\":" << reqs.size()
            << ",\"batches\":" << batch_digests.size()
            << ",\"batches_agree\":" << (batches_agree ? "true" : "false")
            << "}\n";
  return 0;
}
