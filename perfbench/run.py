#!/usr/bin/env python3
"""The repository's benchmark: four seeded workloads run against the shipped
`spanex` (offline) and `spanexd` (served) binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The first run builds the
programs from source into `.bench_build/` (Release). Every input is made
from `--seed` by `pb_gen`, which calls the `src/workload` generators; the
programs receive only the generated files and requests. Every output row is
checked against `oracle.py`, which recovers the planted records from the
generated text with its own parser.

With `--trace 0` the run measures the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs the workload once untraced and then times the calls
into each layer (`pb_layers`) and the served path (`pb_load` with per-step
`stats`), and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it is the machine record. `--details FILE` also writes the
full result (machine record, per-step figures, row digests, exact counts).

Workload notes are in perfbench/WORKLOADS.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # the checkout stays as git would commit it
import oracle  # noqa: E402

CONFIG = json.load(open(os.path.join(HERE, "config.json")))
THREADS = str(CONFIG["threads"])
MIN_REPS = 3  # offline runs per measurement, however short --seconds is
SETUP_RUNS = 31  # offline set-up invocations per measurement


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


# ---- processes --------------------------------------------------------

LIVE = []  # spawned processes not yet reaped


def spawn(argv, cwd, stdout=subprocess.DEVNULL, stderr=None):
    p = subprocess.Popen(argv, cwd=cwd, stdout=stdout,
                         stderr=stderr if stderr is not None else subprocess.DEVNULL)
    LIVE.append(p)
    return p


def reap(p, timeout=None):
    """Waits for `p`; returns (exit code, rusage). Kills it after `timeout`."""
    timer = threading.Timer(timeout, p.kill) if timeout else None
    if timer:
        timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        if timer:
            timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(p)
    return p.returncode, ru


def run(argv, cwd, stdout_path=None, timeout=170):
    """Runs a program to completion: (exit code, wall s, cpu s, maxrss KiB, stdout)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    err = open(os.path.join(cwd, "stderr.log"), "ab")
    t0 = time.perf_counter()
    p = spawn(argv, cwd, stdout=out, stderr=err)
    data = b""
    if out is subprocess.PIPE:
        data = p.stdout.read()
    code, ru = reap(p, timeout)
    wall = time.perf_counter() - t0
    if stdout_path:
        out.close()
    err.close()
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, data


def stop_server(p):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
    return reap(p, timeout=15)


def kill_all():
    for p in list(LIVE):
        try:
            p.kill()
        except ProcessLookupError:
            pass
        try:
            reap(p, timeout=5)
        except ChildProcessError:
            LIVE.remove(p)


# ---- build and inputs -------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no source tree at " + ROOT)
    os.makedirs(BIN, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as logf:
        if not os.path.isfile(os.path.join(BIN, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BIN, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=logf, stderr=logf, check=True)
        subprocess.run(["cmake", "--build", BIN, "-j", THREADS],
                       stdout=logf, stderr=logf, check=True)


def tool(name):
    return os.path.join(BIN, "spanners", name) if name.startswith("spanex") \
        else os.path.join(BIN, name)


def generate(workload, seed):
    """Writes the workload's inputs once per seed; returns the directory."""
    wl = CONFIG["workloads"][workload]
    work = os.path.join(BUILD, "work")
    key = hashlib.sha256(json.dumps(wl, sort_keys=True).encode()).hexdigest()[:12]
    d = os.path.join(work, "%s-%d-%s" % (workload, seed, key))
    if os.path.isfile(os.path.join(d, "done")):
        return d
    shutil.rmtree(work, ignore_errors=True)  # keep one workload's inputs
    os.makedirs(d)
    args = [tool("pb_gen"), wl["kind"], str(seed), d, "docs=%d" % wl["docs"]]
    for key in ("stream", "pool"):
        if key in wl:
            args.append("%s=%d" % (key, wl[key]))
    subprocess.run(args, check=True, stderr=subprocess.DEVNULL)
    open(os.path.join(d, "done"), "w").close()
    os.sync()  # no write-back of the new inputs during the timed runs
    return d


def read_docs(path):
    data = open(path, "rb").read()
    docs = data.split(b"\0")
    if docs and docs[-1] == b"":
        docs.pop()
    return docs


# ---- measurement helpers ----------------------------------------------

def median(v):
    return statistics.median(v) if v else 0.0


def percentile(v, q):
    """Nearest-rank percentile of `v` (q in [0, 1])."""
    if not v:
        return 0.0
    s = sorted(v)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def machine_record():
    rec = {"nproc": os.cpu_count(), "cpu_model": "unknown",
           "build_type": "Release", "compiler": "unknown", "commit": "unknown"}
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cache = open(os.path.join(BIN, "CMakeCache.txt")).read().splitlines()
        for line in cache:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                rec["compiler"] = line.split("=", 1)[1]
            if line.startswith("CMAKE_BUILD_TYPE:"):
                rec["build_type"] = line.split("=", 1)[1]
        ver = subprocess.run([rec["compiler"], "--version"], capture_output=True,
                             text=True).stdout.splitlines()
        if ver:
            rec["compiler"] += " (" + ver[0] + ")"
    except (OSError, IndexError):
        pass
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            rec["commit"] = r.stdout.strip()
    except OSError:
        pass
    # Identifies the measured code where no git metadata exists.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(dp, f) for dp, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            h.update(open(f, "rb").read())
    rec["source_sha256"] = h.hexdigest()
    return rec


# ---- offline workloads ------------------------------------------------

def offline_argv(wl, d, stem):
    if wl.get("indexed"):
        return [tool("spanex"), "--corpus", os.path.join(d, stem + ".seg"), "--index",
                "--patterns-file", os.path.join(d, "patterns.txt"), "-j", THREADS]
    return [tool("spanex"), "-0", "-j", THREADS, "-f", os.path.join(d, "patterns.txt"),
            os.path.join(d, stem + ".txt")]


class Checker:
    """Compares program output with the oracle; counts operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0  # failed, refused or wrong operations
        self.wrong = 0   # operations whose output was wrong
        self.digests = []

    def offline(self, kind, expected, code, out_path):
        self.attempted += len(expected)
        actual = None
        if code == 0:
            rows = oracle.parse_tsv_output(open(out_path, "rb").read())
            actual = oracle.group_rows(kind, rows, len(expected))
        bad = oracle.count_failed(expected, actual)
        self.failed += bad
        self.wrong += bad if actual is not None else 0
        self.digests.append(oracle.digest(actual) if actual is not None else "failed")
        if bad:
            log("%d of %d documents have wrong rows" % (bad, len(expected)))


def run_offline(workload, seed, seconds, trace, details):
    wl = CONFIG["workloads"][workload]
    kind = wl["kind"]
    d = generate(workload, seed)
    expected = oracle.expected_rows(kind, read_docs(os.path.join(d, "corpus.txt")))
    setup_expected = oracle.expected_rows(kind, read_docs(os.path.join(d, "setup.txt")))
    corpus_bytes = os.path.getsize(os.path.join(d, "corpus.txt")) - len(expected)
    check = Checker()
    out_path = os.path.join(d, "out.tsv")

    if trace:
        return trace_offline(workload, wl, d, seed, expected, check, details)

    setup = []
    for i in range(SETUP_RUNS + 1):
        code, wall, _, _, _ = run(offline_argv(wl, d, "setup"), d, out_path)
        check.offline(kind, setup_expected, code, out_path)
        if i > 0:  # the first run pages the program in
            setup.append(wall)

    walls, cpus, rss = [], [], []
    verified = None
    t_start = time.monotonic()
    while len(walls) < MIN_REPS or time.monotonic() - t_start < seconds:
        code, wall, cpu, maxrss, _ = run(offline_argv(wl, d, "corpus"), d, out_path)
        data = open(out_path, "rb").read() if code == 0 else None
        if data is not None and data == verified:
            check.attempted += len(expected)
            check.digests.append(check.digests[-1])
        else:
            check.offline(kind, expected, code, out_path)
            if check.failed == 0:
                verified = data
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
    details["reps"] = [{"wall_s": w, "cpu_s": c, "maxrss_kib": r}
                       for w, c, r in zip(walls, cpus, rss)]
    details["setup_s"] = setup
    details["row_digest"] = check.digests[-1]
    mib = corpus_bytes / (1 << 20)
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mib": metric(median(rss) / 1024.0, "MiB"),
        "ok_frac": metric(1.0 - check.failed / check.attempted, "ratio"),
        "kib_s": metric(corpus_bytes / 1024.0 / median(walls), "KiB/s"),
        "cpu_ms_per_mib": metric(median(cpus) * 1000.0 / mib, "ms/MiB"),
    }
    return check, metrics


# ---- served ------------------------------------------------------------

def server_argv(wl):
    argv = [tool("spanexd"), "--socket", "s.sock", "-j", THREADS]
    if wl.get("indexed"):
        argv += ["--corpus", "corpus.seg", "--index"]
    else:
        argv += ["-0", "corpus.txt"]
    return argv + CONFIG["server_args"]


def start_server(wl, d):
    sock = os.path.join(d, "s.sock")
    if os.path.exists(sock):
        os.unlink(sock)
    t_spawn = time.monotonic_ns()
    p = spawn(server_argv(wl), d, stderr=open(os.path.join(d, "stderr.log"), "ab"))
    return p, t_spawn


def load_argv(wl, seed, rates, step_ms, stats, register_every, batch_think_ms, stream):
    return [tool("pb_load"), "--socket", "s.sock", "--patterns", "patterns.txt",
            "--stream", stream, "--pool", "pool.txt", "--out", ".",
            "--rates", ",".join(str(r) for r in rates), "--step-ms", str(step_ms),
            "--warmup-ms", str(wl.get("warmup_ms", 500)),
            "--seed", str(seed), "--conns", str(wl.get("conns", 3)),
            "--register-every", str(register_every),
            "--batch-think-ms", str(batch_think_ms)] + (["--stats"] if stats else [])


def read_events(d):
    events = []
    for line in open(os.path.join(d, "events.tsv")):
        c, op, rid, doc, step, due, sent, done, status = line.rstrip("\n").split("\t")
        events.append({"conn": int(c), "op": op, "id": int(rid), "doc": int(doc),
                       "step": int(step), "due": int(due), "sent": int(sent),
                       "done": int(done), "status": status})
    return events


def check_served(kind, d, stream_expected, held_expected, events, summary, check):
    """Counts every request; a refusal, error or wrong row fails it."""
    responses = oracle.response_rows(os.path.join(d, "rows.jsonl"))
    wrong_before = check.wrong
    for e in events:
        if e["op"] == "stats":
            continue
        check.attempted += 1
        ok = e["status"] == "ok"
        if ok and e["op"] == "extract":
            got = sorted(responses.get((e["conn"], e["id"]), []))
            ok = got == stream_expected[e["doc"]]
            check.wrong += not ok
        e["ok"] = ok
        check.failed += not ok
    if held_expected is not None and summary.get("batches", 0) > 0:
        rows = []
        for line in open(os.path.join(d, "batch_rows.txt"), "rb"):
            rows.extend(json.loads(line)["rows"])
        actual = oracle.group_rows(kind, rows, len(held_expected))
        bad = oracle.count_failed(held_expected, actual)
        if bad or not summary["batches_agree"]:
            batches = [e for e in events if e["op"] == "batch"]
            for e in batches:
                e["ok"] = False
            check.failed += len(batches)
            check.wrong += len(batches)
        check.digests.append(oracle.digest(actual) if actual is not None else "failed")
    served_rows = [responses.get((e["conn"], e["id"]), []) for e in events
                   if e["op"] == "extract"]
    check.digests.append(oracle.digest(sorted(r) for r in served_rows))
    if check.wrong > wrong_before:
        log("%d served answers have wrong rows" % (check.wrong - wrong_before))


def step_figures(events, summary, rates, rounds, slo_ms):
    """Per rung of the ladder: each figure is the median over the rounds,
    so one stall in one round does not set it."""
    t0, step_ns = summary["t0_ns"], summary["step_ns"]
    per_step = {}
    for e in events:
        if e["op"] == "extract" and e["step"] >= 0:
            per_step.setdefault(e["step"], []).append(e)
    rungs = []
    for r, rate in enumerate(rates):
        rounds_fig = []
        for k in range(rounds):
            s = k * len(rates) + r
            ex = per_step.get(s, [])
            lat = [(e["done"] - e["due"]) / 1e6 for e in ex]
            end = t0 + step_ns * (s + 1)
            rounds_fig.append({
                "samples": len(ex), "failed": sum(1 for e in ex if not e["ok"]),
                "p50_ms": percentile(lat, 0.50), "p99_ms": percentile(lat, 0.99),
                "completed_qps": sum(1 for e in ex if e["done"] < end) / (step_ns / 1e9),
                "backlog": sum(1 for e in ex if e["done"] > end + 100_000_000)})
        fig = {"offered_qps": rate, "rounds": rounds_fig}
        for key in ("p50_ms", "p99_ms", "completed_qps"):
            fig[key] = median([f[key] for f in rounds_fig])
        fig["samples"] = sum(f["samples"] for f in rounds_fig)
        fig["failed"] = sum(f["failed"] for f in rounds_fig)
        fig["meets_slo"] = (fig["samples"] > 0 and fig["failed"] == 0
                            and fig["p99_ms"] <= slo_ms
                            and all(f["backlog"] <= 0.01 * f["samples"] for f in rounds_fig))
        rungs.append(fig)
    return rungs


def served_session(wl, d, seed, rates, step_ms, stats, register_every,
                   batch_think_ms, stream):
    """One spanexd lifetime under pb_load: (summary, events, spanexd rusage)."""
    server, _ = start_server(wl, d)
    code, _, _, _, out = run(load_argv(wl, seed, rates, step_ms, stats,
                                       register_every, batch_think_ms, stream), d,
                             timeout=150)
    scode, ru = stop_server(server)
    if code != 0 or scode != 0:
        raise BenchError("served session failed (pb_load %d, spanexd %d)" % (code, scode))
    return json.loads(out.decode().strip().splitlines()[-1]), read_events(d), ru


def ladder_figures(wl, events, summary, rates, rounds):
    """Per-rung figures and the served.* metrics of one ladder run."""
    steps = step_figures(events, summary, rates, rounds, wl["slo_p99_ms"])
    meeting = [s for s in steps if s["meets_slo"]]
    batches = [(e["done"] - e["sent"]) / 1e9 for e in events if e["op"] == "batch"]
    lo, hi = steps[0], steps[-1]
    return steps, {
        "served.extract_p50_ms.lo": metric(lo["p50_ms"], "ms"),
        "served.extract_p99_ms.lo": metric(lo["p99_ms"], "ms"),
        "served.extract_p50_ms.hi": metric(hi["p50_ms"], "ms"),
        "served.extract_p99_ms.hi": metric(hi["p99_ms"], "ms"),
        "served.max_qps_slo": metric(meeting[-1]["completed_qps"] if meeting else 0.0,
                                     "1/s"),
        "served.batch_p50_s": metric(median(batches), "s"),
    }


def measure_setup_served(wl, d, check):
    setup = []
    for i in range(wl["setup_spawns"] + 1):
        server, t_spawn = start_server(wl, d)
        code, _, _, _, out = run(
            [tool("pb_load"), "--socket", "s.sock", "--patterns", "patterns.txt",
             "--conns", str(wl["conns"]), "--batch-think-ms", "1", "--setup-only"], d)
        scode, _ = stop_server(server)
        check.attempted += 1
        if code != 0 or scode != 0:
            check.failed += 1
        elif i > 0:  # the first spawn pages the program in
            setup.append((json.loads(out)["ready_ns"] - t_spawn) / 1e9)
    return setup


def run_served(workload, seed, seconds, trace, details):
    wl = CONFIG["workloads"][workload]
    kind = wl["kind"]
    d = generate(workload, seed)
    stream_docs = read_docs(os.path.join(d, "stream.txt"))
    held_docs = read_docs(os.path.join(d, "corpus.txt"))
    stream_expected = oracle.expected_rows(kind, stream_docs)
    held_expected = oracle.expected_rows(kind, held_docs)
    check = Checker()
    if trace:
        return trace_served(workload, wl, d, seed, stream_expected, held_expected,
                            check, details)

    setup = measure_setup_served(wl, d, check)
    rates = wl["rates"]
    rounds = max(1, int(seconds * 1000 // (len(rates) * wl["step_ms"])))
    summary, events, ru = served_session(
        wl, d, seed, rates * rounds, wl["step_ms"], False, wl["register_every"],
        wl["batch_think_ms"], "stream.txt")
    check_served(kind, d, stream_expected, held_expected, events, summary, check)
    steps, served = ladder_figures(wl, events, summary, rates, rounds)
    held_bytes = sum(len(doc) for doc in held_docs)
    batches = sum(1 for e in events if e["op"] == "batch" and e["ok"])
    processed = held_bytes * batches + sum(
        len(stream_docs[e["doc"]]) for e in events if e["op"] == "extract" and e["ok"])
    load_s = (max(e["done"] for e in events) - min(e["due"] for e in events)) / 1e9
    registers = [(e["done"] - e["due"]) / 1e6 for e in events if e["op"] == "register"]
    details.update({"steps": steps, "setup_s": setup, "batches": batches,
                    "register_p90_ms": percentile(registers, 0.90),
                    "registers": len(registers), "row_digests": check.digests,
                    "gen_lag_p99_ms": gen_lag_p99(events),
                    "served": {k: v["value"] for k, v in served.items()}})
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mib": metric(ru.ru_maxrss / 1024.0, "MiB"),
        "ok_frac": metric(1.0 - check.failed / max(1, check.attempted), "ratio"),
        "kib_s": metric(processed / 1024.0 / load_s, "KiB/s"),
        "cpu_ms_per_mib": metric((ru.ru_utime + ru.ru_stime) * 1000.0
                                 / (processed / (1 << 20)), "ms/MiB"),
    }
    return check, metrics


def gen_lag_p99(events):
    lag = [(e["sent"] - e["due"]) / 1e6 for e in events
           if e["op"] in ("extract", "register")]
    return percentile(lag, 0.99)


# ---- traced runs --------------------------------------------------------

def stats_metrics(d):
    """Per-layer figures from the stats reports taken at step boundaries."""
    snaps = []
    for line in open(os.path.join(d, "stats.jsonl")):
        step, _, body = line.partition("\t")
        report = json.loads(body)["report"]
        snaps.append({"step": int(step), "server": report["server"],
                      "plan_cache": report["plan_cache"]})
    last = snaps[-1]
    srv, cache = last["server"], last["plan_cache"]
    lookups = cache["hits"] + cache["misses"]
    return snaps, {
        "server.requests": metric(srv["requests"], "count"),
        "server.rejected": metric(srv["rejected_queue_full"] + srv["rejected_inflight_cap"]
                                  + srv["rejected_draining"], "count"),
        "server.oldest_inflight_age_ms": metric(
            max(s["server"]["oldest_inflight_age_ms"] for s in snaps), "ms"),
        "engine.plan_cache_hit_ratio": metric(
            cache["hits"] / lookups if lookups else 0.0, "ratio"),
    }


# Per-layer units, as BENCHMARK.json declares them.
LAYER_UNITS = {m["name"]: m["unit"] for m in
               json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]}

EXACT_COUNTS = ("automata.mappings", "engine.rows", "engine.fleet_survivor_ratio",
                "storage.candidate_ratio", "storage.postings_touched")


def layers(workload, wl, d, untraced_wall, untraced_cpu):
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    argv = [tool("pb_layers"), "--patterns", "patterns.txt", "--docs", "corpus.txt",
            "--seg", "corpus.seg", "--socket", "s.sock", "--threads", THREADS,
            "--untraced-wall-ms", "%.6f" % (untraced_wall * 1e3),
            "--untraced-cpu-ms", "%.6f" % (untraced_cpu * 1e3),
            "--spans", os.path.join(results, workload + ".spans.json")]
    if wl.get("indexed"):
        argv.append("--indexed")
    code, _, _, _, out = run(argv, d)
    if code != 0:
        raise BenchError("pb_layers failed")
    return {k: metric(v, LAYER_UNITS[k]) for k, v in json.loads(out).items()}


def connect_batches(wl, d, kind, expected, check, budget_s=6.0):
    """Median wall of `spanex --connect` runs: the offline tool's client
    mode, one extract_batch over the corpus the server holds."""
    flag = "--patterns-file" if wl.get("indexed") else "-f"
    argv = [tool("spanex"), "--connect", "s.sock", flag, "patterns.txt"]
    out_path = os.path.join(d, "out.tsv")
    walls = []
    t_start = time.monotonic()
    while not walls or (len(walls) < 3 and time.monotonic() - t_start < budget_s):
        code, wall, _, _, _ = run(argv, d, out_path)
        check.offline(kind, expected, code, out_path)
        walls.append(wall)
    return median(walls)


def pool_replay(wl, d, details):
    """Register latency and plan-cache counts of the register pool replayed
    on one connection of a fresh server."""
    server, _ = start_server(wl, d)
    code, _, _, _, out = run(
        [tool("pb_load"), "--socket", "s.sock", "--patterns", "patterns.txt",
         "--pool", "pool.txt", "--seed", "1",
         "--replay-pool", str(CONFIG["replay_pool_draws"])], d)
    stop_server(server)
    if code != 0:
        raise BenchError("pool replay failed")
    replay = json.loads(out)
    cache = replay["stats"]["report"]["plan_cache"]
    details["pool_replay"] = {"hits": cache["hits"], "evictions": cache["evictions"]}
    return metric(replay["register_p90_ns"] / 1e6, "ms")


def traced(workload, wl, d, seed, stream_expected, held_expected, check, details,
           rates, step_ms, register_every, batch_think_ms, stream):
    kind = wl["kind"]
    # The untraced reference: one offline pass over the same corpus.
    out_path = os.path.join(d, "out.tsv")
    code, wall, cpu, _, _ = run(offline_argv(wl, d, "corpus"), d, out_path)
    check.offline(kind, held_expected, code, out_path)
    server, _ = start_server(wl, d)
    try:
        metrics = layers(workload, wl, d, wall, cpu)
        if not batch_think_ms:
            served_batch = connect_batches(wl, d, kind, held_expected, check)
    finally:
        stop_server(server)
    summary, events, _ = served_session(wl, d, seed, rates, step_ms, True,
                                        register_every, batch_think_ms, stream)
    check_served(kind, d, stream_expected,
                 held_expected if batch_think_ms else None, events, summary, check)
    steps, served = ladder_figures(wl, events, summary, rates, 1)
    if not batch_think_ms:
        served["served.batch_p50_s"] = metric(served_batch, "s")
    metrics.update(served)
    snaps, stats = stats_metrics(d)
    metrics.update(stats)
    metrics["harness.gen_lag_p99_ms"] = metric(gen_lag_p99(events), "ms")
    metrics["served.register_p90_ms"] = pool_replay(wl, d, details)
    details.update({"steps": steps, "stats_per_step": snaps, "row_digests": check.digests,
                    "untraced_wall_s": wall, "untraced_cpu_s": cpu,
                    "exact_counts": {k: metrics[k]["value"] for k in EXACT_COUNTS}})
    return check, metrics


def trace_offline(workload, wl, d, seed, expected, check, details):
    # The probe serves the workload's own corpus. It sends no registers: a
    # second plan would switch a single-plan session to fleet rows.
    probe = wl["probe"]
    return traced(workload, wl, d, seed, expected, expected, check, details,
                  probe["rates"], probe["step_ms"], 0, 0, "corpus.txt")


def trace_served(workload, wl, d, seed, stream_expected, held_expected, check,
                 details):
    return traced(workload, wl, d, seed, stream_expected, held_expected, check,
                  details, wl["rates"], wl["step_ms"], wl["register_every"],
                  wl["batch_think_ms"], "stream.txt")


# ---- main --------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--details", help="write the full result as JSON to this file")
    args = ap.parse_args()

    try:
        build()
        rec = machine_record()
        rec["loadavg_before"] = os.getloadavg()
        rec["loaded"] = rec["loadavg_before"][0] > rec["nproc"] / 2
        if rec["loaded"]:
            log("load average %.2f exceeds half the CPUs; figures may be skewed"
                % rec["loadavg_before"][0])
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        runner = run_served if CONFIG["workloads"][args.workload]["kind"] == "served" \
            else run_offline
        check, metrics = runner(args.workload, args.seed, args.seconds, args.trace,
                                details)
        rec["loadavg_after"] = os.getloadavg()
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError,
            KeyError) as e:
        log("failed: %s" % e)
        return 1
    finally:
        kill_all()

    result = {"correct": check.wrong == 0, "attempted": check.attempted,
              "failed": check.failed, "metrics": metrics}
    details.update({"machine": rec, "result": result})
    if args.details:
        with open(args.details, "w") as f:
            json.dump(details, f, indent=1)
    print(json.dumps({"machine": rec}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
