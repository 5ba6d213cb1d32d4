#!/usr/bin/env python3
"""The solarnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-golden

Run from the repository root. The first run builds the shipped `solarnet`
binary and the benchmark's native helper (`solarbench`) from source into
.bench_build/ (Release). Workloads, all driven through the program's two
stable surfaces, the `report` verb and `serve --socket`; each times one
kind of operation, its latency:

  report_cli     closed loop, one client: `solarnet report --trials 64`
                 as a fresh process, one run after another. Latency: spawn
                 to exit.
  serve_compute  closed loop over one connection to a server computing on
                 one thread: requests that miss the cache on already-built
                 engines (report, sweep, timeline, report with traffic, in
                 rotation), each with a fresh seed. Latency: one full
                 rotation of the four.
  serve_engine   closed loop over one connection: report requests that
                 each need a new engine (a fresh uniform p). Latency: one
                 request.
  serve_mix      open loop over two connections: Zipf-distributed cache
                 hits at a fixed rate on one, engine misses at a few per
                 second on the other. Latency: one hit, timed from when it
                 was due.

Every workload reports the same end-to-end metrics: setup_s (launch of
`solarnet serve` to its first stats reply), peak_rss_mb and
latency_ms_p10. The latency is gated on its 10th percentile, not its
median: at any moment some vCPUs of a shared host run this code about a
third faster than others, and which one a process or server thread lands
on is luck, so the median flips between the two modes from run to run
while the low percentile follows the fast one. The record keeps the
median and the tail. Every run checks the golden canary digests (golden.json)
and the paper checkpoint. With --trace 1 the operations are replayed in
process instead, with spans around each module's public functions; a
traced run replays every workload (the named one for --seconds, the others
briefly), so each reports every per-layer metric.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the full record: environment, sample
counts, latency tails, per-kind figures, validity and checks.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT, like every path below
RUN_DIR = os.path.join(BUILD, "run")
CLI = os.path.join(BUILD, "tools", "solarnet")
TOOL = os.path.join(BUILD, "solarbench")
GOLDEN = os.path.join(HERE, "golden.json")

NPROC = len(os.sched_getaffinity(0))
SETUP_LAUNCHES = 31     # setup_s is the median of this many launches
MAX_MEASURE_S = 120     # hard cap on one measurement phase
HIT_RATE = 5000         # serve_mix connection A, requests/s
MISS_RATE = 5           # serve_mix connection B, requests/s
HIT_WINDOW_S = 1        # hit p99: median of the p99s of windows this long
TRACE_MIX_S = 10        # socket mix length inside a traced serve_mix run
TRACE_SIDE_MIX_S = 3    # ... inside the other traced runs
ENGINE_RSS_AT = 50      # serve_engine: peak RSS after this many engine misses
COMPUTE_RSS_AT = 50     # serve_compute: peak RSS after this many rotations
# serve_compute's server computes on one thread: a trial loop split over
# every vCPU waits for the slowest, and on a shared host one of them is
# usually slow, which no statistic of the run can filter out.
COMPUTE_THREADS = 1
TRACE_SIDE_S = 1.0      # replay length of the workloads a traced run is not
                        # named for (at least one rotation each)

WORKLOADS = ("report_cli", "serve_compute", "serve_engine", "serve_mix")

# --- canaries ----------------------------------------------------------------

CLI_CANARIES = {
    "s1": ["--s1"],
    "s2": ["--s2"],
    "uniform": ["--uniform", "0.01"],
    "storm": ["--storm", "carrington"],
}
SERVED_CANARIES = {
    "report": '{"cmd":"report","model":"s1","trials":256,"seed":7}',
    "sweep": '{"cmd":"sweep","trials":512,"seed":7}',
    "timeline": '{"cmd":"timeline","model":"s1","trials":128,"seed":7}',
    "traffic": '{"cmd":"report","model":"s1","traffic":1,"trials":64,'
               '"seed":7}',
}
# Paper §4.3.1 checkpoint (Figs 6-7): uniform p=0.01 at 150 km spacing on
# the submarine network. The paper reports 15.8% / 11.0%.
CHECKPOINT = '{"cmd":"sweep","grid":[0.01],"trials":512,"seed":2021}'
CHECKPOINT_EXPECTED = {"cables_failed_pct": 16.3, "nodes_unreachable_pct": 11.0}


class BenchError(RuntimeError):
    pass


# --- processes -------------------------------------------------------------------

LIVE = []  # every child process still running; stopped on exit


def spawn(argv, **streams):
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, **streams)
    LIVE.append(proc)
    return proc


def wait_rusage(proc):
    """Waits for proc to exit; returns (exit code, peak RSS in MB)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return proc.returncode, ru.ru_maxrss / 1024.0


@contextlib.contextmanager
def watchdog(proc, timeout):
    """Kills proc if the block takes longer than `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()


def stop_all():
    for proc in list(LIVE):
        proc.kill()
        wait_rusage(proc)


def run_cli(argv, timeout=60):
    """Runs `solarnet ARGV`; returns (exit code, stdout bytes, wall s, peak
    RSS MB). Wall time runs from spawn to exit."""
    t0 = time.perf_counter()
    proc = spawn([CLI] + argv, stdout=subprocess.PIPE,
                 stderr=subprocess.DEVNULL)
    with watchdog(proc, timeout):
        out = proc.stdout.read()
        proc.stdout.close()
        code, rss = wait_rusage(proc)
    return code, out, time.perf_counter() - t0, rss


class Server:
    """`solarnet serve --socket`, launched and connected. setup_s is the time
    from launch to the first stats reply."""

    def __init__(self, threads, sock):
        self.sock_path = sock
        if os.path.exists(sock):
            os.unlink(sock)
        t0 = time.perf_counter()
        self.proc = spawn(
            [CLI, "serve", "--socket", sock, "--threads", str(threads)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while True:
            if self.proc.poll() is not None:
                raise BenchError("solarnet serve exited during start-up")
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                conn.connect(sock)
                break
            except OSError:
                conn.close()
                if time.perf_counter() - t0 > 60:
                    raise BenchError("solarnet serve did not start")
                time.sleep(0.0005)
        conn.settimeout(120)
        self.conn = conn
        self.file = conn.makefile("rwb")
        self.stats()
        self.setup_s = time.perf_counter() - t0

    def request(self, line):
        self.file.write(line.encode() + b"\n")
        self.file.flush()
        reply = self.file.readline()
        if not reply.endswith(b"\n"):
            raise BenchError("no reply to " + line)
        return reply[:-1]

    def stats(self):
        return json.loads(self.request('{"cmd":"stats"}'))

    def peak_rss_mb(self):
        """The running server's peak RSS so far (VmHWM), in MB."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for solarnet serve")

    def shutdown(self):
        """Stops the server; returns its peak RSS in MB."""
        try:
            self.request('{"cmd":"shutdown"}')
        except (OSError, BenchError):
            pass
        self.file.close()
        self.conn.close()
        with watchdog(self.proc, 30):
            code, rss = wait_rusage(self.proc)
        if code != 0:
            raise BenchError("solarnet serve exited with %d" % code)
        return rss


def launch_servers(threads, sock):
    """SETUP_LAUNCHES launches; returns the last server (left running) and
    every launch's set-up time."""
    times = []
    for i in range(SETUP_LAUNCHES):
        server = Server(threads, sock)
        times.append(server.setup_s)
        if i + 1 < SETUP_LAUNCHES:
            server.shutdown()
    return server, times


def run_tool(argv, timeout):
    proc = spawn([TOOL] + argv, stdout=subprocess.DEVNULL,
                 stderr=subprocess.PIPE)
    with watchdog(proc, timeout):
        err = proc.stderr.read()
        proc.stderr.close()
        code, _ = wait_rusage(proc)
    if code != 0:
        raise BenchError("solarbench %s failed (%d): %s"
                         % (argv[0], code, err.decode(errors="replace")))


# --- build and environment ----------------------------------------------------------

def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "ab") as log:
        def step(argv):
            if subprocess.call(argv, stdout=log, stderr=log,
                               stdin=subprocess.DEVNULL) != 0:
                log.flush()
                with open(log_path, "rb") as f:
                    tail = f.read()[-3000:].decode(errors="replace")
                raise BenchError("build failed: %s\n%s" % (" ".join(argv), tail))
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", os.path.relpath(HERE), "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator)
        step(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
              "solarnet_cli", "solarbench"])


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = None
    top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and \
            os.path.realpath(lines[0]) == os.path.realpath("."):
        commit = lines[1]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {"git_commit": commit, "source_sha256": source_digest(),
            "compiler": version, "build_type": build_type,
            "release_build": build_type == "Release", "nproc": NPROC,
            "cpu_model": cpu, "python": sys.version.split()[0]}


# --- checks -----------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def cli_canary_argv(name):
    return ["report", "--trials", "64", "--seed", "7", "--threads",
            str(NPROC)] + CLI_CANARIES[name]


def checkpoint_ok(body):
    point = json.loads(body)["points"][0]
    return all(round(point[k]["mean"], 1) == v
               for k, v in CHECKPOINT_EXPECTED.items())


def canary_digests(server):
    """Digests of the canary outputs, shaped like golden.json (None for a
    CLI run that failed), and the paper-checkpoint body."""
    digests = {"cli": {}, "served": {}}
    for name in CLI_CANARIES:
        code, out, _, _ = run_cli(cli_canary_argv(name))
        digests["cli"][name] = sha256(out) if code == 0 else None
    for name, line in SERVED_CANARIES.items():
        digests["served"][name] = sha256(server.request(line))
    body = server.request(CHECKPOINT)
    digests["checkpoint"] = sha256(body)
    return digests, body


def run_canaries(server, tally):
    """Checks every canary against golden.json, and the paper checkpoint.
    Each is one operation."""
    golden = load_golden()
    got, body = canary_digests(server)
    for group in ("cli", "served"):
        for name, digest in got[group].items():
            tally.op(digest == golden[group][name],
                     "canary %s %s" % (group, name))
    tally.op(got["checkpoint"] == golden["checkpoint"] and checkpoint_ok(body),
             "paper checkpoint")


def write_golden():
    server = Server(NPROC, os.path.join(RUN_DIR, "golden.sock"))
    got, body = canary_digests(server)
    server.shutdown()
    if None in got["cli"].values():
        raise BenchError("a canary report failed")
    if not checkpoint_ok(body):
        raise BenchError("paper checkpoint does not reproduce: "
                         + body.decode()[:300])
    with open(GOLDEN, "w") as f:
        json.dump(got, f, indent=2, sort_keys=True)
        f.write("\n")


def in_range(stats):
    return 0.0 <= stats["min"] <= stats["mean"] <= stats["max"] <= 100.0


def report_text_ok(text, op):
    head = ("solarnet resilience report — storm" if op.model == "storm"
            else "solarnet resilience report — model")
    return (head.encode() in text and b"==== Failure simulation ====" in text
            and ("trials: %d," % op.trials).encode() in text)


def served_body_ok(body, kind, line):
    try:
        r = json.loads(body)
        req = json.loads(line)
        if not (r["ok"] and r["seed"] == req["seed"]
                and r["trials"] == req["trials"]):
            return False
        if kind == "sweep":
            return len(r["points"]) > 0 and all(
                in_range(p["cables_failed_pct"]) for p in r["points"])
        if kind == "timeline":
            return len(r["steps"]) > 0 and all(
                in_range(s["nodes_unreachable_pct"]) for s in r["steps"])
        conn = r["connectivity"]
        return (r["cmd"] == "report" and conn["trials"] == req["trials"]
                and in_range(conn["cables_failed_pct"])
                and len(r["services"]) == 2 and len(r["isolation"]) == 9
                and ("traffic" in r) == bool(req.get("traffic"))
                and r.get("p") == req.get("p"))
    except (ValueError, KeyError, TypeError):
        return False


# --- workloads --------------------------------------------------------------------

def keep_going(t_start, seconds, count, need=bl.min_samples(50)):
    """A phase measures for `seconds`, then on until it has `need`
    samples (by default those a median needs), within MAX_MEASURE_S."""
    elapsed = time.perf_counter() - t_start
    if elapsed >= MAX_MEASURE_S:
        return False
    return elapsed < seconds or count < need


def summary(values):
    """A latency distribution for the record: 10th percentile, median,
    the highest percentile the samples allow, and the sample count."""
    q, value = bl.tail(values)
    low = (bl.percentile(values, 10)
           if len(values) >= bl.min_samples(10) else None)
    return {"p10": low, "p50": bl.median(values), "tail_q": q,
            "tail": value, "samples": len(values)}


def serve_setup(args, tally, metrics, threads=NPROC):
    """Launches the server SETUP_LAUNCHES times (setup_s) and checks the
    canaries on the last launch, which is returned running."""
    server, setup = launch_servers(threads, sock_path(args))
    metrics["setup_s"] = (bl.median(setup), len(setup))
    run_canaries(server, tally)
    return server


def run_report_cli(args, tally, metrics, detail):
    server = serve_setup(args, tally, metrics)
    server.shutdown()

    ops = bl.report_cli_ops(args.seed, 5000)
    walls, peak = [], 0.0
    t_start = time.perf_counter()
    while keep_going(t_start, args.seconds, len(walls)):
        op = ops[len(walls)]
        code, out, wall, rss = run_cli(bl.cli_argv(op, NPROC))
        tally.op(code == 0 and report_text_ok(out, op), "report %r" % (op,))
        walls.append(wall * 1e3)
        peak = max(peak, rss)
    metrics["latency_ms_p10"] = (bl.percentile(walls, 10), len(walls))
    metrics["peak_rss_mb"] = (peak, len(walls))
    detail["report_ms"] = summary(walls)


def run_serve_compute(args, tally, metrics, detail):
    server = serve_setup(args, tally, metrics, COMPUTE_THREADS)
    warm, ops = bl.compute_requests(args.seed, 50000)
    for line in warm:
        tally.op(json.loads(server.request(line))["ok"], "warm " + line)
    size = len(bl.COMPUTE_KINDS)
    lat = []
    t_start = time.perf_counter()
    while len(lat) % size or keep_going(t_start, args.seconds,
                                        len(lat) // size, COMPUTE_RSS_AT):
        kind, line = ops[len(lat)]
        t0 = time.perf_counter()
        body = server.request(line)
        lat.append((time.perf_counter() - t0) * 1e3)
        tally.op(served_body_ok(body, kind, line), line)
        if len(lat) == COMPUTE_RSS_AT * size:
            # Every miss caches its body, so the peak RSS is taken at a
            # fixed request count, not after however many the run allowed.
            metrics["peak_rss_mb"] = (server.peak_rss_mb(), COMPUTE_RSS_AT)
    detail["server_stats"] = server.stats()
    detail["peak_rss_mb_at_shutdown"] = server.shutdown()
    rotations = bl.rounds(lat, size)
    metrics["latency_ms_p10"] = (bl.percentile(rotations, 10),
                                 len(rotations))
    detail["rotation_ms"] = summary(rotations)
    for k, (kind, _) in enumerate(bl.COMPUTE_KINDS):
        detail["%s_miss_ms" % kind] = summary(lat[k::size])


def run_serve_engine(args, tally, metrics, detail):
    server = serve_setup(args, tally, metrics)
    lines = bl.engine_requests(args.seed, 5000)
    lat = []
    t_start = time.perf_counter()
    while keep_going(t_start, args.seconds, len(lat), ENGINE_RSS_AT):
        line = lines[len(lat)]
        t0 = time.perf_counter()
        body = server.request(line)
        lat.append((time.perf_counter() - t0) * 1e3)
        tally.op(served_body_ok(body, "report", line), line)
        if len(lat) == ENGINE_RSS_AT:
            # The pool grows by one engine per request: as in
            # run_serve_compute, the peak RSS is taken at a fixed count.
            metrics["peak_rss_mb"] = (server.peak_rss_mb(), ENGINE_RSS_AT)
    detail["server_stats"] = server.stats()
    detail["peak_rss_mb_at_shutdown"] = server.shutdown()
    metrics["latency_ms_p10"] = (bl.percentile(lat, 10), len(lat))
    detail["engine_miss_ms"] = summary(lat)


def write_plan(path, lines):
    with open(path, "w") as f:
        for tag, due, payload in lines:
            f.write("%s %d %s\n" % (tag, due, payload))


def socket_mix(args, server, duration, tally):
    """Runs the serve_mix open loop against `server`; returns (plan lines,
    per-request outcomes)."""
    plan = bl.mix_plan(args.seed, duration, HIT_RATE, MISS_RATE)
    expected = {}
    for line in plan.warm:
        body = server.request(line)
        tally.op(json.loads(body)["ok"], "warm " + line)
        expected[line] = bl.fnv1a(body)
    lines = [("W", 0, line) for line in plan.warm] + plan.ops
    plan_path = os.path.join(RUN_DIR, "mix.plan")
    records = os.path.join(RUN_DIR, "mix.records")
    bodies = os.path.join(RUN_DIR, "mix.bodies")
    write_plan(plan_path, lines)
    run_tool(["mix", server.sock_path, plan_path, records, bodies],
             timeout=duration + 120)

    miss_bodies = {}
    with open(bodies, "rb") as f:
        for row in f:
            index, body = row.rstrip(b"\n").split(b" ", 1)
            miss_bodies[int(index)] = body
    out = {"hit_us": [], "hit_due": [], "miss_ms": [], "late_ms": []}
    with open(records) as f:
        for row in f:
            conn, index, due, sent, recv, ok, digest = row.split()
            index, due, sent, recv = int(index), int(due), int(sent), int(recv)
            line = lines[index][2]
            answered = recv >= 0 and ok == "1"
            if conn == "0":
                tally.op(answered and int(digest, 16) == expected[line],
                         "hit " + line)
                out["hit_us"].append((recv - due) / 1e3)
                out["hit_due"].append(due)
            else:
                tally.op(answered and served_body_ok(
                    miss_bodies.get(index, b""), "report", line), line)
                out["miss_ms"].append((recv - due) / 1e6)
            out["late_ms"].append((sent - due) / 1e6)
    return lines, out


def run_serve_mix(args, tally, metrics, detail, bounds):
    server = serve_setup(args, tally, metrics)
    _, out = socket_mix(args, server, args.seconds, tally)
    detail["server_stats"] = server.stats()
    metrics["peak_rss_mb"] = (server.shutdown(), 1)
    hits = out["hit_us"]
    metrics["latency_ms_p10"] = (bl.percentile(hits, 10) / 1e3, len(hits))
    detail["hit_us"] = summary(hits)
    detail["engine_miss_ms"] = summary(out["miss_ms"])
    # The run is valid only if the generator kept to its schedule: its
    # p99 lateness may add at most the latency bound to the hits' p99.
    p99 = hit_p99(out)
    late_p99 = bl.percentile(out["late_ms"], 99)
    limit = bounds["latency_ms_p10"] * p99 / 1e3
    detail["validity"] = {"late_ms_p99": late_p99, "late_limit_ms": limit,
                          "hit_us_p99": p99, "valid": late_p99 <= limit}


def hit_p99(out):
    """The hits' p99: the median of per-window p99s, so a short host stall
    moves one window, not the run's figure."""
    p99, _ = bl.windowed_percentile(zip(out["hit_due"], out["hit_us"]),
                                    HIT_WINDOW_S * 1e9, 99)
    return p99


# --- traced runs ------------------------------------------------------------------

def read_trace(path):
    spans, samples, checks, digests = [], {}, [], {}
    with open(path) as f:
        for row in f:
            parts = row.split()
            if parts[0] == "P":
                traced, sid, parent, op, t0, t1 = map(int, parts[1:7])
                spans.append((traced, bl.SpanRec(sid, parent, op, t0, t1,
                                                 parts[7])))
            elif parts[0] == "S":
                samples.setdefault(parts[1], []).append(float(parts[2]))
            elif parts[0] == "C":
                checks.append((parts[1], parts[2] == "1"))
            elif parts[0] == "H":
                digests[int(parts[1])] = int(parts[2], 16)
    return spans, samples, checks, digests


UNIT_SCALE = {"ms": 1e-6, "us": 1e-3}


class LayerTotals:
    """Per-layer values of one traced run, gathered over its replays: the
    self time of every span (traced pass) and every probe sample; the
    layers' self-time sum and the root time sum (stage-sum coverage); and
    the traced and untraced root times (tracing overhead)."""

    def __init__(self):
        self.values = {}
        self.layers = self.total = 0
        self.roots = {0: [], 1: []}

    def add(self, spans, samples):
        """Adds one replay; returns its coverage (layers / roots)."""
        traced = [s for t, s in spans if t]
        selfs = bl.self_times(traced)
        for name, v in samples.items():
            self.values.setdefault(name, []).extend(v)
        for s in traced:
            if s.parent and not s.name.startswith("op."):
                unit = s.name.split("_")[-1].split(".")[0]
                self.values.setdefault(s.name, []).append(
                    selfs[s.id] * UNIT_SCALE[unit])
        for t, s in spans:
            if not s.parent and s.name.startswith("op."):
                self.roots[t].append(s.t1 - s.t0)
        layers, total = bl.stage_sum(traced)
        self.layers += layers
        self.total += total
        return layers / total

    def metrics(self):
        out = {name: (bl.median(v), len(v)) for name, v in self.values.items()}
        out["trace.coverage_pct"] = (100.0 * self.layers / self.total,
                                     len(self.roots[1]))
        untraced = sum(self.roots[0])
        out["trace.overhead_pct"] = (
            100.0 * (sum(self.roots[1]) - untraced) / untraced,
            len(self.roots[0]))
        return out


def trace_plan(args, workload, mix_lines):
    """The plan the traced replay of `workload` runs, and for report_cli
    the digest of the CLI's own stdout for the plan's first run."""
    if workload == "report_cli":
        ops = bl.report_cli_ops(args.seed, 2000)
        code, out, _, _ = run_cli(bl.cli_argv(ops[0], NPROC))
        return ([("R", 0, "%s %s %d %d" % op) for op in ops],
                bl.fnv1a(out) if code == 0 else None)
    if workload == "serve_compute":
        warm, ops = bl.compute_requests(args.seed, 20000)
        return ([("W", 0, line) for line in warm]
                + [("C", 0, line) for _, line in ops]), None
    if workload == "serve_engine":
        return [("B", 0, line)
                for line in bl.engine_requests(args.seed, 2000)], None
    return mix_lines, None


def trace_socket(args, tally, metrics):
    """The figures only a live server gives: canaries, an open-loop mix
    (its lateness and hit p99), the closed-loop hit round trip and the
    server's counts. Returns (mix plan lines, round-trip µs, samples)."""
    server = Server(NPROC, sock_path(args))
    run_canaries(server, tally)
    mix_s = TRACE_MIX_S if args.workload == "serve_mix" else TRACE_SIDE_MIX_S
    lines, out = socket_mix(args, server, mix_s, tally)
    metrics["serve_mix.late_ms_p99"] = (bl.percentile(out["late_ms"], 99),
                                        len(out["late_ms"]))
    metrics["serve_mix.hit_us_p99"] = (hit_p99(out), len(out["hit_us"]))
    closed = os.path.join(RUN_DIR, "closed.records")
    run_tool(["closed", server.sock_path, os.path.join(RUN_DIR, "mix.plan"),
              "20000", closed], timeout=120)
    with open(closed) as f:
        rows = [r.split() for r in f]
    for r in rows:
        tally.op(int(r[4]) >= 0 and r[5] == "1", "closed-loop hit")
    rtt = bl.median([(int(r[4]) - int(r[3])) / 1e3 for r in rows])
    stats = server.stats()
    server.shutdown()
    for key in ("requests", "cache_hits", "computed"):
        metrics["server." + key] = (stats[key], 1)
    metrics["server.hit_ratio"] = (stats["cache_hits"] / stats["requests"], 1)
    return lines, rtt, len(rows)


def trace_workload(args, tally, metrics):
    """Replays every workload traced, so the run reports every per-layer
    metric: the named workload for --seconds, the others for TRACE_SIDE_S
    (at least one rotation of their operations each)."""
    mix_lines, rtt, rtt_samples = trace_socket(args, tally, metrics)
    totals = LayerTotals()
    for workload in WORKLOADS:
        plan, cli_digest = trace_plan(args, workload, mix_lines)
        plan_path = os.path.join(RUN_DIR, workload + ".trace.plan")
        out_path = os.path.join(RUN_DIR, workload + ".trace.out")
        write_plan(plan_path, plan)
        seconds = args.seconds if workload == args.workload else TRACE_SIDE_S
        run_tool(["trace", workload, plan_path, str(seconds), str(NPROC),
                  out_path], timeout=150)
        spans, samples, checks, digests = read_trace(out_path)
        for name, ok in checks:
            tally.op(ok, name)
        tally.attempted += len(digests)
        if workload == "report_cli":
            tally.op(digests.get(1) == cli_digest,
                     "replayed report matches the CLI's stdout")
        # Stage-sum gate: the layers' self times cover the traced
        # end-to-end time to within 5%.
        tally.op(totals.add(spans, samples) >= 0.95,
                 "stage sum within 5%% of traced end-to-end time (%s)"
                 % workload)
    metrics.update(totals.metrics())
    metrics["server.front_end_us"] = (
        rtt - metrics["server.handle_hit_us"][0], rtt_samples)


# --- main ---------------------------------------------------------------------

def sock_path(args):
    return os.path.join(RUN_DIR, "%s.sock" % args.workload)


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden.json from the current build")
    args = parser.parse_args()
    os.chdir(ROOT)
    bench = load_benchmark()
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    env = environment()
    if not env["release_build"]:
        print("warning: %s build, not Release" % (env["build_type"] or "untyped"),
              file=sys.stderr)
    tally, metrics, detail = Tally(), {}, {}
    if args.trace:
        trace_workload(args, tally, metrics)
        declared = bench["per_layer"]
    else:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        {"report_cli": run_report_cli,
         "serve_compute": run_serve_compute,
         "serve_engine": run_serve_engine,
         "serve_mix": lambda *a: run_serve_mix(*a, bounds),
         }[args.workload](args, tally, metrics, detail)
        declared = bench["end_to_end"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}

    validity = detail.pop("validity", {"valid": True})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "validity": validity,
        "ops": tally.attempted, "failed_ops": tally.failed,
        "failures": tally.failures,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n],
                        "samples": metrics[n][1]} for n in names},
        "detail": detail,
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    if not validity["valid"]:
        # Marked in the record; latency_ms_p10 stands, as generator
        # lateness of this size does not move a low percentile.
        print("invalid run: the load generator fell behind its schedule "
              "(late p99 %.3f ms > %.3f ms)" % (validity["late_ms_p99"],
                                               validity["late_limit_ms"]),
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]}
                    for n in names}}))
    return 0


if __name__ == "__main__":
    # Terminated from outside: still stop every child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main()
    except (BenchError, OSError, KeyError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        code = 1
    finally:
        stop_all()
    sys.exit(code)
