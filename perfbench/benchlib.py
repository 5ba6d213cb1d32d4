"""Pure helpers of the solarnet benchmark: statistics, seeded input
generators and span arithmetic. No I/O; tested by test_benchlib.py."""

import bisect
import math
import random
import statistics
from collections import defaultdict, namedtuple

# --- statistics --------------------------------------------------------------

MIN_BEYOND = 10  # a percentile needs this many samples above it


class InsufficientSamples(ValueError):
    pass


def min_samples(q):
    """Smallest sample count whose q-th percentile has MIN_BEYOND beyond."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q):
    """Nearest-rank q-th percentile. Raises InsufficientSamples unless at
    least MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q, n, max(0, n - rank), MIN_BEYOND))
    return sorted(values)[max(rank, 1) - 1]


def median(values):
    if not values:
        raise InsufficientSamples("median of no samples")
    return statistics.median(values)


TAIL_LADDER = (99, 90, 75)


def tail(values):
    """(q, value): the highest percentile of TAIL_LADDER with MIN_BEYOND
    samples beyond it, or (None, None) when there are too few even for the
    lowest."""
    for q in TAIL_LADDER:
        if len(values) >= min_samples(q):
            return q, percentile(values, q)
    return None, None


def windowed_percentile(samples, window, q):
    """Median over fixed time windows of each window's q-th percentile.
    samples: (time, value) pairs; windows too small for the percentile rule
    are skipped. Returns (value, windows used). One stalled window moves
    this by at most one rank, where it could move a whole-run tail far."""
    by_window = defaultdict(list)
    for t, v in samples:
        by_window[t // window].append(v)
    need = min_samples(q)
    tails = [percentile(v, q) for v in by_window.values() if len(v) >= need]
    return median(tails), len(tails)


def fnv1a(data):
    """64-bit FNV-1a of bytes, as the native client computes it."""
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


# --- seeded generators ---------------------------------------------------------
# Every input of a run comes from these, seeded by (workload, seed) alone.

def workload_rng(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


CliOp = namedtuple("CliOp", "model arg seed trials")
REPORT_MODELS = ("s1", "s2", "uniform", "storm")
REPORT_TRIALS = 64


def report_cli_ops(seed, count):
    """report_cli runs: the four model arguments in rotation, fresh seeds,
    a fresh uniform P."""
    rng = workload_rng("report_cli", seed)
    ops = []
    for i in range(count):
        model = REPORT_MODELS[i % len(REPORT_MODELS)]
        arg = "-"
        if model == "uniform":
            arg = "%.6f" % rng.uniform(0.001, 0.05)
        elif model == "storm":
            arg = "carrington"
        ops.append(CliOp(model, arg, rng.randrange(1000, 2 ** 31),
                         REPORT_TRIALS))
    return ops


def cli_argv(op, threads):
    argv = ["report", "--trials", str(op.trials), "--threads", str(threads),
            "--seed", str(op.seed)]
    if op.model == "uniform":
        return argv + ["--uniform", op.arg]
    if op.model == "storm":
        return argv + ["--storm", op.arg]
    return argv + ["--" + op.model]


COMPUTE_KINDS = (
    ("report", '{"cmd":"report","model":"s1","trials":1024,"seed":%d}'),
    ("sweep", '{"cmd":"sweep","trials":4096,"seed":%d}'),
    ("timeline", '{"cmd":"timeline","model":"s1","trials":512,"seed":%d}'),
    ("traffic",
     '{"cmd":"report","model":"s1","traffic":1,"trials":256,"seed":%d}'),
)


def rounds(values, size):
    """Sums of consecutive complete groups of `size` values: the latency of
    each full rotation of serve_compute's request kinds."""
    return [sum(values[i:i + size])
            for i in range(0, len(values) - size + 1, size)]


def compute_requests(seed, count):
    """serve_compute: (warm-up lines, [(kind, line)]). Every line has its own
    seed, so each timed request misses the cache; the warm-up lines build
    the four engines first."""
    rng = workload_rng("serve_compute", seed)
    base = rng.randrange(10 ** 6, 10 ** 9)
    warm = [tmpl % (base - 1 - k) for k, (_, tmpl) in enumerate(COMPUTE_KINDS)]
    ops = []
    for i in range(count):
        kind, tmpl = COMPUTE_KINDS[i % len(COMPUTE_KINDS)]
        ops.append((kind, tmpl % (base + i)))
    return warm, ops


def zipf_cum_weights(n, s=1.0):
    total, cum = 0.0, []
    for k in range(1, n + 1):
        total += 1.0 / k ** s
        cum.append(total)
    return cum


def zipf_picks(rng, n, count, s=1.0):
    cum = zipf_cum_weights(n, s)
    return [bisect.bisect_left(cum, rng.random() * cum[-1])
            for _ in range(count)]


MIX_SCENARIOS = 64


def mix_scenarios(rng):
    """The 64 pre-warmed scenarios of serve_mix, of all three kinds, in
    popularity order. They share few engines, so warming them is cheap.
    Each rank has the same kind and size under every seed (only the seeds
    in the requests change), so the mix of body sizes the hits return does
    not vary from seed to seed."""
    seeds = rng.sample(range(1000, 10 ** 6), MIX_SCENARIOS)
    lines = []
    for i, s in enumerate(seeds):
        j = i // 4
        if i % 4 < 2:
            model = ("s1", "s2", "uniform")[j % 3]
            lines.append('{"cmd":"report","model":"%s","trials":%d,"seed":%d}'
                         % (model, (64, 128, 256)[j % 3], s))
        elif i % 4 == 2:
            lines.append('{"cmd":"sweep","trials":%d,"seed":%d}'
                         % ((256, 512)[j % 2], s))
        else:
            lines.append(
                '{"cmd":"timeline","model":"%s","trials":%d,"seed":%d}'
                % (("s1", "s2")[j % 2], (64, 128)[j % 2], s))
    return lines


def engine_miss_line(p, seed):
    return ('{"cmd":"report","model":"uniform","p":%r,"trials":64,"seed":%d}'
            % (p, seed))


def engine_misses(rng, count):
    """`count` report requests that each need a new engine: every uniform p
    is fresh, and none is the warm uniform scenarios' p = 0.01."""
    used, lines = {0.01}, []
    for _ in range(count):
        p = round(rng.uniform(0.001, 0.2), 9)
        while p in used:
            p = round(rng.uniform(0.001, 0.2), 9)
        used.add(p)
        lines.append(engine_miss_line(p, rng.randrange(1000, 2 ** 31)))
    return lines


def engine_requests(seed, count):
    """serve_engine: engine misses, one after another."""
    return engine_misses(workload_rng("serve_engine", seed), count)


MixPlan = namedtuple("MixPlan", "warm ops")  # ops: (tag, due_ns, line)


def mix_plan(seed, duration_s, hit_rate, miss_rate):
    """serve_mix open-loop schedule: tag A = cache hits at hit_rate/s over
    Zipf-picked warm scenarios, tag B = engine misses (fresh uniform p) at
    miss_rate/s. Sorted by due time."""
    rng = workload_rng("serve_mix", seed)
    warm = mix_scenarios(rng)
    ops = []
    n_hits = int(duration_s * hit_rate)
    for i, pick in enumerate(zipf_picks(rng, len(warm), n_hits)):
        ops.append(("A", int(i * 1e9 / hit_rate), warm[pick]))
    for j, line in enumerate(engine_misses(rng, int(duration_s * miss_rate))):
        ops.append(("B", int((j + 0.5) * 1e9 / miss_rate), line))
    ops.sort(key=lambda o: (o[1], o[0]))
    return MixPlan(warm, ops)


# --- span arithmetic -----------------------------------------------------------

SpanRec = namedtuple("SpanRec", "id parent op t0 t1 name")


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{span id: own duration minus the part its children cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.t0, s.t1))
    return {s.id: (s.t1 - s.t0) - covered(children[s.id], s.t0, s.t1)
            for s in spans}


def stage_sum(spans, root_prefix="op."):
    """(sum of the layers' self times, sum of root durations) over the trees
    under roots whose name starts with root_prefix."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def root_of(s):
        while s.parent:
            s = by_id[s.parent]
        return s

    roots = [s for s in spans if not s.parent and s.name.startswith(root_prefix)]
    root_ids = {s.id for s in roots}
    layers = sum(selfs[s.id] for s in spans
                 if s.parent and root_of(s).id in root_ids)
    return layers, sum(s.t1 - s.t0 for s in roots)
