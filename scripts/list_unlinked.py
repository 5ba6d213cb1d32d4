#!/usr/bin/env python3
"""List the functions in src/ that no production program links.

    scripts/list_unlinked.py [--source DIR] [--jobs N] [--no-build]

A production program is the `solarnet` CLI, the fig*, t* and a* benches,
every example and perfbench's `solarbench` program. A perf harness is a
bench/perf_* binary or bench/robust_campaign: it gates or times src/ code
against frozen references, so code that only a harness runs is not kept by
it. Whether a program keeps a function is decided by the linker: everything
is built at -O0 -g with -ffunction-sections and linked with
-Wl,--gc-sections, so a function stays in a program binary only if
something the program runs reaches it.

The script configures and builds two trees in the source directory:
build-unlinked/ (the CLI, benches, examples and test suites) and
build-unlinked-perfbench/ (`cmake -S perfbench`, target solarbench). It then
collects every solarnet:: function that libsolarnet.a or a test binary
defines in a src/ file (`nm -C -l --defined-only`) and prints, as
`file:line  name`, each one that no production program contains, split into
those a perf harness links and those that only tests call.

Compiler-generated members (implicit or defaulted constructors, destructors
and assignments) and lambdas are skipped: they follow the code that uses
them. A template counts as kept when a program instantiates it with any
arguments. A function on ALLOWLIST is printed with its reason; a harness-only
entry names the seam the harness needs. The script exits 1 if any unlinked
function is not on the allowlist, or if an allowlist entry matches nothing
(a production program now keeps it, or it is gone).
"""

import argparse
import concurrent.futures
import fnmatch
import glob
import os
import re
import subprocess
import sys

# One entry per line: (qualified name or glob, reason). A name matches the
# function's qualified name without template arguments or parameter list.
ALLOWLIST = [
    ("solarnet::core::World::has_population", "world tests check which parts World::generate built"),
    ("solarnet::core::World::has_routers", "world tests check which parts World::generate built"),
    ("solarnet::geo::LatLonGrid::add", "population tests fill grids the distribution code reads"),
    ("solarnet::geo::LatLonGrid::at", "population and distribution tests read single cells"),
    ("solarnet::geo::LatLonGrid::col_of", "the cell lookup of LatLonGrid::add and at"),
    ("solarnet::geo::LatLonGrid::latitude_band_total", "population tests check the latitude mass of the generated grid"),
    ("solarnet::geo::LatLonGrid::row_of", "the cell lookup of LatLonGrid::add and at"),
    ("solarnet::geo::LatLonGrid::total", "population tests check the total of the generated grid"),
    ("solarnet::geo::is_valid", "dataset tests check every generated coordinate with it"),
    ("solarnet::gic::StormScenario::scaled", "power-grid tests build a storm three times Quebec 1989 with it"),
    ("solarnet::graph::ComponentResult::same_component", "component tests check the labelling the engines read"),
    ("solarnet::graph::Csr::half_edge_count", "CSR tests check the layout every kernel reads"),
    ("solarnet::graph::Graph::Graph", "the Graph(n) fixture constructor graph tests build networks with"),
    ("solarnet::graph::UnionFind::UnionFind", "seam: perf_graph's legacy components kernel and the frozen reference kernels build a sized union-find"),
    ("solarnet::graph::UnionFind::connected", "union-find tests check the structure the sweep engine uses"),
    ("solarnet::graph::UnionFind::element_count", "union-find tests check the structure the sweep engine uses"),
    ("solarnet::sim::FailureSimulator::average_repeaters_per_cable", "paper-checkpoint tests check the repeater layout"),
    ("solarnet::sim::FailureSimulator::layout", "layout tests check which simulators share one repeater layout"),
    ("solarnet::sim::FailureSimulator::repeaterless_cables", "paper-checkpoint tests check the repeater layout"),
    ("solarnet::sim::FailureSimulator::total_repeaters", "paper-checkpoint tests check the repeater layout"),
    ("solarnet::sim::IncrementalConnectivity::cable_count", "incremental-connectivity tests check its shape"),
    ("solarnet::sim::IncrementalConnectivity::node_count", "incremental-connectivity tests check its shape"),
    ("solarnet::sim::SweepEngine::axis", "sweep tests check the probability axis the engine walks"),
    ("solarnet::sim::SweepEngine::grid_probability", "seam: perf_sweep replays the CRN draw as independent per-point Bernoulli draws"),
    ("solarnet::sim::SweepEngine::grid_size", "seam: perf_sweep replays the CRN draw as independent per-point Bernoulli draws"),
    ("solarnet::topo::InfrastructureNetwork::repeater_layout_cache_size", "layout tests check that expired repeater layouts are pruned"),
    ("solarnet::util::Bitset::test", "seam: perf_routing converts its Bitset draws into the legacy std::vector<bool> form"),
    ("solarnet::util::Bitset::words", "bitset tests check the tail-bits-zero invariant count() relies on"),
    ("solarnet::util::ByteReader::u8", "checkpoint tests read back what ByteWriter::u8 writes into cache keys"),
    ("solarnet::util::Error::code", "error API: tests drive every error path through it"),
    ("solarnet::util::Error::context", "error API: tests drive every error path through it"),
    ("solarnet::util::FaultInjector::*", "fault injection: tests arm every fault site through it"),
    ("solarnet::util::Histogram::bin_count", "stats tests check the binning of the latitude PDF fig3 prints"),
    ("solarnet::util::Histogram::bin_width", "stats tests integrate the density that fig3 prints"),
    ("solarnet::util::Histogram::total", "stats tests check the mass Histogram::add accumulates"),
    ("solarnet::util::ParallelError::*", "error API: tests drive every error path through it"),
    ("solarnet::util::RunningStats::stddev", "stats tests check the Welford add and merge every engine runs"),
    ("solarnet::util::RunningStats::variance", "stats tests check the Welford add and merge every engine runs"),
    ("solarnet::util::ScopedFault::*", "fault injection: tests arm every fault site through it"),
    ("solarnet::util::Status::code", "error API: tests and robust_campaign's gates read every error code through it"),
    ("solarnet::util::Status::context", "error API: tests drive every error path through it"),
    ("solarnet::util::Status::message", "error API: tests drive every error path through it"),
    ("solarnet::util::Status::ok", "error API: tests drive every error path through it"),
    ("solarnet::util::all_fault_sites", "seam: robust_campaign's fault-site sweep arms every site"),
    ("solarnet::util::operator==", "seam: perf_batch compares each extracted lane with the scalar dead set"),
]

# Production programs under build-unlinked/; perfbench's solarbench is added
# from its own tree.
PRODUCTION = [
    "tools/solarnet",
    "bench/fig*",
    "bench/t[0-9]*",
    "bench/a[0-9]*",
    "examples/quickstart",
    "examples/storm_drill",
    "examples/cable_planner",
    "examples/dataset_export",
    "examples/apocalypse_timeline",
]
HARNESSES = ["bench/perf_*", "bench/robust_campaign"]

FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

OPERATOR_CHARS = "<>=!+-*/%^&|~[],"


def run(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def build(source, tree, perf_tree, jobs):
    run(["cmake", "-S", source, "-B", tree] + FLAGS)
    run(["cmake", "--build", tree, "-j", str(jobs)])
    run(["cmake", "-S", os.path.join(source, "perfbench"), "-B", perf_tree] + FLAGS)
    run(["cmake", "--build", perf_tree, "-j", str(jobs), "--target", "solarbench"])


def nm(path, lines):
    """(demangled name, file:line) of every function `path` defines."""
    cmd = ["nm", "-C", "--defined-only"] + (["-l"] if lines else []) + [path]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    symbols = []
    for row in out.splitlines():
        parts = row.split(" ", 2)
        if len(parts) == 3 and parts[1] in "TtWw":
            name, _, where = parts[2].partition("\t")
            symbols.append((name, where))
    return symbols


def qualified_name(name):
    """The function's qualified name, without template arguments, return
    type or parameter list, and whether it had template arguments:
    (`solarnet::util::Rng::shuffle`, True) for
    `void solarnet::util::Rng::shuffle<int>(std::vector<int>&)`."""
    name = name.replace("(anonymous namespace)", "{anonymous}")
    out, depth, i, template = [], 0, 0, False
    while i < len(name):
        if name.startswith("operator", i) and (i == 0 or name[i - 1] in ": "):
            j = i + len("operator")
            j += 2 if name.startswith("()", j) else 0
            while j < len(name) and name[j] in OPERATOR_CHARS:
                j += 1
            if depth == 0:
                out.append(name[i:j])
            i = j
            continue
        c = name[i]
        if c == "(" and depth == 0:
            break
        if c == " " and depth == 0:
            out = []  # what came before was the return type
        elif c in "<(":
            template |= c == "<"
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return re.sub(r"\[abi:\w+\]", "", "".join(out)), template


_sources = {}


def source_line(where):
    path, _, line = where.rpartition(":")
    if path not in _sources:
        try:
            with open(path, encoding="utf-8") as f:
                _sources[path] = f.read().splitlines()
        except OSError:
            _sources[path] = []
    text = _sources[path]
    n = int(line) if line.isdigit() else 0
    return text[n - 1] if 0 < n <= len(text) else ""


def skipped(name, qual, where):
    """Lambdas, entities local to a function, and compiler-generated
    members: an implicit member is placed at its class head, a defaulted
    one says `= default`."""
    if not qual.startswith("solarnet::") or "{lambda" in name or ")::" in name:
        return True
    scope, _, member = qual.rpartition("::")
    cls = scope.rpartition("::")[2]
    if member not in (cls, "~" + cls, "operator=", "operator==", "operator<=>"):
        return False
    line = source_line(where)
    head = r"\b(struct|class)\s+(\[\[[^\]]*\]\]\s*)?" + re.escape(cls) + r"\b"
    return bool(re.search(head, line)) or "= default" in line


def collect(paths, lines, jobs):
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        return list(pool.map(lambda p: nm(p, lines), paths))


def executables(tree, pattern):
    return sorted(p for p in glob.glob(os.path.join(tree, pattern))
                  if os.path.isfile(p) and os.access(p, os.X_OK))


def main():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--source", default=here, help="repository root (default: this checkout)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--no-build", action="store_true", help="reuse the existing build trees")
    args = ap.parse_args()

    source = os.path.abspath(args.source)
    src = os.path.join(source, "src") + os.sep
    tree = os.path.join(source, "build-unlinked")
    perf_tree = os.path.join(source, "build-unlinked-perfbench")
    if not args.no_build:
        build(source, tree, perf_tree, args.jobs)

    programs = [p for pattern in PRODUCTION for p in executables(tree, pattern)]
    programs += executables(perf_tree, "solarbench")
    harnesses = [p for pattern in HARNESSES for p in executables(tree, pattern)]
    defining = [os.path.join(tree, "src", "libsolarnet.a")] + executables(tree, "tests/test_*")
    if len(programs) < 26 or len(harnesses) < 9 or len(defining) < 2:
        sys.exit(f"list_unlinked: expected the CLI, 19 fig/t/a benches, 5 examples, solarbench, "
                 f"9 perf harnesses and the test suites under {tree} and {perf_tree}; found "
                 f"{len(programs)} production programs and {len(harnesses)} harnesses")

    def linked(binaries):
        names = set()
        for symbols in collect(binaries, False, args.jobs):
            for name, _ in symbols:
                names.add(name)
                qual, template = qualified_name(name)
                if template:
                    names.add(qual)
        return names

    kept = linked(programs)
    harness_linked = linked(harnesses)

    unlinked = {}
    for symbols in collect(defining, True, args.jobs):
        for name, where in symbols:
            if name in kept or not where.startswith(src):
                continue
            qual, template = qualified_name(name)
            if template and qual in kept:
                continue  # a program instantiates the same template
            if not skipped(name, qual, where):
                unlinked.setdefault(name, (os.path.relpath(where, source), qual))

    matched = set()
    allowed, refused = [], []
    for name, (where, qual) in sorted(unlinked.items(), key=lambda kv: kv[1]):
        by = "harness-only" if name in harness_linked or qual in harness_linked else "test-only"
        entry = next(((pat, why) for pat, why in ALLOWLIST if fnmatch.fnmatchcase(qual, pat)), None)
        if entry is None:
            refused.append(f"{where}  {name}  [{by}]")
        else:
            matched.add(entry[0])
            allowed.append(f"{where}  {name}  [{by}] -- {entry[1]}")
    stale = [pat for pat, _ in ALLOWLIST if pat not in matched]

    print(f"{len(programs)} production programs, {len(harnesses)} perf harnesses; "
          f"{len(unlinked)} solarnet:: functions in src/ that no production program links")
    if allowed:
        print(f"\nkept for tests and perf harnesses ({len(allowed)}, on the allowlist):")
        print("\n".join(allowed))
    if refused:
        print(f"\nnot linked by any production program and not on the allowlist ({len(refused)}):")
        print("\n".join(refused))
    if stale:
        print(f"\nallowlist entries that match no unlinked function ({len(stale)}):")
        print("\n".join(stale))
    return 1 if refused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
