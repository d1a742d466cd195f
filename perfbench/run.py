#!/usr/bin/env python3
"""provtrie benchmark: CLI and warm-query latency, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from ``src/``
(nothing is installed).  Generated inputs and outputs go to
``.perfbench_work/`` at the checkout root.

Every workload runs the same phases:

1. *Inputs* (untimed): the 8-clique via ``provtrie gen-clique 8``, or a
   seeded corpus of workflow runs as N-Triples files (see corpus.py).
2. *Setup*: a ``python -m provtrie index`` process builds and saves the
   trie; the median wall time over the run's samples is ``setup_s``.
3. *CLI*: ``query --count-only``, ``suggest`` and ``stats`` processes on
   the saved trie; medians are ``query_s`` etc.
4. *Closed loop* (one client, ``--seconds`` long in all) on the trie
   loaded in process: per iteration one ``q2_suggest`` for the arriving
   run's prefix, one ``most_probable_at_depth``, one ``count_paths``, one
   ``q1``, then the arriving run is ingested (parse -> graph -> sequence
   -> ngrams -> insert).  Each is timed on its own.

Phases 2-4 repeat in rounds (an index sample, one CLI process of each
kind, a slice of the loop), so every metric samples the whole run, and
the run is pinned to one CPU, which every child inherits.  The speed of a
shared machine drifts over seconds to minutes, so loop latencies are
also scaled by a probe read every 0.25 s (speed.py).

Every answer is checked against an independent reference (reference.py)
outside the timed regions.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, seeds, corpus sizes and which percentile each
``_tail_ms`` is.  ``--trace 1`` replays the index and load in process with
a span around every call into the package and prints per-layer metrics
instead of end-to-end ones.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import corpus
import reference
from spans import NullTracer, Tracer
from speed import REF_MS, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SUGGEST_TOP = 5
CLIQUE = 8
SPEED_WINDOW_S = 0.25  # loop latencies are scaled by the probes around each window


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # trie mode: "dg" or "dag"
    corpus_runs: int  # 0: the clique instead of a run corpus
    count_wildcards: tuple[int, ...]
    q1_wildcards: tuple[int, ...]
    suggest_ahead: tuple[int, ...]
    suggest_prefix: tuple[int, ...]
    setups: int  # index processes (setup samples) per run
    rounds: int  # CLI processes of each kind per run; the loop is split as many times


WORKLOADS = {
    w.name: w
    for w in (
        # An odd number of wildcard (or lookahead) classes keeps each p50 inside one class.
        Workload("runs-zipf", "dag", 4000, (1, 2, 3, 4, 5), (1, 2, 3), (3, 4, 5), (1, 2), 3, 7),
        Workload("clique-k8", "dg", 0, tuple(range(1, 10)), (1, 2, 3), (1, 2, 3), (1, 2), 2, 3),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "index_rss_mib": "MiB",
    "query_rss_mib": "MiB",
    "trie_mib": "MiB",
    "query_s": "s",
    "suggest_s": "s",
    "stats_s": "s",
    "count_p50_ms": "ms",
    "count_tail_ms": "ms",
    "q1_p50_ms": "ms",
    "q1_tail_ms": "ms",
    "suggest_p50_ms": "ms",
    "suggest_tail_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_tail_ms": "ms",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(50, min(99, math.floor(100 - 1000 / n))) if n >= 20 else 50


def p50_and_tail(samples: list[float]) -> tuple[float, float, int]:
    pct = tail_percentile(len(samples))
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return statistics.median(samples), cuts[pct - 1], pct


@dataclass
class ProcResult:
    wall: float
    rss_mib: float  # the child's own peak RSS
    code: int
    stdout: str


# A Python child records its own peak RSS (VmHWM) when it exits.  The
# ru_maxrss that wait4 reports would also count the parent's RSS at fork,
# which Linux carries across exec.
HWM_WRAPPER = """
import atexit, runpy, sys
def _hwm(path=sys.argv[1]):
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)
atexit.register(_hwm)
target = sys.argv[2]
sys.argv = sys.argv[2:]
if target.endswith(".py"):
    runpy.run_path(target, run_name="__main__")
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PROVTRIE_PREDICATE_MAP"}
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{HERE}"
    return env


def run_python(target: str, *args: str, cwd: Path) -> ProcResult:
    """Run a module (as ``python -m``) or a script to completion in a child.

    Returns the child's wall time, its own peak RSS, exit code and stdout.
    """
    out_path, err_path, hwm_path = WORK / "child.out", WORK / "child.err", WORK / "child.hwm"
    hwm_path.unlink(missing_ok=True)
    argv = [sys.executable, "-c", HWM_WRAPPER, str(hwm_path), target, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        code = subprocess.call(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        wall = perf_counter() - start
    rss = int(hwm_path.read_text()) / 1024 if hwm_path.exists() else 0.0
    return ProcResult(wall, rss, code, out_path.read_text(encoding="utf-8"))


def provtrie_cli(*args: str, cwd: Path) -> ProcResult:
    return run_python("provtrie", *args, cwd=cwd)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "provtrie").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Bench:
    """One run of one workload."""

    def __init__(self, wl: Workload, seed: int, seconds: int, traced: bool) -> None:
        self.wl, self.seed, self.seconds, self.traced = wl, seed, seconds, traced
        self.tracer = Tracer() if traced else NullTracer()
        self.null = NullTracer()
        self.rng = random.Random(f"{wl.name}:{seed}:queries")
        self.dir = WORK / wl.name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {k: [] for k in ("count", "q1", "suggest", "ingest")}
        self.raw_samples: dict[str, list[float]] = {k: [] for k in self.samples}
        self.layer: dict[str, float] = {}
        self.indexed = reference.IndexedSequences()
        self.clique = wl.corpus_runs == 0
        self.speed = Speed()
        self.index_runs: list[ProcResult] = []
        self.cli_runs: list[tuple[str, ProcResult]] = []
        self.iterations = 0

    # ---- bookkeeping -----------------------------------------------------

    def verdict(self, ok: bool, what: str) -> bool:
        """Every operation ends in exactly one verdict: its reference check,
        or a failure if it raised or exited nonzero."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def attempt(self, what: str, fn, *args):
        """Run fn; a raise counts as a failed operation and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, never fatal
            self.verdict(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    # ---- inputs ------------------------------------------------------------

    def make_inputs(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.clique:
            gen = provtrie_cli("gen-clique", str(CLIQUE), "--out", "k8.json", cwd=self.dir)
            if gen.code != 0:
                raise RuntimeError("gen-clique failed")
            self.files, self.fmt = ["k8.json"], "trace"
            verts = [f":r{i}" for i in range(CLIQUE)]
            self.succ = {v: [w for w in verts if w != v] for v in verts}
            self.arrivals = corpus.iter_clique_walk_runs(self.seed + 1_000_003, CLIQUE)
            self.anchors: list[tuple[str, ...]] = []
            self.corpus_runs: list = []
            return
        runs = corpus.workflow_runs(self.seed, self.wl.corpus_runs)
        rundir = self.dir / "runs"
        rundir.mkdir()
        for run in runs:
            (rundir / f"{run.name}.nt").write_text(run.ntriples, encoding="utf-8")
            self.indexed.add([run.sequence])
        self.files, self.fmt = [f"runs/{run.name}.nt" for run in runs], "ntriples"
        self.anchors = [run.sequence for run in runs]
        self.corpus_runs = runs
        self.arrivals = corpus.iter_workflow_runs(self.seed + 1_000_003)

    # ---- query generators ------------------------------------------------------

    def count_pattern(self, i: int, wildcards: tuple[int, ...]) -> tuple[str, int, str]:
        """Clique: a random vertex pair.  Runs: a run's input, then its step w+1."""
        w = wildcards[i % len(wildcards)]
        if self.clique:
            a, b = self.rng.sample(sorted(self.succ), 2)
            return a, w, b
        seq = self.rng.choice(self.anchors)
        return seq[0], w, seq[w + 1]

    def suggest_args(self, i: int, seq: tuple[str, ...] | None = None) -> tuple[tuple[str, ...], int]:
        p = self.wl.suggest_prefix[i % len(self.wl.suggest_prefix)]
        ahead = self.wl.suggest_ahead[i % len(self.wl.suggest_ahead)]
        if seq is None:
            seq = tuple(self.rng.sample(sorted(self.succ), p)) if self.clique else self.rng.choice(self.anchors)
        return tuple(seq[:p]), ahead

    # ---- reference checks ----------------------------------------------------------

    def ref_count(self, a: str, w: int, b: str) -> int:
        if self.clique:
            return reference.clique_count(CLIQUE, w + 1)
        return len(self.indexed.matches(a, w, b))

    def check_q1(self, matches, a: str, w: int, b: str) -> bool:
        keys = [(-m.likelihood, m.path) for m in matches]
        if keys != sorted(keys) or len({m.path for m in matches}) != len(matches):
            return False
        if self.clique:
            if len(matches) != reference.clique_count(CLIQUE, w + 1):
                return False
            return all(
                len(p) == w + 2 and p[0] == a and p[-1] == b and all(x != y and x in self.succ for x, y in zip(p, p[1:]))
                for p in (m.path for m in matches)
            )
        ref = self.indexed.matches(a, w, b)
        total = self.indexed.total
        return {m.path: m.freq for m in matches} == ref and all(
            math.isclose(m.likelihood, m.freq / total, rel_tol=1e-9) for m in matches
        )

    def check_suggest(self, got, prefix, ahead) -> bool:
        ref = reference.all_continuations(self.trie.root, prefix, ahead)
        self.counts["suggest.returned"] += len(got)
        self.counts["suggest.enumerated"] += len(ref)
        want = ref[:SUGGEST_TOP]
        return [g[0] for g in got] == [r[0] for r in want] and all(
            math.isclose(g[1], r[1], rel_tol=1e-12) for g, r in zip(got, want)
        )

    # ---- phases --------------------------------------------------------------

    def expected_index_output(self) -> tuple[int, int]:
        """(sequences, nodes) the index must report, derived independently."""
        if self.clique:
            perms = [math.perm(CLIQUE, k) for k in range(1, CLIQUE + 1)]
            return sum(p * (k - 1) for k, p in enumerate(perms, 1)), sum(perms)
        prefixes = {w[:k] for group in self.indexed.by_first.values() for w in group for k in range(1, len(w) + 1)}
        return self.indexed.total, len(prefixes)

    def index_once(self) -> None:
        """One ``provtrie index`` process: a setup sample, and the trie file."""
        sequences, nodes = self.expected_index
        want = f"traces\t{len(self.files)}\nsequences\t{sequences}\nnodes\t{nodes}\n"
        res = provtrie_cli("index", *self.files, "--format", self.fmt, "--mode", self.wl.mode, "--out", "index.trie", cwd=self.dir)
        if self.verdict(res.code == 0 and res.stdout == want, f"index: exit {res.code}, {res.stdout!r}"):
            self.index_runs.append(res)
        self.trie_path = self.dir / "index.trie"
        self.trie_bytes = self.trie_path.stat().st_size
        with open(self.trie_path, "rb") as fh:  # write back now, not during the next timed process
            os.fsync(fh.fileno())

    def plan_cli(self, rounds: int) -> None:
        """CLI arguments per round, with the stdout each must print.

        Expected output comes from the freshly loaded trie, checked against
        the references, before the loop's ingests change it.
        """
        from provtrie import QueryPattern, count_paths, q2_suggest

        stats_text = "".join(
            f"{d}\t{rid}\t{freq}\n"
            for d in sorted(self.depths)
            for rid, freq in sorted(self.depths[d].items(), key=lambda kv: (-kv[1], kv[0]))
        )
        path = str(self.trie_path)
        self.cli_plan = []
        for i in range(rounds):
            a, w, b = self.count_pattern(i, self.wl.count_wildcards)
            want = self.ref_count(a, w, b)
            self.verdict(count_paths(self.trie, QueryPattern((a,), w, b)) == want, f"count {a} {w} {b}")
            query = ["query", path, "--start", a, "--end", b, "--wildcards", str(w), "--count-only"]
            prefix, ahead = self.suggest_args(i)
            got = q2_suggest(self.trie, prefix, ahead, SUGGEST_TOP)
            self.verdict(self.check_suggest(got, prefix, ahead), f"suggest {prefix} {ahead}")
            suggest = ["suggest", path, "--prefix", *prefix, "--ahead", str(ahead), "--top", str(SUGGEST_TOP)]
            suggest_text = "".join(f"{','.join(c)}\t{lik:.6f}\n" for c, lik in got)
            self.cli_plan.append([(query, f"{want}\n"), (suggest, suggest_text), (["stats", path], stats_text)])

    def cli_round(self, k: int) -> None:
        for argv, want in self.cli_plan[k]:
            res = provtrie_cli(*argv, cwd=self.dir)
            self.cli_runs.append((argv[0], res))
            self.verdict(res.code == 0 and res.stdout == want, f"cli {argv}: exit {res.code}")

    def load(self) -> None:
        from provtrie import Trie, load

        if not self.traced:
            self.trie = load(self.trie_path)
            return
        t = self.tracer
        text = t.call("trie.read", self.trie_path.read_text, "utf-8")
        doc = t.call("trie.decode", json.loads, text)
        check = Trie.check_invariants
        Trie.check_invariants = lambda trie: t.call("trie.check_invariants", check, trie)
        try:
            self.trie = t.call("trie.from_document", Trie.from_document, doc)
        finally:
            Trie.check_invariants = check

    def loop(self, seconds: float) -> None:
        """The closed loop, with the cyclic GC off as ``timeit`` does: a
        collection's pause scales with the harness's own heap, not the
        package's work."""
        gc.disable()
        try:
            self._loop(seconds)
        finally:
            gc.enable()

    def _loop(self, seconds: float) -> None:
        from provtrie import GraphKind, QueryPattern, count_paths, most_probable_at_depth, q1, q2_suggest

        import pipeline

        t = self.tracer
        call = t.call
        trie, ref = self.trie, reference
        max_depth = min(max(self.depths), 10)
        pending: dict[str, list[float]] = {kind: [] for kind in self.samples}
        self.speed.mark()
        deadline = perf_counter() + seconds
        window_end = perf_counter() + SPEED_WINDOW_S
        while perf_counter() < deadline:
            if perf_counter() >= window_end:
                self._scale_into_samples(pending)
                window_end = perf_counter() + SPEED_WINDOW_S
            i = self.iterations
            self.iterations += 1
            run = next(self.arrivals)
            t.op = i

            prefix, ahead = self.suggest_args(i, run.sequence)
            start = perf_counter_ns()
            got = self.attempt("q2_suggest", call, "query.q2_suggest", q2_suggest, trie, prefix, ahead, SUGGEST_TOP)
            ms = (perf_counter_ns() - start) / 1e6
            if got is not None and self.verdict(self.check_suggest(got, prefix, ahead), f"suggest {prefix} {ahead}"):
                pending["suggest"].append(ms)

            depth = 1 + i % max_depth
            got = self.attempt("most_probable_at_depth", call, "query.most_probable_at_depth", most_probable_at_depth, trie, depth)
            if got is not None:
                want = ref.most_probable(self.depths, depth)
                self.verdict(got[:2] == want[:2] and math.isclose(got[2], want[2], rel_tol=1e-12), f"depth {depth}")

            a, w, b = self.count_pattern(i, self.wl.count_wildcards)
            pattern = QueryPattern((a,), w, b)
            start = perf_counter_ns()
            got = self.attempt("count_paths", call, "query.count_paths", count_paths, trie, pattern)
            ms = (perf_counter_ns() - start) / 1e6
            if got is not None and self.verdict(got == self.ref_count(a, w, b), f"count {a} {w} {b}: {got}"):
                pending["count"].append(ms)

            a, w, b = self.count_pattern(i, self.wl.q1_wildcards)
            pattern = QueryPattern((a,), w, b)
            start = perf_counter_ns()
            got = self.attempt("q1", call, "query.q1", q1, trie, pattern)
            ms = (perf_counter_ns() - start) / 1e6
            if got is not None:
                self.counts["query.q1_matches"] += len(got)
                ok = self.check_q1(got, a, w, b) and len(got) == count_paths(trie, pattern)
                if self.verdict(ok, f"q1 {a} {w} {b}"):
                    pending["q1"].append(ms)

            before = ref.terminal_count(trie.root, run.sequence)
            sequences = trie.sequence_count
            start = perf_counter_ns()
            seq = self.attempt(
                "ingest", call, "ingest.run", pipeline.ingest, trie, run.ntriples, "ntriples", GraphKind.DAG, t, self.counts
            )
            ms = (perf_counter_ns() - start) / 1e6
            if seq is None:
                continue
            ok = seq == run.sequence and trie.sequence_count == sequences + 1
            if self.verdict(ok and ref.terminal_count(trie.root, seq) == before + 1, f"ingest {run.name}"):
                pending["ingest"].append(ms)
            for d, label in enumerate(run.sequence, 1):
                level = self.depths.setdefault(d, {})
                level[label] = level.get(label, 0) + 1
            if not self.clique:
                self.indexed.add([run.sequence])
                self.anchors.append(run.sequence)
        self._scale_into_samples(pending)

    def _scale_into_samples(self, pending: dict[str, list[float]]) -> None:
        """Scale the latencies since the last probe; keep the raw ones too."""
        factor = self.speed.scale_since_mark()
        for kind, raw in pending.items():
            self.raw_samples[kind].extend(raw)
            self.samples[kind].extend(ms * factor for ms in raw)
            raw.clear()

    # ---- traced-only phases ----------------------------------------------------------

    def replay_index(self) -> None:
        """The index pipeline in process, one span per call; then save."""
        from provtrie import save

        import pipeline

        t = self.tracer
        first = len(t.spans)
        built = pipeline.build([self.dir / f for f in self.files], self.fmt, self.wl.mode, t, self.counts)
        spans = t.self_seconds(first)
        self.layer["trie.index_build_s"] = spans["trie.index_graph_dg"] + spans["trie.insert"]
        self.counts["trie.insertions"] = built.sequence_count
        t.call("trie.to_document", built.to_document)
        out = self.dir / "replay.trie"
        with open(out, "w", encoding="utf-8") as fh:
            t.call("trie.save", save, built, fh)
        self.counts["trie.doc_bytes"] = out.stat().st_size

    def peaks(self) -> None:
        listing = self.dir / "files.txt"
        listing.write_text("\n".join(self.files), encoding="utf-8")
        script = str(HERE / "pipeline.py")
        build = run_python(script, "build", str(listing), self.fmt, self.wl.mode, cwd=self.dir)
        load = run_python(script, "load", str(self.trie_path), cwd=self.dir)
        self.verdict(build.code == 0 and load.code == 0, "stage processes")
        self.layer["trie.build_peak_mib"] = build.rss_mib
        self.layer["trie.load_peak_mib"] = load.rss_mib

    def cli_start(self) -> float:
        walls = []
        for _ in range(3):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import provtrie.cli"], env=child_env(), check=True)
            walls.append(perf_counter() - start)
        return statistics.median(walls)

    def baselines(self) -> None:
        """The trie against the strongest simple competitors on the same counts."""
        from provtrie import QueryPattern, count_paths, count_walks, parse_ntriples, sequence, triples_to_graph
        from provtrie.graph import gen_clique

        rng_state = self.rng.getstate()
        patterns = [self.count_pattern(i, self.wl.count_wildcards) for i in range(2 * len(self.wl.count_wildcards))]
        self.rng.setstate(rng_state)

        def timed(want: int, fn, *args) -> float:
            start = perf_counter_ns()
            result = fn(*args)
            ms = (perf_counter_ns() - start) / 1e6
            self.verdict(result == want, f"baseline {fn.__name__}: {result} != {want}")
            return ms

        trie_ms, simple_ms, naive_ms = [], [], []
        if self.clique:
            g = gen_clique(CLIQUE)
            for a, w, b in patterns:
                want = self.ref_count(a, w, b)
                trie_ms.append(timed(want, count_paths, self.trie, QueryPattern((a,), w, b)))
                simple_ms.append(timed(want, reference.frontier_dp_count, self.succ, a, b, w + 1))
                if w <= 5:
                    naive_ms.append(timed(want, count_walks, g, a, b, w + 1))
        else:
            distinct = self.indexed.distinct()
            graphs = [triples_to_graph(parse_ntriples(r.ntriples).triples) for r in self.corpus_runs]

            def naive(a: str, w: int, b: str) -> int:
                seen = set()
                for g in graphs:
                    x = sequence(g).items
                    if len(x) >= w + 2 and x[0] == a and x[w + 1] == b:
                        seen.add(x[: w + 2])
                return len(seen)

            for k, (a, w, b) in enumerate(patterns):
                want = self.ref_count(a, w, b)
                trie_ms.append(timed(want, count_paths, self.trie, QueryPattern((a,), w, b)))
                simple_ms.append(timed(want, reference.scan_count, distinct, a, w, b))
                if k < 3:
                    naive_ms.append(timed(want, naive, a, w, b))
        self.layer["baseline.trie_count_ms"] = statistics.median(trie_ms)
        self.layer["baseline.simple_count_ms"] = statistics.median(simple_ms)
        self.layer["baseline.naive_count_ms"] = statistics.median(naive_ms)

    def trace_overhead(self) -> float:
        """(traced - untraced) / untraced over one fixed block of read queries."""
        from provtrie import QueryPattern, count_paths, q1, q2_suggest

        rng_state = self.rng.getstate()
        block = []
        for i in range(len(self.wl.count_wildcards)):
            a, w, b = self.count_pattern(i, self.wl.count_wildcards)
            block.append(("query.count_paths", count_paths, self.trie, QueryPattern((a,), w, b)))
            a, w, b = self.count_pattern(i, self.wl.q1_wildcards)
            block.append(("query.q1", q1, self.trie, QueryPattern((a,), w, b)))
            prefix, ahead = self.suggest_args(i)
            block.append(("query.q2_suggest", q2_suggest, self.trie, prefix, ahead, SUGGEST_TOP))
        self.rng.setstate(rng_state)
        scratch = type(self.tracer)()
        times: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(3):
            for traced in (False, True):
                call = scratch.call if traced else self.null.call
                start = perf_counter()
                for name, fn, *args in block:
                    call(name, fn, *args)
                times[traced].append(perf_counter() - start)
        off, on = statistics.median(times[False]), statistics.median(times[True])
        return (on - off) / off

    # ---- whole run -------------------------------------------------------------

    def trie_shape(self) -> dict[str, int]:
        nodes = cycles = depth = 0
        stack = [(self.trie.root, 0)]
        while stack:
            node, d = stack.pop()
            nodes += 1
            cycles += len(node.cycles)
            depth = max(depth, d)
            stack.extend((c, d + 1) for c in node.children.values())
        return {"trie.nodes": nodes - 1, "trie.cycle_edges": cycles, "trie.max_depth": depth}

    def run(self) -> dict:
        """Setup samples, CLI rounds and loop segments interleave over the run,
        so that every metric samples the whole run's machine conditions."""
        self.make_inputs()
        rounds = 1 if self.traced else self.wl.rounds
        setups = 1 if self.traced else self.wl.setups
        setup_rounds = {round(j * rounds / setups) for j in range(1, setups)}
        self.expected_index = self.expected_index_output()
        self.index_once()
        if self.traced:
            self.replay_index()
            self.peaks()
            cli_start = self.cli_start()
        self.load()
        self.depths = reference.depth_recount(self.trie.root)
        self.plan_cli(rounds)
        shape = self.trie_shape()
        if self.traced:
            self.baselines()
            overhead = self.trace_overhead()
            loop_first = len(self.tracer.spans)
        for k in range(rounds):
            if k in setup_rounds:
                self.index_once()
            self.cli_round(k)
            self.loop(self.seconds / rounds)
        if self.traced:
            self.tracer.write(self.dir / "spans.jsonl")
            metrics = self.layer_metrics(loop_first, shape, cli_start, overhead)
        else:
            metrics = self.end_to_end_metrics()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def _cli(self, kind: str) -> list[ProcResult]:
        return [res for k, res in self.cli_runs if k == kind]

    @staticmethod
    def _latencies(samples: dict[str, list[float]]) -> dict[str, float]:
        values = {}
        for kind, xs in samples.items():
            if len(xs) < 2:
                raise RuntimeError(f"too few {kind} samples: {len(xs)}")
            values[f"{kind}_p50_ms"], values[f"{kind}_tail_ms"], _ = p50_and_tail(xs)
        return values

    def end_to_end_metrics(self) -> dict[str, float]:
        values = self._latencies(self.samples)
        values["setup_s"] = statistics.median(res.wall for res in self.index_runs)
        for kind in ("query", "suggest", "stats"):
            values[f"{kind}_s"] = statistics.median(res.wall for res in self._cli(kind))
        values["index_rss_mib"] = statistics.median(res.rss_mib for res in self.index_runs)
        values["query_rss_mib"] = max(res.rss_mib for _, res in self.cli_runs)
        values["trie_mib"] = self.trie_bytes / 2**20
        self.unscaled = self._latencies(self.raw_samples)
        self.tails = {
            f"{kind}_tail_ms": {"percentile": tail_percentile(len(xs)), "samples": len(xs)}
            for kind, xs in self.samples.items()
        }
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}

    def layer_metrics(self, loop_first: int, shape: dict[str, int], cli_start: float, overhead: float) -> dict:
        t = self.tracer
        every = t.self_seconds()
        loop = t.self_seconds(loop_first)
        query_s = self._cli("query")[0].wall
        load_s = every["trie.read"] + every["trie.decode"] + every["trie.from_document"] + every["trie.check_invariants"]
        c = self.counts
        seconds = {
            "ingest.parse_s": every["ingest.parse"],
            "ingest.to_graph_s": every["ingest.to_graph"],
            "graph.infer_roles_s": every["graph.infer_roles"],
            "canonical.sequence_s": every["canonical.sequence"],
            "canonical.ngrams_s": every["canonical.ngrams"],
            "trie.index_build_s": self.layer["trie.index_build_s"],
            "trie.ingest_insert_s": loop["trie.insert"],
            "trie.to_document_s": every["trie.to_document"],
            "trie.encode_write_s": every["trie.save"] - every["trie.to_document"],
            "trie.read_s": every["trie.read"],
            "trie.decode_s": every["trie.decode"],
            "trie.from_document_self_s": every["trie.from_document"],
            "trie.check_invariants_s": every["trie.check_invariants"],
            "cli.start_s": cli_start,
            "query.count_paths_s": loop["query.count_paths"],
            "query.q1_s": loop["query.q1"],
            "query.q2_suggest_s": loop["query.q2_suggest"],
            "query.most_probable_at_depth_s": loop["query.most_probable_at_depth"],
        }
        metrics = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
        for name in ("ingest.triples", "ingest.literals_skipped", "graph.nodes", "graph.edges", "canonical.windows"):
            metrics[name] = {"value": c[name], "unit": "count"}
        metrics.update({k: {"value": v, "unit": "count"} for k, v in shape.items()})
        metrics["trie.insertions"] = {"value": c["trie.insertions"], "unit": "count"}
        metrics["trie.doc_bytes"] = {"value": c["trie.doc_bytes"], "unit": "bytes"}
        for name in ("trie.build_peak_mib", "trie.load_peak_mib"):
            metrics[name] = {"value": self.layer[name], "unit": "MiB"}
        metrics["cli.load_share"] = {"value": load_s / query_s, "unit": "ratio"}
        metrics["query.q1_matches"] = {"value": c["query.q1_matches"], "unit": "count"}
        metrics["query.suggest_useful_ratio"] = {
            "value": c["suggest.returned"] / max(1, c["suggest.enumerated"]),
            "unit": "ratio",
        }
        for name in ("baseline.trie_count_ms", "baseline.simple_count_ms", "baseline.naive_count_ms"):
            metrics[name] = {"value": self.layer[name], "unit": "ms"}
        metrics["check.ops"] = {"value": self.attempted, "unit": "count"}
        metrics["check.failed"] = {"value": self.failed, "unit": "count"}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        return metrics

    def provenance(self) -> dict:
        seqs = [len(s) for s in self.anchors[: self.wl.corpus_runs]]
        return {
            "workload": self.wl.name,
            "trace": int(self.traced),
            "seconds": self.seconds,
            "seeds": {"corpus": self.seed, "arrivals": self.seed + 1_000_003, "queries": f"{self.wl.name}:{self.seed}:queries"},
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "source_sha256_16": source_digest(),
            "corpus": {
                "runs": self.wl.corpus_runs or 1,
                "mean_sequence_length": statistics.mean(seqs) if seqs else None,
                "trie_file_bytes": self.trie_bytes,
                "loop_iterations": self.iterations,
                "ops_failed_ratio": self.failed / max(1, self.attempted),
            },
            "tails": getattr(self, "tails", {}),
            "speed": {
                "probe_ref_ms": REF_MS,
                "probe_ms_median": statistics.median(self.speed.readings),
                "probe_ms_range": [min(self.speed.readings), max(self.speed.readings)],
                "unscaled": getattr(self, "unscaled", {}),
            },
            "process_samples_s": {
                kind: [round(r.wall, 4) for r in runs]
                for kind, runs in [("index", self.index_runs)] + [(k, self._cli(k)) for k in ("query", "suggest", "stats")]
            },
            "errors": self.errors,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "provtrie" / "__init__.py").is_file():
        print(f"error: no provtrie package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # One CPU for this process and every child: the speed probe then reads
    # the CPU the timed work runs on, and nothing migrates mid-measurement.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = bench.run()
    print(json.dumps({"provenance": bench.provenance()}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
