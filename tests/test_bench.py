import importlib.util
import io
import itertools
import random
from pathlib import Path

import pytest

import provtrie.bench as bench_mod
from provtrie.bench import (
    BenchAborted,
    BenchRow,
    CSV_HEADER,
    InsufficientData,
    loglog_slope,
    dp_counter,
    naive_counter,
    run_bench,
    trie_counter,
    write_csv,
)
from provtrie.document import FrozenTrie
from provtrie.graph import MissingNode, gen_clique
from provtrie.trie import Trie, TrieMode

from helpers import digits, random_dg


@pytest.fixture(scope="module")
def k4():
    g = gen_clique(4)
    t = Trie(TrieMode.DG)
    t.index_graph(g)
    return g, t


def test_run_bench_k4_path_counts(k4):
    _, trie = k4
    rows = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", max_wildcards=2, trials=1, warmup=0, dataset="4-clique")
    assert [r.n_paths for r in rows] == [2, 7]
    assert [r.wildcards for r in rows] == [1, 2]
    assert all(r.engine == "trie" and r.dataset == "4-clique" for r in rows)
    assert all(r.time_ns > 0 for r in rows)


def test_the_trie_counter_counts_on_a_frozen_trie_as_on_the_builder(k4):
    _, trie = k4
    frozen = FrozenTrie.from_document(trie.to_document())
    assert [trie_counter(frozen, ":r0", ":r1")(m) for m in (1, 2, 3)] == [2, 7, 20]
    assert [trie_counter(trie, ":r0", ":r1")(m) for m in (1, 2, 3)] == [2, 7, 20]


def test_counts_independent_of_trials(k4):
    _, trie = k4
    one = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 3, trials=1, warmup=0)
    five = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 3, trials=5, warmup=1)
    assert [r.n_paths for r in one] == [r.n_paths for r in five]


def test_naive_engine_agrees_with_trie(k4):
    g, trie = k4
    trie_rows = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 4, trials=1, warmup=0)
    naive_rows = run_bench(naive_counter(g, ":r0", ":r1"), "naive", 4, trials=1, warmup=0)
    assert [r.n_paths for r in trie_rows] == [r.n_paths for r in naive_rows]
    assert all(r.engine == "naive" for r in naive_rows)


def test_run_bench_validates_arguments(k4):
    _, trie = k4
    with pytest.raises(ValueError):
        run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 0)
    with pytest.raises(ValueError):
        run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 1, trials=0)
    with pytest.raises(ValueError):
        run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 1, warmup=-1)


def test_median_timing_resists_one_outlier(k4, monkeypatch):
    _, trie = k4
    # deterministic clock: every timed call lasts 100ns except one 50µs outlier
    durations = itertools.cycle([100, 100, 50_000, 100, 100])
    now = itertools.count(0)
    ticks = []

    def fake_clock():
        if len(ticks) % 2 == 0:
            ticks.append(next(now))
        else:
            ticks.append(ticks[-1] + next(durations))
        return ticks[-1]

    monkeypatch.setattr(bench_mod.time, "perf_counter_ns", fake_clock)
    rows = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 1, trials=5, warmup=0)
    assert rows[0].time_ns == 100


def test_bench_aborts_with_partial_rows(k4, monkeypatch):
    _, trie = k4
    real = bench_mod.count_paths

    def flaky(trie_arg, pattern, strict=False):
        if pattern.wildcards >= 3:
            raise RuntimeError("boom")
        return real(trie_arg, pattern, strict)

    monkeypatch.setattr(bench_mod, "count_paths", flaky)
    with pytest.raises(BenchAborted) as err:
        run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 5, trials=1, warmup=0)
    assert [r.n_paths for r in err.value.rows] == [2, 7]


def test_csv_output_exact_header(k4):
    _, trie = k4
    rows = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 2, trials=1, warmup=0, dataset="4-clique")
    buf = io.StringIO()
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "dataset,engine,wildcards,n_paths,time_ns,trials"
    assert lines[1].startswith("4-clique,trie,1,2,")
    assert len(lines) == 3


def test_csv_writes_a_count_past_the_int_to_str_digit_limit_exactly():
    count = 3**9100  # 4,342 digits, past Python's default limit of 4300
    buf = io.StringIO()
    write_csv([BenchRow("k4", "trie", 9100, count, 5, 1)], buf)
    assert buf.getvalue().splitlines()[1] == f"k4,trie,9100,{digits(count)},5,1"


def test_csv_header_constant():
    assert CSV_HEADER == "dataset,engine,wildcards,n_paths,time_ns,trials"


def _rows(pairs):
    return [BenchRow("d", "trie", i + 1, n, t, 1) for i, (n, t) in enumerate(pairs)]


def test_loglog_slope_exact_linear():
    rows = _rows([(10, 1000), (100, 10_000), (1000, 100_000), (10_000, 1_000_000)])
    assert loglog_slope(rows) == pytest.approx(1.0, abs=1e-9)


def test_loglog_slope_constant_time():
    rows = _rows([(10, 5000), (100, 5000), (1000, 5000)])
    assert loglog_slope(rows) == pytest.approx(0.0, abs=1e-9)


def test_loglog_slope_ignores_noise_regime_rows():
    quiet = [(2, 777), (5, 1)]  # below the 10-path threshold: excluded
    rows = _rows(quiet + [(10, 1000), (100, 10_000), (1000, 100_000)])
    assert loglog_slope(rows) == pytest.approx(1.0, abs=1e-9)


def test_loglog_slope_insufficient_data():
    with pytest.raises(InsufficientData):
        loglog_slope(_rows([(10, 1000), (100, 2000)]))
    with pytest.raises(InsufficientData):
        loglog_slope(_rows([(3, 10), (4, 20), (5, 30)]))
    # identical path counts make the regression degenerate
    with pytest.raises(InsufficientData):
        loglog_slope(_rows([(50, 10), (50, 20), (50, 30)]))


def _perfbench_reference():
    """The benchmark's independent references, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", Path(__file__).parents[1] / "perfbench" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


@pytest.mark.parametrize("size", range(4, 8))
def test_dp_engine_counts_equal_the_reference_the_closed_form_and_the_trie(size):
    g = gen_clique(size)
    trie = Trie(TrieMode.DG)
    trie.index_graph(g)
    frontier_dp_count = _perfbench_reference().frontier_dp_count
    successors = {v: g.successors(v) for v in g.node_ids}
    dp = run_bench(dp_counter(g, ":r0", ":r1"), "dp", 6, trials=1, warmup=0, dataset=f"k{size}")
    rows = run_bench(trie_counter(trie, ":r0", ":r1"), "trie", 6, trials=1, warmup=0)
    assert [(r.engine, r.wildcards, r.dataset) for r in dp] == [("dp", m, f"k{size}") for m in range(1, 7)]
    for m, row, trie_row in zip(itertools.count(1), dp, rows):
        closed_form = ((size - 1) ** (m + 1) - (-1) ** (m + 1)) // size
        assert row.n_paths == trie_row.n_paths == frontier_dp_count(successors, ":r0", ":r1", m + 1) == closed_form


def test_dp_engine_counts_equal_the_naive_engine_on_random_graphs():
    rng = random.Random(0xD9)
    for _ in range(30):
        g = random_dg(rng)
        start, end = rng.choice(g.node_ids), rng.choice(g.node_ids)
        dp = run_bench(dp_counter(g, start, end), "dp", 4, trials=1, warmup=0)
        naive = run_bench(naive_counter(g, start, end), "naive", 4, trials=1, warmup=0)
        assert [r.n_paths for r in dp] == [r.n_paths for r in naive]


@pytest.mark.parametrize("side", ["start", "end"])
@pytest.mark.parametrize("counter", [naive_counter, dp_counter], ids=["naive", "dp"])
def test_graph_counters_refuse_an_end_outside_the_graph_when_made(counter, side, k4):
    g, trie = k4
    ends = {"start": ":r0", "end": ":r1", side: ":nope"}
    with pytest.raises(MissingNode) as raised:
        counter(g, ends["start"], ends["end"])  # before any timing: run_bench is never reached
    assert str(raised.value) == f"walk {side} ':nope' is not in the graph"
    assert trie_counter(trie, ends["start"], ends["end"])(2) == 0  # the index holds no such path
