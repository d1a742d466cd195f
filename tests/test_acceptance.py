"""End-to-end acceptance checks.

One test per criterion; the conftest summary hook prints a PASS/FAIL
line for each.  Count assertions are exact; the two timing checks carry
the stated wall-clock/slope bounds.  Criterion 9 stands in for an
external 120-trace corpus that is not bundled: ingestion is exercised on
the synthetic fixtures with expected counts computed by the brute-force
oracle instead of corpus-specific constants.
"""
import itertools
import random
import resource
import time
from pathlib import Path

import pytest

from provtrie.bench import loglog_slope, naive_counter, run_bench, trie_counter
from provtrie.canonical import ngrams, sequence
from provtrie.graph import GraphKind, ProvGraph, gen_clique
from provtrie.ingest import parse_ntriples, triples_to_graph
from provtrie.oracle import clique_walk_count, enumerate_walks, iter_topological_orders
from provtrie.query import QueryPattern, count_paths, q1
from provtrie.trie import Trie, TrieMode, load, save

from helpers import insert_all, prefix_match_oracle, random_dag, random_dg, walk_conservation_report

DATA = Path(__file__).parent / "data"

TABLE_SMALL = {1: 2, 2: 7, 6: 547}  # 4-clique
TABLE_LARGE = {1: 6, 2: 43, 6: 102943}  # 8-clique
LARGE_SERIES = [6, 43, 300, 2101, 14706, 102943, 720600, 5044201, 35309406]  # M = 1..9


@pytest.fixture(scope="module")
def k4_trie():
    trie = Trie(TrieMode.DG)
    trie.index_graph(gen_clique(4))
    return trie


@pytest.fixture(scope="module")
def k8_bundle():
    graph = gen_clique(8)
    trie = Trie(TrieMode.DG)
    trie.index_graph(graph)
    return graph, trie


def test_criterion_01_clique_count_reproduction(k4_trie, k8_bundle):
    _, k8_trie = k8_bundle
    for wildcards, expected in TABLE_SMALL.items():
        assert count_paths(k4_trie, QueryPattern((":r0",), wildcards, ":r1")) == expected
    for wildcards, expected in TABLE_LARGE.items():
        assert count_paths(k8_trie, QueryPattern((":r0",), wildcards, ":r1")) == expected
    # counts are pair independent
    assert count_paths(k8_trie, QueryPattern((":r2",), 6, ":r5")) == TABLE_LARGE[6]


def test_criterion_02_eight_clique_wildcard_series(k8_bundle):
    _, k8_trie = k8_bundle
    got = [count_paths(k8_trie, QueryPattern((":r0",), m, ":r1")) for m in range(1, 10)]
    assert got == LARGE_SERIES


def test_criterion_03_closed_form_vs_enumeration():
    for n in range(2, 7):
        g = gen_clique(n)
        for m in range(1, 8):
            expected = clique_walk_count(n, m)
            for start, end in itertools.permutations(g.node_ids, 2):
                assert len(enumerate_walks(g, start, end, m)) == expected


def test_criterion_04_trie_vs_oracle_set_equivalence():
    rng = random.Random(0xC4)
    alphabet_pool = [f"urn:r{i:02d}" for i in range(12)]

    for _ in range(200):
        alphabet = rng.sample(alphabet_pool, rng.randint(1, 12))
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 20))
        ]
        n = rng.choice([0, 0, 2, 3, 4])
        windows = []
        for seq in corpus:
            if n == 0:
                windows.append(tuple(seq))
            else:
                windows.extend(ngrams(seq, n).windows)
        trie = Trie(TrieMode.DAG, n=n)
        for window in windows:
            trie.insert(window)
        for start in alphabet:
            for end in alphabet:
                for wildcards in range(5):
                    pattern = QueryPattern((start,), wildcards, end)
                    got = {m.path for m in q1(trie, pattern)}
                    want = prefix_match_oracle(windows, (start,), wildcards, end)
                    assert got == want
                    assert count_paths(trie, pattern) == len(want)

    for _ in range(50):
        g = random_dg(rng, max_nodes=8)
        trie = Trie(TrieMode.DG)
        trie.index_graph(g)
        for start in g.node_ids:
            for end in g.node_ids:
                for wildcards in range(5):
                    got = {m.path for m in q1(trie, QueryPattern((start,), wildcards, end))}
                    want = set(enumerate_walks(g, start, end, wildcards + 1))
                    assert got == want


def test_criterion_05_canonicalization_determinism():
    rng = random.Random(0xC5)
    cases = (
        [(rng.randint(1, 8), rng.uniform(0.0, 0.6)) for _ in range(300)]
        + [(rng.randint(9, 10), rng.uniform(0.5, 0.8)) for _ in range(100)]
        + [(rng.randint(11, 14), rng.uniform(0.1, 0.6)) for _ in range(100)]
    )
    assert len(cases) == 500
    for size, p in cases:
        g = random_dag(rng, max_nodes=size, p=p)
        baseline = sequence(g).items
        nodes, edges = list(g.node_ids), list(g.edges())
        for _ in range(2):
            rng.shuffle(nodes)
            rng.shuffle(edges)
            h = ProvGraph(GraphKind.DAG)
            for rid in nodes:
                h.add_node(rid)
            for src, dst in edges:
                h.add_edge(src, dst)
            assert sequence(h).items == baseline
        if g.node_count <= 10 and (g.node_count <= 8 or p >= 0.5):
            assert baseline == min(iter_topological_orders(g))


def test_criterion_06_statistics_conservation():
    rng = random.Random(0xC6)
    alphabet = [f"urn:r{i}" for i in range(6)]
    for _ in range(40):
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 7))]
            for _ in range(rng.randint(1, 12))
        ]
        rng.shuffle(corpus)
        for mode in (TrieMode.DAG, TrieMode.DG):
            trie = Trie(mode)
            for seq in corpus:
                trie.insert(seq)
                assert walk_conservation_report(trie) == []


def test_criterion_07_real_time_bound(k8_bundle):
    _, k8_trie = k8_bundle
    pattern = QueryPattern((":r0",), 6, ":r1")
    count_paths(k8_trie, pattern)  # warm
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert count_paths(k8_trie, pattern) == TABLE_LARGE[6]
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 0.250

    assert count_paths(k8_trie, QueryPattern((":r0",), 9, ":r1")) == LARGE_SERIES[-1]
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak_bytes < 2 * 1024**3


def test_criterion_08_loglog_slope_and_baseline_gap(k8_bundle):
    k8_graph, k8_trie = k8_bundle
    trie_rows = run_bench(
        trie_counter(k8_trie, ":r0", ":r1"), "trie", max_wildcards=9, trials=3, warmup=1, dataset="8-clique"
    )
    assert [r.n_paths for r in trie_rows] == LARGE_SERIES
    assert loglog_slope(trie_rows) <= 1.2
    naive_rows = run_bench(
        naive_counter(k8_graph, ":r0", ":r1"), "naive", max_wildcards=7, trials=1, warmup=0, dataset="8-clique"
    )
    trie_by_m = {r.wildcards: r for r in trie_rows}
    for row in naive_rows:
        if row.wildcards >= 6:
            assert trie_by_m[row.wildcards].time_ns < row.time_ns


def test_criterion_09_ingestion_smoke_with_oracle_counts():
    graphs = []
    for name in ("trace1", "trace2", "trace3"):
        parsed = parse_ntriples((DATA / f"{name}.nt").read_text(encoding="utf-8"))
        graphs.append(triples_to_graph(parsed.triples))
    sequences = [sequence(g).items for g in graphs]
    trie = insert_all(TrieMode.DAG, sequences)

    queries = [
        ("urn:ex:in1", 1, "urn:ex:out1"),
        ("urn:ex:in1", 1, "urn:ex:out3"),
        ("urn:ex:in1", 2, "urn:ex:out2"),
        ("urn:ex:in1", 1, "urn:ex:out2"),
    ]
    oracle_counts = [
        len(prefix_match_oracle(sequences, (start,), wildcards, end))
        for start, wildcards, end in queries
    ]
    trie_counts = [
        count_paths(trie, QueryPattern((start,), wildcards, end))
        for start, wildcards, end in queries
    ]
    assert trie_counts == oracle_counts
    assert oracle_counts == [1, 1, 1, 0]  # frozen from the window-filter oracle


def test_criterion_10_persistence_reproduces_counts(k4_trie, k8_bundle, tmp_path):
    _, k8_trie = k8_bundle
    k4_path = tmp_path / "k4.json"
    k8_path = tmp_path / "k8.json"
    save(k4_trie, k4_path)
    save(k8_trie, k8_path)
    k4_back = load(k4_path)
    k8_back = load(k8_path)
    assert k4_back.to_document() == k4_trie.to_document()
    for wildcards, expected in TABLE_SMALL.items():
        assert count_paths(k4_back, QueryPattern((":r0",), wildcards, ":r1")) == expected
    got = [count_paths(k8_back, QueryPattern((":r0",), m, ":r1")) for m in range(1, 10)]
    assert got == LARGE_SERIES
