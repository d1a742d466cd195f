"""Self-tests of the benchmark's generator, references and baselines.

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import random

import pytest

import corpus
import reference
from provtrie import QueryPattern, Trie, TrieMode, gen_clique, parse_ntriples, q1, q2_suggest, sequence, triples_to_graph
from run import tail_percentile
from spans import Tracer


def test_generator_is_deterministic_for_a_seed():
    assert corpus.workflow_runs(7, 40) == corpus.workflow_runs(7, 40)
    assert corpus.workflow_runs(7, 40) != corpus.workflow_runs(8, 40)
    walks = corpus.iter_clique_walk_runs(3)
    again = corpus.iter_clique_walk_runs(3)
    assert [next(walks) for _ in range(30)] == [next(again) for _ in range(30)]


def test_generated_sequences_match_the_package_linearization():
    runs = corpus.workflow_runs(11, 60)
    walks = corpus.iter_clique_walk_runs(11)
    runs += [next(walks) for _ in range(60)]
    for run in runs:
        parsed = parse_ntriples(run.ntriples)
        assert parsed.skipped_literals > 0
        assert sequence(triples_to_graph(parsed.triples)).items == run.sequence


@pytest.mark.parametrize("n", range(2, 9))
def test_frontier_dp_equals_closed_form(n):
    g = gen_clique(n)
    succ = {v: g.successors(v) for v in g.node_ids}
    for edges in range(1, 10):
        assert reference.frontier_dp_count(succ, ":r0", ":r1", edges) == reference.clique_count(n, edges)


def test_prefix_scan_equals_q1_on_a_small_corpus():
    runs = corpus.workflow_runs(5, 300)
    trie = Trie(TrieMode.DAG)
    indexed = reference.IndexedSequences()
    for run in runs:
        indexed.add([run.sequence])
        trie.insert(run.sequence)
    distinct = indexed.distinct()
    rng = random.Random(1)
    for _ in range(60):
        seq = rng.choice(runs).sequence
        w = rng.randint(1, 6)
        a, b = seq[0], seq[w + 1]
        got = {m.path: m.freq for m in q1(trie, QueryPattern((a,), w, b))}
        assert got == indexed.matches(a, w, b)
        assert reference.scan_count(distinct, a, w, b) == len(got)


def test_continuation_enumeration_equals_q2_suggest():
    trie = Trie(TrieMode.DG)
    trie.index_graph_dg(gen_clique(4))
    for prefix in [(":r0",), (":r1", ":r3")]:
        for ahead in (1, 2, 3):
            assert q2_suggest(trie, prefix, ahead, 10**6) == reference.all_continuations(trie.root, prefix, ahead)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) == 50
    assert tail_percentile(234) == 95
    assert tail_percentile(5000) == 99
    for n in (20, 57, 234, 999):
        assert n * (100 - tail_percentile(n)) / 100 >= 10


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(100000)))
    (outer, o_start, o_end, o_parent, _), (inner, i_start, i_end, i_parent, _) = tracer.spans
    assert (outer, inner, o_parent, i_parent) == ("outer", "inner", -1, 0)
    spent = tracer.self_seconds()
    assert spent["inner"] == pytest.approx((i_end - i_start) / 1e9)
    assert spent["outer"] == pytest.approx((o_end - o_start - (i_end - i_start)) / 1e9)
