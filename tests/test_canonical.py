import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.canonical import CanonicalSequence, ngrams, sequence
from provtrie.graph import CyclicInput, GraphKind, ProvGraph
from provtrie.oracle import iter_topological_orders

from helpers import random_dag


def _graph(nodes, edges, kind=GraphKind.DAG):
    g = ProvGraph(kind)
    for rid in nodes:
        g.add_node(rid)
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


def test_sequence_two_inputs_one_process_one_output():
    # both inputs precede the process; input order falls back to identifier order
    g = _graph(
        ["r_i1", "r_i2", "r_p1", "r_o1"],
        [("r_i1", "r_p1"), ("r_i2", "r_p1"), ("r_p1", "r_o1")],
    )
    assert sequence(g).items == ("r_i1", "r_i2", "r_p1", "r_o1")


def test_sequence_single_node():
    g = _graph([":a"], [])
    assert sequence(g).items == (":a",)


def test_sequence_empty_graph():
    assert sequence(ProvGraph()).items == ()


def test_sequence_cyclic_input():
    g = _graph([":a", ":b"], [(":a", ":b"), (":b", ":a")], kind=GraphKind.DG)
    with pytest.raises(CyclicInput):
        sequence(g)


def test_sequence_carries_source():
    g = _graph([":a"], [])
    assert sequence(g, source="trace-1").source == "trace-1"


def test_sequence_matches_enumeration_minimum_on_fixed_random_dag():
    rng = random.Random(20260810)
    g = random_dag(rng, max_nodes=10, p=0.35)
    got = sequence(g).items
    assert got == min(iter_topological_orders(g))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sequence_is_lexicographic_minimum_extension(seed):
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=7)
    assert sequence(g).items == min(iter_topological_orders(g))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sequence_invariant_under_insertion_order(seed):
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=12)
    nodes = list(g.node_ids)
    edges = list(g.edges())
    baseline = sequence(g).items
    for _ in range(3):
        rng.shuffle(nodes)
        rng.shuffle(edges)
        h = ProvGraph(GraphKind.DAG)
        for rid in nodes:
            h.add_node(rid)
        for src, dst in edges:
            h.add_edge(src, dst)
        assert sequence(h).items == baseline


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_sequence_is_linear_extension(seed):
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=12)
    order = sequence(g).items
    assert sorted(order) == list(g.node_ids)
    position = {rid: i for i, rid in enumerate(order)}
    for src, dst in g.edges():
        assert position[src] < position[dst]


def test_ngrams_three_of_four():
    win = ngrams(["ri1", "ri2", "ri3", "ri4"], 3)
    assert win.windows == (("ri1", "ri2", "ri3"), ("ri2", "ri3", "ri4"))


def test_ngrams_single_symbol():
    assert ngrams(["a"], 1).windows == (("a",),)


def test_ngrams_window_positions():
    items = [f"s{i}" for i in range(7)]
    win = ngrams(items, 4)
    assert len(win.windows) == 4
    for i, window in enumerate(win.windows):
        assert len(window) == 4
        assert window == tuple(items[i : i + 4])


def test_ngrams_short_sequence_indexed_whole():
    assert ngrams(["a", "b"], 5).windows == (("a", "b"),)


def test_ngrams_empty_sequence():
    assert ngrams([], 3).windows == ()


def test_ngrams_accepts_canonical_sequence():
    seq = CanonicalSequence(("a", "b", "c"))
    assert ngrams(seq, 2).windows == (("a", "b"), ("b", "c"))


def test_ngrams_rejects_zero_window():
    with pytest.raises(ValueError):
        ngrams(["a"], 0)


@given(
    items=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
    n=st.integers(1, 14),
)
def test_ngrams_window_count(items, n):
    win = ngrams(items, n)
    assert len(win.windows) == max(1, len(items) - n + 1)


def test_disconnected_components_interleave_lexicographically():
    g = _graph(
        [":a1", ":a2", ":b1", ":b2"],
        [(":a1", ":b2"), (":a2", ":b1")],
    )
    # global frontier rule: both sources first in identifier order
    assert sequence(g).items == (":a1", ":a2", ":b1", ":b2")


def test_two_graphs_can_share_a_sequence():
    g1 = _graph([":a", ":b", ":c"], [(":a", ":b"), (":b", ":c")])
    g2 = _graph([":a", ":b", ":c"], [(":a", ":b"), (":b", ":c"), (":a", ":c")])
    assert sequence(g1).items == sequence(g2).items


def test_all_permutations_of_small_graph_inputs_agree():
    nodes = [":n1", ":n2", ":n3", ":n4"]
    edges = [(":n1", ":n3"), (":n2", ":n3"), (":n3", ":n4")]
    results = set()
    for node_order in itertools.permutations(nodes):
        for edge_order in itertools.permutations(edges):
            g = _graph(node_order, edge_order)
            results.add(sequence(g).items)
    assert results == {(":n1", ":n2", ":n3", ":n4")}
