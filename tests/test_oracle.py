import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.graph import GraphKind, MissingNode, ProvGraph, gen_clique
from provtrie.oracle import (
    TooLarge,
    all_pairs_clique_count,
    clique_walk_count,
    count_walks,
    enumerate_walks,
    iter_topological_orders,
)

from helpers import random_dg


def _graph(nodes, edges, kind=GraphKind.DAG):
    g = ProvGraph(kind)
    for rid in nodes:
        g.add_node(rid)
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


def test_enumerate_walks_k4_two_steps():
    walks = enumerate_walks(gen_clique(4), ":r0", ":r1", 2)
    assert set(walks) == {(":r0", ":r2", ":r1"), (":r0", ":r3", ":r1")}
    assert all(len(walk) == 3 for walk in walks)  # 2 edges, 3 identifiers


def test_enumerate_walks_k4_seven_steps_count():
    assert len(enumerate_walks(gen_clique(4), ":r0", ":r1", 7)) == 547


def test_enumerate_walks_chain_with_shortcut():
    g = _graph([":a", ":b", ":c"], [(":a", ":b"), (":b", ":c"), (":a", ":c")])
    assert enumerate_walks(g, ":a", ":c", 2) == ((":a", ":b", ":c"),)


def test_enumerate_walks_lexicographic_order():
    walks = enumerate_walks(gen_clique(4), ":r0", ":r1", 3)
    assert list(walks) == sorted(walks)


def test_enumerate_walks_missing_node():
    with pytest.raises(MissingNode):
        enumerate_walks(gen_clique(3), ":r0", ":nope", 2)


@pytest.mark.parametrize("walker", [count_walks, enumerate_walks])
def test_walkers_refuse_a_start_outside_the_graph(walker):
    with pytest.raises(MissingNode, match="^walk start ':nope' is not in the graph$"):
        walker(gen_clique(3), ":nope", ":r1", 2)


def test_enumerate_walks_rejects_zero_length():
    with pytest.raises(ValueError):
        enumerate_walks(gen_clique(3), ":r0", ":r1", 0)


def test_walks_are_edge_paths():
    g = gen_clique(5)
    for walk in enumerate_walks(g, ":r0", ":r1", 4):
        assert len(walk) == 5
        for u, v in zip(walk, walk[1:]):
            assert g.has_edge(u, v)


@pytest.mark.parametrize(
    "n,m,expected",
    [(8, 2, 6), (8, 7, 102943), (4, 1, 1), (2, 1, 1), (2, 2, 0), (4, 7, 547)],
)
def test_clique_walk_count_known_values(n, m, expected):
    assert clique_walk_count(n, m) == expected


def test_clique_walk_count_large_values_exact():
    assert clique_walk_count(8, 10) == 35309406
    # arbitrary precision: no wraparound far past 32-bit range
    assert clique_walk_count(8, 30) == ((7**30) - 1) // 8


def test_clique_walk_count_rejects_bad_sizes():
    with pytest.raises(ValueError):
        clique_walk_count(1, 3)
    with pytest.raises(ValueError):
        clique_walk_count(4, 0)


def test_all_pairs_clique_count_values():
    assert all_pairs_clique_count(4, 7) == 6 * 547  # 3282
    assert all_pairs_clique_count(2, 1) == 1
    assert all_pairs_clique_count(8, 3) == 28 * 43  # 1204


@given(n=st.integers(2, 5), m=st.integers(1, 5))
@settings(deadline=None)
def test_formula_matches_enumeration(n, m):
    g = gen_clique(n)
    expected = clique_walk_count(n, m)
    assert len(enumerate_walks(g, ":r0", ":r1", m)) == expected
    assert count_walks(g, ":r0", ":r1", m) == expected


def test_pair_independence_on_k5():
    g = gen_clique(5)
    counts = {
        (u, v): count_walks(g, u, v, 4)
        for u, v in itertools.permutations(g.node_ids, 2)
    }
    assert len(set(counts.values())) == 1


@given(seed=st.integers(0, 5_000), m=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_count_walks_matches_enumeration_on_random_graphs(seed, m):
    rng = random.Random(seed)
    g = random_dg(rng, max_nodes=6)
    ids = g.node_ids
    start, end = ids[0], ids[-1]
    assert count_walks(g, start, end, m) == len(enumerate_walks(g, start, end, m))


def test_topological_orders_chain():
    g = _graph([":a", ":b", ":c"], [(":a", ":b"), (":b", ":c")])
    assert list(iter_topological_orders(g)) == [(":a", ":b", ":c")]


def test_topological_orders_two_isolated():
    g = _graph([":a", ":b"], [])
    assert list(iter_topological_orders(g)) == [(":a", ":b"), (":b", ":a")]


def test_topological_orders_diamond():
    g = _graph(
        [":i", ":p1", ":p2", ":o"],
        [(":i", ":p1"), (":i", ":p2"), (":p1", ":o"), (":p2", ":o")],
    )
    assert list(iter_topological_orders(g)) == [
        (":i", ":p1", ":p2", ":o"),
        (":i", ":p2", ":p1", ":o"),
    ]


def test_topological_orders_size_guard():
    g = _graph([f":n{i}" for i in range(11)], [])
    with pytest.raises(TooLarge):
        list(iter_topological_orders(g))


def test_topological_orders_count_for_antichain():
    g = _graph([":a", ":b", ":c", ":d"], [])
    orders = list(iter_topological_orders(g))
    assert len(orders) == 24
    assert len(set(orders)) == 24
