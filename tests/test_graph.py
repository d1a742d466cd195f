import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import provtrie.graph
from provtrie.canonical import sequence
from provtrie.graph import (
    CyclicInput,
    GraphKind,
    InvalidSize,
    MissingNode,
    ProvGraph,
    Role,
    SelfLoopInDag,
    gen_clique,
)

from provtrie.ingest import PROV, parse_ntriples, triples_to_graph

from helpers import has_cycle_dfs, random_dag, random_dg, reference_sequence

DATA = Path(__file__).parent / "data"


def test_add_node_construction():
    g = ProvGraph()
    g.add_node(":a")
    assert g.node_count == 1
    assert ":a" in g and g.node_ids == (":a",)


def test_add_node_idempotent():
    g = ProvGraph()
    g.add_node(":a")
    g.add_node(":b")
    g.add_edge(":a", ":b")
    g.add_node(":a")
    g.add_node(":b")  # keeps the edges of both ends
    assert g.node_count == 2
    assert (g.successors(":a"), g.in_degree(":b")) == ((":b",), 1)


def test_add_node_rejects_empty_id():
    with pytest.raises(ValueError):
        ProvGraph().add_node("")


def test_add_edge_basic_and_idempotent():
    g = ProvGraph()
    g.add_node(":a")
    g.add_node(":b")
    g.add_edge(":a", ":b")
    assert g.edge_count == 1
    g.add_edge(":a", ":b")
    assert g.edge_count == 1


def test_add_edge_missing_node():
    g = ProvGraph()
    g.add_node(":a")
    with pytest.raises(MissingNode):
        g.add_edge(":a", ":b")
    with pytest.raises(MissingNode, match="^edge endpoint ':b' is not in the graph$"):
        g.add_edge(":b", ":a")  # a missing source
    assert g.edge_count == 0


@pytest.mark.parametrize("query", [ProvGraph.successors, ProvGraph.in_degree], ids=["successors", "in_degree"])
def test_a_missing_node_has_no_successors_or_in_degree(query):
    g = ProvGraph()
    g.add_node(":a")
    with pytest.raises(MissingNode, match="^':b' is not in the graph$"):
        query(g, ":b")


def test_self_loop_rejected_in_dag_allowed_in_dg():
    g = ProvGraph(GraphKind.DAG)
    g.add_node(":a")
    with pytest.raises(SelfLoopInDag):
        g.add_edge(":a", ":a")
    d = ProvGraph(GraphKind.DG)
    d.add_node(":a")
    d.add_edge(":a", ":a")
    assert d.has_edge(":a", ":a")


def test_validate_dag_chain_true():
    g = ProvGraph()
    for rid in (":a", ":b", ":c"):
        g.add_node(rid)
    g.add_edge(":a", ":b")
    g.add_edge(":b", ":c")
    assert g.validate_dag()


def test_validate_dag_triangle_false():
    g = ProvGraph(GraphKind.DG)
    for rid in (":a", ":b", ":c"):
        g.add_node(rid)
    g.add_edge(":a", ":b")
    g.add_edge(":b", ":c")
    g.add_edge(":c", ":a")
    assert not g.validate_dag()


def test_validate_dag_clique_false():
    g = gen_clique(4)
    assert not g.validate_dag()
    assert has_cycle_dfs(g)  # independent back-edge check agrees


@pytest.mark.parametrize("n,edges", [(2, 2), (4, 12), (8, 56)])
def test_gen_clique_sizes(n, edges):
    g = gen_clique(n)
    assert g.node_count == n
    assert g.edge_count == edges
    assert g.kind is GraphKind.DG


def test_gen_clique_completeness_scan():
    g = gen_clique(5)
    ids = g.node_ids
    assert ids == tuple(f":r{i}" for i in range(5))
    assert g.infer_roles() == dict.fromkeys(ids, Role.PROCESS)
    for u in ids:
        for v in ids:
            assert g.has_edge(u, v) == (u != v)


def test_gen_clique_invalid_size():
    with pytest.raises(InvalidSize):
        gen_clique(1)


def test_infer_roles_chain():
    g = ProvGraph()
    for rid in (":a", ":p", ":o"):
        g.add_node(rid)
    g.add_edge(":a", ":p")
    g.add_edge(":p", ":o")
    assert g.infer_roles() == {":a": Role.INPUT, ":p": Role.PROCESS, ":o": Role.OUTPUT}


def test_infer_roles_isolated_node_is_input():
    g = ProvGraph()
    g.add_node(":lonely")
    assert g.infer_roles() == {":lonely": Role.INPUT}


def test_infer_roles_diamond():
    g = ProvGraph()
    for rid in (":i", ":p1", ":p2", ":o"):
        g.add_node(rid)
    for src, dst in ((":i", ":p1"), (":i", ":p2"), (":p1", ":o"), (":p2", ":o")):
        g.add_edge(src, dst)
    assert g.infer_roles() == {":i": Role.INPUT, ":p1": Role.PROCESS, ":p2": Role.PROCESS, ":o": Role.OUTPUT}


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_validate_dag_matches_back_edge_oracle(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    assert g.validate_dag() and not has_cycle_dfs(g)
    ids = g.node_ids
    if len(ids) >= 2:
        # close a random reachable pair backwards; if that makes a cycle,
        # both detectors must agree it does
        u, v = rng.sample(list(ids), 2)
        h = ProvGraph(GraphKind.DG)
        for rid in ids:
            h.add_node(rid)
        for src, dst in g.edges():
            h.add_edge(src, dst)
        h.add_edge(u, v)
        assert h.validate_dag() == (not has_cycle_dfs(h))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_construction_replay_is_identity(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    h = ProvGraph(GraphKind.DAG)
    for rid in g.node_ids:
        h.add_node(rid)
    for src, dst in g.edges():
        h.add_edge(src, dst)
    # replaying every call a second time changes nothing
    for rid in g.node_ids:
        h.add_node(rid)
    for src, dst in g.edges():
        h.add_edge(src, dst)
    assert h == g
    # __eq__ ignores in-degrees, so a double count on a repeated edge must
    # show here: each node's count is its number of distinct predecessors
    for v in h.node_ids:
        assert h.in_degree(v) == sum(h.has_edge(u, v) for u in h.node_ids)


def _chain(kind=GraphKind.DAG):
    g = ProvGraph(kind)
    for rid in (":a", ":b", ":c"):
        g.add_node(rid)
    g.add_edge(":a", ":b")
    g.add_edge(":b", ":c")
    return g


def test_an_edge_that_closes_a_cycle_clears_the_stored_order():
    g = _chain()
    assert sequence(g).items == (":a", ":b", ":c")
    g.add_edge(":c", ":a")
    with pytest.raises(CyclicInput):
        sequence(g)
    assert not g.validate_dag()


def test_a_node_added_after_sequence_appears_in_the_next_order():
    g = _chain()
    assert sequence(g).items == (":a", ":b", ":c")
    g.add_node(":0")
    assert sequence(g).items == (":0", ":a", ":b", ":c")
    g.add_edge(":c", ":0")
    assert sequence(g).items == (":a", ":b", ":c", ":0")


def test_repeated_construction_calls_keep_the_stored_order():
    g = _chain()
    order = sequence(g).items
    g.add_node(":b")
    g.add_edge(":a", ":b")
    assert g._order is order


def test_add_edges_clears_the_stored_order_only_when_it_adds():
    g = _chain()
    order = sequence(g).items
    g.add_edges([(":a", ":b"), (":b", ":c")])
    assert g._order is order
    g.add_edges(iter([(":b", ":c"), (":c", ":0")]))
    assert sequence(g).items == (":a", ":b", ":c", ":0")
    g.add_edges([(":0", ":a")])
    assert not g.validate_dag()
    assert g.edge_count == 4


def _random_run_ntriples(seed):
    g = random_dag(random.Random(seed), max_nodes=30, p=0.2)
    # wasDerivedFrom points from the derived resource back to its source
    return "".join(f"<{dst}> <{PROV}wasDerivedFrom> <{src}> .\n" for src, dst in g.edges())


@pytest.mark.parametrize(
    "text",
    [(DATA / f"trace{i}.nt").read_text(encoding="utf-8") for i in (1, 2, 3, 4)]
    + [_random_run_ntriples(seed) for seed in (1, 2, 3)],
    ids=["trace1", "trace2", "trace3", "trace4", "random1", "random2", "random3"],
)
def test_a_dag_run_is_linearized_by_one_kahn_pass(text, monkeypatch):
    pops = []
    heappop = provtrie.graph.heappop

    def counted(heap):
        pops.append(1)
        return heappop(heap)

    monkeypatch.setattr(provtrie.graph, "heappop", counted)
    g = triples_to_graph(parse_ntriples(text).triples)
    seq = sequence(g)
    assert g.node_count > 1
    assert len(pops) == g.node_count == len(seq)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_sequence_matches_the_reference_kahn_on_larger_dags(seed):
    g = random_dag(random.Random(seed), max_nodes=60)
    assert sequence(g).items == reference_sequence(g)
    assert g.validate_dag()


@given(seed=st.integers(0, 10_000), max_nodes=st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_validate_dag_agrees_with_the_back_edge_oracle_on_random_digraphs(seed, max_nodes):
    g = random_dg(random.Random(seed), max_nodes=max_nodes)
    cyclic = has_cycle_dfs(g)
    assert g.validate_dag() == (not cyclic)
    reference = reference_sequence(g)
    assert (reference is None) == cyclic
    if cyclic:
        with pytest.raises(CyclicInput):
            sequence(g)
    else:
        assert sequence(g).items == reference


@given(seed=st.integers(0, 10_000), acyclic=st.booleans())
@settings(max_examples=150, deadline=None)
def test_inferred_roles_match_the_roles_derived_from_edges(seed, acyclic):
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=60) if acyclic else random_dg(rng, max_nodes=30)
    edges = list(g.edges())
    has_pred = {dst for _, dst in edges}
    has_succ = {src for src, _ in edges}
    roles = g.infer_roles()
    assert sorted(roles) == list(g.node_ids)
    for rid in g.node_ids:
        expected = Role.INPUT if rid not in has_pred else Role.OUTPUT if rid not in has_succ else Role.PROCESS
        assert roles[rid] is expected


@given(seed=st.integers(0, 10_000), acyclic=st.booleans())
@settings(max_examples=100, deadline=None)
def test_infer_roles_leaves_the_graph_unchanged(seed, acyclic):
    build = random_dag if acyclic else random_dg
    g, before = build(random.Random(seed)), build(random.Random(seed))
    g.validate_dag()  # fills the stored order of an acyclic graph
    order = g._order
    g.infer_roles()
    assert g == before
    assert (g._indeg, g.edge_count) == (before._indeg, before.edge_count)
    assert g._order is order
