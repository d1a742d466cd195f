import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.graph import GraphKind, ProvGraph, gen_clique
from provtrie.oracle import enumerate_walks
from provtrie.query import QueryPattern, count_paths
from provtrie.trie import CorruptDocument, CycleEdge, EmptySequence, Trie, TrieMode, TrieModeError, TrieNode

from helpers import (
    all_node_freqs,
    insert_all,
    insert_based_index_graph_dg,
    random_dag,
    random_dg,
    walk_conservation_report,
    walk_up_check_invariants,
)

FIGURE_SEQUENCES = [
    ["N1", "N2", "N1"],
    ["N1", "N2", "N3"],
    ["N1", "N3"],
    ["N1", "N4"],
    ["N5"],
]

symbols = st.sampled_from(["a", "b", "c", "d", "e"])
sequences = st.lists(symbols, min_size=1, max_size=6)
corpora = st.lists(sequences, min_size=1, max_size=10)


def test_dag_insert_reference_structure():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    assert t.node_count == 7
    assert t.sequence_count == 5
    assert t.root.freq == 5

    level1 = {rid: node.freq for rid, node in t.root.children.items()}
    assert level1 == {"N1": 4, "N5": 1}

    n1 = t.root.children["N1"]
    assert {rid: node.freq for rid, node in n1.children.items()} == {"N2": 2, "N3": 1, "N4": 1}

    n2 = n1.children["N2"]
    assert {rid: node.freq for rid, node in n2.children.items()} == {"N1": 1, "N3": 1}

    # endings: one sequence stops at each leaf
    assert n2.children["N1"].terminal_count == 1
    assert n2.children["N3"].terminal_count == 1
    assert n1.children["N3"].terminal_count == 1
    assert n1.children["N4"].terminal_count == 1
    assert t.root.children["N5"].terminal_count == 1
    t.check_invariants()


def test_dag_insert_repeated_sequence():
    t = Trie(TrieMode.DAG)
    t.insert(["a"])
    t.insert(["a"])
    node = t.root.children["a"]
    assert node.freq == 2
    assert node.prob == 1.0
    assert node.terminal_count == 2


def test_dag_insert_sibling_probabilities():
    t = insert_all(TrieMode.DAG, [["a", "b"], ["a", "c"]])
    a = t.root.children["a"]
    assert a.freq == 2
    assert a.children["b"].prob == 0.5
    assert a.children["c"].prob == 0.5


def test_insert_rejects_empty_sequence():
    with pytest.raises(EmptySequence):
        Trie(TrieMode.DAG).insert([])
    with pytest.raises(EmptySequence):
        Trie(TrieMode.DG).insert_dg([])


def test_insert_mode_checks():
    with pytest.raises(TrieModeError):
        Trie(TrieMode.DG).insert(["a"])
    with pytest.raises(TrieModeError):
        Trie(TrieMode.DAG).insert_dg(["a"])
    with pytest.raises(TrieModeError):
        Trie(TrieMode.DAG).index_graph_dg(gen_clique(2))


def test_dg_insert_folds_repeat_into_cycle_edge():
    t = Trie(TrieMode.DG)
    t.insert_dg(["N1", "N2", "N1"])
    assert t.node_count == 2  # no second N1 node
    n1 = t.root.children["N1"]
    n2 = n1.children["N2"]
    assert [target.id for target in n2.cycle_edges] == ["N1"]
    assert n2.cycles["N1"].target is n1
    assert n1.freq == 2  # one descent, one cycle arrival
    assert n1.terminal_count == 1  # the sequence ends back on N1
    t.check_invariants()


def test_dg_insert_without_repeats_matches_dag_shape():
    corpus = [["a", "b", "c"], ["a", "c"], ["b"]]
    dag = insert_all(TrieMode.DAG, corpus)
    dg = insert_all(TrieMode.DG, corpus)
    assert all_node_freqs(dag) == all_node_freqs(dg)
    assert all(not node.cycles for node in dg.iter_nodes())


def test_dg_cycle_edges_recorded_once_with_counts():
    t = Trie(TrieMode.DG)
    t.insert_dg(["a", "b", "a"])
    t.insert_dg(["a", "b", "a"])
    b = t.root.children["a"].children["b"]
    assert len(b.cycles) == 1
    assert b.cycles["a"].count == 2
    t.check_invariants()


def test_dg_self_reference():
    t = Trie(TrieMode.DG)
    t.insert_dg(["a", "a", "a"])
    a = t.root.children["a"]
    assert t.node_count == 1
    assert a.cycles["a"].target is a
    assert a.cycles["a"].count == 2
    t.check_invariants()


def test_index_graph_dg_single_edge():
    g = ProvGraph(GraphKind.DG)
    g.add_node(":a")
    g.add_node(":b")
    g.add_edge(":a", ":b")
    t = Trie(TrieMode.DG)
    t.index_graph_dg(g)
    assert count_paths(t, QueryPattern((":a",), 0, ":b")) == 1
    assert count_paths(t, QueryPattern((":a",), 1, ":b")) == 0


def test_index_graph_dg_triangle_walks_match_oracle():
    g = ProvGraph(GraphKind.DG)
    for rid in (":a", ":b", ":c"):
        g.add_node(rid)
    g.add_edge(":a", ":b")
    g.add_edge(":b", ":c")
    g.add_edge(":c", ":a")
    t = Trie(TrieMode.DG)
    t.index_graph_dg(g)
    t.check_invariants()
    from provtrie.query import q1

    for start in (":a", ":b", ":c"):
        for end in (":a", ":b", ":c"):
            for m in range(1, 7):
                got = {match.path for match in q1(t, QueryPattern((start,), m - 1, end))}
                want = set(enumerate_walks(g, start, end, m).walks)
                assert got == want


def test_index_graph_dg_k4_wildcard_count():
    t = Trie(TrieMode.DG)
    t.index_graph_dg(gen_clique(4))
    assert count_paths(t, QueryPattern((":r0",), 2, ":r1")) == 7


def test_index_graph_dg_edge_projection_equals_graph():
    rng = random.Random(7)
    for _ in range(10):
        g = random_dg(rng, max_nodes=6)
        t = Trie(TrieMode.DG)
        t.index_graph_dg(g)
        projected = set()
        for node in t.iter_nodes():
            if node.id is None:
                continue
            for child in node.children.values():
                projected.add((node.id, child.id))
            for edge in node.cycles.values():
                projected.add((node.id, edge.target.id))
        assert projected == set(g.edge_set())


def test_one_pass_dg_builder_equals_insert_based_reference():
    rng = random.Random(0xD6)
    names = [f"urn:n{i:02d}" for i in range(8)]  # the generators' identifiers
    for case in range(300):
        graphs = [random_dg(rng) if rng.random() < 0.7 else random_dag(rng) for _ in range(rng.randint(1, 3))]
        prefill = [[rng.choice(names) for _ in range(rng.randint(1, 6))] for _ in range(rng.choice([0, 0, 3]))]
        built, reference = Trie(TrieMode.DG), Trie(TrieMode.DG)
        for seq in prefill:
            built.insert_dg(seq)
            reference.insert_dg(seq)
        for g in graphs:
            built.index_graph_dg(g)
            insert_based_index_graph_dg(reference, g)
        built.check_invariants()
        assert built.to_document() == reference.to_document(), case
    for size in range(2, 8):
        built, reference = Trie(TrieMode.DG), Trie(TrieMode.DG)
        built.index_graph_dg(gen_clique(size))
        insert_based_index_graph_dg(reference, gen_clique(size))
        assert built.to_document() == reference.to_document(), size


def test_dg_builder_has_no_depth_limit():
    n = 300
    g = ProvGraph(GraphKind.DG)
    for i in range(n):
        g.add_node(f"urn:c{i:03d}")
    for i in range(n - 1):
        g.add_edge(f"urn:c{i:03d}", f"urn:c{i + 1:03d}")
    t = Trie(TrieMode.DG)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    # lowered only: a builder that recurses once per step cannot finish
    sys.setrecursionlimit(min(limit, depth + 100))
    try:
        t.index_graph_dg(g)
    finally:
        sys.setrecursionlimit(limit)
    assert t.node_count == n * (n + 1) // 2 == 45_150
    assert t.sequence_count == n
    t.check_invariants()


def test_reinserting_known_sequence_adds_no_nodes():
    t = insert_all(TrieMode.DAG, [["a", "b", "c"]])
    before = t.node_count
    t.insert(["a", "b", "c"])
    assert t.node_count == before


def test_node_count_bounded_by_symbols_inserted():
    corpus = [["a", "b"], ["a", "b", "c"], ["a", "d"]]
    t = insert_all(TrieMode.DAG, corpus)
    assert t.node_count <= sum(len(s) for s in corpus)


@given(corpus=corpora)
@settings(max_examples=60, deadline=None)
def test_conservation_after_every_dag_insertion(corpus):
    t = Trie(TrieMode.DAG)
    for seq in corpus:
        t.insert(seq)
        assert walk_conservation_report(t) == []
        t.check_invariants()


@given(corpus=corpora)
@settings(max_examples=60, deadline=None)
def test_conservation_after_every_dg_insertion(corpus):
    t = Trie(TrieMode.DG)
    for seq in corpus:
        t.insert_dg(seq)
        assert walk_conservation_report(t) == []
        t.check_invariants()


@given(corpus=corpora, seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_insertion_order_does_not_change_statistics(corpus, seed):
    shuffled = list(corpus)
    random.Random(seed).shuffle(shuffled)
    for mode in (TrieMode.DAG, TrieMode.DG):
        assert (
            insert_all(mode, corpus).to_document()
            == insert_all(mode, shuffled).to_document()
        )


@given(corpus=corpora, extra=sequences)
@settings(max_examples=50, deadline=None)
def test_incremental_insert_locality(corpus, extra):
    for mode in (TrieMode.DAG, TrieMode.DG):
        t = insert_all(mode, corpus)
        before = all_node_freqs(t)
        (t.insert if mode is TrieMode.DAG else t.insert_dg)(extra)
        after = all_node_freqs(t)
        changed = [
            path
            for path in after
            if before.get(path) != after[path]
        ]
        # no statistic ever decreases
        for path, (freq, entry, terminal) in after.items():
            if path in before:
                old_freq, old_entry, old_terminal = before[path]
                assert freq >= old_freq and entry >= old_entry and terminal >= old_terminal
        if mode is TrieMode.DAG:
            # DAG insertion walks one root path: touched nodes form a chain
            deepest = max(changed, key=len)
            assert all(deepest[: len(path)] == path for path in changed)
        else:
            # a DG insertion may cycle up and descend again, but can only
            # touch nodes whose ancestors it touched too
            changed_set = set(changed)
            assert all(path[:-1] in changed_set or len(path) == 0 for path in changed)


def test_depth_stats_track_cycle_arrivals():
    t = Trie(TrieMode.DG)
    t.insert_dg(["a", "b", "a"])
    assert t.depth_stats.at(1) == {"a": 2}
    assert t.depth_stats.at(2) == {"b": 1}


@given(corpus=corpora)
@settings(max_examples=50, deadline=None)
def test_dag_depth_totals_count_long_enough_sequences(corpus):
    t = insert_all(TrieMode.DAG, corpus)
    for depth in t.depth_stats.depths():
        shorter = sum(1 for seq in corpus if len(seq) < depth)
        assert t.depth_stats.total(depth) == t.root.freq - shorter


def test_check_invariants_rejects_a_repeated_dg_identifier():
    t = insert_all(TrieMode.DG, [["a", "b"]])
    b = t.root.children["a"].children["b"]
    # a child of b labelled like its grandparent; every statistic balances
    repeat = TrieNode("a", b.depth + 1, b)
    b.children["a"] = repeat
    repeat.freq = repeat.entry_count = repeat.terminal_count = 1
    b.terminal_count = 0
    t.depth_stats.bump(repeat.depth, "a")
    walk_up_check_invariants(t)  # the reference has no such rule
    with pytest.raises(CorruptDocument, match="repeats on the root path"):
        t.check_invariants()


def _dag_walks(rng: random.Random, g: ProvGraph, count: int) -> list[list[str]]:
    walks = []
    for _ in range(count):
        walk = [rng.choice(g.node_ids)]
        while g.successors(walk[-1]) and rng.random() < 0.8:
            walk.append(rng.choice(g.successors(walk[-1])))
        walks.append(walk)
    return walks


def _tamper(trie: Trie, how: str, rng: random.Random) -> bool:
    """Damage ``trie`` in memory; False when it has nothing to damage that way."""
    nodes = list(trie.iter_nodes())
    inner = nodes[1:]
    sources = [node for node in nodes if node.cycles]
    if how == "bump a freq":
        rng.choice(nodes).freq += 1
    elif how == "retarget a cycle-edge to a non-ancestor":
        if not sources:
            return False
        node = rng.choice(sources)
        edge = node.cycles[rng.choice(sorted(node.cycles))]
        # a node with the edge's label elsewhere in the trie, so that only the ancestor test can fail
        elsewhere = [other for other in inner if other.id == edge.target.id and other is not edge.target]
        edge.target = rng.choice(elsewhere or inner)
    elif how == "break a depth":
        if not inner:
            return False
        rng.choice(inner).depth += rng.choice([-1, 1])
    elif how == "repoint a parent":
        if not inner:
            return False
        node = rng.choice(inner)
        node.parent = rng.choice([other for other in nodes if other is not node.parent])
    elif how == "add a cycle-edge in DAG mode":
        if trie.mode is not TrieMode.DAG or not inner:
            return False
        node = rng.choice(inner)
        node.cycles[node.id] = CycleEdge(node, 1)  # type: ignore[index]
        node.terminal_count -= 1
        node.freq += 1
    elif how == "zero an edge count":
        if not sources:
            return False
        node = rng.choice(sources)
        edge = node.cycles[rng.choice(sorted(node.cycles))]
        node.terminal_count += edge.count  # conservation still holds
        edge.count = 0
    elif how == "hand-bump depth_stats":
        if not inner:
            return False
        node = rng.choice(inner)
        trie.depth_stats.bump(node.depth, node.id, rng.choice([-1, 1]))  # type: ignore[arg-type]
    elif how == "repeat an ancestor's identifier":
        # a leaf without cycle-edges has none coming in either
        leaves = [node for node in inner if node.depth >= 2 and not node.children and not node.cycles]
        if trie.mode is not TrieMode.DG or not leaves:
            return False
        node = rng.choice(leaves)
        parent = ancestor = node.parent
        while ancestor.parent.parent is not None and rng.random() < 0.5:
            ancestor = ancestor.parent
        level = trie.depth_stats.per_depth[node.depth]
        level[node.id] -= node.freq
        if not level[node.id]:
            del level[node.id]
        del parent.children[node.id]
        node.id = ancestor.id
        parent.children[node.id] = node
        trie.depth_stats.bump(node.depth, node.id, node.freq)
    else:  # pragma: no cover
        raise AssertionError(how)
    return True


TAMPERINGS = [
    "bump a freq",
    "retarget a cycle-edge to a non-ancestor",
    "break a depth",
    "repoint a parent",
    "add a cycle-edge in DAG mode",
    "zero an edge count",
    "hand-bump depth_stats",
    "repeat an ancestor's identifier",
]


def test_one_walk_checker_agrees_with_the_walk_up_reference():
    rng = random.Random(0xC3)
    documents = []
    for _ in range(40):
        for g in (random_dg(rng), random_dag(rng)):
            t = Trie(TrieMode.DG)
            t.index_graph_dg(g)
            documents.append(t.to_document())
        documents.append(insert_all(TrieMode.DAG, _dag_walks(rng, random_dag(rng), 12)).to_document())
    for size in range(2, 7):
        t = Trie(TrieMode.DG)
        t.index_graph_dg(gen_clique(size))
        documents.append(t.to_document())
    outcomes = {how: set() for how in TAMPERINGS}
    for doc in documents:
        clean = Trie.from_document(doc)
        walk_up_check_invariants(clean)
        clean.check_invariants()
        for how in TAMPERINGS:
            for _ in range(2):
                trie = Trie.from_document(doc)
                if not _tamper(trie, how, rng):
                    continue
                try:
                    walk_up_check_invariants(trie)
                    reference = "pass"
                except CorruptDocument:
                    reference = "raise"
                try:
                    trie.check_invariants()
                    one_walk = "pass"
                except CorruptDocument as exc:
                    one_walk = "repeat" if "repeats on the root path" in str(exc) else "raise"
                if one_walk == "repeat" and reference == "pass":
                    assert trie.mode is TrieMode.DG
                else:
                    assert one_walk == reference, (how, doc)
                outcomes[how].add((reference, one_walk))
    # every tampering was applied and caught; only the new rule tells the two apart
    assert all(("raise", "raise") in seen or ("raise", "repeat") in seen for seen in outcomes.values()), outcomes
    assert ("pass", "repeat") in outcomes["repeat an ancestor's identifier"]
