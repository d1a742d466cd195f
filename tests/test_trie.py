import copy
import io
import json
import random
import sys
from typing import Any, Callable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.graph import GraphKind, ProvGraph, gen_clique
from provtrie.oracle import enumerate_walks
from provtrie.query import QueryPattern, count_paths
from provtrie.trie import CorruptDocument, EmptySequence, FrozenTrie, Trie, TrieMode, TrieModeError, load, save

from helpers import (
    CycleEdge,
    ObjectNode,
    ObjectTrie,
    all_node_freqs,
    cycle_edges,
    expand_degrees,
    format2_document,
    insert_all,
    insert_based_index_graph_dg,
    iter_nodes,
    node_count,
    parent_column,
    prob,
    random_dag,
    random_dg,
    reference_per_depth,
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
    assert node_count(t) == 7
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
    assert prob(node) == 1.0
    assert node.terminal_count == 2


def test_dag_insert_sibling_probabilities():
    t = insert_all(TrieMode.DAG, [["a", "b"], ["a", "c"]])
    a = t.root.children["a"]
    assert a.freq == 2
    assert prob(a.children["b"]) == 0.5
    assert prob(a.children["c"]) == 0.5


def test_insert_rejects_empty_sequence():
    with pytest.raises(EmptySequence):
        Trie(TrieMode.DAG).insert([])
    with pytest.raises(EmptySequence):
        Trie(TrieMode.DG).insert_dg([])


@pytest.mark.parametrize("mode", [TrieMode.DAG, TrieMode.DG])
@pytest.mark.parametrize("seq", [[""], [None], [1], ["a", ""], ["a", "b", 1]], ids=repr)
def test_insert_refuses_identifiers_that_load_refuses(mode, seq):
    t = insert_all(mode, [["a", "b", "a"], ["a", "c"]])
    before, stats = t.to_document(), copy.deepcopy(t.depth_stats)
    add = t.insert if mode is TrieMode.DAG else t.insert_dg
    with pytest.raises(ValueError, match="resource identifier must be a nonempty string"):
        add(seq)
    assert t.to_document() == before and t.depth_stats == stats
    t.check_invariants()


@pytest.mark.parametrize("mode", [TrieMode.DAG, TrieMode.DG])
@pytest.mark.parametrize("seq", ["urn:a", "abab"])
def test_insert_refuses_one_string_for_a_sequence(mode, seq):
    # list() of a string is its characters: five nodes u, r, n, :, a for "urn:a"
    t = insert_all(mode, [["a", "b", "a"], ["a", "c"]])
    before, stats = t.to_document(), copy.deepcopy(t.depth_stats)
    add = t.insert if mode is TrieMode.DAG else t.insert_dg
    with pytest.raises(TypeError, match="not one string"):
        add(seq)
    assert t.to_document() == before and t.depth_stats == stats
    add([seq])  # the identifier itself, as a one-element sequence
    assert t.root.children[seq].terminal_count == 1


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
    assert node_count(t) == 2  # no second N1 node
    n1 = t.root.children["N1"]
    n2 = n1.children["N2"]
    assert [target.id for target in cycle_edges(n2)] == ["N1"]
    assert n2.cycles["N1"].target is n1
    assert n1.freq == 2  # one descent, one cycle arrival
    assert n1.terminal_count == 1  # the sequence ends back on N1
    t.check_invariants()


def test_dg_insert_without_repeats_matches_dag_shape():
    corpus = [["a", "b", "c"], ["a", "c"], ["b"]]
    dag = insert_all(TrieMode.DAG, corpus)
    dg = insert_all(TrieMode.DG, corpus)
    assert all_node_freqs(dag) == all_node_freqs(dg)
    assert all(not node.cycles for node in iter_nodes(dg))


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
    assert node_count(t) == 1
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
        for node in iter_nodes(t):
            if node.id is None:
                continue
            for child in node.children.values():
                projected.add((node.id, child.id))
            for edge in node.cycles.values():
                projected.add((node.id, edge.target.id))
        assert projected == set(g.edges())


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
    assert node_count(t) == n * (n + 1) // 2 == 45_150
    assert t.sequence_count == n
    t.check_invariants()


def test_reinserting_known_sequence_adds_no_nodes():
    t = insert_all(TrieMode.DAG, [["a", "b", "c"]])
    before = node_count(t)
    t.insert(["a", "b", "c"])
    assert node_count(t) == before


def test_node_count_bounded_by_symbols_inserted():
    corpus = [["a", "b"], ["a", "b", "c"], ["a", "d"]]
    t = insert_all(TrieMode.DAG, corpus)
    assert node_count(t) <= sum(len(s) for s in corpus)


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
    assert t.depth_stats[1] == {"a": 2}
    assert t.depth_stats[2] == {"b": 1}


@given(corpus=corpora)
@settings(max_examples=50, deadline=None)
def test_dag_depth_totals_count_long_enough_sequences(corpus):
    t = insert_all(TrieMode.DAG, corpus)
    for depth in sorted(t.depth_stats):
        shorter = sum(1 for seq in corpus if len(seq) < depth)
        assert sum(t.depth_stats[depth].values()) == t.root.freq - shorter


def _dg_index(g: ProvGraph) -> Trie:
    t = Trie(TrieMode.DG)
    t.index_graph_dg(g)
    return t


recount_builds = st.one_of(
    st.randoms(use_true_random=False).map(lambda rng: _dg_index(random_dg(rng))),
    st.randoms(use_true_random=False).map(lambda rng: _dg_index(random_dag(rng))),
    st.integers(2, 6).map(lambda size: _dg_index(gen_clique(size))),
    corpora.map(lambda corpus: insert_all(TrieMode.DAG, corpus)),
    corpora.map(lambda corpus: insert_all(TrieMode.DG, corpus)),
)


@given(trie=recount_builds)
@settings(max_examples=150, deadline=None)
def test_the_checker_node_pass_recounts_the_per_depth_table(trie):
    buf = io.StringIO()
    save(trie, buf)
    buf.seek(0)
    loaded = load(buf)
    live = {d: level for d, level in trie.depth_stats.items() if level}
    for t in (trie, loaded):
        table = FrozenTrie.from_document(t.to_document()).depth_stats
        assert table == reference_per_depth(t)
        assert table == live
    assert loaded.depth_stats == live


@pytest.mark.parametrize(
    "mode, corpus", [(TrieMode.DAG, [["a", "b"], ["a"]]), (TrieMode.DG, [["a", "b", "a"]])], ids=["dag", "dg"]
)
def test_children_sharing_more_than_the_parent_freq_are_still_caught(mode, corpus):
    # descents past the parent's freq: conservation catches it, so no separate sibling rule is needed
    t = insert_all(mode, corpus)
    a = t.children[0]["a"]
    b = t.children[a]["b"]
    t.entry[b] += t.freq[a]
    t.freq[b] += t.freq[a]
    assert t.entry[b] > t.freq[a]
    with pytest.raises(CorruptDocument, match="conservation"):
        t.check_invariants()
    doc = t.to_document()
    assert doc["freq"][b - 1] > doc["freq"][a - 1]  # nodes a and b are the document's first two
    with pytest.raises(CorruptDocument):
        load(io.StringIO(json.dumps(doc)))


def test_check_invariants_rejects_a_repeated_dg_identifier():
    # a child of b labelled like its grandparent; every statistic balances
    reference = ObjectTrie(TrieMode.DG)
    reference.insert_dg(["a", "b"])
    b = reference.root.children["a"].children["b"]
    repeat = ObjectNode("a", b.depth + 1, b)
    b.children["a"] = repeat
    repeat.freq = repeat.entry_count = repeat.terminal_count = 1
    b.terminal_count = 0
    reference.depth_stats.bump(repeat.depth, "a")
    walk_up_check_invariants(reference)  # the reference has no such rule
    with pytest.raises(CorruptDocument, match="repeats on the root path"):
        reference.check_invariants()
    t = insert_all(TrieMode.DG, [["a", "b"]])
    b = t.root.children["a"].children["b"].index
    node = t._add_node(b, "a")
    t.freq[node] = t.entry[node] = t.terminal[node] = 1
    t.terminal[b] = 0
    t.depth_stats[3] = {"a": 1}
    with pytest.raises(CorruptDocument, match="repeats on the root path"):
        t.check_invariants()


def _negative_terminal() -> Trie:
    t = insert_all(TrieMode.DG, [["a", "b", "a"]])
    b = t.root.children["a"].children["b"].index
    t.terminal[b] = -1
    t.cycle_count[t.cycles[b]["a"]] += 1  # b's freq still balances: -1 + 0 + 2
    return t


def _leaf_without_traversals() -> Trie:
    t = insert_all(TrieMode.DAG, [["a", "b"], ["a", "c"]])
    a = t.root.children["a"].index
    b = t.children[a]["b"]
    t.freq[b] = t.entry[b] = t.terminal[b] = 0
    t.terminal[a] += 1  # b's one traversal now ends at a
    t.depth_stats[2]["b"] = 0
    return t


def _cycle_edge_into_the_root() -> Trie:
    t = insert_all(TrieMode.DG, [["a", "b", "a"]])
    b = t.root.children["a"].children["b"].index
    edge = t.cycles[b].pop("a")
    t.cycles[b][None] = edge  # type: ignore[index]  # the root's identifier
    t.cycle_to[edge] = 0
    return t


@pytest.mark.parametrize(
    "make, message",
    [
        (_negative_terminal, "out of range"),
        (_leaf_without_traversals, "out of range"),
        (_cycle_edge_into_the_root, "into the root"),
    ],
    ids=["negative-terminal", "leaf-without-traversals", "cycle-edge-into-the-root"],
)
def test_check_invariants_owns_the_rules_the_loader_used_to_hold(make, message):
    # every other statistic balances: only the one rule can fail
    with pytest.raises(CorruptDocument, match=message):
        make().check_invariants()


def _traversal_moved_onto_a_cycle_edge() -> Trie:
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b"]])
    b = t.root.children["a"].children["b"].index
    t.terminal[b] -= 1
    t.cycle_count[t.cycles[b]["a"]] += 1  # b still balances: 0 + 0 + 2
    return t


def _dag_entry_below_freq() -> Trie:
    t = insert_all(TrieMode.DAG, [["a", "b"]])
    a = t.root.children["a"].index
    t.entry[t.children[a]["b"]] -= 1
    t.terminal[a] += 1  # a still balances: 1 + 0 + 0
    return t


@pytest.mark.parametrize(
    "make", [_traversal_moved_onto_a_cycle_edge, _dag_entry_below_freq], ids=["dg-cycle-edge", "dag-entry"]
)
def test_check_invariants_matches_arrivals_to_the_cycle_edges_into_a_node(make):
    # every other statistic balances; the trie's own document is refused on load, so its check must fail too:
    # a document derives entry from the arrivals, so the lost descent shows as the parent's conservation
    t = make()
    with pytest.raises(CorruptDocument, match="conservation violated"):
        t.check_invariants()
    with pytest.raises(CorruptDocument):
        Trie.from_document(t.to_document())


def _builder_damage(how: str) -> Trie:
    """A DG trie damaged in the wiring that no document shows.  Its nodes:
    a 1, a/b 2 (a cycle-edge 0 back to a), a/c 3, a/c/b 4 and c 5."""
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "c", "b"], ["c"]])
    assert [t.id[child] for child in (1, 2, 3, 4, 5)] == ["a", "b", "c", "b", "c"] and t.cycle_to == [1]
    if how == "in two child maps":
        t.children[0]["b"] = 4
    elif how == "in no child map":
        del t.children[3]["b"]
    elif how == "keyed by another node's id":
        t.children[0]["b"] = t.children[0].pop("c")
    elif how == "listed under a later node":  # the breadth-first walk of to_document would never end
        t.children[3]["a"] = 1
    elif how == "listed under itself":
        t.children[4]["b"] = 4
    elif how == "cycle-edge in two maps":
        t.cycles[4]["a"] = 0
    elif how == "cycle-edge in no map":
        del t.cycles[2]["a"]
    elif how == "cycle map listing no cycle-edge":
        t.cycles[2]["a"] = len(t.cycle_to)
    elif how == "cycle map keyed by another label":
        t.cycles[2]["b"] = t.cycles[2].pop("a")
    elif how == "cycle_to of -1":  # to_document would read it as the last node
        t.cycle_to[0] = -1
    elif how == "cycle_to past the last node":
        t.cycle_to[0] = len(t.id)
    elif how == "bare entry bump":
        document = t.to_document()
        t.entry[2] += 1
        assert t.to_document() == document
    else:  # pragma: no cover
        raise AssertionError(how)
    return t


@pytest.mark.parametrize(
    "how, message",
    [
        ("in two child maps", "node 4 in 2 child maps"),
        ("in no child map", "node 4 in 0 child maps"),
        ("keyed by another node's id", "broken child link under node 0"),
        ("listed under a later node", "broken child link under node 3"),
        ("listed under itself", "broken child link under node 4"),
        ("cycle-edge in two maps", "cycle-edge 0 in 2 cycle maps"),
        ("cycle-edge in no map", "cycle-edge 0 in 0 cycle maps"),
        ("cycle map listing no cycle-edge", "cycle-edge index 1 outside the trie at node 2"),
        ("cycle map keyed by another label", "broken cycle-edge at node 2"),
        ("cycle_to of -1", "broken cycle-edge at node 2"),
        ("cycle_to past the last node", "broken cycle-edge at node 2"),
        ("bare entry bump", "cycle arrivals do not match the cycle-edges into node 2"),
    ],
)
def test_check_invariants_refuses_damage_only_a_builder_can_hold(how, message):
    # every case is refused as CorruptDocument, before to_document could hang, raise or drop a node
    with pytest.raises(CorruptDocument, match=message):
        _builder_damage(how).check_invariants()


@given(trie=recount_builds)
@settings(max_examples=150, deadline=None)
def test_the_degree_columns_expand_to_the_format_2_parents_and_sources(trie):
    doc, fixture = trie.to_document(), format2_document(trie)
    kept = fixture.keys() - {"format_version", "parent", "cycle_from"}  # format 2 held these columns too
    assert {key: doc[key] for key in kept} == {key: fixture[key] for key in kept}
    loaded = Trie.from_document(doc)
    assert parent_column(loaded)[1:] == fixture["parent"]
    sources = [-1] * len(loaded.cycle_to)
    for source, out in enumerate(loaded.cycles):
        for edge in out.values():
            sources[edge] = source
    assert sources == fixture["cycle_from"]


def test_trie_mode_is_the_graph_kind():
    assert TrieMode is GraphKind
    assert Trie(TrieMode("dg")).mode is GraphKind.DG


def _dag_walks(rng: random.Random, g: ProvGraph, count: int) -> list[list[str]]:
    walks = []
    for _ in range(count):
        walk = [rng.choice(g.node_ids)]
        while g.successors(walk[-1]) and rng.random() < 0.8:
            walk.append(rng.choice(g.successors(walk[-1])))
        walks.append(walk)
    return walks


def _tamper(trie: Trie, reference: ObjectTrie, how: str, rng: random.Random) -> bool:
    """Damage both tries the same way in memory; False when they have nothing to damage that way.

    Both were loaded from one document; ``nodes[k]`` and ``trie`` node
    ``at[k]`` are the ``k``-th node in canonical pre-order.
    """
    nodes = list(reference.iter_nodes())
    at = [view.index for view in iter_nodes(trie)]
    up = parent_column(trie)  # node -> its parent, on the column trie
    inner = range(1, len(nodes))
    sources = [k for k, node in enumerate(nodes) if node.cycles]
    if how == "bump a freq":
        i = rng.randrange(len(nodes))
        nodes[i].freq += 1
        trie.freq[at[i]] += 1
    elif how == "retarget a cycle-edge to a non-ancestor":
        if not sources:
            return False
        i = rng.choice(sources)
        label = rng.choice(sorted(nodes[i].cycles))
        edge = trie.cycles[at[i]][label]
        # a node with the edge's label elsewhere in the trie, so that only the ancestor test can fail
        elsewhere = [j for j in inner if nodes[j].id == label and at[j] != trie.cycle_to[edge]]
        j = rng.choice(elsewhere or inner)
        nodes[i].cycles[label].target = nodes[j]
        trie.cycle_to[edge] = at[j]
    elif how == "break a depth":
        if not inner:
            return False
        i, delta = rng.choice(inner), rng.choice([-1, 1])
        nodes[i].depth += delta  # the column trie stores no depth to break
    elif how == "repoint a parent":
        if not inner:
            return False
        i = rng.choice(inner)
        j = rng.choice([j for j, other in enumerate(nodes) if other is not nodes[i].parent])
        nodes[i].parent = nodes[j]
        # the column trie keeps no parent: the child moves into node j's child map
        del trie.children[up[at[i]]][trie.id[at[i]]]  # type: ignore[arg-type]
        trie.children[at[j]][trie.id[at[i]]] = at[i]  # type: ignore[index]
    elif how == "add a cycle-edge in DAG mode":
        if trie.mode is not TrieMode.DAG or not inner:
            return False
        i = rng.choice(inner)
        node = nodes[i]
        node.cycles[node.id] = CycleEdge(node, 1)  # type: ignore[index]
        node.terminal_count -= 1
        node.freq += 1
        trie.cycles[at[i]][trie.id[at[i]]] = len(trie.cycle_to)  # type: ignore[index]
        trie.cycle_to.append(at[i])
        trie.cycle_count.append(1)
        trie.terminal[at[i]] -= 1
        trie.freq[at[i]] += 1
    elif how == "zero an edge count":
        if not sources:
            return False
        i = rng.choice(sources)
        label = rng.choice(sorted(nodes[i].cycles))
        edge = nodes[i].cycles[label]
        nodes[i].terminal_count += edge.count  # conservation still holds
        edge.count = 0
        trie.terminal[at[i]] += trie.cycle_count[trie.cycles[at[i]][label]]
        trie.cycle_count[trie.cycles[at[i]][label]] = 0
    elif how == "hand-bump depth_stats":
        if not inner:
            return False
        i, delta = rng.choice(inner), rng.choice([-1, 1])
        reference.depth_stats.bump(nodes[i].depth, nodes[i].id, delta)  # type: ignore[arg-type]
        level = trie.depth_stats.setdefault(nodes[i].depth, {})
        level[trie.id[at[i]]] = level.get(trie.id[at[i]], 0) + delta  # type: ignore[index]
    elif how == "repeat an ancestor's identifier":
        # a leaf without cycle-edges has none coming in either
        leaves = [i for i in inner if nodes[i].depth >= 2 and not nodes[i].children and not nodes[i].cycles]
        if trie.mode is not TrieMode.DG or not leaves:
            return False
        i = rng.choice(leaves)
        node = nodes[i]
        parent = ancestor = node.parent
        while ancestor.parent.parent is not None and rng.random() < 0.5:
            ancestor = ancestor.parent
        level = reference.depth_stats.per_depth[node.depth]
        level[node.id] -= node.freq
        if not level[node.id]:
            del level[node.id]
        del parent.children[node.id]
        node.id = ancestor.id
        parent.children[node.id] = node
        reference.depth_stats.bump(node.depth, node.id, node.freq)
        level = trie.depth_stats[node.depth]
        level[trie.id[at[i]]] -= trie.freq[at[i]]  # type: ignore[index]
        if not level[trie.id[at[i]]]:  # type: ignore[index]
            del level[trie.id[at[i]]]  # type: ignore[arg-type]
        del trie.children[up[at[i]]][trie.id[at[i]]]  # type: ignore[arg-type]
        trie.id[at[i]] = ancestor.id
        trie.children[up[at[i]]][ancestor.id] = at[i]  # type: ignore[index]
        level = trie.depth_stats.setdefault(node.depth, {})
        level[ancestor.id] = level.get(ancestor.id, 0) + trie.freq[at[i]]  # type: ignore[index]
    elif how == "zero a leaf's freq":
        # a leaf without cycle-edges has none coming in either: its freq is its terminal count
        leaves = [i for i in inner if not nodes[i].children and not nodes[i].cycles]
        if not leaves:
            return False
        i = rng.choice(leaves)
        node, taken = nodes[i], nodes[i].freq
        node.freq = node.entry_count = node.terminal_count = 0
        node.parent.terminal_count += taken  # the parent still balances
        reference.depth_stats.bump(node.depth, node.id, -taken)  # type: ignore[arg-type]
        trie.freq[at[i]] = trie.entry[at[i]] = trie.terminal[at[i]] = 0
        trie.terminal[up[at[i]]] += taken
        trie.depth_stats[node.depth][trie.id[at[i]]] -= taken  # type: ignore[index]
    elif how == "make a terminal count negative":
        # move one more than the source's terminal count onto a cycle-edge to a proper ancestor
        edges = [(i, label) for i in sources for label, edge in nodes[i].cycles.items() if edge.target is not nodes[i]]
        if not edges:
            return False
        i, label = rng.choice(edges)
        node, edge = nodes[i], nodes[i].cycles[label]
        moved = node.terminal_count + 1
        node.terminal_count -= moved
        edge.count += moved
        edge.target.freq += moved  # the new arrivals end there: the target still balances
        edge.target.terminal_count += moved
        reference.depth_stats.bump(edge.target.depth, label, moved)
        e = trie.cycles[at[i]][label]
        trie.terminal[at[i]] -= moved
        trie.cycle_count[e] += moved
        trie.freq[trie.cycle_to[e]] += moved
        trie.terminal[trie.cycle_to[e]] += moved
        trie.depth_stats[edge.target.depth][label] += moved
    elif how == "move a descent into the parent's terminal":
        # the node keeps its freq, so it has one arrival more than its cycle-edges in bring
        descended = [i for i in inner if nodes[i].entry_count >= 1]
        if not descended:
            return False
        i = rng.choice(descended)
        nodes[i].entry_count -= 1
        nodes[i].parent.terminal_count += 1  # the parent still balances
        trie.entry[at[i]] -= 1
        trie.terminal[up[at[i]]] += 1
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
    "zero a leaf's freq",
    "make a terminal count negative",
    "move a descent into the parent's terminal",
]

# each breaks one rule alone, a rule the walk-up reference lacks: non-root freq >= 1,
# terminal >= 0 and arrivals equal to the cycle-edges in (in DG mode; in DAG mode it has that one)
WALK_UP_LACKS = {"zero a leaf's freq", "make a terminal count negative", "move a descent into the parent's terminal"}


def _checker_documents(rng: random.Random) -> list[dict]:
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
    return documents


def _verdict(check, trie_or_doc) -> str:
    try:
        check(trie_or_doc)
    except CorruptDocument as exc:
        return "repeat" if "repeats on the root path" in str(exc) else "raise"
    return "pass"


def test_one_walk_checker_agrees_with_the_walk_up_reference():
    rng = random.Random(0xC3)
    outcomes = {how: set() for how in TAMPERINGS}
    for doc in _checker_documents(rng):
        clean, reference = Trie.from_document(doc), ObjectTrie.from_document(doc)
        walk_up_check_invariants(reference)
        reference.check_invariants()
        clean.check_invariants()
        for how in TAMPERINGS:
            for _ in range(2):
                trie, reference = Trie.from_document(doc), ObjectTrie.from_document(doc)
                if not _tamper(trie, reference, how, rng):
                    continue
                walk_up = _verdict(walk_up_check_invariants, reference)
                one_walk = _verdict(ObjectTrie.check_invariants, reference)
                # a broken depth is the references' alone: the column trie derives depths from its child maps
                columns = one_walk if how == "break a depth" else _verdict(Trie.check_invariants, trie)
                # the one-walk object checker has every rule the column checker has; the first rule
                # each reports can differ, so messages are pinned only where one rule alone breaks
                raised = columns != "pass"
                assert raised == (one_walk != "pass"), (how, doc)
                if walk_up == "pass" and raised:  # only a rule the walk-up reference lacks broke
                    assert how in WALK_UP_LACKS or columns == one_walk == "repeat", (how, doc)
                else:
                    assert raised == (walk_up != "pass"), (how, doc)
                outcomes[how].add((walk_up, columns))
    # every tampering was applied and caught; only the rules the walk-up reference lacks tell it apart
    assert all(
        ("raise", "raise") in seen or ("raise", "repeat") in seen
        for how, seen in outcomes.items()
        if how not in WALK_UP_LACKS
    ), outcomes
    assert ("pass", "repeat") in outcomes["repeat an ancestor's identifier"]
    assert all(("pass", "raise") in outcomes[how] for how in WALK_UP_LACKS), outcomes


def _tamper_document(doc: dict, how: str, rng: random.Random) -> bool:
    """Damage a document in place; False when it has nothing to damage that way.

    Position ``k`` of a node column holds node ``k + 1``, of a degree column node ``k``.
    """
    ids, nodes, edges = doc["id"], len(doc["id"]), len(doc["cycle_to"])
    parents, sources = expand_degrees(doc["child_count"]), expand_degrees(doc["cycle_out"])
    if how == "bump a freq":
        if not nodes:
            return False
        doc["freq"][rng.randrange(nodes)] += 1
    elif how == "retarget a cycle-edge to a non-ancestor":
        if not edges:
            return False
        e = rng.randrange(edges)
        target = doc["cycle_to"][e]
        elsewhere = [k + 1 for k, rid in enumerate(ids) if rid == ids[target - 1] and k + 1 != target]
        doc["cycle_to"][e] = rng.choice(elsewhere or range(1, nodes + 1))
    elif how == "move a child to a neighbouring parent":
        # a count moved to the next or previous node reparents one node alone: the last or first child
        if nodes < 2:
            return False
        child_count = doc["child_count"]
        k = rng.choice([k for k, kids in enumerate(child_count) if kids])
        j = k + rng.choice([d for d in (-1, 1) if 0 <= k + d <= nodes])
        child_count[k] -= 1
        child_count[j] += 1
    elif how == "add a cycle-edge in DAG mode":
        if doc["mode"] != "dag" or not nodes:
            return False
        k = rng.randrange(nodes)
        doc["cycle_out"][k + 1] += 1  # a DAG document has no other cycle-edge to keep in order
        doc["cycle_to"].append(k + 1)
        doc["cycle_count"].append(1)
        doc["terminal_count"][k] -= 1
        doc["freq"][k] += 1
    elif how == "zero an edge count":
        if not edges:
            return False
        e = rng.randrange(edges)
        doc["terminal_count"][sources[e] - 1] += doc["cycle_count"][e]  # conservation still holds
        doc["cycle_count"][e] = 0
    elif how == "repeat an ancestor's identifier":
        # a leaf without cycle-edges has none coming in either
        busy = {*parents, *sources, *doc["cycle_to"]}
        leaves = [k for k in range(nodes) if k + 1 not in busy and parents[k]]
        if doc["mode"] != "dg" or not leaves:
            return False
        k = rng.choice(leaves)
        ancestors = []
        above = parents[parents[k] - 1]
        while above:
            ancestors.append(above)
            above = parents[above - 1]
        if not ancestors:
            return False
        ids[k] = ids[rng.choice(ancestors) - 1]
    else:  # pragma: no cover
        raise AssertionError(how)
    return True


DOCUMENT_TAMPERINGS = [
    "bump a freq",
    "retarget a cycle-edge to a non-ancestor",
    "move a child to a neighbouring parent",
    "add a cycle-edge in DAG mode",
    "zero an edge count",
    "repeat an ancestor's identifier",
]


def test_column_loader_agrees_with_the_object_loader_on_tampered_documents():
    rng = random.Random(0xD0C)
    outcomes = {how: set() for how in DOCUMENT_TAMPERINGS}
    for doc in _checker_documents(rng):
        for how in DOCUMENT_TAMPERINGS:
            for _ in range(2):
                tampered = copy.deepcopy(doc)
                if not _tamper_document(tampered, how, rng):
                    continue
                columns = _verdict(Trie.from_document, tampered)
                assert columns == _verdict(ObjectTrie.from_document, tampered), (how, tampered)
                outcomes[how].add(columns)
    assert all(seen - {"pass"} for seen in outcomes.values()), outcomes
    assert "repeat" in outcomes["repeat an ancestor's identifier"]


def _differential_tries(rng: random.Random) -> Iterator[tuple[str, Callable[[Any], None]]]:
    """Builds to run on both a ``Trie`` and an ``ObjectTrie``: (mode, build)."""
    names = [f"urn:n{i:02d}" for i in range(8)]  # the generators' identifiers
    for _ in range(40):
        g = random_dg(rng) if rng.random() < 0.7 else random_dag(rng)
        yield "dg", lambda t, g=g: t.index_graph_dg(g)
    for size in range(2, 7):
        yield "dg", lambda t, size=size: t.index_graph_dg(gen_clique(size))
    for _ in range(40):
        runs = [[rng.choice(names) for _ in range(rng.randint(1, 8))] for _ in range(rng.randint(1, 6))]
        g = random_dg(rng)

        def mixed(t, runs=runs, g=g):
            for run in runs[:2]:
                t.insert_dg(run)
            t.index_graph_dg(g)
            for run in runs[2:]:
                t.insert_dg(run)

        yield "dg", mixed
    for n in (0, 2, 3):
        for _ in range(20):
            walks = _dag_walks(rng, random_dag(rng), 12)

            def windows(t, walks=walks, n=n):
                for walk in walks:
                    for start in range(max(1, len(walk) - n + 1) if n else 1):
                        t.insert(walk[start : start + n] if n else walk)

            yield "dag", windows


def _dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def test_documents_are_byte_identical_to_the_object_trie():
    # two writers and two loaders, each with its own loop: every pairing re-saves the same bytes
    for mode, build in _differential_tries(random.Random(0xB17E)):
        trie, reference = Trie(TrieMode(mode)), ObjectTrie(TrieMode(mode))
        build(trie)
        build(reference)
        trie.check_invariants()
        text = _dumps(trie.to_document())
        assert _dumps(reference.to_document()) == text
        assert _dumps(ObjectTrie.from_document(json.loads(text)).to_document()) == text
        assert _dumps(Trie.from_document(json.loads(text)).to_document()) == text


def test_views_are_interned_and_read_the_columns():
    t = insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "c"]])
    a = t.root.children["a"]
    assert t.root is t.root and t.root.children["a"] is a and t.node(a.index) is a
    assert a.children["b"].cycles["a"].target is a
    assert sorted(a.children) == ["b", "c"] and "b" in a.children and "a" not in a.children
    assert [child.id for child in a.children.values()] == ["b", "c"]
    t.insert_dg(["a", "b", "a"])  # views read the live columns
    assert a.freq == 5 and a.children["b"].cycles["a"].count == 2
    with pytest.raises(AttributeError):
        a.freq = 0
