"""Format 5: a trie's minimal class table, read back against format 4's
reader, and the rules a class table must pass."""
import copy
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import provtrie.trie as trie_module
from provtrie.document import _check, _read_columns
from provtrie.graph import ProvGraph, gen_clique
from provtrie.ingest import PredicateMap, parse_ntriples, triples_to_graph
from provtrie.trie import CorruptDocument, FrozenTrie, Trie, TrieError, TrieMode, dg_document

from helpers import (
    TABLE_ORDER,
    decode_table,
    format4_document,
    format4_from_document,
    insert_all,
    insert_based_index_graph_dg,
    node_columns,
    random_dag,
    random_dg,
    table_document,
    table_lengths,
    touch_every_node,
)

DATA = Path(__file__).parent / "data"
FROZEN_COLUMNS = ("id", "freq", "entry", "terminal", "first", "efirst", "cycle_to", "cycle_count")


def _reads_as_format_4(trie: Trie, doc: dict | None = None) -> FrozenTrie:
    """The frozen trie read from ``doc`` (``trie``'s own document if None),
    after checking that it holds every column of format 4's reader, given
    ``trie`` as format 4 wrote it, once every node is made; and that the
    trie ``Trie.from_document`` thaws from ``doc`` holds them too."""
    reference = format4_from_document(json.loads(json.dumps(format4_document(trie))))
    doc = json.loads(json.dumps(doc or trie.to_document()))
    frozen = FrozenTrie.from_document(copy.deepcopy(doc))
    for loaded in (node_columns(frozen), node_columns(Trie.from_document(doc))):
        for name in FROZEN_COLUMNS:
            assert loaded[name] == list(getattr(reference, name)), name
    return frozen


@pytest.mark.parametrize("size", [4, 5, 6, 7, 8])
def test_a_clique_reads_as_format_4_read_it(size):
    g, trie = gen_clique(size), Trie(TrieMode.DG)
    if size <= 6:
        insert_based_index_graph_dg(trie, g)
    else:  # the insert-based builder is too slow here; the builder is checked against it on the smaller ones
        trie.index_graph(g)
    doc = dg_document([g])
    assert doc == trie.to_document()
    assert doc["classes"] == size * 2 ** (size - 1) + 1  # one class per DFS state, and the root's
    _reads_as_format_4(trie, doc)


def _nt_graph(name: str, kind: TrieMode) -> ProvGraph:
    parsed = parse_ntriples((DATA / name).read_text(encoding="utf-8"))
    return triples_to_graph(parsed.triples, PredicateMap.default(), kind)


TRACES = ["trace1.nt", "trace2.nt", "trace3.nt", "trace4.nt"]


@pytest.mark.parametrize("mode", [TrieMode.DAG, TrieMode.DG], ids=["dag", "dg"])
@pytest.mark.parametrize("names", [[name] for name in TRACES] + [TRACES], ids=[*TRACES, "all"])
def test_the_trace_fixtures_read_as_format_4_read_them(mode, names):
    graphs = [_nt_graph(name, mode) for name in names]
    trie = Trie(mode)
    for g in graphs:
        if mode is TrieMode.DG:
            insert_based_index_graph_dg(trie, g)
        else:
            trie.index_graph(g)
    doc = trie.to_document()
    if mode is TrieMode.DG:
        assert dg_document(graphs) == doc
    _reads_as_format_4(trie, doc)


def test_the_400_vertex_chain_reads_as_format_4_read_it():
    g = ProvGraph(TrieMode.DG)
    names = [f":c{k:04d}" for k in range(400)]
    g.add_edges(zip(names, names[1:]))
    trie = Trie(TrieMode.DG)
    trie.index_graph(g)
    doc = dg_document([g])
    assert doc == trie.to_document()
    # every path that ends at vertex k heads the same chain: one class per vertex, not per node
    assert (doc["nodes"], doc["classes"]) == (80_200, 401)
    _reads_as_format_4(trie, doc)


def test_random_corpora_read_as_format_4_read_them():
    rng = random.Random(0x5E5)
    for _ in range(30):
        g = random_dg(rng)
        trie = Trie(TrieMode.DG)
        insert_based_index_graph_dg(trie, g)
        assert dg_document([g]) == trie.to_document()
        _reads_as_format_4(trie)
        dag = Trie(TrieMode.DAG)
        dag.index_graph(random_dag(rng))
        _reads_as_format_4(dag)
    graphs = [random_dg(rng) for _ in range(5)]
    trie = Trie(TrieMode.DG)
    for g in graphs:
        insert_based_index_graph_dg(trie, g)
    assert dg_document(graphs) == trie.to_document()
    _reads_as_format_4(trie)


def test_an_insert_built_dg_trie_with_marked_maps_reads_as_format_4_read_it():
    trie = insert_all(TrieMode.DG, [["c", "a", "c"], ["b", "c", "b", "a"], ["a", "b", "a"], ["b", "a", "c", "a"], ["c", "b"]])
    assert trie._unsorted  # maps that gained a key sorting before their last one
    _reads_as_format_4(trie)


# ---- the rules of a class table, case by case ---------------------------------------


def _table(mode: str, sequence_count: int, labels: list[str], rows: list[tuple], nodes: int, cycle_edges: int = 0) -> dict:
    """A document around a table given per class, the root's first, as
    (label index, freq, terminal count, child references, cycle-edges as
    (label index, count)); the root's label, freq and terminal are not
    written."""
    table = {
        "child_count": [len(row[3]) for row in rows],
        "cycle_out": [len(row[4]) for row in rows],
        "id": [row[0] for row in rows[1:]],
        "freq": [row[1] for row in rows[1:]],
        "terminal_count": [row[2] for row in rows[1:]],
        "child": [ref for row in rows for ref in row[3]],
        "cycle_label": [rid for row in rows for rid, _ in row[4]],
        "cycle_count": [taken for row in rows for _, taken in row[4]],
    }
    header = {"format_version": 5, "mode": mode, "n": 0, "sequence_count": sequence_count}
    return table_document(header, nodes, cycle_edges, labels, table)


def _verdict(doc: dict) -> FrozenTrie:
    """``doc`` loaded as a frozen trie and as a builder: the same verdict from both."""
    try:
        frozen = FrozenTrie.from_document(copy.deepcopy(doc))
    except TrieError as exc:
        with pytest.raises(type(exc)) as raised:
            Trie.from_document(copy.deepcopy(doc))
        assert str(raised.value) == str(exc)
        raise
    Trie.from_document(copy.deepcopy(doc)).check_invariants()
    return frozen


ROOT = None  # the root's label: never written


def test_a_cyclic_class_table_is_refused():
    # b's one child reference returns to a, numbered before it: a -> b -> a
    rows = [(ROOT, 1, 0, [0], []), (0, 1, 0, [0], []), (1, 1, 0, [1], [])]
    with pytest.raises(CorruptDocument, match="^class table has a cycle through or above class 1$"):
        _verdict(_table("dag", 1, ["a", "b"], rows, 2))


def test_a_child_reference_past_the_table_is_refused():
    rows = [(ROOT, 1, 0, [0], []), (0, 1, 0, [5], [])]
    with pytest.raises(CorruptDocument, match="^child reference 5 past the 2 classes numbered, under class 1$"):
        _verdict(_table("dag", 1, ["a"], rows, 2))
    # a reference to a class numbered later is refused the same way
    rows = [(ROOT, 2, 0, [0, 2], []), (0, 1, 1, [], []), (1, 1, 1, [], [])]
    with pytest.raises(CorruptDocument, match="^child reference 2 past the 2 classes numbered, under class 0$"):
        _verdict(_table("dag", 2, ["a", "b"], rows, 2))
    # and so is one new class too many
    rows = [(ROOT, 1, 0, [0, 0], []), (0, 1, 1, [], [])]
    with pytest.raises(CorruptDocument, match="^child references past the table of 2 classes$"):
        _verdict(_table("dag", 1, ["a"], rows, 2))


def _shared_tail(mode: str, tail_cycles: list[tuple[int, int]], tail_terminal: int) -> dict:
    """a and b under the root, each with the one shared class c below it, a
    leaf: four nodes, three classes after the root."""
    rows = [
        (ROOT, 2, 0, [0, 0], []),
        (0, 1, 0, [0], []),  # a
        (1, 1, 0, [3], []),  # b: its child is c, numbered under a
        (2, 1 + sum(taken for _, taken in tail_cycles), tail_terminal, [], tail_cycles),  # c
    ]
    return _table(mode, 2, ["a", "b", "c"], rows, 4, 2 * len(tail_cycles))


def test_a_shared_class_whose_cycle_label_is_off_one_parents_path_is_refused():
    # c's cycle-edge returns to a: under a it does, under b no node carries a
    doc = _shared_tail("dg", [(0, 1)], 1)
    with pytest.raises(CorruptDocument, match="^cycle-edge label 'a' not on every root path of class 3$"):
        _verdict(doc)
    # returning to c itself holds at both places: the same shape loads
    frozen = _verdict(_shared_tail("dg", [(2, 1)], 1))
    touch_every_node(frozen)
    assert (len(frozen.id), list(frozen.cycle_to)) == (5, [3, 4])


def test_a_label_repeated_on_one_occurrences_root_path_is_refused():
    # a and b each lead to one shared class; labelled b, it repeats b under b alone
    rows = [(ROOT, 2, 0, [0, 0], []), (0, 1, 0, [0], []), (1, 1, 0, [3], []), (1, 1, 1, [], [])]
    with pytest.raises(CorruptDocument, match="^identifier 'b' repeats on the root path of class 3$"):
        _verdict(_table("dg", 2, ["a", "b"], rows, 4))
    # a DAG trie may repeat an identifier down a path
    frozen = _verdict(_table("dag", 2, ["a", "b"], rows, 4))
    touch_every_node(frozen)
    assert frozen.id == [None, "a", "b", "b", "b"]


def test_siblings_or_cycle_labels_out_of_label_order_are_refused():
    rows = [(ROOT, 2, 0, [0, 0], []), (1, 1, 1, [], []), (0, 1, 1, [], [])]
    with pytest.raises(CorruptDocument, match="^siblings out of label order under class 0: 'a'$"):
        _verdict(_table("dag", 2, ["a", "b"], rows, 2))
    # a reference back to a class numbered before must keep label order too: b's children d, then c
    rows = [
        (ROOT, 2, 0, [0, 0], []),
        (0, 1, 0, [0], []),  # a
        (1, 1, 0, [0, 3], []),  # b
        (2, 1, 1, [], []),  # c
        (3, 1, 1, [], []),  # d
    ]
    with pytest.raises(CorruptDocument, match="^siblings out of label order under class 2: 'c'$"):
        _verdict(_table("dag", 2, ["a", "b", "c", "d"], rows, 5))
    # a -> b, b returning to b and to a, listed b first
    rows = [(ROOT, 1, 0, [0], []), (0, 2, 0, [0], []), (1, 2, 0, [], [(1, 1), (0, 1)])]
    with pytest.raises(CorruptDocument, match="^cycle-edges out of label order at class 2: 'a'$"):
        _verdict(_table("dg", 1, ["a", "b"], rows, 2, 2))


def test_a_class_no_reference_numbers_is_refused():
    rows = [(ROOT, 1, 0, [0], []), (0, 1, 1, [], []), (0, 1, 1, [], [])]
    with pytest.raises(CorruptDocument, match="^class 2 is no class's child$"):
        _verdict(_table("dag", 1, ["a"], rows, 2))


def _k(size: int) -> dict:
    return dg_document([gen_clique(size)])


@pytest.mark.parametrize("delta", [-1, 1])
def test_a_header_whose_node_count_is_not_the_unfold_is_refused_before_the_unfold(delta, monkeypatch):
    doc = _k(6)
    assert (doc["nodes"], doc["cycle_edges"]) == (1956, 7830)
    doc["nodes"] += delta
    message = f"^header declares {1956 + delta} nodes and 7830 cycle-edges, the table unfolds to 1956 and 7830$"
    unfolds = []
    monkeypatch.setattr(trie_module, "_unfold", lambda table: unfolds.append(table) or iter(()))
    with pytest.raises(CorruptDocument, match=message):
        _verdict(doc)
    assert not unfolds  # no column of a node's length was begun
    doc["nodes"] -= delta
    doc["cycle_edges"] += delta
    with pytest.raises(CorruptDocument, match="^header declares 1956 nodes and "):
        _verdict(doc)
    assert not unfolds


def test_a_refused_header_allocates_nothing_of_the_tries_size():
    # K8's table is 1,025 classes; its trie, 109,600 nodes and 657,608 cycle-edges
    # Trie.from_document makes every node; a FrozenTrie makes none at load, refused or not
    doc = _k(8)
    Trie.from_document(copy.deepcopy(doc))  # anything a first load caches is not the trie's
    peaks = []
    for nodes in (doc["nodes"], doc["nodes"] - 1):
        tracemalloc.start()
        try:
            try:
                Trie.from_document({**doc, "nodes": nodes})
            except CorruptDocument:
                assert nodes != doc["nodes"]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    loaded, refused = peaks
    assert loaded > 8 << 20 and refused < 2 << 20, peaks


def test_a_huge_consistent_table_is_sized_without_unfolding():
    # two classes per depth, a and b, each with both of the next depth's as children:
    # 2**(depth + 1) - 2 nodes from 2 * depth + 1 classes, each a leaf's terminal at the bottom
    depth = 60
    rows = [(ROOT, 2**depth, 0, [0, 0], [])]
    for d in range(1, depth + 1):  # classes 2d - 1 and 2d: a's references number the next depth's, b's reuse them
        below = d < depth
        refs = ([0, 0], [2 * d + 1, 2 * d + 2]) if below else ([], [])
        freq, terminal = 2 ** (depth - d), int(not below)
        rows += [(0, freq, terminal, refs[0], []), (1, freq, terminal, refs[1], [])]
    doc = _table("dag", 2**depth, ["a", "b"], rows, 2 ** (depth + 1) - 2)
    lengths = table_lengths(doc["classes"], doc["class_edges"], doc["class_cycle_edges"])
    columns = _read_columns(doc["columns"], doc["widths"], lengths)
    _, nodes, edges = _check(TrieMode.DAG, doc["sequence_count"], doc["labels"], *columns)
    assert (nodes, edges) == (doc["nodes"], 0)  # a small document may declare a large trie
    with pytest.raises(CorruptDocument, match="^header declares"):
        FrozenTrie.from_document({**doc, "nodes": nodes + 1})


# ---- fuzzing the table ------------------------------------------------------------------


def _fuzz_bases() -> list[dict]:
    k3 = Trie(TrieMode.DG)
    k3.index_graph(gen_clique(3))
    return [
        k3.to_document(),
        _shared_tail("dg", [(2, 1)], 1),
        insert_all(TrieMode.DG, [["a", "b", "a"], ["a", "b", "c"], ["c", "a", "c", "a"], ["b", "c", "a", "b"]]).to_document(),
        insert_all(TrieMode.DAG, [["a", "b"], ["a", "c"], ["b"]]).to_document(),
        _table("dag", 2, ["a", "b"], [(ROOT, 2, 0, [0, 0], []), (0, 1, 0, [0], []), (1, 1, 0, [3], []), (1, 1, 1, [], [])], 4),
    ]


FUZZ_BASES = _fuzz_bases()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_class_table_is_refused_or_round_trips(data):
    # edits go into the decoded table, which a writer that checks nothing then writes (an int
    # modulo its column's width); the header's nodes and cycle_edges are kept or moved by one
    base = data.draw(st.sampled_from(FUZZ_BASES))
    table = decode_table(base)
    classes = base["classes"]
    ints = st.one_of(st.integers(min_value=-1, max_value=classes + 1), st.sampled_from([255, 2**16, 2**70]))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        values = table[data.draw(st.sampled_from(TABLE_ORDER))]
        op = data.draw(st.sampled_from(["append"] + (["replace"] * 3 + ["delete"] if values else [])))
        if op == "append":
            values.append(data.draw(ints))
        else:
            at = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
            if op == "delete":
                del values[at]
            else:
                values[at] = data.draw(ints)
    header = {key: base[key] for key in ("format_version", "mode", "n", "sequence_count")}
    nodes, edges = (base[key] + data.draw(st.sampled_from([0, 0, -1, 1])) for key in ("nodes", "cycle_edges"))
    doc = table_document(header, nodes, edges, base["labels"], table)
    try:
        frozen = _verdict(doc)
    except CorruptDocument:
        return
    again = Trie.from_document(copy.deepcopy(doc)).to_document()
    reread = FrozenTrie.from_document(copy.deepcopy(again))
    touch_every_node(reread)
    touch_every_node(frozen)
    assert reread.id == frozen.id
    assert Trie.from_document(again).to_document() == again
