import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.canonical import ngrams
from provtrie.graph import gen_clique
from provtrie.oracle import clique_walk_count, enumerate_walks
from provtrie.query import (
    EmptyDepth,
    PathMatch,
    QueryPattern,
    count_paths,
    locate,
    most_probable_at_depth,
    q1,
    q2_suggest,
)
from provtrie.trie import FrozenTrie, Trie, TrieMode

from helpers import (
    insert_all,
    prefix_match_oracle,
    random_dag,
    random_dg,
    recursive_count_paths,
    recursive_q1,
    recursive_q2_suggest,
)

FIGURE_SEQUENCES = [
    ["N1", "N2", "N1"],
    ["N1", "N2", "N3"],
    ["N1", "N3"],
    ["N1", "N4"],
    ["N5"],
]

symbols = st.sampled_from(["a", "b", "c", "d"])
sequences = st.lists(symbols, min_size=1, max_size=6)
corpora = st.lists(sequences, min_size=1, max_size=10)


@pytest.fixture(scope="module")
def k4_trie():
    t = Trie(TrieMode.DG)
    t.index_graph(gen_clique(4))
    return t


def test_q1_exact_lookup_degenerate():
    t = insert_all(TrieMode.DAG, [["a", "b"]])
    matches = q1(t, QueryPattern(("a",), 0, "b"))
    assert len(matches) == 1
    assert matches[0].path == ("a", "b")
    assert matches[0].freq == 1
    assert matches[0].likelihood == 1.0


def test_q1_requires_terminal():
    with pytest.raises(ValueError):
        QueryPattern(("a",), 1, None)  # type: ignore[arg-type]


def test_q1_unknown_start_is_empty_result():
    t = insert_all(TrieMode.DAG, [["a", "b"]])
    assert q1(t, QueryPattern(("zzz",), 1, "b")) == []
    assert count_paths(t, QueryPattern(("zzz",), 1, "b")) == 0


def test_q1_on_empty_trie():
    t = Trie(TrieMode.DAG)
    assert count_paths(t, QueryPattern(("a",), 2, "b")) == 0


def test_q1_k4_single_wildcard(k4_trie):
    matches = q1(k4_trie, QueryPattern((":r0",), 1, ":r1"))
    assert {m.path for m in matches} == {(":r0", ":r2", ":r1"), (":r0", ":r3", ":r1")}


def test_q1_k4_two_wildcards_match_walk_oracle(k4_trie):
    matches = q1(k4_trie, QueryPattern((":r0",), 2, ":r1"))
    assert len(matches) == 7
    assert {m.path for m in matches} == set(enumerate_walks(gen_clique(4), ":r0", ":r1", 3))


def test_q1_results_sorted_by_likelihood_then_path(k4_trie):
    matches = q1(k4_trie, QueryPattern((":r0",), 3, ":r1"))
    keys = [(-m.likelihood, m.path) for m in matches]
    assert keys == sorted(keys)
    assert all(0.0 <= m.likelihood <= 1.0 for m in matches)


def test_q1_dag_likelihood_telescopes_to_frequency_share():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    for match in q1(t, QueryPattern(("N1",), 1, "N1")):
        assert match.likelihood == pytest.approx(match.freq / t.root.freq, abs=1e-12)


def test_count_paths_equals_materialized(k4_trie):
    for m in range(6):
        pattern = QueryPattern((":r0",), m, ":r2")
        assert count_paths(k4_trie, pattern) == len(q1(k4_trie, pattern))


def test_strict_requires_terminal_node():
    t = insert_all(TrieMode.DAG, [["a", "b", "c"]])
    pattern = QueryPattern(("a",), 0, "b")
    assert count_paths(t, pattern) == 1
    assert count_paths(t, pattern, strict=True) == 0
    assert q1(t, pattern, strict=True) == []
    full = QueryPattern(("a",), 1, "c")
    assert count_paths(t, full, strict=True) == 1


def test_strict_rejected_on_windowed_index():
    t = insert_all(TrieMode.DAG, [["a", "b", "c"]], n=2)
    with pytest.raises(ValueError):
        q1(t, QueryPattern(("a",), 0, "b"), strict=True)


def test_pattern_validation():
    with pytest.raises(ValueError, match="^pattern prefix must be nonempty$"):
        QueryPattern((), 1, "b")
    with pytest.raises(ValueError, match="^wildcard count must be >= 0, got -1$"):
        QueryPattern(prefix=("a",), wildcards=-1, terminal="b")
    with pytest.raises(ValueError, match="^terminal must be a nonempty identifier$"):
        QueryPattern(("a",), 1, terminal="")


@pytest.mark.parametrize(
    "value, same, other, text",
    [
        (
            QueryPattern(("a", "b"), 2, "c"),
            QueryPattern(prefix=("a", "b"), wildcards=2, terminal="c"),
            QueryPattern(("a", "b"), 3, "c"),
            "QueryPattern(prefix=('a', 'b'), wildcards=2, terminal='c')",
        ),
        (
            PathMatch(("a", "b"), 3, 0.5),
            PathMatch(path=("a", "b"), freq=3, likelihood=0.5),
            PathMatch(("a", "b"), 3, 0.25),
            "PathMatch(path=('a', 'b'), freq=3, likelihood=0.5)",
        ),
    ],
    ids=["QueryPattern", "PathMatch"],
)
def test_pattern_and_match_are_immutable_values(value, same, other, text):
    assert value == same and hash(value) == hash(same) and len({value, same, other}) == 2
    assert value != other
    assert repr(value) == text
    field = text.split("(", 1)[1].split("=", 1)[0]
    assert getattr(value, field) == ("a", "b")
    with pytest.raises(AttributeError):
        setattr(value, field, ("x",))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == ("a", "b")
    assert copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value


def test_q2_suggest_weighted_example():
    t = insert_all(TrieMode.DAG, [["a", "b", "c"]] * 3 + [["a", "b", "d"]])
    assert q2_suggest(t, ["a", "b"], ahead=1, top=2) == [
        (("c",), 0.75),
        (("d",), 0.25),
    ]


def test_q2_suggest_deterministic_continuation():
    t = insert_all(TrieMode.DAG, [["a", "b"], ["a", "b"]])
    assert q2_suggest(t, ["a"], ahead=1, top=3) == [(("b",), 1.0)]


def test_q2_suggest_absent_prefix():
    t = insert_all(TrieMode.DAG, [["a", "b"]])
    assert q2_suggest(t, ["nope"], ahead=1, top=1) == []


def test_q2_suggest_exact_not_greedy():
    # greedy chaining would pick the popular first step b (0.6) and end at
    # 0.3; the exact maximization finds the c,w continuation at 0.4
    corpus = [["a", "b", "u"]] * 3 + [["a", "b", "v"]] * 3 + [["a", "c", "w"]] * 4
    t = insert_all(TrieMode.DAG, corpus)
    top = q2_suggest(t, ["a"], ahead=2, top=1)
    assert top == [(("c", "w"), pytest.approx(0.4))]


def test_q2_suggest_tie_breaks_lexicographically():
    t = insert_all(TrieMode.DAG, [["a", "x"], ["a", "m"]])
    assert [c for c, _ in q2_suggest(t, ["a"], ahead=1, top=2)] == [("m",), ("x",)]


def test_q2_suggest_top_larger_than_candidates():
    t = insert_all(TrieMode.DAG, [["a", "b"], ["a", "c"]])
    assert len(q2_suggest(t, ["a"], ahead=1, top=10)) == 2


def test_q2_suggest_follows_cycles_in_dg_mode(k4_trie):
    suggestions = q2_suggest(k4_trie, [":r0", ":r1"], ahead=1, top=10)
    assert {c[0] for c, _ in suggestions} == {":r0", ":r2", ":r3"}


def test_q2_suggest_validation():
    t = insert_all(TrieMode.DAG, [["a"]])
    with pytest.raises(ValueError):
        q2_suggest(t, [], 1, 1)
    with pytest.raises(ValueError):
        q2_suggest(t, ["a"], 0, 1)
    with pytest.raises(ValueError):
        q2_suggest(t, ["a"], 1, 0)


def test_most_probable_at_depth_reference_trie():
    t = insert_all(TrieMode.DAG, FIGURE_SEQUENCES)
    assert most_probable_at_depth(t, 1) == ("N1", 4, pytest.approx(0.8))
    assert most_probable_at_depth(t, 2) == ("N2", 2, pytest.approx(0.5))


def test_most_probable_at_depth_single_sequence():
    t = insert_all(TrieMode.DAG, [["x", "y", "z"]])
    for depth, rid in ((1, "x"), (2, "y"), (3, "z")):
        assert most_probable_at_depth(t, depth) == (rid, 1, 1.0)


def test_most_probable_at_depth_empty():
    t = insert_all(TrieMode.DAG, [["a"]])
    with pytest.raises(EmptyDepth):
        most_probable_at_depth(t, 5)
    with pytest.raises(ValueError):
        most_probable_at_depth(t, 0)


def test_locate_visit_budget():
    t = insert_all(TrieMode.DAG, [["a", "b", "c", "d"]])
    node, visited = locate(t, ["a", "b", "c"])
    assert node is not None and t.id[node] == "c"
    assert visited <= 3
    node, visited = locate(t, ["a", "x"])
    assert node is None
    assert visited <= 2


def _criterion_04_corpora():
    """The DAG corpora and random DGs of acceptance criterion 4, same seed."""
    rng = random.Random(0xC4)
    alphabet_pool = [f"urn:r{i:02d}" for i in range(12)]
    for _ in range(200):
        alphabet = rng.sample(alphabet_pool, rng.randint(1, 12))
        corpus = [
            [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 20))
        ]
        n = rng.choice([0, 0, 2, 3, 4])
        trie = Trie(TrieMode.DAG, n=n)
        for seq in corpus:
            for window in ngrams(seq, n).windows if n else [seq]:
                trie.insert(window)
        yield trie, alphabet
    for _ in range(50):
        g = random_dg(rng, max_nodes=8)
        trie = Trie(TrieMode.DG)
        trie.index_graph(g)
        yield trie, list(g.node_ids)


def test_iterative_core_equals_recursive_reference():
    for trie, alphabet in _criterion_04_corpora():
        for start in alphabet:
            for end in alphabet:
                for wildcards in range(5):
                    pattern = QueryPattern((start,), wildcards, end)
                    assert q1(trie, pattern) == recursive_q1(trie, pattern)
                    assert count_paths(trie, pattern) == recursive_count_paths(trie, pattern)
                    if trie.n == 0:
                        assert q1(trie, pattern, strict=True) == recursive_q1(trie, pattern, strict=True)
                        assert count_paths(trie, pattern, strict=True) == recursive_count_paths(
                            trie, pattern, strict=True
                        )
            for ahead in range(1, 4):
                assert q2_suggest(trie, [start], ahead, 5) == recursive_q2_suggest(trie, [start], ahead, 5)


def test_deep_clique_count_under_default_recursion_limit(k4_trie):
    pattern = QueryPattern((":r0",), 1200, ":r1")
    assert count_paths(k4_trie, pattern) == clique_walk_count(4, 1201)


def test_deep_run_queries_under_default_recursion_limit():
    run = [f"s{i:04d}" for i in range(1500)]
    t = insert_all(TrieMode.DAG, [run])
    pattern = QueryPattern((run[0],), 1498, run[-1])
    matches = q1(t, pattern)
    assert [(m.path, m.freq, m.likelihood) for m in matches] == [(tuple(run), 1, 1.0)]
    assert count_paths(t, pattern, strict=True) == 1
    assert q2_suggest(t, run[:1], ahead=1499, top=5) == [(tuple(run[1:]), 1.0)]


@given(corpus=corpora, n=st.sampled_from([0, 2, 3]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_q1_matches_window_filter_oracle(corpus, n, data):
    windows = []
    for seq in corpus:
        if n == 0:
            windows.append(tuple(seq))
        else:
            windows.extend(ngrams(seq, n).windows)
    t = Trie(TrieMode.DAG, n=n)
    for window in windows:
        t.insert(window)
    alphabet = sorted({s for w in windows for s in w})
    start = data.draw(st.sampled_from(alphabet))
    end = data.draw(st.sampled_from(alphabet))
    wildcards = data.draw(st.integers(0, 4))
    matches = q1(t, QueryPattern((start,), wildcards, end))
    expected = prefix_match_oracle(windows, (start,), wildcards, end)
    assert {m.path for m in matches} == expected
    assert count_paths(t, QueryPattern((start,), wildcards, end)) == len(expected)
    # frequency equals the number of windows sharing the matched prefix
    total = wildcards + 2
    for m in matches:
        assert m.freq == sum(1 for w in windows if tuple(w[:total]) == m.path)


@given(seed=st.integers(0, 5_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_q1_matches_walk_oracle_on_random_dg(seed, data):
    rng = random.Random(seed)
    g = random_dg(rng, max_nodes=6)
    t = Trie(TrieMode.DG)
    t.index_graph(g)
    ids = list(g.node_ids)
    start = data.draw(st.sampled_from(ids))
    end = data.draw(st.sampled_from(ids))
    wildcards = data.draw(st.integers(0, 4))
    got = {m.path for m in q1(t, QueryPattern((start,), wildcards, end))}
    want = set(enumerate_walks(g, start, end, wildcards + 1))
    assert got == want


@given(corpus=corpora, extra=sequences, data=st.data())
@settings(max_examples=40, deadline=None)
def test_q1_monotone_under_insertion(corpus, extra, data):
    t = insert_all(TrieMode.DAG, corpus)
    alphabet = sorted({s for seq in corpus for s in seq})
    pattern = QueryPattern(
        (data.draw(st.sampled_from(alphabet)),),
        data.draw(st.integers(0, 3)),
        data.draw(st.sampled_from(alphabet)),
    )
    before = {m.path for m in q1(t, pattern)}
    t.insert(extra)
    after = {m.path for m in q1(t, pattern)}
    assert before <= after


@given(corpus=corpora, c=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_q2_ranking_invariant_under_frequency_scaling(corpus, c):
    t1 = insert_all(TrieMode.DAG, corpus)
    t2 = insert_all(TrieMode.DAG, [seq for seq in corpus for _ in range(c)])
    prefix = [corpus[0][0]]
    r1 = q2_suggest(t1, prefix, ahead=2, top=10)
    r2 = q2_suggest(t2, prefix, ahead=2, top=10)
    assert [completion for completion, _ in r1] == [completion for completion, _ in r2]
    for (_, p1), (_, p2) in zip(r1, r2):
        assert p1 == pytest.approx(p2, abs=1e-12)


# ---- best-first top-k against the full enumeration -----------------------------


def _ranked_trie(kind: str, seed: int) -> Trie:
    """A DG trie of a random graph or a clique (K3-K6: many tied likelihoods),
    or a trie of random runs in either mode."""
    rng = random.Random(seed)
    if kind == "clique":
        trie = Trie(TrieMode.DG)
        trie.index_graph(gen_clique(rng.randint(3, 6)))
        return trie
    if kind in ("random dg", "random dag"):
        trie = Trie(TrieMode.DG)
        trie.index_graph(random_dg(rng, max_nodes=6) if kind == "random dg" else random_dag(rng, max_nodes=7))
        return trie
    alphabet = [f"urn:r{i}" for i in range(rng.randint(1, 5))]
    runs = [[rng.choice(alphabet) for _ in range(rng.randint(1, 7))] for _ in range(rng.randint(1, 25))]
    return insert_all(TrieMode.DAG if kind == "dag runs" else TrieMode.DG, runs)


ranked_tries = st.builds(
    _ranked_trie, st.sampled_from(["clique", "random dg", "random dag", "dag runs", "dg runs"]), st.integers(0, 10_000)
)


def _identifiers(trie: Trie) -> list[str]:
    return sorted(set(trie.id[1:])) or ["absent"]  # type: ignore[arg-type]


@given(trie=ranked_tries, data=st.data())
@settings(max_examples=150, deadline=None)
def test_best_first_suggestions_equal_the_full_enumeration(trie, data):
    ids = _identifiers(trie)
    prefix = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2))
    ahead = data.draw(st.integers(1, 4))
    for top in range(1, 51):
        # tuples compare their likelihoods with ==: equal to the bit, order and ties included
        assert q2_suggest(trie, prefix, ahead, top) == recursive_q2_suggest(trie, prefix, ahead, top)


@given(trie=ranked_tries, strict=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_q1_limit_returns_the_head_of_the_full_list(trie, strict, data):
    ids = _identifiers(trie)
    pattern = QueryPattern(
        (data.draw(st.sampled_from(ids)),), data.draw(st.integers(0, 4)), data.draw(st.sampled_from(ids))
    )
    full = recursive_q1(trie, pattern, strict=strict)
    assert q1(trie, pattern, strict=strict, limit=0) == full
    for limit in range(1, 51):
        assert q1(trie, pattern, strict=strict, limit=limit) == full[:limit]


def test_q1_rejects_a_negative_limit():
    t = insert_all(TrieMode.DAG, [["a", "b"]])
    with pytest.raises(ValueError, match="match limit must be >= 0, got -1"):
        q1(t, QueryPattern(("a",), 0, "b"), limit=-1)


@given(trie=ranked_tries)
@settings(max_examples=100, deadline=None)
def test_every_step_probability_of_a_loaded_trie_is_at_most_one(trie):
    # the premise of the best-first search: likelihoods never rise along a path,
    # on the thawed trie and on the frozen one that query --limit and suggest read
    doc = trie.to_document()
    for loaded in (Trie.from_document(doc), FrozenTrie.from_document(doc)):
        entry, cycle_count = loaded.entry, loaded.cycle_count
        for node, freq in enumerate(loaded.freq):
            steps = [entry[child] for child in loaded.children[node].values()]
            steps += [cycle_count[edge] for edge in loaded.cycles[node].values()]
            for taken in steps:
                assert 0 < taken / freq <= 1


# ---- the frozen trie against the thawed trie and the references ----------------


def _dg_index(g) -> Trie:
    trie = Trie(TrieMode.DG)
    trie.index_graph(g)
    return trie


def _windowed(mode: TrieMode, corpus: list[list[str]], n: int) -> Trie:
    windows = [window for seq in corpus for window in (ngrams(seq, n).windows if n else [seq])]
    return insert_all(mode, windows, n=n if mode is TrieMode.DAG else 0)  # a DG trie records no window length


frozen_builds = st.one_of(
    st.randoms(use_true_random=False).map(lambda rng: _dg_index(random_dg(rng))),
    st.randoms(use_true_random=False).map(lambda rng: _dg_index(random_dag(rng))),
    st.integers(2, 6).map(lambda size: _dg_index(gen_clique(size))),
    st.builds(_windowed, st.sampled_from(list(TrieMode)), corpora, st.sampled_from([0, 0, 2, 3])),
)


def _dominant(trie, depth: int):
    try:
        return most_probable_at_depth(trie, depth)
    except EmptyDepth:
        return None


@given(trie=frozen_builds, data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_frozen_trie_answers_as_the_thawed_trie_and_the_references(trie, data):
    doc = trie.to_document()
    frozen, thawed = FrozenTrie.from_document(copy.deepcopy(doc)), Trie.from_document(doc)
    assert "depth_stats" not in vars(frozen)  # summed on its first read, which no path query makes
    ids = _identifiers(trie)
    for _ in range(3):
        pattern = QueryPattern(
            (data.draw(st.sampled_from(ids)),), data.draw(st.integers(0, 4)), data.draw(st.sampled_from(ids))
        )
        for strict in (False, True) if trie.n == 0 else (False,):
            # PathMatch compares its likelihood with ==: equal to the bit
            full = recursive_q1(thawed, pattern, strict=strict)
            assert recursive_count_paths(thawed, pattern, strict=strict) == len(full)
            for t in (frozen, thawed):
                assert q1(t, pattern, strict=strict) == full
                assert count_paths(t, pattern, strict=strict) == len(full)
                for limit in (1, 2, 5, 50):
                    assert q1(t, pattern, strict=strict, limit=limit) == full[:limit]
        prefix = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2))
        ahead, top = data.draw(st.integers(1, 3)), data.draw(st.sampled_from([1, 5, 50]))
        want = recursive_q2_suggest(thawed, prefix, ahead, top)
        assert q2_suggest(frozen, prefix, ahead, top) == q2_suggest(thawed, prefix, ahead, top) == want
    assert "depth_stats" not in vars(frozen)
    assert frozen.depth_stats == thawed.depth_stats == {d: t for d, t in trie.depth_stats.items() if t}
    assert vars(frozen)["depth_stats"] is frozen.depth_stats  # summed once
    for depth in range(1, len(frozen.depth_stats) + 2):
        assert _dominant(frozen, depth) == _dominant(thawed, depth) == _dominant(trie, depth)


# ---- a frozen trie makes only the nodes its queries reach ------------------------


@pytest.fixture(scope="module")
def k8_document():
    return _dg_index(gen_clique(8)).to_document()


def test_a_count_with_one_wildcard_makes_a_few_nodes_of_k8(k8_document):
    # K8 has 109,600 nodes; :r0, one wildcard, :r1 reaches the root's 8 children, :r0's 7
    # and their 42, and the cycle-edges of those 7
    frozen = FrozenTrie.from_document(k8_document)
    assert len(frozen.id) == 1  # a load makes the root alone
    assert count_paths(frozen, QueryPattern((":r0",), 1, ":r1")) == clique_walk_count(8, 2) == 6
    assert len(frozen.id) <= 1 + 8 + 7 + 42 < 100, len(frozen.id)
    assert len(frozen.cycle_to) <= 7 * 2, len(frozen.cycle_to)


@pytest.mark.parametrize("size", [4, 8])
def test_the_per_depth_table_makes_no_node_past_the_root(size):
    trie = _dg_index(gen_clique(size))
    frozen = FrozenTrie.from_document(trie.to_document())
    assert frozen.depth_stats == trie.depth_stats
    assert (len(frozen.id), len(frozen.cycle_to)) == (1, 0)


def _queries(trie, ids, data) -> list[tuple]:
    """Some count, q1 and suggest queries over ``ids``, each as (kind, arguments)."""
    queries = []
    for _ in range(data.draw(st.integers(1, 4))):
        start, end = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        wildcards, strict = data.draw(st.integers(0, 3)), trie.n == 0 and data.draw(st.booleans())
        pattern = QueryPattern((start,), wildcards, end)
        queries += [("count", pattern, strict), ("q1", pattern, strict)]
        prefix = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2))
        queries.append(("suggest", prefix, data.draw(st.integers(1, 3)), data.draw(st.sampled_from([1, 5]))))
    return queries


def _answer(trie, query: tuple):
    kind, *args = query
    if kind == "count":
        pattern, strict = args
        return count_paths(trie, pattern, strict=strict)
    if kind == "q1":
        pattern, strict = args
        return q1(trie, pattern, strict=strict)
    return q2_suggest(trie, *args)


@given(trie=frozen_builds, data=st.data())
@settings(max_examples=100, deadline=None)
def test_answers_do_not_depend_on_the_order_queries_touch_a_frozen_trie(trie, data):
    # two fresh loads reach their nodes in two orders, and so number them differently
    doc = trie.to_document()
    queries = _queries(trie, _identifiers(trie), data)
    order = data.draw(st.permutations(range(len(queries))))
    one, other = FrozenTrie.from_document(copy.deepcopy(doc)), FrozenTrie.from_document(copy.deepcopy(doc))
    answers = [_answer(one, query) for query in queries]
    reordered = {k: _answer(other, queries[k]) for k in order}
    assert answers == [reordered[k] for k in range(len(queries))]
    thawed = Trie.from_document(doc)
    assert answers == [_answer(thawed, query) for query in queries]
