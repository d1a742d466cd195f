"""Shared test utilities: independent oracles and random structure generators.

The oracles here intentionally re-derive results from first principles
(raw field arithmetic, recursive scans) instead of calling the package's
own validation helpers, so that a bug cannot hide on both sides of a
comparison.
"""
from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from provtrie.graph import GraphKind, ProvGraph
from provtrie.query import PathMatch, QueryPattern
from provtrie.trie import CorruptDocument, Trie, TrieMode, TrieModeError, TrieNode


def has_cycle_dfs(g: ProvGraph) -> bool:
    """Classic three-color DFS back-edge finder."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {rid: WHITE for rid in g.node_ids}

    def visit(u: str) -> bool:
        color[u] = GREY
        for v in g.successors(u):
            if color[v] == GREY:
                return True
            if color[v] == WHITE and visit(v):
                return True
        color[u] = BLACK
        return False

    return any(visit(u) for u in g.node_ids if color[u] == WHITE)


def random_dag(rng: random.Random, max_nodes: int = 10, p: float | None = None) -> ProvGraph:
    """Random DAG: edges drawn from the upper triangle of a shuffled order."""
    n = rng.randint(1, max_nodes)
    if p is None:
        p = rng.uniform(0.0, 0.6)
    names = [f"urn:n{i:02d}" for i in range(n)]
    rng.shuffle(names)
    g = ProvGraph(GraphKind.DAG)
    for name in names:
        g.add_node(name)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j])
    return g


def random_dg(rng: random.Random, max_nodes: int = 8, p: float | None = None) -> ProvGraph:
    """Random directed graph, cycles and self-loops allowed."""
    n = rng.randint(2, max_nodes)
    if p is None:
        p = rng.uniform(0.1, min(0.5, 3.0 / n))
    names = [f"urn:n{i:02d}" for i in range(n)]
    g = ProvGraph(GraphKind.DG)
    for name in names:
        g.add_node(name)
    for u in names:
        for v in names:
            if rng.random() < (p * 0.3 if u == v else p):
                g.add_edge(u, v)
    return g


def insert_all(mode: TrieMode, corpus: Iterable[Sequence[str]], n: int = 0) -> Trie:
    trie = Trie(mode, n=n)
    add = trie.insert if mode is TrieMode.DAG else trie.insert_dg
    for seq in corpus:
        add(seq)
    return trie


def insert_based_index_graph_dg(trie: Trie, g: ProvGraph) -> None:
    """The original DG builder: one ``insert_dg`` per closing insertion.

    Kept verbatim (as a function of the trie) as the exactness reference
    for ``Trie.index_graph_dg``, which builds the same trie in one pass.
    """
    if trie.mode is not TrieMode.DG:
        raise TrieModeError("index_graph_dg requires a DG-mode trie")
    insert = trie.insert_dg

    def visit(path: list[str], on_path: set[str]) -> None:
        succs = g.successors(path[-1])
        if not succs:
            insert(path)
            return
        for w in succs:
            if w in on_path:
                insert(path + [w])
        for w in succs:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                visit(path, on_path)
                on_path.remove(w)
                path.pop()

    for start in g.node_ids:
        visit([start], {start})


def walk_up_check_invariants(trie: Trie) -> None:
    """The original ``Trie.check_invariants``: a sorted pre-order walk that
    tests each cycle-edge target by walking the parent chain up from its
    source.

    Kept verbatim (as a function of the trie, with the removed
    ``TrieNode.cycle_out_total`` written out) as the reference for the
    one-walk checker.  It does not test that identifiers along a DG root
    path are unique; the one-walk checker does.
    """
    self = trie
    recount: dict[int, dict[str, int]] = {}
    for node in self.iter_nodes():
        if node is not self.root:
            if node.parent is None or node.parent.children.get(node.id) is not node:  # type: ignore[arg-type]
                raise CorruptDocument(f"broken parent link at {node!r}")
            if node.depth != node.parent.depth + 1:
                raise CorruptDocument(f"bad depth at {node!r}")
            if not (0 <= node.entry_count <= node.freq):
                raise CorruptDocument(f"entry count out of range at {node!r}")
            if self.mode is TrieMode.DAG and node.entry_count != node.freq:
                raise CorruptDocument(f"cycle arrivals on DAG-mode node {node!r}")
            level = recount.setdefault(node.depth, {})
            level[node.id] = level.get(node.id, 0) + node.freq  # type: ignore[index]
        if self.mode is TrieMode.DAG and node.cycles:
            raise CorruptDocument(f"cycle-edges on DAG-mode node {node!r}")
        cycle_out_total = sum(edge.count for edge in node.cycles.values())
        descend_total = sum(c.entry_count for c in node.children.values())
        if node.freq != node.terminal_count + descend_total + cycle_out_total:
            raise CorruptDocument(f"conservation violated at {node!r}")
        if node.freq:
            sibling_sum = sum(c.entry_count for c in node.children.values()) / node.freq
            expected = (node.freq - node.terminal_count - cycle_out_total) / node.freq
            if abs(sibling_sum - expected) > 1e-12 or sibling_sum > 1.0 + 1e-12:
                raise CorruptDocument(f"sibling probabilities inconsistent at {node!r}")
        for label, edge in node.cycles.items():
            if label in node.children:
                raise CorruptDocument(f"cycle-edge label shadows a child at {node!r}")
            if edge.target.id != label:
                raise CorruptDocument(f"cycle-edge label mismatch at {node!r}")
            if edge.count < 1:
                raise CorruptDocument(f"cycle-edge without traversals at {node!r}")
            anc = node
            while anc is not None and anc is not edge.target:
                anc = anc.parent
            if anc is None:
                raise CorruptDocument(f"cycle-edge target not an ancestor at {node!r}")
    if self.root.freq != self.sequence_count:
        raise CorruptDocument("root frequency does not match the sequence count")
    if {d: t for d, t in self.depth_stats.per_depth.items() if t} != recount:
        raise CorruptDocument("per-depth statistics do not match a recount")


def prefix_match_oracle(
    windows: Iterable[Sequence[str]],
    prefix: Sequence[str],
    wildcards: int,
    terminal: str,
) -> set[tuple[str, ...]]:
    """Brute-force wildcard matching over an indexed window list.

    A root-anchored label sequence of length L exists in a DAG trie iff
    some inserted window starts with it; matching is plain positional
    string comparison on those prefixes.
    """
    k = len(prefix)
    total = k + wildcards + 1
    out: set[tuple[str, ...]] = set()
    for window in windows:
        if len(window) < total:
            continue
        head = tuple(window[:total])
        if list(head[:k]) == list(prefix) and head[-1] == terminal:
            out.add(head)
    return out


def walk_conservation_report(trie: Trie) -> list[str]:
    """Independently recheck the per-node bookkeeping; returns violations.

    Recomputes, from raw fields only: freq == terminal + descents into
    children + cycle traversals out, and the sibling probability sum rule
    (== 1 exactly when nothing terminated or cycled away, < 1 otherwise),
    at 1e-12 float tolerance.
    """
    problems: list[str] = []
    stack: list[TrieNode] = [trie.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        descents = sum(child.entry_count for child in node.children.values())
        cycles_out = sum(edge.count for edge in node.cycles.values())
        if node.freq != node.terminal_count + descents + cycles_out:
            problems.append(f"conservation broken at {node!r}")
        if node.freq > 0:
            sibling_sum = sum(child.entry_count / node.freq for child in node.children.values())
            if sibling_sum > 1.0 + 1e-12:
                problems.append(f"sibling probabilities exceed 1 at {node!r}")
            if node.terminal_count == 0 and cycles_out == 0:
                if abs(sibling_sum - 1.0) > 1e-12 and node.children:
                    problems.append(f"sibling probabilities do not sum to 1 at {node!r}")
            elif node.children and sibling_sum >= 1.0 - 1e-12 and (node.terminal_count or cycles_out):
                problems.append(f"sibling probabilities not strictly below 1 at {node!r}")
    return problems


def all_node_freqs(trie: Trie) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """Map each node's root path to (freq, entry_count, terminal_count)."""
    out: dict[tuple[str, ...], tuple[int, int, int]] = {}

    def go(node: TrieNode, path: tuple[str, ...]) -> None:
        out[path] = (node.freq, node.entry_count, node.terminal_count)
        for child in node.children.values():
            go(child, path + (child.id,))

    go(trie.root, ())
    return out


# ---- recursive reference queries ---------------------------------------------
#
# The original recursive walks of the query engine, kept verbatim (apart
# from their names) as the exactness reference for the iterative core:
# results must agree to the bit, order included.


def _step(node: TrieNode, label: str, follow_cycles: bool) -> tuple[TrieNode, float] | None:
    child = node.children.get(label)
    if child is not None:
        return child, child.entry_count / node.freq
    if follow_cycles:
        edge = node.cycles.get(label)
        if edge is not None:
            return edge.target, edge.count / node.freq
    return None


def _transitions(node: TrieNode, follow_cycles: bool) -> Iterator[tuple[str, TrieNode, float]]:
    """All outgoing steps of a node in label order, with step probabilities."""
    if follow_cycles and node.cycles:
        labels = sorted(set(node.children) | set(node.cycles))
    else:
        labels = sorted(node.children)
    for label in labels:
        child = node.children.get(label)
        if child is not None:
            yield label, child, child.entry_count / node.freq
        else:
            edge = node.cycles[label]
            yield label, edge.target, edge.count / node.freq


def _locate(trie: Trie, labels: Sequence[str]) -> tuple[TrieNode | None, int]:
    follow_cycles = trie.mode is TrieMode.DG
    node = trie.root
    visited = 0
    for label in labels:
        step = _step(node, label, follow_cycles)
        if step is None:
            return None, visited
        node = step[0]
        visited += 1
    return node, visited


def _check_strict(trie: Trie, strict: bool) -> None:
    if strict and trie.n != 0:
        raise ValueError("strict terminal matching applies to whole-sequence indexes only (n=0)")


def recursive_q1(trie: Trie, pattern: QueryPattern, strict: bool = False) -> list[PathMatch]:
    if pattern.terminal is None:
        raise ValueError("q1 patterns require a terminal identifier")
    _check_strict(trie, strict)
    labels = pattern.labels()
    follow_cycles = trie.mode is TrieMode.DG
    matches: list[PathMatch] = []
    path: list[str] = []

    def walk(node: TrieNode, i: int, likelihood: float) -> None:
        if i == len(labels):
            if strict and node.terminal_count == 0:
                return
            matches.append(PathMatch(tuple(path), node.freq, likelihood))
            return
        want = labels[i]
        if want is None:
            for label, nxt, p in _transitions(node, follow_cycles):
                path.append(label)
                walk(nxt, i + 1, likelihood * p)
                path.pop()
        else:
            step = _step(node, want, follow_cycles)
            if step is not None:
                path.append(want)
                walk(step[0], i + 1, likelihood * step[1])
                path.pop()

    walk(trie.root, 0, 1.0)
    matches.sort(key=lambda m: (-m.likelihood, m.path))
    return matches


def recursive_count_paths(trie: Trie, pattern: QueryPattern, strict: bool = False) -> int:
    if pattern.terminal is None:
        raise ValueError("q1 patterns require a terminal identifier")
    _check_strict(trie, strict)
    labels = pattern.labels()
    total = len(labels)
    follow_cycles = trie.mode is TrieMode.DG
    memo: dict[tuple[int, int], int] = {}

    def count(node: TrieNode, i: int) -> int:
        if i == total:
            if strict and node.terminal_count == 0:
                return 0
            return 1
        key = (id(node), i)
        cached = memo.get(key)
        if cached is not None:
            return cached
        want = labels[i]
        if want is None:
            result = 0
            for child in node.children.values():
                result += count(child, i + 1)
            if follow_cycles:
                for edge in node.cycles.values():
                    result += count(edge.target, i + 1)
        else:
            step = _step(node, want, follow_cycles)
            result = count(step[0], i + 1) if step is not None else 0
        memo[key] = result
        return result

    return count(trie.root, 0)


def recursive_q2_suggest(
    trie: Trie, prefix: Sequence[str], ahead: int, top: int
) -> list[tuple[tuple[str, ...], float]]:
    if not prefix:
        raise ValueError("suggestion prefix must be nonempty")
    if ahead < 1:
        raise ValueError(f"lookahead must be >= 1, got {ahead}")
    if top < 1:
        raise ValueError(f"result limit must be >= 1, got {top}")
    cursor, _ = _locate(trie, prefix)
    if cursor is None:
        return []
    follow_cycles = trie.mode is TrieMode.DG
    results: list[tuple[tuple[str, ...], float]] = []
    labels: list[str] = []

    def walk(node: TrieNode, left: int, likelihood: float) -> None:
        if left == 0:
            results.append((tuple(labels), likelihood))
            return
        for label, nxt, p in _transitions(node, follow_cycles):
            labels.append(label)
            walk(nxt, left - 1, likelihood * p)
            labels.pop()

    walk(cursor, ahead, 1.0)
    results.sort(key=lambda r: (-r[1], r[0]))
    return results[:top]
