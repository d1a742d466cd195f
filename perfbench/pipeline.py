"""The index pipeline, replayed through the package's public functions.

``ingest`` takes one trace text through parse -> graph -> roles ->
(canonical sequence -> windows -> insert) or, for a DG graph, the DG
build; it is the same sequence of calls ``provtrie index`` makes per file.
Every call goes through a tracer, so a traced run gets one span per layer
call, and the counts each layer reports are summed into ``counts``.

Run as a script, it performs one stage in a process of its own so that
the caller can read that process's peak RSS when it exits:

    python perfbench/pipeline.py build LISTFILE FORMAT MODE
    python perfbench/pipeline.py load TRIEFILE

``build`` indexes every file named in LISTFILE (one path a line) without
saving; ``load`` reads a saved trie.  Needs the package on PYTHONPATH.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from provtrie import GraphKind, TraceDocument, Trie, TrieMode, load, ngrams, parse_ntriples, sequence, triples_to_graph

from spans import NullTracer


def ingest(
    trie: Trie, text: str, fmt: str, kind: GraphKind, tracer=NullTracer(), counts: Counter | None = None
) -> tuple[str, ...]:
    """Index one trace; returns its canonical sequence (empty for a DG build)."""
    call = tracer.call
    if fmt == "ntriples":
        parsed = call("ingest.parse", parse_ntriples, text)
        g = call("ingest.to_graph", triples_to_graph, parsed.triples, None, kind)
    else:
        parsed = None
        doc = call("ingest.parse", TraceDocument.from_json, text)
        g = call("ingest.to_graph", doc.to_graph, kind)
    call("graph.infer_roles", g.infer_roles)
    if counts is not None:
        counts["ingest.triples"] += len(parsed.triples) if parsed else 0
        counts["ingest.literals_skipped"] += parsed.skipped_literals if parsed else 0
        counts["graph.nodes"] += g.node_count
        counts["graph.edges"] += g.edge_count
    if kind is GraphKind.DG:
        call("trie.index_graph_dg", trie.index_graph_dg, g)
        return ()
    seq = call("canonical.sequence", sequence, g)
    wins = call("canonical.ngrams", ngrams, seq, trie.n or len(seq)).windows
    insert = trie.insert if trie.mode is TrieMode.DAG else trie.insert_dg
    for window in wins:
        call("trie.insert", insert, window)
    if counts is not None:
        counts["canonical.windows"] += len(wins)
    return seq.items


def build(paths: list[Path], fmt: str, mode: str, tracer=NullTracer(), counts: Counter | None = None) -> Trie:
    """Index files the way ``provtrie index --format FMT --mode MODE`` does."""
    trie = Trie(TrieMode(mode))
    kind = GraphKind.DAG if trie.mode is TrieMode.DAG else GraphKind.DG
    for path in paths:
        ingest(trie, path.read_text(encoding="utf-8"), fmt, kind, tracer, counts)
    return trie


if __name__ == "__main__":
    if sys.argv[1] == "build":
        files = [Path(p) for p in Path(sys.argv[2]).read_text(encoding="utf-8").split()]
        build(files, sys.argv[3], sys.argv[4])
    else:
        load(sys.argv[2])
