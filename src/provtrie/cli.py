"""Command-line interface: index, query, suggest, stats, inspect, gen-clique, oracle, bench.

Machine-readable line output on stdout, diagnostics on stderr.  Exit
codes: 0 success (also when the reader closes stdout early), 1 input/data
error, 2 usage error.  The environment variable PROVTRIE_PREDICATE_MAP may
point at a predicate map file that replaces the built-in edge-mapping
rules for RDF input.  Every trace input, a file or ``-`` for stdin, is
decoded as UTF-8.  ``index`` builds no ``Trie``: it hands the DAG runs,
one at a time as it reads them, to ``trie.dag_document``, which counts
their windows and reads the class table off the sorted windows, or every
DG trace at once to ``trie.dg_document``, one pass over DFS states, and
writes the document with ``trie.write_document``; it and ``bench`` check
``--out`` before they read a trace.  Commands run with the cyclic garbage
collector paused, since what they build lives until the process exits;
``entry``, behind ``provtrie`` and ``python -m provtrie``, leaves it off
until then.  A command imports the modules it calls when it runs, so
``query``, ``suggest``, ``stats`` and ``inspect`` load only ``kinds``,
``document`` and ``query``, and never a builder.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Iterator

from .document import COLUMNS, HEADER_COUNTS, FrozenTrie, TrieError, TrieMode, _levels, _read, load_frozen
from .kinds import GraphError, GraphKind
from .query import (
    PathMatch,
    QueryPattern,
    check_limit,
    check_suggestion,
    count_paths,
    count_text,
    q1,
    q2_suggest,
)

if TYPE_CHECKING:
    from .graph import ProvGraph
    from .ingest import PredicateMap

PREDICATE_MAP_ENV = "PROVTRIE_PREDICATE_MAP"


def _predicate_map() -> PredicateMap:
    from .ingest import PredicateMap

    override = os.environ.get(PREDICATE_MAP_ENV)
    if override:
        return PredicateMap.from_file(override)
    return PredicateMap.default()


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str, fmt: str, kind: GraphKind, pmap: PredicateMap | None = None) -> tuple[ProvGraph, str | None]:
    """Load one trace file; returns the graph and the trace document's own
    identifier, None for N-Triples, which has none.  RDF input maps
    predicates with ``pmap``, read from the environment if None."""
    from .ingest import TraceDocument, parse_ntriples, triples_to_graph

    text = _read_text(path)
    if fmt == "ntriples":
        parsed = parse_ntriples(text)
        if parsed.skipped_literals:
            print(f"note: {path}: skipped {parsed.skipped_literals} literal statement(s)", file=sys.stderr)
        return triples_to_graph(parsed.triples, pmap if pmap is not None else _predicate_map(), kind), None
    doc = TraceDocument.from_json(text)
    return doc.to_graph(kind), doc.trace_id


def _print_matches(matches: list[PathMatch]) -> None:
    for m in matches:
        print(f"{','.join(m.path)}\t{m.freq}\t{m.likelihood:.6f}")


def _check_out(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise only after the
    whole build or timing, for a path never writable: an empty one or one in a
    missing directory, one under a file, or an existing directory.  Creates
    nothing; any other failure, a full disk say, still shows at the write."""
    directory = os.path.dirname(path) or os.curdir
    if not path or not os.path.exists(directory):
        code = errno.ENOENT
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def cmd_index(args: argparse.Namespace) -> int:
    from .trie import dag_document, dg_document, write_document

    mode = TrieMode(args.mode)
    if mode is TrieMode.DG and args.ngram:
        print("usage error: --ngram applies to --mode dag only", file=sys.stderr)
        return 2
    _check_out(args.out)  # before the first input is read
    traces = 0

    def graphs() -> Iterator[ProvGraph]:
        """Each input's graph but an empty one's, which gets a note, read
        when taken and counted in ``traces``."""
        nonlocal traces
        pmap = _predicate_map() if args.format == "ntriples" else None  # one read for all inputs
        for path in args.inputs:
            g, _ = _load_graph(path, args.format, mode, pmap)
            if not g.node_count:
                print(f"note: {path}: empty trace, nothing to index", file=sys.stderr)
                continue
            traces += 1
            yield g

    # every DG trace goes into one pass over DFS states; dag_document refuses a
    # negative --ngram before it takes the first run, then counts each run's windows
    doc = dg_document(list(graphs())) if mode is TrieMode.DG else dag_document(graphs(), args.ngram)
    nodes = write_document(doc, args.out)
    print(f"traces\t{traces}")
    print(f"sequences\t{doc['sequence_count']}")
    print(f"nodes\t{nodes}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    pattern = QueryPattern((args.start,), args.wildcards, args.end)
    check_limit(args.limit)
    trie = load_frozen(args.trie)
    if args.count_only:
        print(count_text(count_paths(trie, pattern, strict=args.strict)))
    else:
        _print_matches(q1(trie, pattern, strict=args.strict, limit=args.limit))
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    check_suggestion(args.prefix, args.ahead, args.top)
    trie = load_frozen(args.trie)
    for completion, likelihood in q2_suggest(trie, args.prefix, args.ahead, args.top):
        print(f"{','.join(completion)}\t{likelihood:.6f}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.depth is not None and args.depth < 1:
        raise ValueError(f"depth must be >= 1, got {args.depth}")
    trie = load_frozen(args.trie)
    depths = [args.depth] if args.depth is not None else sorted(trie.depth_stats)
    for depth in depths:
        table = trie.depth_stats.get(depth, {})
        for rid, freq in sorted(table.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{depth}\t{rid}\t{freq}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """The header and shape of a trie document, after one checked load."""
    doc = _read(args.trie)
    size = os.stat(args.trie).st_size
    trie = FrozenTrie.from_document(doc)
    for key in ("format_version", "mode", *HEADER_COUNTS):
        print(f"{key}\t{doc[key]}")
    print("widths\t" + ",".join(f"{name}:{width}" for name, width in zip(COLUMNS, doc["widths"])))
    first = trie.table.first  # class k has first[k + 1] - first[k] children
    fanouts = Counter({first[1] - first[0]: 1})  # the root's
    levels = []  # nodes per depth: each class counted at each of its places
    for classes, places in _levels(trie.table):
        nodes = 0
        for k, times in zip(classes, places):
            fanouts[first[k + 1] - first[k]] += times
            nodes += times
        levels.append(nodes)
    print(f"max_depth\t{len(levels)}")
    for depth, nodes in enumerate(levels, 1):
        print(f"depth\t{depth}\t{nodes}")
    for fanout, nodes in sorted(fanouts.items()):
        print(f"fanout\t{fanout}\t{nodes}")
    print(f"labels\t{len(doc['labels'])}")
    print(f"document_bytes\t{size}")
    return 0


def cmd_gen_clique(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .graph import gen_clique
    from .ingest import TraceDocument

    doc = TraceDocument.from_graph(gen_clique(args.size), f"clique-{args.size}")
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import all_pairs_clique_count, clique_walk_count, count_walks, enumerate_walks

    if (args.clique is None) == (args.input is None):
        print("usage error: provide exactly one of --clique or --input", file=sys.stderr)
        return 2
    if args.clique is not None:
        if args.enumerate:
            print("usage error: --enumerate requires --input", file=sys.stderr)
            return 2
        if args.all_pairs:
            print(count_text(all_pairs_clique_count(args.clique, args.steps)))
        else:
            print(count_text(clique_walk_count(args.clique, args.steps)))
        return 0
    if args.all_pairs:
        print("usage error: --all-pairs requires --clique", file=sys.stderr)
        return 2
    if not args.start or not args.end:
        print("usage error: --input mode requires --start and --end", file=sys.stderr)
        return 2
    g, _ = _load_graph(args.input, args.format, GraphKind.DG)
    if args.enumerate:
        for walk in enumerate_walks(g, args.start, args.end, args.steps):
            print(",".join(walk))
    else:
        print(count_text(count_walks(g, args.start, args.end, args.steps)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import check_protocol, dp_counter, naive_counter, run_bench, trie_counter, write_csv
    from .trie import Trie

    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = set(engines) - {"trie", "naive", "dp"}
    if unknown or not engines:
        print(f"usage error: unknown engine(s): {','.join(sorted(unknown)) or '(none)'}", file=sys.stderr)
        return 2
    check_protocol(args.max_wildcards, args.trials, args.warmup)
    if "naive" in engines and args.naive_max_wildcards < 1:
        raise ValueError(f"naive_max_wildcards must be >= 1, got {args.naive_max_wildcards}")
    if args.out:
        _check_out(args.out)  # before the first timing
    g, trace_id = _load_graph(args.input, args.format, GraphKind.DG)
    for flag, rid in (("--start", args.start), ("--end", args.end)):
        if rid not in g:
            print(f"error: {flag} {rid!r} is not in the graph", file=sys.stderr)
            return 1
    if not args.dataset and trace_id is None:  # N-Triples: the file's name
        from pathlib import Path

        trace_id = Path(args.input).stem if args.input != "-" else "stdin"
    dataset = args.dataset or trace_id
    protocol = (args.trials, args.warmup, dataset)
    rows = []
    if "trie" in engines:
        trie = Trie(TrieMode.DG)
        trie.index_graph(g)
        rows += run_bench(trie_counter(trie, args.start, args.end), "trie", args.max_wildcards, *protocol)
    if "naive" in engines:
        naive_max = min(args.max_wildcards, args.naive_max_wildcards)
        rows += run_bench(naive_counter(g, args.start, args.end), "naive", naive_max, *protocol)
    if "dp" in engines:
        rows += run_bench(dp_counter(g, args.start, args.end), "dp", args.max_wildcards, *protocol)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="provtrie", description="Provenance execution-path trie index")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build a trie index from trace files")
    p.add_argument("inputs", nargs="+", help="trace files ('-' for stdin)")
    p.add_argument("--format", choices=["ntriples", "trace"], default="trace")
    p.add_argument("--mode", choices=["dag", "dg"], default="dag")
    p.add_argument("--ngram", type=int, default=0, help="window length; 0 indexes whole sequences")
    p.add_argument("--out", required=True, help="trie output path")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="wildcard path search over a trie")
    p.add_argument("trie", help="trie file")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--wildcards", type=int, default=0)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--limit", type=int, default=0, help="print at most N matches (0 = all)")
    p.add_argument("--strict", action="store_true", help="require matches to end an indexed sequence")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("suggest", help="most likely continuations of a prefix")
    p.add_argument("trie", help="trie file")
    p.add_argument("--prefix", nargs="+", required=True)
    p.add_argument("--ahead", type=int, default=1)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("stats", help="per-depth identifier frequency table")
    p.add_argument("trie", help="trie file")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("inspect", help="header, shape and size of a trie document")
    p.add_argument("trie", help="trie file")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gen-clique", help="emit a complete graph as a trace document")
    p.add_argument("size", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_clique)

    p = sub.add_parser("oracle", help="brute-force walk counts and closed-form clique counts")
    p.add_argument("--clique", type=int, default=None, help="closed-form count for a clique of this size")
    p.add_argument("--all-pairs", action="store_true", help="sum over all unordered vertex pairs")
    p.add_argument("--input", default=None, help="trace file to enumerate walks over")
    p.add_argument("--format", choices=["ntriples", "trace"], default="trace")
    p.add_argument("--start", default=None)
    p.add_argument("--end", default=None)
    p.add_argument("--steps", type=int, required=True, help="walk length in edges")
    p.add_argument("--enumerate", action="store_true", help="print walks instead of the count")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="timed count queries, CSV output")
    p.add_argument("input", help="trace file ('-' for stdin)")
    p.add_argument("--format", choices=["ntriples", "trace"], default="trace")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--max-wildcards", type=int, default=9)
    p.add_argument("--trials", type=int, default=7)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--engines", default="trie", help="comma-separated: trie,naive,dp")
    p.add_argument("--naive-max-wildcards", type=int, default=5)
    p.add_argument("--dataset", default=None, help="dataset label for CSV rows")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def _data_errors() -> tuple[type[Exception], ...]:
    """The exceptions that report bad input or data as ``error:`` and exit
    1.  A command imports the modules it calls, so it can raise an
    ``IngestError`` or a ``BenchAborted`` only once that module is loaded."""
    errors = [GraphError, TrieError, ValueError, ArithmeticError, OSError]
    for module, name in ((".ingest", "IngestError"), (".bench", "BenchAborted")):
        loaded = sys.modules.get(__package__ + module)
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command's big structures live until the process exits, so cyclic
    # collection while it runs frees nothing; in-process callers get the
    # collector back as they left it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`) and has all it wanted.  Point
        # fd 1 at devnull so that the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _data_errors() as exc:  # evaluated only once a command has raised
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> int:
    """The process entry point, ``main`` with the collector left off until exit."""
    gc.disable()  # what a command built lives until exit: no collection after main() either
    return main()
