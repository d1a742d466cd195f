"""Command-line interface: index, query, suggest, stats, gen-clique, oracle, bench.

Machine-readable line output on stdout, diagnostics on stderr.  Exit
codes: 0 success (also when the reader closes stdout early), 1 input/data
error, 2 usage error.  The environment
variable PROVTRIE_PREDICATE_MAP may point at a predicate map file that
replaces the built-in edge-mapping rules for RDF input.  Commands run with
the cyclic garbage collector paused, since what they build lives until
the process exits.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .bench import run_bench, run_bench_naive, write_csv
from .canonical import ngrams, sequence
from .graph import GraphError, GraphKind, ProvGraph, gen_clique
from .ingest import IngestError, PredicateMap, TraceDocument, parse_ntriples, triples_to_graph
from .oracle import all_pairs_clique_count, clique_walk_count, count_walks, enumerate_walks
from .query import EmptyDepth, PathMatch, QueryPattern, count_paths, q1, q2_suggest
from .trie import Trie, TrieError, TrieMode, load, save

PREDICATE_MAP_ENV = "PROVTRIE_PREDICATE_MAP"


def _predicate_map() -> PredicateMap:
    override = os.environ.get(PREDICATE_MAP_ENV)
    if override:
        return PredicateMap.from_file(override)
    return PredicateMap.default()


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str, fmt: str, kind: GraphKind) -> tuple[ProvGraph, str]:
    """Load one trace file; returns the graph and a trace identifier."""
    text = _read_text(path)
    if fmt == "ntriples":
        parsed = parse_ntriples(text)
        if parsed.skipped_literals:
            print(f"note: {path}: skipped {parsed.skipped_literals} literal statement(s)", file=sys.stderr)
        g = triples_to_graph(parsed.triples, _predicate_map(), kind)
        g.infer_roles()
        trace_id = Path(path).stem if path != "-" else "stdin"
        return g, trace_id
    doc = TraceDocument.from_json(text)
    return doc.to_graph(kind).infer_roles(), doc.trace_id


def _print_matches(matches: list[PathMatch], limit: int) -> None:
    if limit > 0:
        matches = matches[:limit]
    for m in matches:
        print(f"{','.join(m.path)}\t{m.freq}\t{m.likelihood:.6f}")


def cmd_index(args: argparse.Namespace) -> int:
    mode = TrieMode(args.mode)
    if mode is TrieMode.DG and args.ngram:
        print("usage error: --ngram applies to --mode dag only", file=sys.stderr)
        return 2
    kind = GraphKind.DAG if mode is TrieMode.DAG else GraphKind.DG
    trie = Trie(mode, n=args.ngram)
    traces = 0
    for path in args.inputs:
        g, trace_id = _load_graph(path, args.format, kind)
        if mode is TrieMode.DAG:
            seq = sequence(g, source=trace_id)
            if not seq.items:
                print(f"note: {path}: empty trace, nothing to index", file=sys.stderr)
                continue
            window_len = args.ngram if args.ngram else len(seq.items)
            for window in ngrams(seq, window_len).windows:
                trie.insert(window)
        else:
            trie.index_graph_dg(g)
        traces += 1
    nodes = save(trie, args.out)
    print(f"traces\t{traces}")
    print(f"sequences\t{trie.sequence_count}")
    print(f"nodes\t{nodes}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    trie = load(args.trie)
    pattern = QueryPattern((args.start,), args.wildcards, args.end)
    if args.count_only:
        print(count_paths(trie, pattern, strict=args.strict))
    else:
        _print_matches(q1(trie, pattern, strict=args.strict), args.limit)
    return 0


def cmd_suggest(args: argparse.Namespace) -> int:
    trie = load(args.trie)
    for completion, likelihood in q2_suggest(trie, args.prefix, args.ahead, args.top):
        print(f"{','.join(completion)}\t{likelihood:.6f}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trie = load(args.trie)
    depths = [args.depth] if args.depth is not None else list(trie.depth_stats.depths())
    for depth in depths:
        table = trie.depth_stats.at(depth)
        for rid, freq in sorted(table.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{depth}\t{rid}\t{freq}")
    return 0


def cmd_gen_clique(args: argparse.Namespace) -> int:
    doc = TraceDocument.from_graph(gen_clique(args.size), f"clique-{args.size}")
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if (args.clique is None) == (args.input is None):
        print("usage error: provide exactly one of --clique or --input", file=sys.stderr)
        return 2
    if args.clique is not None:
        if args.enumerate:
            print("usage error: --enumerate requires --input", file=sys.stderr)
            return 2
        if args.all_pairs:
            print(all_pairs_clique_count(args.clique, args.steps))
        else:
            print(clique_walk_count(args.clique, args.steps))
        return 0
    if args.all_pairs:
        print("usage error: --all-pairs requires --clique", file=sys.stderr)
        return 2
    if not args.start or not args.end:
        print("usage error: --input mode requires --start and --end", file=sys.stderr)
        return 2
    g, _ = _load_graph(args.input, args.format, GraphKind.DG)
    if args.enumerate:
        for walk in enumerate_walks(g, args.start, args.end, args.steps).walks:
            print(",".join(walk))
    else:
        print(count_walks(g, args.start, args.end, args.steps))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    unknown = set(engines) - {"trie", "naive"}
    if unknown or not engines:
        print(f"usage error: unknown engine(s): {','.join(sorted(unknown)) or '(none)'}", file=sys.stderr)
        return 2
    g, trace_id = _load_graph(args.input, args.format, GraphKind.DG)
    dataset = args.dataset or trace_id
    rows = []
    if "trie" in engines:
        trie = Trie(TrieMode.DG)
        trie.index_graph_dg(g)
        rows.extend(
            run_bench(trie, args.start, args.end, args.max_wildcards, args.trials, args.warmup, dataset)
        )
    if "naive" in engines:
        naive_max = min(args.max_wildcards, args.naive_max_wildcards)
        rows.extend(
            run_bench_naive(g, args.start, args.end, naive_max, args.trials, args.warmup, dataset)
        )
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
    p.add_argument("--engines", default="trie", help="comma-separated: trie,naive")
    p.add_argument("--naive-max-wildcards", type=int, default=5)
    p.add_argument("--dataset", default=None, help="dataset label for CSV rows")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


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
    except (GraphError, TrieError, IngestError, EmptyDepth, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
