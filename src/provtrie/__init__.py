"""Prefix-trie indexing and querying of workflow provenance execution paths.

The package namespace is lazy (PEP 562): ``from provtrie import X``
imports the submodule that defines ``X`` on first use, so a process loads
only the modules it reads.
"""
from importlib import import_module
from typing import Any

_EXPORTS = {  # submodule -> the names it exports here
    "bench": "BenchRow InsufficientData dp_counter loglog_slope naive_counter run_bench trie_counter write_csv",
    "canonical": "CanonicalSequence SubsequenceWindow ngrams sequence",
    "document": "CorruptDocument FormatVersionMismatch FrozenTrie TrieMode load_frozen",
    "graph": "CyclicInput GraphError GraphKind InvalidSize MissingNode ProvGraph Role SelfLoopInDag gen_clique",
    "ingest": "Direction IngestError NTriplesSyntaxError ParsedTriples PredicateMap SchemaError TraceDocument "
    "parse_ntriples triples_to_graph",
    "oracle": "TooLarge all_pairs_clique_count clique_walk_count count_walks enumerate_walks "
    "iter_topological_orders",
    "query": "EmptyDepth PathMatch QueryPattern count_paths locate most_probable_at_depth q1 q2_suggest",
    "trie": "EmptySequence Trie TrieNode load save",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str) -> Any:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)  # the next lookup finds it here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
