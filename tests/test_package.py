import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import provtrie

# every name the package exported when it imported all its submodules up front
EXPORTS = {
    "bench": [
        "BenchRow",
        "InsufficientData",
        "dp_counter",
        "loglog_slope",
        "naive_counter",
        "run_bench",
        "trie_counter",
        "write_csv",
    ],
    "canonical": ["CanonicalSequence", "SubsequenceWindow", "ngrams", "sequence"],
    "graph": [
        "CyclicInput",
        "GraphError",
        "GraphKind",
        "InvalidSize",
        "MissingNode",
        "ProvGraph",
        "Role",
        "SelfLoopInDag",
        "gen_clique",
    ],
    "ingest": [
        "Direction",
        "IngestError",
        "NTriplesSyntaxError",
        "ParsedTriples",
        "PredicateMap",
        "SchemaError",
        "TraceDocument",
        "parse_ntriples",
        "triples_to_graph",
    ],
    "oracle": [
        "TooLarge",
        "all_pairs_clique_count",
        "clique_walk_count",
        "count_walks",
        "enumerate_walks",
        "iter_topological_orders",
    ],
    "query": ["EmptyDepth", "PathMatch", "QueryPattern", "count_paths", "locate", "most_probable_at_depth", "q1", "q2_suggest"],
    "trie": [
        "CorruptDocument",
        "EmptySequence",
        "FormatVersionMismatch",
        "FrozenTrie",
        "Trie",
        "TrieMode",
        "TrieNode",
        "load",
        "load_frozen",
        "save",
    ],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_every_exported_name_resolves_to_its_submodule_attribute(module, name):
    namespace: dict = {}
    exec(f"from provtrie import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"provtrie.{module}"), name)


def test_dir_and_all_list_every_exported_name():
    names = {name for _, name in NAMES}
    assert set(provtrie.__all__) == names
    assert names <= set(dir(provtrie))
    assert provtrie.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        provtrie.no_such_name
    assert not hasattr(provtrie, "no_such_name")
    with pytest.raises(ImportError):
        exec("from provtrie import no_such_name", {})


def test_importing_the_package_imports_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = "import sys, provtrie; print(sorted(m for m in sys.modules if m.startswith('provtrie')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['provtrie']\n", "")
