"""Prefix-trie indexing and querying of workflow provenance execution paths."""

from .bench import BenchRow, InsufficientData, loglog_slope, run_bench, run_bench_dp, run_bench_naive, write_csv
from .canonical import CanonicalSequence, SubsequenceWindow, ngrams, sequence
from .graph import (
    CyclicInput,
    GraphError,
    GraphKind,
    InvalidSize,
    MissingNode,
    ProvGraph,
    Role,
    RoleConflict,
    SelfLoopInDag,
    gen_clique,
)
from .ingest import (
    Direction,
    IngestError,
    NTriplesSyntaxError,
    ParsedTriples,
    PredicateMap,
    SchemaError,
    TraceDocument,
    parse_ntriples,
    triples_to_graph,
)
from .oracle import (
    TooLarge,
    WalkSet,
    all_pairs_clique_count,
    clique_walk_count,
    count_walks,
    enumerate_walks,
    iter_topological_orders,
)
from .query import (
    EmptyDepth,
    PathMatch,
    QueryPattern,
    count_paths,
    locate,
    most_probable_at_depth,
    q1,
    q2_suggest,
)
from .trie import (
    CorruptDocument,
    EmptySequence,
    FormatVersionMismatch,
    FrozenTrie,
    Trie,
    TrieMode,
    TrieModeError,
    TrieNode,
    load,
    load_frozen,
    save,
)

__version__ = "0.1.0"
