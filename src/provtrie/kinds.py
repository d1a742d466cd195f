"""The graph names that the read path shares with the graph builder.

A trie's mode is the kind of graph it indexes, and the CLI reports graph
errors, so ``document`` and ``cli`` need these two names; importing them
from here keeps the builder (``graph``, which re-exports both) out of a
read command's process.
"""
from enum import Enum


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class GraphKind(Enum):
    DAG = "dag"
    DG = "dg"
