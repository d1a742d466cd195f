"""Loading provenance traces: an N-Triples subset and a native JSON format.

The RDF path is deliberately narrow.  Lines end at ``\\n``, ``\\r\\n`` or
``\\r``, as N-Triples ends them.  Supported lines are ``<s> <p> <o> .``
with URI or blank-node (``_:x``) terms, each matched by one pattern,
full-line ``#`` comments, and blank lines.  Quoted literal objects are
recognized but skipped (with a count): the index alphabet is resource
identifiers, so only resource-to-resource statements can become edges.
Anything else is a hard error with its line number; the parser never
guesses.

Which predicates become edges, and in which direction, is configurable
through a PredicateMap.  The default maps the usage/generation/derivation
vocabulary so that edges follow EXECUTION order, which inverts the RDF
arrow: a statement "activity used entity" produces the edge
entity -> activity, because the data must exist before the activity
consumes it.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Any, Iterable

from .graph import CyclicInput, GraphKind, ProvGraph, Role

PROV = "http://www.w3.org/ns/prov#"


class IngestError(Exception):
    """Base class for trace loading failures."""


class NTriplesSyntaxError(IngestError):
    """A line could not be classified; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(IngestError):
    """A trace document is missing fields or references unknown nodes."""


class Direction(Enum):
    S2O = "s2o"
    O2S = "o2s"


@dataclass(frozen=True)
class PredicateMap:
    """Which predicates produce edges and in which direction."""

    rules: dict[str, Direction]

    @classmethod
    def default(cls) -> "PredicateMap":
        return cls(
            {
                PROV + "used": Direction.O2S,
                PROV + "wasGeneratedBy": Direction.O2S,
                PROV + "wasDerivedFrom": Direction.O2S,
            }
        )

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "PredicateMap":
        """Parse ``<predicate-uri> s2o|o2s`` lines (comments and blanks ignored)."""
        rules: dict[str, Direction] = {}
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestError(f"predicate map line {lineno}: expected '<uri> s2o|o2s'")
            pred = parts[0]
            if pred.startswith("<") and pred.endswith(">"):
                pred = pred[1:-1]
            try:
                direction = Direction(parts[1].lower())
            except ValueError:
                raise IngestError(f"predicate map line {lineno}: bad direction {parts[1]!r}") from None
            if pred in rules:
                raise IngestError(f"predicate map line {lineno}: duplicate predicate {pred!r}")
            rules[pred] = direction
        return cls(rules)

    @classmethod
    def from_file(cls, path: str) -> "PredicateMap":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_lines(fh)


@dataclass(frozen=True)
class ParsedTriples:
    """Parser output: resource triples plus the skipped-literal tally."""

    triples: tuple[tuple[str, str, str], ...]
    skipped_literals: int


# A character of an IRI or blank-node label: any code point but "<", ">"
# and the 29 that str.isspace accepts (\t-\r \x1c-\x20 \x85 \xa0 \u1680
# \u2000-\u200a \u2028 \u2029 \u202f \u205f \u3000), so the class accepts
# exactly what [^<>\s] does.  Python's engine matches a line with this
# spelling in positive ranges in about half the time [^<>\s] takes, ASCII
# or not, and an ASCII line nearly as fast as with a class of ASCII ranges;
# a negated spelling ([^<>\t-\r...]) saves only a third.
_TERM = (
    r"[\x00-\x08\x0e-\x1b!-;=?-\x84\x86-\x9f\xa1-\u167f\u1681-\u1fff\u200b-\u2027"
    r"\u202a-\u202e\u2030-\u205e\u2060-\u2fff\u3001-\U0010ffff]"
)
_IRI = rf"<({_TERM}*)>"
_BLANK = rf"(_:{_TERM}+)"
# unrolled "(?:[^"\\]|\\.)*": the same strings, without one alternation per character
_LITERAL = rf'("[^"\\]*(?:\\.[^"\\]*)*"(?:@[A-Za-z][A-Za-z0-9\-]*|\^\^<{_TERM}*>)?)'


@cache
def _line() -> re.Pattern[str]:
    """The statement pattern.  Groups: subject IRI | blank, predicate,
    object IRI | blank | literal.  It is compiled on first use, since re
    takes 15-30 ms to expand its six copies of the term class, which a
    process that reads no N-Triples need not pay."""
    return re.compile(rf"\s*(?:{_IRI}|{_BLANK})\s+{_IRI}\s+(?:{_IRI}|{_BLANK}|{_LITERAL})\s*\.\s*")


def parse_ntriples(source: str | Iterable[str]) -> ParsedTriples:
    """Parse the supported N-Triples subset from a string or line iterable.

    Every input line is classified as a triple, comment, blank line, or
    skipped literal statement; anything else raises
    ``NTriplesSyntaxError`` with the line number.  A string is split at
    the N-Triples line ends only: ``\\n``, ``\\r\\n`` and ``\\r``.  Each line
    is matched once by the statement pattern; only a line that does not
    match is stripped and classified.
    """
    if isinstance(source, str):
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        lines: Iterable[str] = source.split("\n")
    else:
        lines = source
    fullmatch = _line().fullmatch
    triples: list[tuple[str, str, str]] = []
    skipped = 0
    for lineno, raw in enumerate(lines, 1):
        match = fullmatch(raw)
        if match is None:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not stripped.endswith("."):
                raise NTriplesSyntaxError(lineno, "missing terminal '.'")
            if raw.count("<") != raw.count(">"):
                raise NTriplesSyntaxError(lineno, "unbalanced angle brackets")
            raise NTriplesSyntaxError(lineno, f"malformed statement: {stripped[:80]!r}")
        subj, subj_blank, pred, obj, obj_blank, literal = match.groups()
        if literal is not None:
            skipped += 1
        else:
            triples.append((subj_blank if subj is None else subj, pred, obj_blank if obj is None else obj))
    return ParsedTriples(tuple(triples), skipped)


def triples_to_graph(
    triples: Iterable[tuple[str, str, str]],
    pmap: PredicateMap | None = None,
    kind: GraphKind = GraphKind.DAG,
) -> ProvGraph:
    """Turn triples into a graph using the predicate map.

    Unmapped predicates are ignored.  A graph stores no roles;
    ``ProvGraph.infer_roles`` derives them from the structure.  For
    DAG-kind output the edge relation is verified acyclic.
    """
    rules = (pmap if pmap is not None else PredicateMap.default()).rules
    s2o = Direction.S2O
    g = ProvGraph(kind)
    g.add_edges((s, o) if d is s2o else (o, s) for s, p, o in triples if (d := rules.get(p)) is not None)
    if kind is GraphKind.DAG and not g.validate_dag():
        raise CyclicInput("triples describe a cyclic graph; cannot build a DAG")
    return g


_ROLE_NAMES = {role.value: role for role in Role}


@dataclass(frozen=True)
class TraceDocument:
    """Native trace format: a named node/edge list.

    Serialized shape: ``{"trace_id": ..., "nodes": [{"id", "role"?}],
    "edges": [{"from", "to"}]}`` with roles in {"input", "output",
    "process"}.  Declared roles are validated and kept here, and written
    back as read; ``to_graph`` drops them, since a graph holds only
    resources and edges, and ``from_graph`` writes the roles that
    ``ProvGraph.infer_roles`` derives.
    """

    trace_id: str
    nodes: tuple[tuple[str, Role | None], ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def from_json(cls, doc: Any) -> "TraceDocument":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"not a valid trace document: {exc}") from None
        if not isinstance(doc, dict):
            raise SchemaError("trace document must be an object")
        try:
            trace_id = doc["trace_id"]
            raw_nodes = doc["nodes"]
            raw_edges = doc["edges"]
        except KeyError as exc:
            raise SchemaError(f"trace document missing field {exc}") from None
        if not isinstance(trace_id, str) or not trace_id:
            raise SchemaError("trace_id must be a nonempty string")
        if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
            raise SchemaError("nodes and edges must be arrays")
        nodes: list[tuple[str, Role | None]] = []
        seen: set[str] = set()
        for rec in raw_nodes:
            try:
                rid = rec["id"]
            except (TypeError, KeyError):
                raise SchemaError("node records need an 'id' field") from None
            if not isinstance(rid, str) or not rid:
                raise SchemaError("node ids must be nonempty strings")
            role_name = rec.get("role")
            if role_name is None:
                role = None
            else:
                role = _ROLE_NAMES.get(role_name) if isinstance(role_name, str) else None
                if role is None:
                    raise SchemaError(f"unknown role {role_name!r} on node {rid!r}")
            if rid in seen:
                raise SchemaError(f"duplicate node id {rid!r}")
            seen.add(rid)
            nodes.append((rid, role))
        edges: list[tuple[str, str]] = []
        for rec in raw_edges:
            try:
                src, dst = rec["from"], rec["to"]
            except (TypeError, KeyError):
                raise SchemaError("edge records need 'from' and 'to' fields") from None
            if not isinstance(src, str) or not isinstance(dst, str) or src not in seen or dst not in seen:
                raise SchemaError(f"edge {src!r} -> {dst!r} references an undeclared node")
            edges.append((src, dst))
        return cls(trace_id, tuple(nodes), tuple(edges))

    @classmethod
    def from_graph(cls, g: ProvGraph, trace_id: str) -> "TraceDocument":
        roles = g.infer_roles()
        nodes = tuple((rid, roles[rid]) for rid in g.node_ids)
        return cls(trace_id, nodes, tuple(g.edges()))

    def to_json(self) -> str:
        doc = {
            "trace_id": self.trace_id,
            "nodes": [
                {"id": rid} if role is None else {"id": rid, "role": role.value}
                for rid, role in self.nodes
            ],
            "edges": [{"from": src, "to": dst} for src, dst in self.edges],
        }
        return json.dumps(doc, indent=2)

    def to_graph(self, kind: GraphKind = GraphKind.DAG) -> ProvGraph:
        g = ProvGraph(kind)
        for rid, _ in self.nodes:
            g.add_node(rid)
        for src, dst in self.edges:
            g.add_edge(src, dst)
        if kind is GraphKind.DAG and not g.validate_dag():
            raise CyclicInput(f"trace {self.trace_id!r} is cyclic; cannot build a DAG")
        return g
