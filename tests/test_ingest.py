import copy
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.canonical import sequence
from provtrie.cli import _load_graph
from provtrie.graph import CyclicInput, GraphError, GraphKind, Role, SelfLoopInDag
from provtrie.ingest import (
    _TERM,
    _line,
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

from helpers import SPACE_CLASS_LINE, SPACE_CLASS_TERM, per_triple_triples_to_graph, two_pattern_parse_ntriples

DATA = Path(__file__).parent / "data"
PROV = "http://www.w3.org/ns/prov#"


def test_parse_single_triple():
    result = parse_ntriples("<urn:a> <urn:p> <urn:b> .")
    assert result.triples == (("urn:a", "urn:p", "urn:b"),)
    assert result.skipped_literals == 0


def test_parse_comment_and_blank_lines():
    result = parse_ntriples("# comment\n\n   \n<urn:a> <urn:p> <urn:b> .")
    assert len(result.triples) == 1


def test_parse_skips_plain_literal():
    result = parse_ntriples('<urn:a> <urn:p> "lit" .')
    assert result.triples == ()
    assert result.skipped_literals == 1


def test_parse_skips_typed_and_tagged_literals():
    text = (
        '<urn:a> <urn:p> "x"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        '<urn:a> <urn:p> "hola"@es .\n'
        '<urn:a> <urn:p> "quoted \\"inner\\"" .'
    )
    result = parse_ntriples(text)
    assert result.skipped_literals == 3


def test_parse_blank_nodes():
    result = parse_ntriples("_:b0 <urn:p> <urn:x> .\n<urn:x> <urn:p> _:b1 .")
    assert result.triples == (("_:b0", "urn:p", "urn:x"), ("urn:x", "urn:p", "_:b1"))


def test_parse_missing_dot_reports_line():
    with pytest.raises(NTriplesSyntaxError) as err:
        parse_ntriples("<urn:a> <urn:p> <urn:b> .\n<urn:a> <urn:p> <urn:c>")
    assert err.value.line_number == 2
    assert "missing terminal" in str(err.value)


def test_parse_unbalanced_brackets():
    with pytest.raises(NTriplesSyntaxError) as err:
        parse_ntriples("<urn:a <urn:p> <urn:b> .")
    assert err.value.line_number == 1
    assert "angle brackets" in str(err.value)


def test_parse_garbage_line():
    with pytest.raises(NTriplesSyntaxError):
        parse_ntriples("just some words .")


def test_parse_accepts_line_iterables():
    lines = ["# c\n", "<urn:a> <urn:p> <urn:b> .\n"]
    assert len(parse_ntriples(lines).triples) == 1


# characters at which str.splitlines breaks a line and N-Triples does not
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_only_lf_crlf_and_cr_end_an_ntriples_line():
    for char in NOT_LINE_ENDS:
        text = f'<urn:a> <http://www.w3.org/2000/01/rdf-schema#label> "x{char}y" .\n<urn:a> <urn:p> <urn:b> .\n'
        assert parse_ntriples(text) == ParsedTriples((("urn:a", "urn:p", "urn:b"),), 1)
    for end in ["\n", "\r\n", "\r"]:
        text = end.join(["<urn:a> <urn:p> <urn:b> .", "# c", "", '<urn:a> <urn:p> "x" .', "<urn:a> <urn:p> <urn:c>"])
        with pytest.raises(NTriplesSyntaxError) as err:
            parse_ntriples(text)
        assert err.value.line_number == 5
        triples = (("urn:a", "urn:p", "urn:b"), ("urn:a", "urn:p", "urn:c"))
        assert parse_ntriples(text + " ." + end) == ParsedTriples(triples, 1)
    with pytest.raises(NTriplesSyntaxError) as err:
        parse_ntriples("<urn:a> <urn:p> <urn:b> .\r\n\r\r\n\n<urn:a>")
    assert err.value.line_number == 5


def test_default_map_used_direction():
    g = triples_to_graph([("urn:act1", PROV + "used", "urn:ent1")])
    assert g.has_edge("urn:ent1", "urn:act1")
    assert g.edge_count == 1


def test_default_map_generated_by_direction():
    g = triples_to_graph([("urn:ent2", PROV + "wasGeneratedBy", "urn:act1")])
    assert g.has_edge("urn:act1", "urn:ent2")


def test_unmapped_predicate_ignored():
    g = triples_to_graph([("urn:a", "urn:someOtherPredicate", "urn:b")])
    assert g.node_count == 0
    assert g.edge_count == 0


def test_direction_reversal_reverses_edges():
    triples = [(f"urn:s{i}", "urn:p", f"urn:o{i}") for i in range(5)]
    fwd = triples_to_graph(triples, PredicateMap({"urn:p": Direction.S2O}))
    rev = triples_to_graph(triples, PredicateMap({"urn:p": Direction.O2S}), kind=GraphKind.DG)
    assert {(v, u) for u, v in fwd.edges()} == set(rev.edges())


def test_cyclic_triples_rejected_for_dag():
    triples = [("urn:b", PROV + "used", "urn:a"), ("urn:a", PROV + "used", "urn:b")]
    with pytest.raises(CyclicInput):
        triples_to_graph(triples)
    g = triples_to_graph(triples, kind=GraphKind.DG)
    assert g.edge_count == 2


def test_self_loop_triple_rejected_for_dag():
    with pytest.raises(SelfLoopInDag):
        triples_to_graph([("urn:a", PROV + "used", "urn:a")])


def test_predicate_map_from_lines():
    pmap = PredicateMap.from_lines(["# comment", "<urn:vocab:feeds> s2o", "urn:vocab:consumes o2s"])
    assert pmap.rules == {
        "urn:vocab:feeds": Direction.S2O,
        "urn:vocab:consumes": Direction.O2S,
    }


def test_predicate_map_rejects_duplicates_and_bad_directions():
    with pytest.raises(IngestError):
        PredicateMap.from_lines(["urn:p s2o", "urn:p o2s"])
    with pytest.raises(IngestError):
        PredicateMap.from_lines(["urn:p sideways"])
    with pytest.raises(IngestError):
        PredicateMap.from_lines(["urn:p"])


def test_trace_document_roundtrip():
    doc = TraceDocument.from_json(
        {
            "trace_id": "t1",
            "nodes": [{"id": "urn:a", "role": "input"}, {"id": "urn:b"}],
            "edges": [{"from": "urn:a", "to": "urn:b"}],
        }
    )
    assert doc.trace_id == "t1"
    again = TraceDocument.from_json(doc.to_json())
    assert again == doc


def test_trace_document_graph_roundtrip():
    doc = TraceDocument.from_json(
        {
            "trace_id": "t2",
            "nodes": [{"id": "urn:a"}, {"id": "urn:b"}, {"id": "urn:c"}],
            "edges": [{"from": "urn:a", "to": "urn:b"}, {"from": "urn:b", "to": "urn:c"}],
        }
    )
    g = doc.to_graph()
    back = TraceDocument.from_graph(g, "t2")
    assert back.nodes == (("urn:a", Role.INPUT), ("urn:b", Role.PROCESS), ("urn:c", Role.OUTPUT))
    assert back.to_graph() == g


def test_trace_document_schema_errors():
    with pytest.raises(SchemaError):
        TraceDocument.from_json({"nodes": [], "edges": []})
    with pytest.raises(SchemaError):
        TraceDocument.from_json({"trace_id": "x", "nodes": [{"id": "urn:a"}], "edges": [{"from": "urn:a", "to": "urn:b"}]})
    with pytest.raises(SchemaError):
        TraceDocument.from_json({"trace_id": "x", "nodes": [{"id": "urn:a", "role": "wizard"}], "edges": []})
    with pytest.raises(SchemaError):
        TraceDocument.from_json({"trace_id": "x", "nodes": [{"id": "urn:a"}, {"id": "urn:a"}], "edges": []})
    with pytest.raises(SchemaError):
        TraceDocument.from_json("not json at all {")
    with pytest.raises(SchemaError, match="^trace document must be an object$"):
        TraceDocument.from_json("[]")
    # shapes that once escaped as TypeError
    for doc in [
        {"trace_id": "x", "nodes": 5, "edges": []},
        {"trace_id": "x", "nodes": [{"id": "urn:a"}], "edges": 7},
        {"trace_id": "x", "nodes": [{"id": "urn:a", "role": ["input"]}], "edges": []},
        {"trace_id": "x", "nodes": [{"id": "urn:a"}], "edges": [{"from": ["urn:a"], "to": "urn:a"}]},
    ]:
        with pytest.raises(SchemaError):
            TraceDocument.from_json(doc)
        with pytest.raises(SchemaError):
            TraceDocument.from_json(json.dumps(doc))


FUZZ_TRACE = {
    "trace_id": "fuzz",
    "nodes": [{"id": "urn:a", "role": "input"}, {"id": "urn:b", "role": "process"}, {"id": "urn:c"}],
    "edges": [{"from": "urn:a", "to": "urn:b"}, {"from": "urn:b", "to": "urn:c"}, {"from": "urn:c", "to": "urn:b"}],
}

# the empty list and dict are built afresh per draw, since a mutation may append to them
TRACE_JUNK = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from([2**70, True, None, 0.5, "", "urn:a", "urn:z", "input", "wizard"]),
    st.builds(list),
    st.builds(dict),
    st.builds(lambda: ["urn:a"]),
    st.builds(lambda: {"id": "urn:a"}),
)


def _containers(value, found):
    """Every list and dict inside ``value``, ``value`` included."""
    if isinstance(value, (list, dict)):
        found.append(value)
        for inner in value.values() if isinstance(value, dict) else value:
            _containers(inner, found)
    return found


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_trace_document_raises_only_schema_and_graph_errors(data):
    doc = copy.deepcopy(FUZZ_TRACE)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        target = data.draw(st.sampled_from(_containers(doc, [])))
        keys = sorted(target) if isinstance(target, dict) else list(range(len(target)))
        op = data.draw(st.sampled_from(["replace", "drop", "add"] if keys else ["add"]))
        if op == "add":
            value = data.draw(TRACE_JUNK)
            if isinstance(target, dict):
                target[data.draw(st.sampled_from(["id", "role", "from", "to", "extra"]))] = value
            else:
                target.append(value)
        else:
            key = data.draw(st.sampled_from(keys))
            if op == "drop":
                del target[key]
            else:
                target[key] = data.draw(TRACE_JUNK)
    source = json.dumps(doc) if data.draw(st.booleans()) else doc
    try:
        trace = TraceDocument.from_json(source)
    except SchemaError:
        return
    for kind in GraphKind:
        try:
            trace.to_graph(kind)
        except GraphError:
            pass


def test_load_trace_document_leaves_roles_to_infer_roles(tmp_path):
    # a graph holds no role: urn:b's declared one stays in the document
    path = tmp_path / "trace.json"
    path.write_text(
        '{"trace_id": "t", "nodes": [{"id": "urn:a"}, {"id": "urn:b", "role": "process"}], '
        '"edges": [{"from": "urn:a", "to": "urn:b"}]}',
        encoding="utf-8",
    )
    g, trace_id = _load_graph(str(path), "trace", GraphKind.DAG)
    assert trace_id == "t"
    assert g.infer_roles() == {"urn:a": Role.INPUT, "urn:b": Role.OUTPUT}


def test_fixture_traces_parse_and_linearize():
    expected = {
        "trace1": ("urn:ex:in1", "urn:ex:act1", "urn:ex:out1"),
        "trace2": ("urn:ex:in1", "urn:ex:in2", "urn:ex:act2", "urn:ex:out2"),
        "trace3": ("urn:ex:in1", "urn:ex:act1", "urn:ex:out3"),
        "trace4": ("urn:ex:in1", "urn:ex:w\xf6rterbuch", "urn:ex:\xfcbersetzen", "urn:ex:out2"),
    }
    skipped = {"trace1": 1, "trace2": 0, "trace3": 1, "trace4": 3}
    for name, want in expected.items():
        result = parse_ntriples((DATA / f"{name}.nt").read_text(encoding="utf-8"))
        assert result.skipped_literals == skipped[name]
        g = triples_to_graph(result.triples)
        assert sequence(g).items == want


def test_fixture_unmapped_association_ignored():
    result = parse_ntriples((DATA / "trace2.nt").read_text(encoding="utf-8"))
    g = triples_to_graph(result.triples)
    assert "urn:ex:agent1" not in g


def test_parser_totality_on_random_valid_lines():
    rng = random.Random(99)
    lines = []
    expected_triples = 0
    expected_skips = 0
    for _ in range(200):
        kind = rng.choice(["triple", "comment", "blank", "literal"])
        if kind == "triple":
            lines.append(f"<urn:s{rng.randint(0,9)}> <urn:p> <urn:o{rng.randint(0,9)}> .")
            expected_triples += 1
        elif kind == "comment":
            lines.append("# noise")
        elif kind == "blank":
            lines.append("   ")
        else:
            lines.append(f'<urn:s> <urn:p> "v{rng.randint(0,9)}" .')
            expected_skips += 1
    result = parse_ntriples("\n".join(lines))
    assert len(result.triples) == expected_triples
    assert result.skipped_literals == expected_skips


# Pieces of N-Triples lines, valid and not, for the differential fuzz below.
# ASCII and Unicode whitespace, among them the characters that end no N-Triples
# line; in a str source \n also ends a line
NT_SPACE = st.sampled_from([" ", "\t", "\n", "\xa0", "\u2003", "\u3000", "  ", *NOT_LINE_ENDS])
NT_SPACES = st.lists(NT_SPACE, max_size=2).map("".join)
NT_SEP = st.lists(NT_SPACE, min_size=1, max_size=2).map("".join)
NT_GAP = st.one_of(NT_SEP, st.just(""))
NT_IRI = st.sampled_from(["<urn:a>", "<>", "<urn:b#c>"])
NT_NODE = st.one_of(NT_IRI, st.sampled_from(["_:b0", "_:b0."]))
NT_LITERAL = st.tuples(
    st.one_of(
        st.sampled_from(
            ['"x"', '""', '"a \\"b\\" c"', '"\\\\"', '"t\\tn\\n"', '"<>"', '"two\nlines"', '"a\\\nb"', '"open', '"a\\"']
        ),
        st.sampled_from(NOT_LINE_ENDS).map('"a{}b"'.format),
    ),
    st.sampled_from(["", "@en", "@en-GB", "@1a", "@", "^^<urn:type>", "^^<>", "^^urn:type"]),
).map("".join)
NT_BROKEN = st.sampled_from(["<urn:a", "urn:a>", "<u rn>", "_:", "'x'", "", "<<urn:a>>"])
NT_DOT = st.sampled_from([".", ".", " .", "\t. ", "..", "", " . #", ". ."])
NT_HEAD = st.tuples(NT_SPACES, NT_NODE, NT_SEP, NT_IRI, NT_SEP).map("".join)  # subject and predicate
NT_DAMAGED = st.tuples(
    NT_SPACES,
    st.one_of(NT_NODE, NT_BROKEN),
    NT_GAP,
    st.one_of(NT_IRI, NT_BROKEN),
    NT_GAP,
    st.one_of(NT_NODE, NT_LITERAL, NT_BROKEN),
    NT_DOT,
    NT_SPACES,
).map("".join)
NT_TOKEN = st.one_of(
    NT_SPACE, NT_NODE, NT_LITERAL, NT_BROKEN, NT_DOT, st.sampled_from(["#", "<", ">", '"', "\\", "@", "^^", "word"])
)
# Plain ASCII statement lines, and variants of them, in ASCII and not
NT_ASCII_IRI = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters="<>"), max_size=4).map(
    "<{}>".format
)
NT_ASCII_LITERAL = st.tuples(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=4).map('"{}"'.format),
    st.sampled_from(["", "@en", "@en-GB", "^^<urn:type>", "^^<>"]),
).map("".join)
# subject, predicate and object
NT_PLAIN_TERMS = st.tuples(NT_ASCII_IRI, NT_ASCII_IRI, st.one_of(NT_ASCII_IRI, NT_ASCII_LITERAL))
NT_PLAIN = NT_PLAIN_TERMS.map(lambda t: f"{t[0]} {t[1]} {t[2]} .")
VARIANTS = {
    "tab": lambda s, p, o: f"{s}\t{p} {o} .",
    "double space": lambda s, p, o: f"{s} {p}  {o} .",
    "leading space": lambda s, p, o: f" {s} {p} {o} .",
    "trailing space": lambda s, p, o: f"{s} {p} {o} . ",
    "tab before the dot": lambda s, p, o: f"{s} {p} {o}\t.",
    "no space before the dot": lambda s, p, o: f"{s} {p} {o}.",
    "carriage return": lambda s, p, o: f"{s} {p} {o} .\r",
    "file line": lambda s, p, o: f"{s} {p} {o} .\n",
    "unit separator": lambda s, p, o: f"{s}\x1f{p} {o} .",
    "non-ASCII": lambda s, p, o: f"<\xe9{s[1:]} {p} {o} .",
    "non-ASCII literal": lambda s, p, o: f'{s} {p} "\xe9tape"@fr .',
    "Unicode space": lambda s, p, o: f"{s} <\u2003{p[1:]} {o} .",
    "no-break space": lambda s, p, o: f"{s}\xa0{p} {o} .",
    "control character": lambda s, p, o: f"{s} {p[:-1]}\x01> {o} .",
    "DEL": lambda s, p, o: f"<\x7f{s[1:]} {p} {o} .",
    "escaped quote": lambda s, p, o: f'{s} {p} "a\\"b" .',
    "escaped tab": lambda s, p, o: f'{s} {p} "a\\\tb" .',
    "backslash": lambda s, p, o: f'{s} {p} "\\\\"@en .',
    "quote": lambda s, p, o: f'{s} {p} "a"b" .',
    "angle bracket in an IRI": lambda s, p, o: f"{s} <a<b> {o} .",
    "angle brackets in an IRI": lambda s, p, o: f"{s} {p} <<>> .",
    "blank subject": lambda s, p, o: f"_:b0 {p} {o} .",
    "blank object": lambda s, p, o: f"{s} {p} _:b1 .",
    "no object": lambda s, p, o: f"{s} {p} .",
}
NT_VARIANT = st.tuples(NT_PLAIN_TERMS, st.sampled_from(sorted(VARIANTS))).map(lambda t: VARIANTS[t[1]](*t[0]))
NT_LINE = st.one_of(
    st.tuples(NT_HEAD, NT_NODE, NT_DOT, NT_SPACES).map("".join),
    st.tuples(NT_HEAD, NT_LITERAL, NT_DOT, NT_SPACES).map("".join),
    NT_DAMAGED,
    st.lists(NT_TOKEN, max_size=8).map("".join),
    st.sampled_from(["", "# comment", "  # indented comment", "#", " \t "]),
    NT_PLAIN,
    NT_VARIANT,
)
# the N-Triples line ends
NT_LINE_BREAK = st.sampled_from(["\n", "\r\n", "\r"])


def _parse_outcome(parse, source):
    try:
        return parse(source)
    except NTriplesSyntaxError as exc:
        return (str(exc), exc.line_number)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_agrees_with_the_two_pattern_reference(data):
    lines = data.draw(st.lists(NT_LINE, max_size=8))
    shape = data.draw(st.sampled_from(["str", "list", "iterator"]))
    if shape == "str":
        breaks = data.draw(st.lists(NT_LINE_BREAK, min_size=len(lines), max_size=len(lines)))
        text = "".join(line + end for line, end in zip(lines, breaks))
        if breaks and data.draw(st.booleans()):
            text = text[: -len(breaks[-1])]
        sources = (text, text)
    else:
        # file lines: each ends in "\n", the last perhaps not
        file_lines = [line + "\n" for line in lines]
        if file_lines and data.draw(st.booleans()):
            file_lines[-1] = lines[-1]
        sources = (list(file_lines), list(file_lines)) if shape == "list" else (iter(file_lines), iter(file_lines))
    new, reference = sources
    assert _parse_outcome(parse_ntriples, new) == _parse_outcome(two_pattern_parse_ntriples, reference)
    for line in lines:  # the first error above hides the lines after it
        assert _parse_outcome(parse_ntriples, [line]) == _parse_outcome(two_pattern_parse_ntriples, [line])


def test_the_term_class_accepts_exactly_what_the_space_class_reference_accepts():
    every_code_point = "".join(map(chr, range(0x110000)))
    accepted = "".join(re.findall(_TERM, every_code_point))
    assert accepted == "".join(re.findall(SPACE_CLASS_TERM, every_code_point))
    assert accepted == "".join(c for c in every_code_point if not c.isspace() and c not in "<>")


# Text around the bounds of the term class's ranges: the code points on each
# side of every bound, in the pieces of a statement line
NT_BOUNDS = [(0x08, 0x0E), (0x1B, 0x21), (0x3B, 0x3F), (0x84, 0x86), (0x9F, 0xA1), (0x167F, 0x1681)]
NT_BOUNDS += [(0x1FFF, 0x200B), (0x2027, 0x202A), (0x202E, 0x2030), (0x205E, 0x2060), (0x2FFF, 0x3001)]
NT_BOUNDS += [(0xFFFF, 0x10000), (0x10FFFF, 0x10FFFF)]  # the last range leaves the basic plane
NT_BOUND_TEXT = st.text(st.sampled_from([chr(c) for low, high in NT_BOUNDS for c in range(low, high + 1)]), max_size=3)
NT_BOUND_GAP = st.one_of(NT_BOUND_TEXT, NT_SEP)
NT_BOUND_IRI = NT_BOUND_TEXT.map("<{}>".format)
NT_BOUND_NODE = st.one_of(NT_BOUND_IRI, NT_BOUND_TEXT.map("_:{}".format))
NT_BOUND_LITERAL = st.tuples(NT_BOUND_TEXT, st.sampled_from(["", "@en"]), NT_BOUND_TEXT).map(
    lambda t: f'"{t[0]}"{t[1]}' if t[1] else f'"{t[0]}"^^<{t[2]}>'
)
NT_BOUND_LINE = st.tuples(
    NT_BOUND_GAP,
    NT_BOUND_NODE,
    NT_BOUND_GAP,
    NT_BOUND_IRI,
    NT_BOUND_GAP,
    st.one_of(NT_BOUND_NODE, NT_BOUND_LITERAL),
    NT_BOUND_GAP,
    st.just("."),
    NT_BOUND_GAP,
).map("".join)


def _groups(match):
    return None if match is None else match.groups()


@settings(max_examples=1000, deadline=None)
@given(st.one_of(NT_LINE, NT_BOUND_LINE))
def test_the_statement_pattern_matches_as_the_space_class_reference(line):
    assert _groups(_line().fullmatch(line)) == _groups(SPACE_CLASS_LINE.fullmatch(line))


def test_the_statement_variants_of_a_plain_line_match():
    lines = {name: variant("<urn:s>", "<urn:p>", "<urn:o>") for name, variant in VARIANTS.items()}
    unmatched = {name for name, line in lines.items() if _line().fullmatch(line) is None}
    assert unmatched == {"Unicode space", "quote", "angle bracket in an IRI", "angle brackets in an IRI", "no object"}


# Identifiers for the graph build's differential test: duplicates, the empty
# string, non-strings and an unhashable list (built afresh per draw)
GRAPH_ID = st.one_of(st.sampled_from(["urn:a", "urn:b", "urn:c", "", None, 5, b"urn:a"]), st.builds(lambda: ["urn:a"]))
GRAPH_PREDICATE = st.sampled_from([PROV + "used", PROV + "wasGeneratedBy", "urn:feeds", "urn:unmapped"])
GRAPH_MAPS = [None, PredicateMap({PROV + "used": Direction.O2S, "urn:feeds": Direction.S2O})]


def _build_outcome(build, triples, pmap, kind):
    try:
        g = build(triples, pmap, kind)
    except Exception as exc:  # the same type and message on both sides, whatever they are
        return type(exc), str(exc)
    return g, g.edge_count, {rid: g.in_degree(rid) for rid in g.node_ids}


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(GRAPH_ID, GRAPH_PREDICATE, GRAPH_ID), max_size=8),
    st.sampled_from(GRAPH_MAPS),
    st.sampled_from(GraphKind),
)
def test_triples_to_graph_agrees_with_the_per_triple_reference(triples, pmap, kind):
    assert _build_outcome(triples_to_graph, triples, pmap, kind) == _build_outcome(
        per_triple_triples_to_graph, triples, pmap, kind
    )


def test_load_graph_gives_no_trace_id_for_ntriples():
    g, trace_id = _load_graph(str(DATA / "trace2.nt"), "ntriples", GraphKind.DAG)
    assert trace_id is None
    assert sequence(g).items == ("urn:ex:in1", "urn:ex:in2", "urn:ex:act2", "urn:ex:out2")
