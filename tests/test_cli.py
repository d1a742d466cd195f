import argparse
import gc
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provtrie.cli import build_parser, main
from provtrie.graph import gen_clique
from provtrie.ingest import PredicateMap
from provtrie.oracle import all_pairs_clique_count, clique_walk_count
from provtrie.query import QueryPattern, count_paths, q1
from provtrie.trie import FormatVersionMismatch, Trie, TrieMode, load, load_frozen, save

from helpers import decode_document, digits, find, format2_document, node_count

DATA = Path(__file__).parent / "data"

LINEAR_TRACE = {
    "trace_id": "linear-5",
    "nodes": [{"id": f"urn:s{i}"} for i in range(5)],
    "edges": [{"from": f"urn:s{i}", "to": f"urn:s{i+1}"} for i in range(4)],
}


@pytest.fixture()
def linear_trace_file(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR_TRACE), encoding="utf-8")
    return path


@pytest.fixture()
def clique4_file(tmp_path):
    path = tmp_path / "clique4.json"
    assert main(["gen-clique", "4", "--out", str(path)]) == 0
    return path


def test_gen_clique_document(tmp_path, capsys):
    assert main(["gen-clique", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace_id"] == "clique-2"
    assert [n["id"] for n in doc["nodes"]] == [":r0", ":r1"]
    assert all(n["role"] == "process" for n in doc["nodes"])
    assert len(doc["edges"]) == 2


def test_gen_clique_writes_the_committed_golden_trace(tmp_path, capsys):
    # CI compares its installed console script's output with the same file
    golden = (DATA / "k4.json").read_bytes()
    out = tmp_path / "k4.json"
    assert main(["gen-clique", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    assert main(["gen-clique", "4"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_gen_clique_invalid_size(capsys):
    assert main(["gen-clique", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_index_whole_sequence_linear_trace(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    umask = os.umask(0o027)
    try:
        rc = main(["index", str(linear_trace_file), "--out", str(out)])
    finally:
        os.umask(umask)
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["traces\t1", "sequences\t1", "nodes\t5"]
    assert node_count(load(out)) == 5
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_index_with_window_three(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    rc = main(["index", str(linear_trace_file), "--ngram", "3", "--out", str(out)])
    assert rc == 0
    assert "sequences\t3" in capsys.readouterr().out  # 5 - 3 + 1 windows
    trie = load(out)
    assert trie.root.freq == 3
    assert trie.n == 3


def test_index_rejects_ngram_in_dg_mode(linear_trace_file, tmp_path, capsys):
    rc = main(
        ["index", str(linear_trace_file), "--mode", "dg", "--ngram", "2", "--out", str(tmp_path / "x.json")]
    )
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["dag", "dg"])
def test_index_skips_an_empty_trace_in_either_mode(mode, linear_trace_file, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"trace_id": "empty", "nodes": [], "edges": []}), encoding="utf-8")
    note = f"note: {empty}: empty trace, nothing to index\n"
    out = tmp_path / "trie.json"
    assert main(["index", str(empty), "--mode", mode, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("traces\t0\nsequences\t0\nnodes\t0\n", note)
    # the empty trie's document, byte for byte: the DG writer minimizes no state into the same table, the root's class
    header = f'{{"format_version":5,"mode":"{mode}","n":0,"sequence_count":0,"nodes":0,"cycle_edges":0,'
    header += '"classes":1,"class_edges":0,"class_cycle_edges":0,'
    assert out.read_text(encoding="utf-8") == header + '"widths":[1,1,1,1,1,1,1,1],"labels":[],"columns":"eAFjYAAAAAIAAQ=="}'
    assert main(["index", str(empty), str(linear_trace_file), "--mode", mode, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (captured.out.splitlines()[0], captured.err) == ("traces\t1", note)


def test_index_missing_input_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "trie.json"
    rc = main(["index", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


LOOP_INPUTS = pytest.mark.parametrize(
    "name, text, options, message",
    [
        (
            "loop.nt",
            "<urn:a> <http://www.w3.org/ns/prov#used> <urn:b> .\n"
            "<urn:b> <http://www.w3.org/ns/prov#used> <urn:a> .\n",
            ["--format", "ntriples"],
            "triples describe a cyclic graph; cannot build a DAG",
        ),
        (
            "loop.json",
            json.dumps(
                {
                    "trace_id": "loop",
                    "nodes": [{"id": "urn:a"}, {"id": "urn:b"}],
                    "edges": [{"from": "urn:a", "to": "urn:b"}, {"from": "urn:b", "to": "urn:a"}],
                }
            ),
            [],
            "trace 'loop' is cyclic; cannot build a DAG",
        ),
    ],
    ids=["ntriples", "trace"],
)


@LOOP_INPUTS
def test_index_refuses_a_cyclic_run_in_dag_mode(name, text, options, message, tmp_path, capsys):
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "trie.json"
    assert main(["index", str(src), *options, "--mode", "dag", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@LOOP_INPUTS
def test_index_accepts_a_cyclic_run_in_dg_mode(name, text, options, message, tmp_path, capsys):
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "trie.json"
    assert main(["index", str(src), *options, "--mode", "dg", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_walk_oracle_has_no_depth_limit(tmp_path, capsys):
    chain = {
        "trace_id": "chain-1500",
        "nodes": [{"id": f"urn:c{i}"} for i in range(1500)],
        "edges": [{"from": f"urn:c{i}", "to": f"urn:c{i+1}"} for i in range(1499)],
    }
    trace = tmp_path / "chain.json"
    trace.write_text(json.dumps(chain), encoding="utf-8")
    rc = main(["oracle", "--input", str(trace), "--start", "urn:c0", "--end", "urn:c1499", "--steps", "1499"])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"


def test_input_too_deep_for_the_json_decoder_is_an_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    rc = main(["query", str(deep), "--start", "a", "--end", "b"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input too large: RecursionError")


def test_index_dg_clique_and_query_counts(clique4_file, tmp_path, capsys):
    out = tmp_path / "k4.json"
    rc = main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    for wildcards, expected in [(1, "2"), (2, "7"), (6, "547"), (1200, str(clique_walk_count(4, 1201)))]:
        rc = main(
            ["query", str(out), "--start", ":r0", "--end", ":r1", "--wildcards", str(wildcards), "--count-only"]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == expected


def test_query_match_lines_and_limit(clique4_file, tmp_path, capsys):
    out = tmp_path / "k4.json"
    main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)])
    capsys.readouterr()
    rc = main(["query", str(out), "--start", ":r0", "--end", ":r1", "--wildcards", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        path, freq, likelihood = line.split("\t")
        assert path.startswith(":r0,") and path.endswith(",:r1")
        assert int(freq) > 0
        assert len(likelihood.split(".")[1]) == 6
    rc = main(["query", str(out), "--start", ":r0", "--end", ":r1", "--wildcards", "1", "--limit", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def _branching_run_files(tmp_path: Path) -> list[str]:
    """40 DAG runs from urn:a through 2-5 distinct others: shared prefixes, tied likelihoods."""
    rng = random.Random(5)
    pool = [f"urn:{c}" for c in "bcdefg"]
    paths = []
    for k in range(40):
        run = ["urn:a", *rng.sample(pool, rng.randint(2, 5))]
        doc = {
            "trace_id": f"run-{k}",
            "nodes": [{"id": rid} for rid in run],
            "edges": [{"from": u, "to": v} for u, v in zip(run, run[1:])],
        }
        path = tmp_path / f"run-{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("mode", ["dag", "dg"])
def test_query_limit_prints_the_head_of_the_unlimited_output(mode, clique4_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    if mode == "dag":
        inputs, start, end, wildcards = _branching_run_files(tmp_path), "urn:a", "urn:b", "2"
    else:
        inputs, start, end, wildcards = [str(clique4_file)], ":r0", ":r1", "3"
    assert main(["index", *inputs, "--mode", mode, "--out", str(out)]) == 0
    capsys.readouterr()
    query = ["query", str(out), "--start", start, "--end", end, "--wildcards", wildcards]
    for strict in ([], ["--strict"]):
        assert main([*query, *strict, "--limit", "0"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert len(lines) >= 2
        for limit in range(1, len(lines) + 2):
            assert main([*query, *strict, "--limit", str(limit)]) == 0
            assert capsys.readouterr().out == "".join(lines[:limit]), (strict, limit)


def test_a_negative_limit_is_the_same_error_in_the_library(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["query", str(out), "--start", "urn:s0", "--end", "urn:s1", "--limit", "-1"]) == 1
    err = capsys.readouterr().err
    with pytest.raises(ValueError) as raised:
        q1(load(out), QueryPattern(("urn:s0",), 0, "urn:s1"), limit=-1)
    assert err == f"error: {raised.value}\n"


OUT_OF_RANGE_COUNTS = pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "--start", ":r0", "--end", ":r1", "--limit", "-3"], "match limit must be >= 0, got -3"),
        (["query", "--start", ":r0", "--end", ":r1", "--wildcards", "-1"], "wildcard count must be >= 0, got -1"),
        (["suggest", "--prefix", ":r0", "--top", "0"], "result limit must be >= 1, got 0"),
        (["suggest", "--prefix", ":r0", "--ahead", "0"], "lookahead must be >= 1, got 0"),
        (["stats", "--depth", "0"], "depth must be >= 1, got 0"),
        (["stats", "--depth", "-1"], "depth must be >= 1, got -1"),
    ],
    ids=["limit", "wildcards", "top", "ahead", "depth-zero", "depth-negative"],
)


@OUT_OF_RANGE_COUNTS
def test_out_of_range_counts_are_errors(argv, message, clique4_file, tmp_path, capsys):
    out = tmp_path / "k4.json"
    main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)])
    capsys.readouterr()
    command, *options = argv
    assert main([command, str(out), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@OUT_OF_RANGE_COUNTS
def test_out_of_range_counts_are_rejected_before_the_trie_is_read(argv, message, tmp_path, capsys):
    command, *options = argv
    assert main([command, str(tmp_path / "no-such.trie"), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_query_strict_keeps_only_matches_that_end_a_sequence(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    query = ["query", str(out), "--start", "urn:s0"]
    for end, wildcards, loose, strict in [("urn:s4", "3", 1, 1), ("urn:s3", "2", 1, 0)]:
        pattern = ["--end", end, "--wildcards", wildcards]
        assert main([*query, *pattern, "--count-only"]) == 0
        assert main([*query, *pattern, "--count-only", "--strict"]) == 0
        assert capsys.readouterr().out == f"{loose}\n{strict}\n"
    assert main([*query, "--end", "urn:s4", "--wildcards", "3", "--strict"]) == 0
    assert capsys.readouterr().out == "urn:s0,urn:s1,urn:s2,urn:s3,urn:s4\t1\t1.000000\n"
    assert main([*query, "--end", "urn:s3", "--wildcards", "2", "--strict"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["matches", "count"])
def test_query_strict_on_an_ngram_index_is_an_error(count_only, linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--ngram", "2", "--out", str(out)])
    capsys.readouterr()
    rc = main(["query", str(out), "--start", "urn:s0", "--end", "urn:s1", "--strict", *count_only])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: strict terminal matching applies to whole-sequence indexes only (n=0)\n"


def test_query_zero_matches_is_success(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    rc = main(["query", str(out), "--start", "urn:s0", "--end", "urn:s0", "--wildcards", "0", "--count-only"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"


def test_query_corrupt_trie_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    rc = main(["query", str(bad), "--start", "a", "--end", "b", "--count-only"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["query", "--start", ":r0", "--end", ":r1", "--count-only"], ["suggest", "--prefix", ":r0"], ["stats"], ["inspect"]],
    ids=["query", "suggest", "stats", "inspect"],
)
def test_trie_file_that_is_not_utf8_is_an_error(argv, tmp_path, capsys):
    bad = tmp_path / "latin1.trie"
    bad.write_bytes(b"\xff" + (DATA / "k4-dg.trie").read_bytes())
    command, *options = argv
    assert main([command, str(bad), *options]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: not a valid document: 'utf-8' codec")


def test_query_version_1_trie_file_is_an_error(tmp_path, capsys):
    old = tmp_path / "v1.json"
    old.write_text(
        json.dumps({"format_version": 1, "mode": "dag", "n": 0, "sequence_count": 0, "nodes": []}),
        encoding="utf-8",
    )
    rc = main(["query", str(old), "--start", "a", "--end", "b", "--count-only"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: format_version 1, supported: 5")


@pytest.mark.parametrize(
    "argv",
    [["query", "--start", ":r0", "--end", ":r1", "--count-only"], ["suggest", "--prefix", ":r0"], ["stats"], ["inspect"]],
    ids=["query", "suggest", "stats", "inspect"],
)
def test_format_2_trie_file_is_an_error_without_a_traceback(tmp_path, argv):
    trie = Trie(TrieMode.DG)
    trie.index_graph(gen_clique(4))
    old = tmp_path / "k4-format2.trie"
    old.write_text(json.dumps(format2_document(trie), separators=(",", ":")), encoding="utf-8")
    command, *options = argv
    proc = subprocess.run(
        [sys.executable, "-m", "provtrie", command, str(old), *options], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: format_version 2, supported: 5\n")


@pytest.mark.parametrize("command", ["query", "inspect"])
def test_format_3_trie_file_is_an_error(tmp_path, command, capsys):
    # format 3 held the columns as JSON arrays: such a file is refused, to be rebuilt with index
    old = tmp_path / "k4-format3.trie"
    columns = decode_document(json.loads((DATA / "k4-dg.trie").read_text(encoding="utf-8")))
    old.write_text(json.dumps({**columns, "format_version": 3}), encoding="utf-8")
    options = ["--start", ":r0", "--end", ":r1"] if command == "query" else []
    assert main([command, str(old), *options]) == 1
    assert capsys.readouterr() == ("", "error: format_version 3, supported: 5\n")


@pytest.mark.parametrize(
    "argv",
    [["query", "--start", ":r0", "--end", ":r1", "--count-only"], ["suggest", "--prefix", ":r0"], ["stats"], ["inspect"]],
    ids=["query", "suggest", "stats", "inspect"],
)
def test_format_4_trie_file_is_an_error_without_a_traceback(argv):
    # tests/data/k4-dg.v4.trie is k4-dg.trie as format 4 wrote it: one column per node field
    v4 = DATA / "k4-dg.v4.trie"
    with pytest.raises(FormatVersionMismatch, match="^format_version 4, supported: 5$"):
        load_frozen(v4)
    command, *options = argv
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "provtrie", command, str(v4), *options], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: format_version 4, supported: 5\n")


def test_k4_document_is_the_committed_golden_file(clique4_file, tmp_path, capsys):
    # the bytes of a format 5 document, pinned: CI also compares its installed console script's output.
    # The body is zlib's: another zlib build may compress it to other bytes that decode the same
    out = tmp_path / "k4.trie"
    assert main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "k4-dg.trie").read_bytes()


def test_multi_trace_dg_document_is_the_committed_golden_file(tmp_path, capsys):
    # four N-Triples traces in one DG index, whose root gains children out of label order from
    # trace to trace: the file pins how the traces merge.  The body is zlib's, as for k4-dg.trie
    out = tmp_path / "traces-dg.trie"
    traces = [str(DATA / f"trace{i}.nt") for i in (1, 2, 3, 4)]
    assert main(["index", *traces, "--format", "ntriples", "--mode", "dg", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "traces\t4\nsequences\t15\nnodes\t25\n"
    assert out.read_bytes() == (DATA / "traces-dg.trie").read_bytes()


GOLDEN_COMMANDS = {
    "query": ["query", "--start", ":r0", "--end", ":r1", "--wildcards", "2"],
    "query-limit": ["query", "--start", ":r0", "--end", ":r1", "--wildcards", "2", "--limit", "4"],
    "suggest": ["suggest", "--prefix", ":r0", "--ahead", "2"],
    "stats": ["stats"],
    "inspect": ["inspect"],
}


@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_read_commands_print_the_committed_golden_output(command, capsys):
    name, *options = GOLDEN_COMMANDS[command]
    assert main([name, str(DATA / "k4-dg.trie"), *options]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == (DATA / f"k4-dg.{command}.out").read_bytes()
    assert captured.err == ""


def test_the_baselines_print_the_committed_golden_output(capsys):
    # CI diffs its installed console script's output with the same files, the bench CSV without time_ns
    k4, ends = str(DATA / "k4.json"), ["--start", ":r0", "--end", ":r1"]
    argv = ["bench", k4, *ends, "--engines", "trie,naive,dp", "--max-wildcards", "3", "--trials", "1", "--warmup", "0"]
    assert main([*argv, "--dataset", "k4"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()]
    untimed = "".join(",".join(row[:4] + row[5:]) + "\n" for row in rows)
    assert (untimed, captured.err) == ((DATA / "k4.bench.out").read_text(encoding="utf-8"), "")
    assert main(["oracle", "--input", k4, *ends, "--steps", "3", "--enumerate"]) == 0
    captured = capsys.readouterr()
    assert (captured.out.encode("utf-8"), captured.err) == ((DATA / "k4.oracle.out").read_bytes(), "")


NTRIPLES_GOLDEN_COMMANDS = {
    "dag": {
        "stats": ["stats"],
        "query": ["query", "--start", "urn:ex:in1", "--end", "urn:ex:out2", "--wildcards", "2"],
    },
    # four traces indexed into one DG trie: later traces add root children out of label order
    "dg": {
        "stats": ["stats"],
        "query": ["query", "--start", "urn:ex:in1", "--end", "urn:ex:out2", "--wildcards", "1"],
    },
}


def test_the_ntriples_fixtures_index_to_the_committed_golden_outputs(tmp_path, capsys):
    # CI compares its installed console script's outputs with the same files;
    # trace4.nt holds non-ASCII IRIs and literals, a blank node and tabs
    inputs = [str(DATA / f"trace{i}.nt") for i in (1, 2, 3, 4)]
    for mode, commands in NTRIPLES_GOLDEN_COMMANDS.items():
        out = tmp_path / f"traces-{mode}.trie"
        assert main(["index", *inputs, "--format", "ntriples", "--mode", mode, "--out", str(out)]) == 0
        capsys.readouterr()
        for name, (command, *options) in commands.items():
            assert main([command, str(out), *options]) == 0
            captured = capsys.readouterr()
            assert captured.out.encode("utf-8") == (DATA / f"traces-{mode}.{name}.out").read_bytes()
            assert captured.err == ""


TRACES = [str(DATA / f"trace{i}.nt") for i in (1, 2, 3, 4)]


@pytest.mark.parametrize(
    "inputs, options",
    [
        ([str(DATA / "k4.json")], ["--mode", "dg"]),
        (TRACES, ["--format", "ntriples"]),
        (TRACES, ["--format", "ntriples", "--ngram", "2"]),
        (TRACES, ["--format", "ntriples", "--mode", "dg"]),
    ],
    ids=["k4-dg", "traces-dag", "traces-ngram2", "traces-dg"],
)
def test_a_document_does_not_depend_on_the_hash_seed(inputs, options, tmp_path):
    # a set of strings iterates in an order the hash seed picks, and tier 1 runs under a random seed
    documents = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.trie"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-m", "provtrie", "index", *inputs, *options, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        documents.append(out.read_bytes())
    assert documents[0] == documents[1]


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize(
    "argv, count",
    [
        (
            ["query", str(DATA / "k4-dg.trie"), "--start", ":r0", "--end", ":r1", "--wildcards", "9100", "--count-only"],
            clique_walk_count(4, 9101),
        ),
        (["oracle", "--clique", "4", "--steps", "9101"], clique_walk_count(4, 9101)),
        (["oracle", "--clique", "4", "--steps", "9101", "--all-pairs"], all_pairs_clique_count(4, 9101)),
    ],
    ids=["query", "oracle", "oracle-all-pairs"],
)
def test_a_count_past_the_int_to_str_digit_limit_prints_exactly(argv, count, capsys):
    limit = _int_digit_limit()
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (digits(count) + "\n", "")
    assert len(captured.out) > 4301  # past Python's default limit of 4300 digits
    assert _int_digit_limit() == limit  # lifted for that one conversion only


def test_bench_names_an_ntriples_dataset_after_its_file(capsys):
    argv = ["bench", str(DATA / "trace1.nt"), "--format", "ntriples", "--start", "urn:ex:in1", "--end", "urn:ex:out1"]
    assert main([*argv, "--max-wildcards", "1", "--trials", "1", "--warmup", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [["trace1", "trie", "1", "1"]]


# Modules a read command never calls.  The script runs main() on its
# arguments in a fresh interpreter, then names on stderr those it loaded.
READ_PATH_SKIPS = [
    "provtrie.trie",
    "provtrie.graph",
    "provtrie.bench",
    "provtrie.oracle",
    "provtrie.ingest",
    "provtrie.canonical",
    "dataclasses",
    "statistics",
]
LOADED_AFTER_MAIN = f"""
import sys
from provtrie.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(",".join(m for m in {READ_PATH_SKIPS!r} if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", [*GOLDEN_COMMANDS, "query-count-only"])
def test_read_commands_load_only_the_modules_they_read(command):
    if command == "query-count-only":
        name, *options = GOLDEN_COMMANDS["query"] + ["--count-only"]
        want = f"{len((DATA / 'k4-dg.query.out').read_text(encoding='utf-8').splitlines())}\n"
    else:
        name, *options = GOLDEN_COMMANDS[command]
        want = (DATA / f"k4-dg.{command}.out").read_text(encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_MAIN, name, str(DATA / "k4-dg.trie"), *options],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "\n")


def test_suggest_deterministic_chain(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    rc = main(["suggest", str(out), "--prefix", "urn:s0", "--ahead", "1", "--top", "1"])
    assert rc == 0
    assert capsys.readouterr().out == "urn:s1\t1.000000\n"


def test_suggest_top_exceeding_candidates(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    rc = main(["suggest", str(out), "--prefix", "urn:s0", "--ahead", "2", "--top", "10"])
    assert rc == 0
    assert capsys.readouterr().out == "urn:s1,urn:s2\t1.000000\n"


def test_suggest_unknown_prefix_is_empty_success(linear_trace_file, tmp_path, capsys):
    out = tmp_path / "trie.json"
    main(["index", str(linear_trace_file), "--out", str(out)])
    capsys.readouterr()
    rc = main(["suggest", str(out), "--prefix", "urn:missing"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_stats_table(tmp_path, capsys):
    traces = []
    for i, seq in enumerate([["N1", "N2"], ["N1", "N3"], ["N5"]]):
        path = tmp_path / f"t{i}.json"
        path.write_text(
            json.dumps(
                {
                    "trace_id": f"t{i}",
                    "nodes": [{"id": s} for s in seq],
                    "edges": [{"from": a, "to": b} for a, b in zip(seq, seq[1:])],
                }
            ),
            encoding="utf-8",
        )
        traces.append(str(path))
    out = tmp_path / "trie.json"
    main(["index", *traces, "--out", str(out)])
    capsys.readouterr()
    rc = main(["stats", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "1\tN1\t2",
        "1\tN5\t1",
        "2\tN2\t1",
        "2\tN3\t1",
    ]
    rc = main(["stats", str(out), "--depth", "9"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_oracle_clique_counts(capsys):
    assert main(["oracle", "--clique", "8", "--steps", "7"]) == 0
    assert capsys.readouterr().out.strip() == "102943"
    assert main(["oracle", "--clique", "4", "--steps", "7", "--all-pairs"]) == 0
    assert capsys.readouterr().out.strip() == "3282"


def test_oracle_walks_over_input(clique4_file, capsys):
    rc = main(["oracle", "--input", str(clique4_file), "--start", ":r0", "--end", ":r1", "--steps", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"
    rc = main(
        ["oracle", "--input", str(clique4_file), "--start", ":r0", "--end", ":r1", "--steps", "2", "--enumerate"]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [":r0,:r2,:r1", ":r0,:r3,:r1"]


def test_oracle_usage_errors(clique4_file, capsys):
    assert main(["oracle", "--steps", "2"]) == 2
    assert main(["oracle", "--clique", "4", "--input", str(clique4_file), "--steps", "2"]) == 2
    assert main(["oracle", "--clique", "4", "--steps", "2", "--enumerate"]) == 2
    assert main(["oracle", "--input", str(clique4_file), "--steps", "2"]) == 2


def test_bench_csv(clique4_file, tmp_path, capsys):
    rc = main(
        [
            "bench",
            str(clique4_file),
            "--start", ":r0",
            "--end", ":r1",
            "--max-wildcards", "2",
            "--trials", "1",
            "--warmup", "0",
            "--engines", "trie,naive",
            "--dataset", "k4",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dataset,engine,wildcards,n_paths,time_ns,trials"
    counts = [line.split(",") for line in lines[1:]]
    assert [(c[1], c[2], c[3]) for c in counts] == [
        ("trie", "1", "2"),
        ("trie", "2", "7"),
        ("naive", "1", "2"),
        ("naive", "2", "7"),
    ]


def test_bench_rejects_unknown_engine(clique4_file, capsys):
    rc = main(["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", "--engines", "sparql"])
    assert rc == 2


def test_bench_dp_engine_rows(clique4_file, capsys):
    argv = ["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", "--max-wildcards", "3"]
    assert main([*argv, "--trials", "1", "--warmup", "0", "--engines", "trie,naive,dp", "--dataset", "k4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    counts = {(engine, int(m)): int(n) for _, engine, m, n, _, _ in rows}
    assert [(engine, m) for engine, m in counts] == [(e, m) for e in ("trie", "naive", "dp") for m in (1, 2, 3)]
    for m in (1, 2, 3):
        assert counts["trie", m] == counts["naive", m] == counts["dp", m] == clique_walk_count(4, m + 1)
    assert main([*argv, "--engines", "dp,sparql"]) == 2


@pytest.mark.parametrize("engine", ["trie", "naive"])
@pytest.mark.parametrize("flag", ["--start", "--end"])
def test_bench_rejects_an_endpoint_outside_the_graph(clique4_file, capsys, engine, flag):
    ends = {"--start": ":r0", "--end": ":r1", flag: ":r9"}
    rc = main(["bench", str(clique4_file), *[x for item in ends.items() for x in item], "--engines", engine])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {flag} ':r9' is not in the graph"]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--trials", "0"], "trials must be >= 1, got 0"),
        (["--max-wildcards", "0"], "max_wildcards must be >= 1, got 0"),
        (["--warmup", "-1"], "warmup must be >= 0, got -1"),
        (["--engines", "trie,naive", "--naive-max-wildcards", "0"], "naive_max_wildcards must be >= 1, got 0"),
    ],
    ids=["trials", "max-wildcards", "warmup", "naive-max-wildcards"],
)
def test_bench_rejects_out_of_range_counts_before_building(options, message, clique4_file, capsys, monkeypatch):
    def no_build(self, g):
        raise AssertionError("the trie was built before the counts were checked")

    monkeypatch.setattr(Trie, "index_graph", no_build)
    rc = main(["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", *options])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bench_refuses_an_out_it_can_never_write_before_timing(clique4_file, tmp_path, capsys, monkeypatch):
    # the CSV is opened after every timing: a K8 bench of three engines would run for seconds first
    def no_read(*args):
        raise AssertionError("the graph was read before --out was checked")

    def no_build(self, g):
        raise AssertionError("the trie was built before --out was checked")

    monkeypatch.setattr("provtrie.cli._load_graph", no_read)
    monkeypatch.setattr(Trie, "index_graph", no_build)
    out = tmp_path / "missing" / "b.csv"
    rc = main(["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", "--engines", "trie,naive,dp", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert list(tmp_path.iterdir()) == [clique4_file]


def test_bench_out_writes_the_rows_it_would_print(clique4_file, tmp_path, capsys):
    argv = ["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", "--max-wildcards", "3"]
    argv += ["--engines", "trie,naive,dp", "--trials", "1", "--warmup", "0"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "bench.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    written = out.read_text(encoding="utf-8").splitlines()

    def untimed(lines):  # every column but time_ns, the fifth
        return [line.split(",")[:4] + line.split(",")[5:] for line in lines]

    assert untimed(written) == untimed(printed)
    assert len(written) == 1 + 3 * 3 and written[0] == printed[0]


def test_main_reports_an_aborted_bench(clique4_file, capsys, monkeypatch):
    def failing_count(g, start, end, steps):
        raise KeyError(start)

    monkeypatch.setattr("provtrie.bench.count_walks", failing_count)
    rc = main(["bench", str(clique4_file), "--start", ":r0", "--end", ":r1", "--engines", "naive"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: query with 1 wildcards failed")


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_ntriples_index_end_to_end(tmp_path, capsys):
    out = tmp_path / "trie.json"
    inputs = [str(DATA / f"trace{i}.nt") for i in (1, 2, 3)]
    rc = main(["index", *inputs, "--format", "ntriples", "--out", str(out)])
    assert rc == 0
    assert "traces\t3" in capsys.readouterr().out
    rc = main(
        ["query", str(out), "--start", "urn:ex:in1", "--end", "urn:ex:out2", "--wildcards", "2", "--count-only"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_a_failed_save_names_the_target_not_a_temporary_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["index", str(DATA / "trace1.nt"), "--format", "ntriples", "--out", "missing/x.trie"])
    assert rc == 1
    # refused before the input is read, so no note about its literals comes first
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'missing/x.trie'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "out, message",
    [
        ("missing/x.trie", "[Errno 2] No such file or directory: 'missing/x.trie'"),
        ("", "[Errno 2] No such file or directory: ''"),
        ("a-directory", "[Errno 21] Is a directory: 'a-directory'"),
    ],
    ids=["missing-directory", "empty", "existing-directory"],
)
def test_index_refuses_an_out_it_can_never_write_before_reading_any_input(
    out, message, linear_trace_file, tmp_path, capsys, monkeypatch
):
    # save would fail the same way, but only after every input had been parsed and indexed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    read = []

    def spy(path, *args):
        read.append(path)
        raise AssertionError(f"input {path} read")

    monkeypatch.setattr("provtrie.cli._load_graph", spy)
    rc = main(["index", str(linear_trace_file), "--out", out])
    assert (rc, read, capsys.readouterr().err) == (1, [], f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_index_refuses_a_negative_window_length_before_reading_any_input(
    linear_trace_file, tmp_path, capsys, monkeypatch
):
    read = []

    def spy(path, *args):
        read.append(path)
        raise AssertionError(f"input {path} read")

    monkeypatch.setattr("provtrie.cli._load_graph", spy)
    out = tmp_path / "trie.json"
    rc = main(["index", str(linear_trace_file), "--ngram", "-1", "--out", str(out)])
    assert (rc, read, capsys.readouterr()) == (1, [], ("", "error: window length must be >= 0, got -1\n"))
    assert not out.exists()


@pytest.mark.parametrize("ngram", [0, 2])
def test_dag_index_writes_the_insert_built_trie_and_calls_no_insert(ngram, tmp_path, capsys, monkeypatch):
    from provtrie.canonical import ngrams, sequence
    from provtrie.ingest import parse_ntriples, triples_to_graph

    reference = Trie(TrieMode.DAG, ngram)
    for name in TRACES:
        g = triples_to_graph(parse_ntriples(Path(name).read_text(encoding="utf-8")).triples, PredicateMap.default())
        items = sequence(g).items
        for window in ngrams(items, ngram or len(items)).windows:
            reference.insert(window)
    save(reference, tmp_path / "reference.trie")

    def no_insert(*args):
        raise AssertionError("index --mode dag called Trie.insert")

    monkeypatch.setattr(Trie, "insert", no_insert)
    out = tmp_path / "index.trie"
    assert main(["index", *TRACES, "--format", "ntriples", "--ngram", str(ngram), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["traces\t4", f"sequences\t{reference.sequence_count}"]
    assert out.read_bytes() == (tmp_path / "reference.trie").read_bytes()


def test_predicate_map_override(tmp_path, capsys, monkeypatch):
    nt = tmp_path / "custom.nt"
    nt.write_text("<urn:x> <urn:vocab:feeds> <urn:y> .\n", encoding="utf-8")
    out = tmp_path / "trie.json"
    # default map ignores the custom predicate entirely
    rc = main(["index", str(nt), "--format", "ntriples", "--out", str(out)])
    assert rc == 0
    assert "nodes\t0" in capsys.readouterr().out
    monkeypatch.setenv("PROVTRIE_PREDICATE_MAP", str(DATA / "custom_predmap.txt"))
    rc = main(["index", str(nt), "--format", "ntriples", "--out", str(out)])
    assert rc == 0
    assert "nodes\t2" in capsys.readouterr().out
    trie = load(out)
    assert find(trie, ["urn:x", "urn:y"]) is not None


def test_index_reads_the_predicate_map_once(tmp_path, capsys, monkeypatch):
    reads = []
    from_file = PredicateMap.from_file

    def counted(cls, path):
        reads.append(path)
        return from_file(path)

    monkeypatch.setattr(PredicateMap, "from_file", classmethod(counted))
    monkeypatch.setenv("PROVTRIE_PREDICATE_MAP", str(DATA / "custom_predmap.txt"))
    inputs = []
    for k in range(3):
        inputs.append(tmp_path / f"run{k}.nt")
        inputs[-1].write_text(f"<urn:x{k}> <urn:vocab:feeds> <urn:y> .\n", encoding="utf-8")
    rc = main(["index", *map(str, inputs), "--format", "ntriples", "--out", str(tmp_path / "trie.json")])
    assert rc == 0
    assert "traces\t3" in capsys.readouterr().out
    assert reads == [str(DATA / "custom_predmap.txt")]


def test_trace_index_does_not_read_the_predicate_map(tmp_path, capsys, monkeypatch, linear_trace_file):
    monkeypatch.setenv("PROVTRIE_PREDICATE_MAP", str(tmp_path / "missing-map.txt"))
    rc = main(["index", str(linear_trace_file), str(linear_trace_file), "--out", str(tmp_path / "trie.json")])
    assert rc == 0
    assert "traces\t2" in capsys.readouterr().out
    # the same variable breaks an RDF index, so the map path really is broken
    nt = tmp_path / "run.nt"
    nt.write_text("<urn:x> <urn:vocab:feeds> <urn:y> .\n", encoding="utf-8")
    assert main(["index", str(nt), "--format", "ntriples", "--out", str(tmp_path / "rdf.json")]) == 1
    assert "missing-map.txt" in capsys.readouterr().err


def test_index_reads_stdin(tmp_path, capsys, monkeypatch):
    out = tmp_path / "trie.json"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(json.dumps(LINEAR_TRACE).encode())))
    rc = main(["index", "-", "--out", str(out)])
    assert rc == 0
    assert node_count(load(out)) == 5


def test_stdin_is_read_as_utf8_whatever_the_stream_encoding(tmp_path):
    # trace4.nt holds non-ASCII IRIs: latin-1 would read urn:ex:wörterbuch as urn:ex:wÃ¶rterbuch
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "PYTHONIOENCODING": "latin-1"}
    documents = []
    for name, source in (("path.trie", str(DATA / "trace4.nt")), ("stdin.trie", "-")):
        with open(DATA / "trace4.nt", "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-m", "provtrie", "index", source, "--format", "ntriples", "--out", str(tmp_path / name)],
                stdin=stdin, capture_output=True, env=env, timeout=120,
            )
        assert proc.returncode == 0, proc.stderr
        documents.append((tmp_path / name).read_bytes())
    assert documents[0] == documents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "provtrie", "index", "-", "--format", "ntriples", "--out", str(tmp_path / "bad.trie")],
        input=b"<urn:ex:w\xf6rterbuch> <http://www.w3.org/ns/prov#used> <urn:ex:x> .\n",
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(b"error: ")
    assert not (tmp_path / "bad.trie").exists()


def test_persistence_transparency(clique4_file, tmp_path, capsys):
    out = tmp_path / "k4.json"
    main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)])
    capsys.readouterr()
    in_memory = Trie(TrieMode.DG)
    in_memory.index_graph(gen_clique(4))
    for wildcards in range(5):
        rc = main(
            ["query", str(out), "--start", ":r0", "--end", ":r2", "--wildcards", str(wildcards), "--count-only"]
        )
        assert rc == 0
        cli_count = int(capsys.readouterr().out.strip())
        assert cli_count == count_paths(in_memory, QueryPattern((":r0",), wildcards, ":r2"))


def test_outputs_are_deterministic_across_runs(tmp_path, capsys):
    results = []
    for run in range(2):
        out = tmp_path / f"trie{run}.json"
        inputs = [str(DATA / f"trace{i}.nt") for i in (1, 2, 3)]
        main(["index", *inputs, "--format", "ntriples", "--ngram", "2", "--out", str(out)])
        capsys.readouterr()
        main(["query", str(out), "--start", "urn:ex:in1", "--end", "urn:ex:act1", "--wildcards", "0"])
        query_out = capsys.readouterr().out
        main(["stats", str(out)])
        stats_out = capsys.readouterr().out
        results.append((out.read_text(encoding="utf-8"), query_out, stats_out))
    assert results[0] == results[1]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "provtrie", "oracle", "--clique", "4", "--steps", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_closed_stdout_ends_the_command_quietly(clique4_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "provtrie", "oracle", "--input", str(clique4_file)]
        + ["--start", ":r0", "--end", ":r1", "--steps", "9", "--enumerate"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().strip() == ",".join([":r0", ":r1"] * 5)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait() == 0
    assert err == ""


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: flushing raises ``BrokenPipeError``."""

    def __init__(self, fd: int) -> None:
        super().__init__()
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def flush(self) -> None:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["oracle", "--clique", "4", "--steps", "2"], 0),
        (["query", "missing.trie", "--start", "a", "--end", "b"], 1),
        (["oracle", "--steps", "2"], 2),  # the command's own usage check
        (["query"], 2),  # the argument parser's
    ],
    ids=["ok", "error", "command-usage", "parser-usage"],
)
def test_main_restores_the_gc_state(gc_state, argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert gc.isenabled() is gc_state


def test_main_restores_the_gc_state_after_a_closed_stdout(gc_state, tmp_path, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        assert main(["oracle", "--clique", "4", "--steps", "2"]) == 0
    finally:
        os.close(fd)
    assert gc.isenabled() is gc_state


def test_commands_run_with_the_gc_paused(monkeypatch, capsys):
    seen = []

    def clique_walk_count_spy(size, steps):
        seen.append(gc.isenabled())
        return clique_walk_count(size, steps)

    monkeypatch.setattr("provtrie.oracle.clique_walk_count", clique_walk_count_spy)
    gc.enable()
    assert main(["oracle", "--clique", "4", "--steps", "2"]) == 0
    assert seen == [False]
    assert gc.isenabled()


# Runs provtrie with ARGS in this process, started by LAUNCH, and reports on
# stderr, as JSON, the exit code and the full collections that started after
# main() returned.  The allocations afterwards would start some if the
# collector were back on.
GC_AFTER_MAIN = r"""
import gc, importlib, json, runpy, sys
after_main = []
returned = False

def watch(phase, info):
    if returned and phase == "start" and info["generation"] == 2:
        after_main.append(info)

gc.callbacks.append(watch)
sys.argv = ["provtrie", *sys.argv[1:]]
try:
    LAUNCH
except SystemExit as exc:
    code = exc.code
returned = True
junk = [[] for _ in range(200_000)]
print(json.dumps({"code": code, "full_collections": len(after_main)}), file=sys.stderr)
"""


def _full_collections_after_main(tmp_path, launch: str) -> None:
    trie = Trie(TrieMode.DG)
    trie.index_graph(gen_clique(5))
    path = tmp_path / "k5.trie"
    save(trie, path)
    argv = ["query", str(path), "--start", ":r0", "--end", ":r1", "--wildcards", "3", "--count-only"]
    script = GC_AFTER_MAIN.replace("LAUNCH", launch)
    res = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120)
    assert res.stdout == f"{clique_walk_count(5, 4)}\n"
    assert json.loads(res.stderr.splitlines()[-1]) == {"code": 0, "full_collections": 0}


def test_module_entry_point_keeps_the_collector_off_after_main(tmp_path):
    _full_collections_after_main(tmp_path, 'runpy.run_module("provtrie", run_name="__main__", alter_sys=True)')


def test_console_script_keeps_the_collector_off_after_main(tmp_path):
    # the function a console-script wrapper imports and passes to sys.exit
    # read with a pattern, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, _, name = re.search(r'^provtrie = "([^"]+)"$', scripts, re.M).group(1).partition(":")
    _full_collections_after_main(tmp_path, f"sys.exit(importlib.import_module({module!r}).{name}())")


# The CLI contract as a property: commands, flags and values drawn from the
# parser's own options, and files from a small pool of good and corrupt
# inputs.  Values stay small, so that every call is quick.
@pytest.fixture(scope="module")
def cli_pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pool")
    trie = (DATA / "k4-dg.trie").read_bytes()
    files = {
        "k4.trie": trie,
        "cut.trie": trie[: len(trie) // 2],
        "k4.json": (DATA / "k4.json").read_bytes(),
        "trace1.nt": (DATA / "trace1.nt").read_bytes(),
        "cyclic.nt": b"<urn:a> <http://www.w3.org/ns/prov#used> <urn:b> .\n<urn:b> <http://www.w3.org/ns/prov#used> <urn:a> .\n",
        "bad.nt": b"<urn:a> <urn:p> <urn:b>\n",
        "not-json": b"{not json",
        "not-utf8": b"\xff\xfe<\x00",
        "empty": b"",
    }
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "dir").mkdir()
    inputs = [str(root / name) for name in [*files, "dir", "missing"]]
    outs = [str(root / "out"), str(root / "dir"), str(root / "missing" / "out"), str(root / "k4.json" / "out"), ""]
    return inputs, outs


CLI_VALUES = [":r0", ":r1", ":r9", "urn:ex:in1", "urn:ex:out1", "", "trie,naive,dp", "dp", "x"]


def _draw_argument(data, action, inputs, outs):
    """Values for one parser action, drawn to suit its type and destination."""
    if action.choices is not None:
        values = st.sampled_from([*action.choices, *action.choices, "bogus"])
    elif action.type is int:
        values = st.integers(min_value=-1, max_value=6).map(str)
    elif action.dest in ("trie", "input", "inputs"):
        values = st.sampled_from(inputs)
    elif action.dest == "out":
        values = st.sampled_from(outs)
    else:
        values = st.sampled_from(CLI_VALUES)
    if action.nargs == "+":
        return data.draw(st.lists(values, min_size=1, max_size=2))
    return [data.draw(values)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_command_exits_0_1_or_2_and_an_exit_1_ends_in_an_error_line(cli_pool, data):
    inputs, outs = cli_pool
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    command = data.draw(st.sampled_from(sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        required = action.required or not action.option_strings
        if not data.draw(st.sampled_from([True, True, True, False]) if required else st.booleans()):
            continue
        if action.option_strings:
            argv.append(action.option_strings[0])
        if action.nargs != 0:  # a flag takes no value
            argv.extend(_draw_argument(data, action, inputs, outs))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert stderr.getvalue().splitlines()[-1].startswith("error:"), (argv, stderr.getvalue())
