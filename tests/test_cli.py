import gc
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from provtrie.cli import main
from provtrie.graph import gen_clique
from provtrie.oracle import clique_walk_count
from provtrie.query import QueryPattern, count_paths
from provtrie.trie import Trie, TrieMode, load

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
    assert load(out).node_count == 5
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


def test_index_missing_input_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "trie.json"
    rc = main(["index", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


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


def test_query_version_1_trie_file_is_an_error(tmp_path, capsys):
    old = tmp_path / "v1.json"
    old.write_text(
        json.dumps({"format_version": 1, "mode": "dag", "n": 0, "sequence_count": 0, "nodes": []}),
        encoding="utf-8",
    )
    rc = main(["query", str(old), "--start", "a", "--end", "b", "--count-only"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: format_version 1, supported: 2")


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
    assert trie.find(["urn:x", "urn:y"]) is not None


def test_index_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    out = tmp_path / "trie.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LINEAR_TRACE)))
    rc = main(["index", "-", "--out", str(out)])
    assert rc == 0
    assert load(out).node_count == 5


def test_persistence_transparency(clique4_file, tmp_path, capsys):
    out = tmp_path / "k4.json"
    main(["index", str(clique4_file), "--mode", "dg", "--out", str(out)])
    capsys.readouterr()
    in_memory = Trie(TrieMode.DG)
    in_memory.index_graph_dg(gen_clique(4))
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

    monkeypatch.setattr("provtrie.cli.clique_walk_count", clique_walk_count_spy)
    gc.enable()
    assert main(["oracle", "--clique", "4", "--steps", "2"]) == 0
    assert seen == [False]
    assert gc.isenabled()
