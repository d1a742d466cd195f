"""Seeded inputs for the benchmark: workflow runs and clique walks as N-Triples.

Workflow runs come from a fixed set of templates.  A template is a chain
of stages; each stage offers a few alternative activities, picked per run
with Zipf-distributed weights, and some stages fork into two outputs that
the next activity joins.  The run's input dataset is drawn, also with Zipf
weights, from a per-template pool.  Identifiers are shared between runs
that make the same choices, so the trie shares their prefixes, and the
skewed choices give next-step suggestion skewed likelihoods.

Every run also carries literal statements (skipped by the parser) and an
unmapped association statement (ignored by the graph builder), as real
PROV exports do.

Each generated run comes with its canonical sequence, computed here by an
independent Kahn + heap linearization, so the references never depend on
the code under test.  Nothing in this module is timed.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

PROV = "http://www.w3.org/ns/prov#"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD_DATETIME = "http://www.w3.org/2001/XMLSchema#dateTime"

TEMPLATES = 20
DATASETS_PER_TEMPLATE = 40
ZIPF_S = 1.3


@dataclass(frozen=True)
class Run:
    """One generated run: its N-Triples text and its canonical sequence."""

    name: str
    ntriples: str
    sequence: tuple[str, ...]


def zipf_weights(k: int, s: float = ZIPF_S) -> list[float]:
    return [1.0 / (rank**s) for rank in range(1, k + 1)]


@dataclass(frozen=True)
class Template:
    tid: int
    # stages[i] = (alternative activity names, fork?)
    stages: tuple[tuple[tuple[str, ...], bool], ...]


def make_templates(count: int = TEMPLATES) -> list[Template]:
    """The workflow system: fixed templates, independent of the run seed."""
    rng = random.Random("provtrie-perfbench-templates")
    out = []
    for t in range(count):
        stages = []
        for i in range(rng.randint(5, 10)):
            alts = tuple(f"urn:wf:t{t:02d}:s{i:02d}:{a}" for a in "abcd"[: rng.randint(1, 4)])
            stages.append((alts, rng.random() < 0.25))
        out.append(Template(t, tuple(stages)))
    return out


def canonical_sequence(nodes: set[str], edges: set[tuple[str, str]]) -> tuple[str, ...]:
    """Lexicographically smallest topological order (reference implementation)."""
    indeg = {n: 0 for n in nodes}
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        succ[src].append(dst)
        indeg[dst] += 1
    frontier = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(frontier)
    out = []
    while frontier:
        n = heapq.heappop(frontier)
        out.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(frontier, m)
    if len(out) != len(nodes):
        raise ValueError("generated run is cyclic")
    return tuple(out)


def _to_ntriples(run_id: int, edges: list[tuple[str, str]], activities: list[str], rng: random.Random) -> str:
    """Edges in execution order as prov:used / prov:wasGeneratedBy statements."""
    acts = set(activities)
    lines = [f"# run {run_id}"]
    for src, dst in edges:
        if dst in acts:
            lines.append(f"<{dst}> <{PROV}used> <{src}> .")
        elif src in acts:
            lines.append(f"<{dst}> <{PROV}wasGeneratedBy> <{src}> .")
        else:
            lines.append(f"<{dst}> <{PROV}wasDerivedFrom> <{src}> .")
    for act in activities:
        stamp = f"2018-07-{1 + rng.randrange(28):02d}T{rng.randrange(24):02d}:{rng.randrange(60):02d}:00Z"
        lines.append(f'<{act}> <{PROV}startedAtTime> "{stamp}"^^<{XSD_DATETIME}> .')
        lines.append(f'<{act}> <{RDFS_LABEL}> "run {run_id} step"@en .')
        lines.append(f"<{act}> <{PROV}wasAssociatedWith> <urn:agent:{rng.randrange(8)}> .")
    return "\n".join(lines) + "\n"


def iter_workflow_runs(seed: int, templates: list[Template] | None = None) -> Iterator[Run]:
    """An endless stream of runs drawn from the templates; the seed fixes it."""
    templates = templates if templates is not None else make_templates()
    rng = random.Random(seed)
    template_weights = zipf_weights(len(templates), 0.8)
    data_weights = zipf_weights(DATASETS_PER_TEMPLATE)
    for r in itertools.count():
        tpl = rng.choices(templates, template_weights)[0]
        data = rng.choices(range(DATASETS_PER_TEMPLATE), data_weights)[0]
        current = [f"urn:data:t{tpl.tid:02d}:d{data:02d}"]
        nodes = set(current)
        edges: list[tuple[str, str]] = []
        activities = []
        for alts, fork in tpl.stages:
            act = rng.choices(alts, zipf_weights(len(alts)))[0]
            activities.append(act)
            outputs = [f"{act}:o1", f"{act}:o2"] if fork else [f"{act}:o"]
            nodes.add(act)
            nodes.update(outputs)
            edges.extend((prev, act) for prev in current)
            edges.extend((act, out) for out in outputs)
            current = outputs
        yield Run(f"r{r:05d}", _to_ntriples(r, edges, activities, rng), canonical_sequence(nodes, set(edges)))


def workflow_runs(seed: int, count: int) -> list[Run]:
    return list(itertools.islice(iter_workflow_runs(seed), count))


def iter_clique_walk_runs(seed: int, size: int = 8) -> Iterator[Run]:
    """Acyclic runs over the clique's resources ``:r0`` .. ``:r{size-1}``.

    Each run is a simple path of 3 to ``size`` distinct vertices, sometimes
    with one extra forward edge that skips a step.  Every such run is a
    root path of the clique's DG trie, so inserting it adds statistics but
    no structure, and the clique's closed-form counts stay exact.
    """
    rng = random.Random(seed)
    for r in itertools.count():
        verts = rng.sample([f":r{i}" for i in range(size)], rng.randint(3, size))
        edges = list(zip(verts, verts[1:]))
        if len(verts) > 3 and rng.random() < 0.3:
            i = rng.randrange(len(verts) - 2)
            edges.append((verts[i], verts[i + 2]))
        lines = [f"<{dst}> <{PROV}wasDerivedFrom> <{src}> ." for src, dst in edges]
        lines.append(f'<{verts[0]}> <{RDFS_LABEL}> "walk {r}" .')
        yield Run(f"w{r:05d}", "\n".join(lines) + "\n", canonical_sequence(set(verts), set(edges)))
