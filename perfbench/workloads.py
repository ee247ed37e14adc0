"""The three workloads: seeded documents and the fixed job list run on them.

Sizes are fixed per workload; the workload seed only changes the content of
the random documents, so two seeds cost about the same. Every workload has
seven solve/compare jobs per pass, and a run makes 6 to 14 passes: 42 to 98
latency samples, for which the tail ladder always picks p75, a rank that
falls a quarter of the way into the sixth-cheapest job's samples.

Every job stays far inside the default ``--ceiling``, so no report carries
``"opt": null`` and a later change to ceiling semantics cannot move a digest.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maxcover import (
    TightFptSpec,
    TightGreedySpec,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    serialize_instance,
)


@dataclass(frozen=True)
class Doc:
    """One input document: ``family`` names how it is made, ``params`` its sizes."""

    name: str
    family: str
    params: dict


@dataclass(frozen=True)
class Job:
    """One CLI command on one document; ``argv`` omits ``--in`` and ``--out``.
    Every job is expected to exit 0, and every ``solve`` is followed by a
    ``verify`` of its report."""

    argv: tuple[str, ...]
    doc: str

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def id(self) -> str:
        return " ".join(self.argv) + " @" + self.doc


@dataclass(frozen=True)
class Workload:
    name: str
    docs: tuple[Doc, ...]
    jobs: tuple[Job, ...]


def _solve(doc: str, *flags: str) -> Job:
    return Job(("solve",) + flags, doc)


def _compare(doc: str, *flags: str) -> Job:
    return Job(("compare",) + flags, doc)


_APPROVAL_PTAS = ("--alpha", "0.2", "--beta", "0.8")  # p_min/m >= 20/100; k=10 > 5 ln 5: greedy branch

LARGE_SPARSE = Workload(
    "large-sparse",
    (
        Doc("rand-20k", "random", dict(n=20000, m=1000, k=30, p_max=2)),
        Doc("rand-30k", "random", dict(n=30000, m=1200, k=40, p_max=3)),
        Doc("approval-12k", "approval", dict(voters=12000, candidates=100, lo=20, hi=40, k=10)),
    ),
    (
        _solve("rand-20k", "--alg", "greedy"),
        _solve("rand-20k", "--alg", "greedy-exact", "--x", "29"),  # x = k-1: the residual search is one scan
        _solve("rand-30k", "--alg", "greedy"),
        _solve("rand-30k", "--alg", "greedy-exact", "--x", "39"),
        _solve("approval-12k", "--alg", "greedy"),
        _solve("approval-12k", "--alg", "ptas", *_APPROVAL_PTAS),
        _compare("approval-12k", "--algs", "greedy,ptas", *_APPROVAL_PTAS),
    ),
)

EXHAUSTIVE_SMALL = Workload(
    "exhaustive-small",
    (
        Doc("rand-m40", "random", dict(n=2000, m=40, k=5, p_max=2)),
        Doc("rand-m60", "random", dict(n=2000, m=60, k=4, p_max=3)),
        Doc("tight-greedy", "tight-greedy", dict(p=5, k=6, m=24)),
        Doc("tight-fpt-050", "tight-fpt", dict(p=2, k=4, beta=0.5)),
        Doc("tight-fpt-075", "tight-fpt", dict(p=2, k=4, beta=0.75)),
    ),
    (
        _solve("rand-m60", "--alg", "exact"),
        _solve("tight-greedy", "--alg", "exact"),
        _solve("tight-fpt-075", "--alg", "fpt", "--beta", "0.75"),
        _solve("rand-m40", "--alg", "greedy-exact", "--x", "1"),
        _solve("rand-m40", "--alg", "exact-greedy", "--x", "2"),  # x = floor(k/2)
        # p_min = 1 at m = 40 meets alpha; k = 5 < 40 ln 2, so the exact branch runs.
        _solve("rand-m40", "--alg", "ptas", "--alpha", "0.025", "--beta", "0.5"),
        _compare("tight-fpt-050", "--algs", "exact,greedy,fpt,greedy-exact,exact-greedy",
                 "--beta", "0.5", "--x", "2", "--with-opt"),
    ),
)

_MINNC = ("--alg", "minnc", "--beta", "2", "--epsilon", "0.1")  # 74 repetitions at k = 5

RANDOMIZED = Workload(
    "randomized",
    (
        Doc("rand-1000", "random", dict(n=1000, m=150, k=5, p_max=3)),
        Doc("rand-2000", "random", dict(n=2000, m=300, k=5, p_max=2)),
        Doc("graph-250", "graph", dict(vertices=250, edges=1200, k=5)),
    ),
    # A random instance's search tree, and so its cost, depends on which
    # frequencies the samples hit; a graph's always branches in two. Most
    # jobs run on the graph so that the cost moves little between seeds.
    tuple(_solve("rand-1000", *_MINNC, "--seed", str(s)) for s in range(2))
    + (_solve("rand-2000", *_MINNC, "--seed", "0"),)
    + tuple(_solve("graph-250", *_MINNC, "--seed", str(s)) for s in range(4)),
)

WORKLOADS = {w.name: w for w in (LARGE_SPARSE, EXHAUSTIVE_SMALL, RANDOMIZED)}


def approval_document(voters: int, candidates: int, lo: int, hi: int, k: int, rng) -> str:
    """Each voter approves a uniform random set of lo..hi candidates. Ballots
    are drawn one at a time, so that generating them needs far less memory
    than solving on them and the runner's peak RSS stays the program's."""
    lines = [f"p approval {candidates} {voters} {k}"]
    for size in rng.integers(lo, hi + 1, size=voters).tolist():
        ballot = sorted(rng.permutation(candidates)[:size].tolist())
        lines.append("v " + " ".join(str(c + 1) for c in ballot))
    return "\n".join(lines) + "\n"


def graph_document(vertices: int, edges: int, k: int, rng) -> str:
    """A uniform random simple graph with the given edge count."""
    seen: set[tuple[int, int]] = set()
    lines = [f"p graph {vertices} {edges} {k}"]
    while len(seen) < edges:
        u, v = (int(w) for w in rng.integers(1, vertices + 1, size=2))
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def document_text(doc: Doc, seed: int, index: int, tracer=None) -> str:
    """The document's text for the workload seed; ``index`` keeps the
    documents of one workload apart. Calls into ``generators`` are traced."""
    doc_seed = seed * 1000 + index
    p = doc.params
    span = tracer.span("generators.gen") if tracer is not None else nullcontext()
    if doc.family == "random":
        with span:
            inst = gen_random(p["n"], p["m"], p["k"], p["p_max"], doc_seed)
        return serialize_instance(inst)
    if doc.family == "tight-greedy":
        with span:
            inst = gen_tight_greedy(TightGreedySpec(p["p"], p["k"], p["m"]))
        return serialize_instance(inst)
    if doc.family == "tight-fpt":
        with span:
            inst = gen_tight_fpt(TightFptSpec(p["p"], p["k"], p["beta"]))
        return serialize_instance(inst)
    rng = np.random.default_rng(doc_seed)
    if doc.family == "approval":
        return approval_document(p["voters"], p["candidates"], p["lo"], p["hi"], p["k"], rng)
    if doc.family == "graph":
        return graph_document(p["vertices"], p["edges"], p["k"], rng)
    raise ValueError(f"unknown document family '{doc.family}'")


def write_document(doc: Doc, seed: int, index: int, directory: Path, tracer=None) -> Path:
    """Generate the document and write it into ``directory``; returns its path."""
    path = directory / f"{doc.name}.txt"
    path.write_text(document_text(doc, seed, index, tracer), encoding="ascii")
    return path
