"""Spans and counters around the calls ``cli.main`` makes into each layer.

``Trace.patched()`` replaces, for the length of a ``with`` block, the names
that ``maxcover.cli`` looks up when it runs (the reads and writes, the
parsers, the reductions, the profile, the solvers, the ``--with-opt`` oracle
and ``verify``) with wrappers that open a span around the call and add
counters taken from its return value, and puts the originals back on exit.
``cli.main`` then runs its own code path and writes the same bytes; the
runner checks that. Only calls made from ``cli`` are traced, so the work a
solver does through other layers (its own mask build and profile, a hybrid's
greedy and kernel, the oracle's brute force) stays inside its span.

Two calls are extra work that the CLI does not do on its own, timed outside
the job by ``time_validation_and_masks``: an ``Instance`` rebuilt from the
parsed sets (``core.validate``) and one ``set_masks`` (``core.set_masks``).
``core.set_masks`` estimates the share of a solver span spent on its masks.

Counters come only from public return values and repeat exactly between
runs of the same code. ``core.parse_bytes`` and ``core.incidences`` count
every document the CLI loads, ``verify`` included.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

from maxcover import Instance, cli, set_masks
from measure import Span

# Span names at layer boundaries; each gives a per-layer metric "<name>_s".
LAYER_SPANS = (
    "cli.read",
    "core.parse",
    "core.election_to_maxcover",
    "generators.graph_to_maxvertexcover",
    "core.validate",
    "core.set_masks",
    "core.frequency_profile",
    "greedy.greedy_cover",
    "exact.brute_force",
    "fpt.fpt_approx",
    "hybrid.greedy_then_exact",
    "hybrid.exact_then_greedy",
    "hybrid.ptas_dispatch",
    "minnoncovered.randomized_min_noncovered",
    "cli.oracle",
    "cli.report",
    "cli.verify",
)

# Raw counters a traced pass accumulates. Ratios are derived in ``ratios``.
COUNTERS = (
    "core.parse_bytes",
    "core.incidences",
    "greedy.picks",
    "exact.subsets_scanned",
    "exact.subsets_total",
    "fpt.pool_combos",
    "hybrid.combos_scanned",
    "minnoncovered.repetitions",
    "minnoncovered.best_reps",
    "cli.oracle_requests",
    "cli.oracle_answers",
)

# The oracle's own brute force is counted, but its time stays in cli.oracle.
OPAQUE_SPANS = {"cli.oracle"}


def _parsed(trace, args, result):
    trace.counters["core.parse_bytes"] += len(args[0])


def _loaded(trace, args, result):
    trace.counters["core.incidences"] += sum(map(len, result.sets))
    trace.instance = result


def _scanned(trace, args, result):
    inst = args[0]
    trace.counters["exact.subsets_scanned"] += result.subsets_scanned
    trace.counters["exact.subsets_total"] += math.comb(inst.m, inst.effective_budget)


def _picks(trace, args, result):
    trace.counters["greedy.picks"] += len(result[1].picks)


def _pool(trace, args, result):
    trace.counters["fpt.pool_combos"] += result[1].combos


def _repetitions(trace, args, result):
    trace.counters["minnoncovered.repetitions"] += result.repetitions
    trace.counters["minnoncovered.best_reps"] += result.per_rep_uncovered.count(min(result.per_rep_uncovered))


def _combos(trace, args, result):
    trace.counters["hybrid.combos_scanned"] += result.combos_scanned


def _oracle(trace, args, result):
    trace.counters["cli.oracle_requests"] += 1
    trace.counters["cli.oracle_answers"] += result is not None


# (owner, attribute, span name or None, update(trace, args, result) or None)
TRACED_CALLS = (
    (cli, "_read", "cli.read", None),
    (cli, "document_kind", "core.parse", None),
    (cli, "parse_instance", "core.parse", _parsed),
    (cli, "parse_election", "core.parse", _parsed),
    (cli, "parse_graph", "core.parse", _parsed),
    (cli, "election_to_maxcover", "core.election_to_maxcover", None),
    (cli, "graph_to_maxvertexcover", "generators.graph_to_maxvertexcover", None),
    (cli, "load_instance_text", None, _loaded),
    (cli, "frequency_profile", "core.frequency_profile", None),
    (cli, "greedy_cover", "greedy.greedy_cover", _picks),
    (cli, "brute_force", "exact.brute_force", _scanned),
    (cli, "fpt_approx", "fpt.fpt_approx", _pool),
    (cli, "randomized_min_noncovered", "minnoncovered.randomized_min_noncovered", _repetitions),
    (cli, "greedy_then_exact", "hybrid.greedy_then_exact", _combos),
    (cli, "exact_then_greedy", "hybrid.exact_then_greedy", _combos),
    (cli, "ptas_dispatch", "hybrid.ptas_dispatch", None),
    (cli, "_oracle_opt", "cli.oracle", _oracle),
    (cli.SolverReport, "to_json", "cli.report", None),
    (cli, "_write", "cli.report", None),
    (cli, "run_verify", "cli.verify", None),
)


class Trace:
    """Spans kept in memory and counters; ``job`` tags every span opened
    while it is set, and ``instance`` is the last instance the CLI loaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.job = ""
        self.instance: Instance | None = None
        self._stack: list[tuple[int, str]] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.job))

    def _wrap(self, fn, name: str | None, count):
        @wraps(fn)
        def traced(*args, **kwargs):
            if name is None or (self._stack and self._stack[-1][1] in OPAQUE_SPANS):
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Trace every call in ``TRACED_CALLS`` until the block ends."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED_CALLS]
        try:
            for (owner, attr, name, count), (_, _, fn) in zip(TRACED_CALLS, originals):
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


def time_validation_and_masks(trace: Trace) -> None:
    """Rebuild the last loaded instance and its masks, each in its own span."""
    inst = trace.instance
    with trace.span("core.validate"):
        inst = Instance(inst.n, inst.sets, inst.k)
    with trace.span("core.set_masks"):
        set_masks(inst)


def ratios(counters: Counter) -> dict[str, float]:
    """Useful outcomes over attempts, 0 where a layer made no attempt."""

    def frac(num: str, den: str) -> float:
        return counters[num] / counters[den] if counters[den] else 0.0

    return {
        "exact.scan_frac": frac("exact.subsets_scanned", "exact.subsets_total"),
        "minnoncovered.best_rep_frac": frac("minnoncovered.best_reps", "minnoncovered.repetitions"),
        "cli.oracle_answered_frac": frac("cli.oracle_answers", "cli.oracle_requests"),
    }
