"""Pure helpers of the benchmark: latency statistics, span self time, and
output digests. Nothing here touches the clock, the disk or ``maxcover``."""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

# Coarse on purpose: the chosen percentile depends on the sample count, and a
# coarse ladder keeps that choice fixed while the pass count varies a little.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """Latency at ``percentile`` over ``samples`` values, with ``beyond``
    samples strictly above its rank."""

    value: float
    percentile: float
    samples: int
    beyond: int


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> int:
    """0-based index of the nearest-rank ``percentile`` of sorted values."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    return max(math.ceil(percentile / 100.0 * n) - 1, 0)


def tail_latency(values: Iterable[float]) -> Tail:
    """The highest ladder percentile that still has ``MIN_BEYOND`` samples
    above it. With fewer than that many samples beyond even the median, the
    median is returned and ``beyond`` says how thin it is."""
    ordered = sorted(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if len(ordered) - 1 - nearest_rank(ordered, pct) >= MIN_BEYOND:
            chosen = pct
    idx = nearest_rank(ordered, chosen)
    return Tail(ordered[idx], chosen, len(ordered), len(ordered) - 1 - idx)


def seed_list(spec: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary. ``parent`` is the id of the span
    that caused it (None for a job's root), ``job`` the job it belongs to."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed over all spans of the same name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + own[s.id]
    return totals


def strip_wall_time(csv_text: str) -> str:
    """A ``compare`` CSV without its ``wall_time_s`` column, the only part of
    the document that differs between two runs of the same command."""
    lines = csv_text.splitlines()
    if not lines:
        return csv_text
    header = lines[0].split(",")
    if "wall_time_s" not in header:
        return csv_text
    drop = header.index("wall_time_s")
    kept = [",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines]
    return "\n".join(kept) + "\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digest(kind: str, data: bytes) -> str:
    """sha256 of a job's output: report bytes for ``solve`` and stdout for
    ``verify`` as they are, a ``compare`` CSV without its timing column."""
    if kind == "compare":
        data = strip_wall_time(data.decode("ascii")).encode("ascii")
    return digest(data)


def compare_problem(csv_text: str) -> str | None:
    """With an ``opt`` column, every row must cover at most opt and at least
    its guarantee times opt, and the exact row must reach opt."""
    reader = csv.DictReader(io.StringIO(csv_text))
    if "opt" not in (reader.fieldnames or ()):
        return None
    for row in reader:
        if not row["opt"]:
            continue
        alg, covered, opt = row["algorithm"], int(row["covered"]), int(row["opt"])
        if covered > opt:
            return f"{alg} covers {covered}, above the optimum {opt}"
        if alg == "exact" and covered != opt:
            return f"exact covers {covered}, the optimum is {opt}"
        if row["guarantee"] and covered < float(row["guarantee"]) * opt * (1 - 1e-12):
            return f"{alg} covers {covered}, below its guarantee {row['guarantee']} of {opt}"
    return None


def check_output(expected: tuple[int, str] | None, exit_code: int | None, out_digest: str | None) -> str | None:
    """Why an observed (exit code, digest) differs from the expected pair, or None."""
    if expected is None:
        return None
    want_code, want_digest = expected
    if exit_code != want_code:
        return f"exit code {exit_code}, expected {want_code}"
    if out_digest != want_digest:
        return f"digest {str(out_digest)[:12]}, expected {want_digest[:12]}"
    return None
