"""Instance model, coverage evaluation, file formats, and problem reductions.

Universe elements are numbered 1..n in documents and in ``Instance.sets``;
set indices are 0-based in the API and 1-based in documents. Coverage
counting runs on integer bitmasks where bit e-1 holds element e. All values
here are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed input document; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Instance:
    """A coverage instance: universe 1..n, m element sets, selection budget k.

    Each set is a strictly increasing tuple of element ids from [1, n].
    ``k`` may exceed ``m``; solvers clamp the effective budget to min(k, m).
    """

    n: int
    sets: tuple[tuple[int, ...], ...]
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"universe size must be nonnegative, got {self.n}")
        if self.k < 0:
            raise ValueError(f"budget must be nonnegative, got {self.k}")
        for idx, s in enumerate(self.sets):
            prev = 0
            for e in s:
                if e < 1:
                    raise ValueError(f"element id {e} must be at least 1 in set {idx}")
                if e <= prev:
                    raise ValueError(f"set {idx} is not strictly increasing")
                if e > self.n:
                    raise ValueError(f"element id {e} exceeds n={self.n} in set {idx}")
                prev = e

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]], k: int) -> "Instance":
        """Build an instance, sorting and deduplicating each set."""
        return cls(n, tuple(tuple(sorted(set(s))) for s in sets), k)

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def effective_budget(self) -> int:
        return min(self.k, len(self.sets))


@dataclass(frozen=True)
class FrequencyProfile:
    """Per-element set-membership counts with their extremes."""

    freq: tuple[int, ...]
    p_min: int
    p_max: int


@dataclass(frozen=True)
class Solution:
    """Chosen set indices (0-based, sorted) with the resulting coverage split."""

    chosen: tuple[int, ...]
    covered: int
    uncovered: int

    @classmethod
    def evaluate(cls, inst: Instance, chosen: Iterable[int]) -> "Solution":
        cov = coverage(inst, chosen)
        return cls(tuple(sorted(chosen)), cov, inst.n - cov)


@dataclass(frozen=True)
class SolverConfig:
    """Bag of optional solver parameters; each solver validates what it uses."""

    beta: float | None = None
    epsilon: float | None = None
    x_split: int | None = None
    p_bound: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ApprovalElection:
    """Approval ballots: every voter lists the candidates they find acceptable."""

    num_candidates: int
    num_voters: int
    approvals: tuple[tuple[int, ...], ...]
    committee_size: int

    def __post_init__(self):
        if min(self.num_candidates, self.num_voters, self.committee_size) < 0:
            raise ValueError("election counts must be nonnegative")
        if len(self.approvals) != self.num_voters:
            raise ValueError(
                f"expected {self.num_voters} ballots, got {len(self.approvals)}"
            )
        for voter, ballot in enumerate(self.approvals, start=1):
            prev = 0
            for c in ballot:
                if not 1 <= c <= self.num_candidates:
                    raise ValueError(f"voter {voter} approves unknown candidate {c}")
                if c <= prev:
                    raise ValueError(f"ballot of voter {voter} is not strictly increasing")
                prev = c


@dataclass(frozen=True)
class Graph:
    """Undirected edge list with a vertex budget, as read from 'p graph' files."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    k: int


def set_masks(inst: Instance) -> list[int]:
    """One bitmask per set; bit e-1 represents element e."""
    return _masks_of(inst.n, inst.sets)


def _masks_of(n: int, sets: Iterable[Sequence[int]]) -> list[int]:
    """Bitmasks of sets over elements 1..n, in time linear in n per set.

    Each set's ids mark one reused row of n + 1 flags (slot 0 stays unused),
    which is packed to little-endian bytes and read as one integer, so memory
    beyond the masks themselves stays O(n).
    """
    row = np.zeros(n + 1, np.bool_)
    masks = []
    for s in sets:
        ids = np.fromiter(s, np.intp, len(s))
        row[ids] = True
        masks.append(int.from_bytes(np.packbits(row[1:], bitorder="little"), "little"))
        row[ids] = False
    return masks


def _check_indices(inst: Instance, chosen: Iterable[int]) -> list[int]:
    out = []
    seen = set()
    for i in chosen:
        if not 0 <= i < inst.m:
            raise ValueError(f"set index {i} out of range [0, {inst.m})")
        if i in seen:
            raise ValueError(f"duplicate set index {i}")
        seen.add(i)
        out.append(i)
    return out


def coverage(inst: Instance, chosen: Iterable[int]) -> int:
    """Number of elements in the union of the chosen sets."""
    union = 0
    for mask in _masks_of(inst.n, [inst.sets[i] for i in _check_indices(inst, chosen)]):
        union |= mask
    return union.bit_count()


def coverage_inclusion_exclusion(inst: Instance, chosen: Iterable[int], p: int) -> int:
    """Union size via inclusion-exclusion truncated at intersections of p sets.

    Exact whenever every element appears in at most p sets: any intersection
    of more than p sets is then empty, so the truncated alternating sum over
    subsets of ``chosen`` of size 1..p equals the plain union size.
    """
    order = sorted(_check_indices(inst, chosen))
    check_frequency_bound(inst, p, "cap")
    total = 0
    for size in range(1, min(p, len(order)) + 1):
        sign = 1 if size % 2 == 1 else -1
        for group in combinations(order, size):
            inter: Sequence[int] = inst.sets[group[0]]
            for i in group[1:]:
                inter = _intersect_sorted(inter, inst.sets[i])
                if not inter:
                    break
            total += sign * len(inter)
    return total


def _intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        if a[ia] == b[ib]:
            out.append(a[ia])
            ia += 1
            ib += 1
        elif a[ia] < b[ib]:
            ia += 1
        else:
            ib += 1
    return out


def check_frequency_bound(inst: Instance, p: int, word: str = "bound") -> None:
    """Reject p < 1, and any element that appears in more than p sets.

    ``word`` names p in the error messages, as in "frequency bound must be
    positive" or "above the bound p=2".
    """
    if p < 1:
        raise ValueError(f"frequency {word} must be positive, got {p}")
    profile = frequency_profile(inst)
    if profile.p_max > p:
        e = next(i + 1 for i, f in enumerate(profile.freq) if f > p)
        raise ValueError(
            f"element {e} appears in {profile.freq[e - 1]} sets, above the {word} p={p}"
        )


def frequency_profile(inst: Instance) -> FrequencyProfile:
    """Count, for every element, how many sets contain it."""
    counts = [0] * inst.n
    for s in inst.sets:
        for e in s:
            counts[e - 1] += 1
    if counts:
        return FrequencyProfile(tuple(counts), min(counts), max(counts))
    return FrequencyProfile((), 0, 0)


def election_to_maxcover(election: ApprovalElection) -> Instance:
    """Voters become elements and candidates become the sets of their approvers.

    A committee leaving the fewest voters unrepresented is then exactly a set
    selection leaving the fewest elements uncovered.
    """
    supporters: list[list[int]] = [[] for _ in range(election.num_candidates)]
    for voter, ballot in enumerate(election.approvals, start=1):
        for c in ballot:
            supporters[c - 1].append(voter)
    return Instance.of(election.num_voters, supporters, election.committee_size)


def pad_frequencies(inst: Instance, p: int) -> Instance:
    """Append p-1 singleton copies of every element, raising each frequency by p-1.

    Rejects elements that belong to no set at all: padding raises frequencies
    but must not turn an uncoverable element into a coverable one.
    """
    if p < 1:
        raise ValueError(f"target frequency bound must be positive, got {p}")
    profile = frequency_profile(inst)
    for e, f in enumerate(profile.freq, start=1):
        if f == 0:
            raise ValueError(f"element {e} belongs to no set and cannot be padded")
    singles: list[tuple[int, ...]] = []
    for e in range(1, inst.n + 1):
        singles.extend([(e,)] * (p - 1))
    return Instance(inst.n, inst.sets + tuple(singles), inst.k)


# ---------------------------------------------------------------------------
# Document formats (line oriented, ASCII; 'c' lines are comments).
# ---------------------------------------------------------------------------

# Largest element or set count a document header may declare: the universe
# (elements, voters, edges) and the family (sets, candidates, vertices). The
# mask build, the frequency profile and the reductions allocate in proportion
# to these counts, so a larger header is a ParseError before any allocation.
MAX_HEADER_COUNT = 10**7


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield ln, line


def _int_token(token: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"non-numeric token '{token}'", ln) from None


def _parse_header(lines: Iterator[tuple[int, str]], kind: str) -> tuple[int, int, int]:
    try:
        ln, line = next(lines)
    except StopIteration:
        raise ParseError(f"missing 'p {kind}' header", 1) from None
    tokens = line.split()
    if tokens[0] != "p" or len(tokens) != 5 or tokens[1] != kind:
        raise ParseError(f"malformed header, expected 'p {kind} <a> <b> <k>'", ln)
    a, b, k = (_int_token(t, ln) for t in tokens[2:])
    if a < 0 or b < 0 or k < 0:
        raise ParseError("header counts must be nonnegative", ln)
    if max(a, b) > MAX_HEADER_COUNT:
        raise ParseError(f"header count {max(a, b)} exceeds the limit of {MAX_HEADER_COUNT}", ln)
    return a, b, k


def document_kind(text: str) -> str:
    """Second token of the first significant 'p' line: the document format name."""
    for ln, line in _significant_lines(text):
        tokens = line.split()
        if tokens[0] != "p" or len(tokens) < 2:
            raise ParseError("malformed header", ln)
        return tokens[1]
    raise ParseError("empty document", 1)


def parse_instance(text: str) -> Instance:
    """Parse a 'p maxcover <n> <m> <k>' document with m 's <e1> <e2> ...' lines.

    Element lists are deduplicated and sorted on ingest; ids must lie in [1, n].
    """
    lines = _significant_lines(text)
    n, m, k = _parse_header(lines, "maxcover")
    sets: list[tuple[int, ...]] = []
    for _ in range(m):
        try:
            ln, line = next(lines)
        except StopIteration:
            raise ParseError(f"expected {m} set lines, found {len(sets)}") from None
        tokens = line.split()
        if tokens[0] != "s":
            raise ParseError(f"expected a set line starting with 's', got '{tokens[0]}'", ln)
        ids = set()
        for t in tokens[1:]:
            e = _int_token(t, ln)
            if e < 1:
                raise ParseError(f"element id {e} must be at least 1", ln)
            if e > n:
                raise ParseError(f"element id {e} exceeds n={n}", ln)
            ids.add(e)
        sets.append(tuple(sorted(ids)))
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return Instance(n, tuple(sets), k)


def serialize_instance(inst: Instance) -> str:
    """Canonical document for an instance; ``parse_instance`` inverts it."""
    lines = [f"p maxcover {inst.n} {inst.m} {inst.k}"]
    for s in inst.sets:
        lines.append("s" + "".join(f" {e}" for e in s))
    return "\n".join(lines) + "\n"


def parse_election(text: str) -> ApprovalElection:
    """Parse a 'p approval <candidates> <voters> <k>' document with 'v' ballot lines."""
    lines = _significant_lines(text)
    num_candidates, num_voters, k = _parse_header(lines, "approval")
    ballots: list[tuple[int, ...]] = []
    for _ in range(num_voters):
        try:
            ln, line = next(lines)
        except StopIteration:
            raise ParseError(
                f"expected {num_voters} ballot lines, found {len(ballots)}"
            ) from None
        tokens = line.split()
        if tokens[0] != "v":
            raise ParseError(f"expected a ballot line starting with 'v', got '{tokens[0]}'", ln)
        ids = set()
        for t in tokens[1:]:
            c = _int_token(t, ln)
            if not 1 <= c <= num_candidates:
                raise ParseError(f"candidate id {c} out of range [1, {num_candidates}]", ln)
            ids.add(c)
        ballots.append(tuple(sorted(ids)))
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return ApprovalElection(num_candidates, num_voters, tuple(ballots), k)


def parse_graph(text: str) -> Graph:
    """Parse a 'p graph <vertices> <edges> <k>' document with 'e <u> <v>' lines."""
    lines = _significant_lines(text)
    num_vertices, num_edges, k = _parse_header(lines, "graph")
    edges: list[tuple[int, int]] = []
    for _ in range(num_edges):
        try:
            ln, line = next(lines)
        except StopIteration:
            raise ParseError(f"expected {num_edges} edge lines, found {len(edges)}") from None
        tokens = line.split()
        if tokens[0] != "e" or len(tokens) != 3:
            raise ParseError("expected an edge line 'e <u> <v>'", ln)
        u, v = _int_token(tokens[1], ln), _int_token(tokens[2], ln)
        for w in (u, v):
            if not 1 <= w <= num_vertices:
                raise ParseError(f"vertex id {w} out of range [1, {num_vertices}]", ln)
        edges.append((u, v))
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return Graph(num_vertices, tuple(edges), k)
