"""Instance model, coverage evaluation, file formats, and problem reductions.

Universe elements are numbered 1..n in documents and in ``Instance.sets``;
set indices are 0-based in the API and 1-based in documents. Coverage
counting runs on integer bitmasks where bit e-1 holds element e. All values
here are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice
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
                if type(e) is not int and not isinstance(e, numbers.Integral):
                    raise ValueError(f"element id {e} is not an integer in set {idx}")
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
                if type(c) is not int and not isinstance(c, numbers.Integral):
                    raise ValueError(f"voter {voter} approves non-integer candidate {c}")
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


def _unchecked(cls, *values):
    """``cls(*values)`` without running its check, for rows that the package
    has itself checked, or built in range and strictly increasing."""
    value = object.__new__(cls)
    value.__dict__.update(zip(cls.__dataclass_fields__, values))
    return value


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
    counts = [0] * (inst.n + 1)  # slot 0 stays unused
    for s in inst.sets:
        for e in s:
            counts[e] += 1
    freq = counts[1:]
    if freq:
        return FrequencyProfile(tuple(freq), min(freq), max(freq))
    return FrequencyProfile((), 0, 0)


def election_to_maxcover(election: ApprovalElection) -> Instance:
    """Voters become elements and candidates become the sets of their approvers.

    A committee leaving the fewest voters unrepresented is then exactly a set
    selection leaving the fewest elements uncovered.
    """
    supporters: list = [[] for _ in range(election.num_candidates)]
    adds = [s.append for s in supporters]
    # Ballots in voter order keep every list strictly increasing; each voter's
    # one int object is shared by all the candidates the voter approves.
    for voter, ballot in enumerate(election.approvals, start=1):
        for c in ballot:
            adds[c - 1](voter)
    # Each bound append holds its list, so they go first; replacing each list
    # by its tuple then frees the list at once, and the two copies of the
    # supporters never coexist.
    del adds
    for c, s in enumerate(supporters):
        supporters[c] = tuple(s)
    return _unchecked(Instance, election.num_voters, tuple(supporters), election.committee_size)


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

# Byte budget of the record reader: lines are read in batches of about this
# many bytes of text (or one line, when that is longer), so that no temporary
# of the array pass grows with the document.
_CHUNK_BYTES = 1 << 15


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


def _read_records(text: str, kind: str, what: str, read_lines) -> tuple[int, int, tuple, int]:
    """Header counts (a, b, k) and the b records after a 'p <kind>' header; no
    content may follow the last.

    ``read_lines(batch, a)`` reads a batch of (line number, line) pairs, about
    _CHUNK_BYTES of text or one longer line, into one record per line, in order.
    """
    lines = _significant_lines(text)
    a, b, k = _parse_header(lines, kind)
    records: list = []
    batch, size = [], 0
    for ln_line in islice(lines, b):
        batch.append(ln_line)
        size += len(ln_line[1])
        if size >= _CHUNK_BYTES:
            records += read_lines(batch, a)
            batch, size = [], 0
    if batch:
        records += read_lines(batch, a)
    if len(records) < b:
        raise ParseError(f"expected {b} {what} lines, found {len(records)}")
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return a, b, tuple(records), k


def _read_ids(tag: str, what: str, out_of_range, tokens: list[str], ln: int, bound: int) -> tuple[int, ...]:
    """Sorted distinct ids of a '<tag> <id> ...' line, each in [1, bound].

    The first offending token in line order is reported; ``out_of_range(id,
    bound)`` words the message for an id outside [1, bound].
    """
    if tokens[0] != tag:
        raise ParseError(f"expected a {what} line starting with '{tag}', got '{tokens[0]}'", ln)
    ids = set()
    for t in tokens[1:]:
        e = _int_token(t, ln)
        if not 0 < e <= bound:
            raise ParseError(out_of_range(e, bound), ln)
        ids.add(e)
    return tuple(sorted(ids))


# Longest id the array pass reads; every id of at most this many digits fits
# an int32. A longer id sends its line to ``_read_ids``.
_MAX_ID_DIGITS = 9


def _read_id_lines(tag: str, what: str, out_of_range, batch: list[tuple[int, str]], bound: int) -> list:
    """``_read_ids`` of every line of a batch, in whole-array passes.

    A canonical line (the tag, then only ASCII digits and spaces, every id of
    at most _MAX_ID_DIGITS digits and in [1, bound]) is read from the batch's
    bytes: digit runs are the ids, and the batch is sorted and deduplicated
    only if one of its lines needs it. Any other line goes to ``_read_ids``,
    which words the error. Canonical lines cannot fail, and the others are
    settled in line order, so the first offender is the one reported.
    """
    # A newline before and after every line; the trailing spaces keep the
    # digit reads of the last id inside the buffer.
    blob = "\n".join(["", *[line for _, line in batch], ""]) + " " * _MAX_ID_DIGITS
    buf = np.frombuffer(blob.encode("ascii", "replace"), np.uint8)
    nl = np.flatnonzero(buf == 10)
    starts = nl[:-1] + 1
    digit = buf - 48 < 10  # uint8 arithmetic wraps the bytes below '0'
    ok = digit | (buf == 32) | (buf == 10)
    ok[starts] = buf[starts] == ord(tag)
    ok[starts + 1] &= ~digit[starts + 1]  # 's1' is not the tag 's'
    bad = np.logical_or.reduceat(~ok, starts)
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    first, width = edges[0::2], edges[1::2] - edges[0::2]
    ids = np.zeros(len(first), np.int32)
    for j in range(min(int(width.max(initial=0)), _MAX_ID_DIGITS)):
        ids = np.where(j < width, ids * 10 + (buf[first + j] - 48), ids)
    ids[width > _MAX_ID_DIGITS] = 0  # out of range, like any id below 1
    offs = np.searchsorted(first, nl)  # the ids of line i are ids[offs[i]:offs[i + 1]]
    id_line = np.repeat(np.arange(len(batch)), np.diff(offs))
    bad[id_line[(ids < 1) | (ids > bound)]] = True
    if ((ids[1:] <= ids[:-1]) & (id_line[1:] == id_line[:-1])).any():
        key = np.sort(id_line << 30 | ids)
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        ids, offs = key & (1 << 30) - 1, np.searchsorted(key >> 30, np.arange(len(batch) + 1))
    ids, offs = ids.tolist(), offs.tolist()
    records = [tuple(ids[lo:hi]) for lo, hi in zip(offs, offs[1:])]
    for i in np.flatnonzero(bad).tolist():
        ln, line = batch[i]
        records[i] = _read_ids(tag, what, out_of_range, line.split(), ln, bound)
    return records


_read_sets = partial(
    _read_id_lines, "s", "set",
    lambda e, n: f"element id {e} must be at least 1" if e < 1 else f"element id {e} exceeds n={n}",
)
_read_ballots = partial(
    _read_id_lines, "v", "ballot", lambda c, bound: f"candidate id {c} out of range [1, {bound}]"
)


def _read_edges(batch: list[tuple[int, str]], num_vertices: int) -> list[tuple[int, int]]:
    edges = []
    for ln, line in batch:
        tokens = line.split()
        if tokens[0] != "e" or len(tokens) != 3:
            raise ParseError("expected an edge line 'e <u> <v>'", ln)
        u, v = _int_token(tokens[1], ln), _int_token(tokens[2], ln)
        for w in (u, v):
            if not 1 <= w <= num_vertices:
                raise ParseError(f"vertex id {w} out of range [1, {num_vertices}]", ln)
        edges.append((u, v))
    return edges


def parse_instance(text: str) -> Instance:
    """Parse a 'p maxcover <n> <m> <k>' document with m 's <e1> <e2> ...' lines.

    Element lists are deduplicated and sorted on ingest; ids must lie in [1, n].
    """
    n, _, sets, k = _read_records(text, "maxcover", "set", _read_sets)
    return _unchecked(Instance, n, sets, k)


def serialize_instance(inst: Instance) -> str:
    """Canonical document for an instance; ``parse_instance`` inverts it."""
    lines = [f"p maxcover {inst.n} {inst.m} {inst.k}"]
    for s in inst.sets:
        lines.append("s" + "".join(f" {e}" for e in s))
    return "\n".join(lines) + "\n"


def parse_election(text: str) -> ApprovalElection:
    """Parse a 'p approval <candidates> <voters> <k>' document with 'v' ballot lines."""
    return _unchecked(ApprovalElection, *_read_records(text, "approval", "ballot", _read_ballots))


def parse_graph(text: str) -> Graph:
    """Parse a 'p graph <vertices> <edges> <k>' document with 'e <u> <v>' lines."""
    num_vertices, _, edges, k = _read_records(text, "graph", "edge", _read_edges)
    return Graph(num_vertices, edges, k)
