"""Instance model, coverage evaluation, file formats, and problem reductions.

Universe elements are numbered 1..n in documents and in ``Instance.sets``;
set indices are 0-based in the API and 1-based in documents. The greedy
counts its gains on the instance's rows of ids, set by set and element by
element; the exhaustive searches count coverage on integer bitmasks where
bit e-1 holds element e; ``coverage`` counts the distinct ids of the chosen
rows. All values here are immutable after construction and safe to share
across threads: no field changes, and the forms a value derives from its
fields are built once and never change.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed input document; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


class _Derived:
    """Base of the frozen values that keep forms derived from their fields.

    A derived form (the id arrays, the element rows, the masks, the frequency
    profile) is built from the fields on first use and kept in the instance
    dict under a private key, which the dataclass's ``==``, ``hash`` and
    ``repr`` never read and ``__getstate__`` leaves out of pickles and copies.
    Every build of a form gives the same value and only the first one stored
    is kept, so threads that race to build one all read that one.

    ``_lazy`` names the tuple field that a value the package built from id
    arrays (an instance's ``sets``, an election's ``approvals``) makes from
    them, and the field that bounds its ids. That field is made when it is
    first read and kept the same way, under its own name, and
    ``__getstate__`` reads it as an attribute.
    """

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __getattr__(self, name):
        # Reached only for a name not in the instance dict: the lazy field,
        # before it is first read, or a name the value lacks.
        field, bound = self._lazy
        if name == field and "_ids" in self.__dict__:
            return self._derived(field, lambda v: _tuples(*v.__dict__["_ids"], getattr(v, bound)))
        raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'")

    def _derived(self, key: str, build):
        try:
            return self.__dict__[key]
        except KeyError:
            return self.__dict__.setdefault(key, build(self))


@dataclass(frozen=True)
class Instance(_Derived):
    """A coverage instance: universe 1..n, m element sets, selection budget k.

    Each set is a strictly increasing tuple of element ids from [1, n].
    ``k`` may exceed ``m``; solvers clamp the effective budget to min(k, m).
    An instance that the package builds from id arrays (a parsed document, a
    reduction, a generated family) makes its ``sets`` tuples from them when
    they are first read.
    """

    n: int
    sets: tuple[tuple[int, ...], ...]
    k: int

    _lazy = ("sets", "n")

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
        if "_ids" in self.__dict__:
            return len(self.__dict__["_ids"][1]) - 1
        return len(self.sets)

    @property
    def effective_budget(self) -> int:
        return min(self.k, self.m)


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
class ApprovalElection(_Derived):
    """Approval ballots: every voter lists the candidates they find acceptable."""

    num_candidates: int
    num_voters: int
    approvals: tuple[tuple[int, ...], ...]
    committee_size: int

    _lazy = ("approvals", "num_candidates")

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


def _unchecked(cls, **values):
    """A ``cls`` of the given fields without running its check, for rows that
    the package has itself checked, or built in range and strictly
    increasing; the other keys give forms of the value already at hand. A
    field left out is one the value derives when it is first read."""
    value = object.__new__(cls)
    value.__dict__.update(values)
    return value


# Byte budget of the whole-array passes over id arrays (the mask build, the
# counts, the transpose, the tuples and the greedy's gain updates): each pass
# takes the rows a block at a time, with at most this many bytes of
# temporaries, so that no temporary grows with the instance. A block is
# larger only to hold one long row, or, where a block's work includes one
# count per id value, as many ids as there are values.
_BLOCK_BYTES = 1 << 18


def _flatten(rows: Sequence[Sequence[int]], bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ids in [1, bound] as (ids, offsets): one array of every id in
    row order, of the smallest unsigned type that holds bound, and int64
    offsets where row i holds ids[offsets[i]:offsets[i + 1]]."""
    offs = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offs[1:])
    return np.fromiter(chain.from_iterable(rows), np.min_scalar_type(bound), int(offs[-1])), offs


def _tuples(ids: np.ndarray, offs: np.ndarray, bound: int) -> tuple[tuple[int, ...], ...]:
    """The rows of (ids, offsets), ids in [0, bound], as tuples of ints, built
    a block of rows at a time.

    Where the rows hold at least as many ids as there are values, and the
    values reach past 256 (CPython shares the ints up to 256 already), each
    value is one int object that every row holding it shares, so the tuples
    keep one int a value, not one an id (below four ids a value, at a little
    more time than making an int for each id).
    """
    values = np.arange(bound + 1).astype(object) if 256 < bound <= len(ids) else None
    return tuple(map(tuple, _row_lists(ids, offs, _BLOCK_BYTES // 24, values)))


def _row_lists(ids: np.ndarray, offs: np.ndarray, block: int, values: np.ndarray | None = None) -> Iterator[list]:
    """Each row of (ids, offsets) as a list of ints, or of ``values[id]``,
    read a block of about ``block`` ids at a time."""
    for lo, hi in _row_blocks(offs, block):
        run = ids[offs[lo] : offs[hi]]
        run = (run if values is None else values[run]).tolist()
        ends = (offs[lo : hi + 1] - offs[lo]).tolist()
        yield from (run[a:b] for a, b in zip(ends, ends[1:]))


def _id_arrays(value: _Derived) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, offsets) of an instance's sets or an election's ballots: the
    arrays that the parser, a reduction or a generator made, or, for a value
    built by a caller, ``_flatten`` of its rows on first use."""
    field, bound = value._lazy
    return value._derived("_ids", lambda v: _flatten(getattr(v, field), getattr(v, bound)))


def _element_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, offsets) of an instance's elements: row e - 1 lists the
    1-based sets that hold element e, in any order. These are the rows that a
    reduction or a generator transposed into the sets; a parsed or
    caller-built instance transposes its sets once, on first use."""
    return inst._derived("_elements", lambda inst: _transpose(inst.n, inst.m, *_id_arrays(inst)))


def _row_blocks(offs: np.ndarray, ids: int, rows: int | None = None) -> Iterator[tuple[int, int]]:
    """Consecutive (lo, hi) row ranges over every row of ``offs``; each is
    one row, or as many rows as hold at most ``ids`` ids, and at most
    ``rows`` rows."""
    lo, m = 0, len(offs) - 1
    while lo < m:
        hi = int(np.searchsorted(offs, offs[lo] + ids, "right")) - 1
        if rows is not None:
            hi = min(hi, lo + rows)
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _counts(ids: np.ndarray, size: int) -> np.ndarray:
    """int64 count of each value 0..size in ``ids``. bincount reads a block at
    a time, since it copies its input to int64, and a block is at least size
    + 1 ids, so that its own output does not outweigh the block."""
    counts = np.zeros(size + 1, np.int64)
    step = max(_BLOCK_BYTES // 8, size + 1)
    for a in range(0, len(ids), step):
        counts += np.bincount(ids[a : a + step], minlength=size + 1)
    return counts


def _pack(n: int, ids: np.ndarray, offs: np.ndarray) -> list[int]:
    """Bitmask of each row of ids in [1, n], from (ids, offsets).

    Rows are packed a block at a time into little-endian bytes, ceil(n / 8)
    a row, and each row is read as one integer. A family whose ids fill at
    least one in 48 of its row bits on average marks a block's bits in a
    bool grid of the rows, which ``np.packbits`` packs; a sparser one ORs
    each id's bit into its byte, without a grid that takes a byte a bit.
    Near one in 48 the two take the same time; denser families pack faster
    on the grid, sparser ones with the byte OR.
    """
    width = (n + 7) // 8
    grid = 48 * len(ids) >= (len(offs) - 1) * n
    masks = []
    # Half the budget for the 25 bytes of temporaries an id takes, half for
    # the block's bytes, and its grid's.
    row_bytes = 9 * width if grid else width
    for lo, hi in _row_blocks(offs, _BLOCK_BYTES // 50, _BLOCK_BYTES // max(2 * row_bytes, 1)):
        e = ids[offs[lo] : offs[hi]].astype(np.intp)
        e -= 1
        at = np.repeat(np.arange(hi - lo), np.diff(offs[lo : hi + 1]))
        if grid:
            bits = np.zeros((hi - lo, 8 * width), np.bool_)
            bits[at, e] = True
            block = np.packbits(bits, axis=1, bitorder="little")
            del bits
        else:
            at *= width
            at += e >> 3
            e &= 7
            block = np.zeros((hi - lo) * width, np.uint8)
            np.bitwise_or.at(block, at, np.left_shift(1, e).astype(np.uint8))
        del e, at
        view = memoryview(block.reshape(-1))
        masks += [int.from_bytes(view[i * width : (i + 1) * width], "little") for i in range(hi - lo)]
    return masks


def set_masks(inst: Instance) -> list[int]:
    """One bitmask per set; bit e-1 represents element e. The masks are
    built once per instance; each call returns a new list of them. Refuses
    with ValueError, before it allocates, a family whose masks would take
    more than ``MAX_MASK_BYTES``."""
    size = inst.m * ((inst.n + 7) // 8)
    if size > MAX_MASK_BYTES:
        raise ValueError(f"masks need {size} bytes, above the ceiling {MAX_MASK_BYTES}")
    return list(inst._derived("_masks", lambda inst: tuple(_pack(inst.n, *_id_arrays(inst)))))


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
    """Number of distinct elements in the chosen sets, read from the
    instance's rows of ids by a set union. (The first ``np.unique`` in a
    process takes 1.3 MB of resident memory.)"""
    ids, offs = _id_arrays(inst)
    return len(set().union(*(ids[offs[i] : offs[i + 1]].tolist() for i in _check_indices(inst, chosen))))


def _voters_covered(election: ApprovalElection, committee: Iterable[int]) -> int:
    """Number of voters that a committee, given as 0-based candidate indices,
    covers: the ballots that approve one of its candidates, read from the
    election's id arrays a block of ballots at a time. It equals ``coverage``
    of the same indices in ``election_to_maxcover(election)``."""
    ids, offs = _id_arrays(election)
    member = np.zeros(election.num_candidates + 1, np.bool_)
    member[1:][list(committee)] = True
    met = 0
    for lo, hi in _row_blocks(offs, _BLOCK_BYTES // 2, _BLOCK_BYTES // 32):
        ends = offs[lo : hi + 1] - offs[lo]
        # reduceat gives a row with no ids the id at its start, so only the
        # rows that hold ids are reduced; each one's ids end where the next starts.
        starts = ends[:-1][ends[:-1] < ends[1:]]
        if len(starts):
            met += int(np.count_nonzero(np.logical_or.reduceat(member[ids[offs[lo] : offs[hi]]], starts)))
    return met


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
        for first, *rest in combinations(order, size):
            total += sign * len(set(inst.sets[first]).intersection(*(inst.sets[i] for i in rest)))
    return total


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
    """Count, for every element, how many sets contain it. The profile is
    counted once per instance."""
    return inst._derived("_profile", _count_profile)


def _count_profile(inst: Instance) -> FrequencyProfile:
    freq = _counts(_id_arrays(inst)[0], inst.n)[1:].tolist()
    if freq:
        return FrequencyProfile(tuple(freq), min(freq), max(freq))
    return FrequencyProfile((), 0, 0)


def election_to_maxcover(election: ApprovalElection) -> Instance:
    """Voters become elements and candidates become the sets of their approvers.

    A committee leaving the fewest voters unrepresented is then exactly a set
    selection leaving the fewest elements uncovered.

    The reduction reads the election's ballots as id arrays: the arrays
    ``parse_election`` kept, or, for an election built by a caller, arrays
    flattened on the first reduction and kept from then on. It makes no
    ballot tuples.
    """
    return _reduce(election.num_candidates, election.num_voters, election.committee_size, *_id_arrays(election))


def _reduce(width: int, height: int, k: int, ids: np.ndarray, offs: np.ndarray) -> Instance:
    """The instance with budget k whose set c - 1 lists, in increasing order,
    the 1-based rows of ``height`` rows of distinct ids in [1, width], given
    as (ids, offsets), that hold c. The rows may be ballots (the approval
    reduction), or each element's sets, as the generators and the graph
    reduction give them; a row's ids need not be sorted. The instance keeps
    the transposed arrays as its sets' ids, and the given ones as its element
    rows; it makes its ``sets`` tuples when they are first read."""
    return _unchecked(Instance, n=height, k=k, _ids=_transpose(width, height, ids, offs), _elements=(ids, offs))


def _transpose(width: int, height: int, ids: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, offsets) of ``width`` rows, where row c - 1 lists, in
    increasing order, the 1-based rows of ``height`` rows of distinct ids in
    [1, width], given as (ids, offsets), that hold c.

    The rows are read a block at a time. A stable sort of a block's ids keeps
    the rows that hold each id in order, and each id's run in the sorted
    block goes to the next free slots of its transposed row, after the runs
    of earlier blocks.
    """
    t_offs = np.cumsum(_counts(ids, width))  # id c's row is t_ids[t_offs[c - 1]:t_offs[c]]
    t_ids = np.empty(len(ids), np.min_scalar_type(height))
    free = t_offs[:-1].copy()
    # An id takes 32 bytes of temporaries, and each block counts every id
    # value, so a block holds at least ``width`` ids.
    for lo, hi in _row_blocks(offs, max(_BLOCK_BYTES // 32, width)):
        c = ids[offs[lo] : offs[hi]]
        order = np.argsort(c, kind="stable")
        here = np.bincount(c, minlength=width + 1)[1:]
        slots = np.repeat(free - np.cumsum(here) + here, here)
        slots += np.arange(len(c))
        t_ids[slots] = np.repeat(np.arange(lo + 1, hi + 1, dtype=t_ids.dtype), np.diff(offs[lo : hi + 1]))[order]
        free += here
    return t_ids, t_offs


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

# Largest mask build, m * ceil(n / 8) bytes, that ``set_masks`` accepts. A
# header within the counts above may still declare a family whose masks take
# gigabytes: 10**4 one-element sets at n = 10**7 need 1.25 * 10**10 bytes.
MAX_MASK_BYTES = 1 << 30

# Byte budget of the record reader: the text is split into lines about this
# many bytes at a time, each piece ending just after a newline, and lines are
# read in batches of about this many bytes of text (or one line, when that is
# longer), so that no temporary grows with the document, and a reader that
# stops early splits no more than it reads.
_CHUNK_BYTES = 1 << 15


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    ln = start = 0
    while start < len(text):
        # A piece ends after a newline, which ends a line (alone or in
        # "\r\n"), so its lines are those of the whole text.
        end = text.find("\n", start + _CHUNK_BYTES) + 1 or len(text)
        for ln, raw in enumerate(text[start:end].splitlines(), start=ln + 1):
            line = raw.strip()
            if line and line != "c" and not line.startswith("c "):
                yield ln, line
        start = end


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


def _read_records(text: str, kind: str, what: str, read_lines) -> tuple[int, int, int, list]:
    """Header counts (a, b, k) of a 'p <kind>' document and what ``read_lines``
    gave for its b records, a batch at a time; no content may follow the last
    record.

    ``read_lines(batch, a)`` reads a batch of (line number, line) pairs, one
    record a line: about _CHUNK_BYTES of text, or one longer line.
    """
    lines = _significant_lines(text)
    a, b, k = _parse_header(lines, kind)
    batches, batch, size, found = [], [], 0, 0
    for found, ln_line in enumerate(islice(lines, b), start=1):
        batch.append(ln_line)
        size += len(ln_line[1])
        if size >= _CHUNK_BYTES:
            batches.append(read_lines(batch, a))
            batch, size = [], 0
    if batch:
        batches.append(read_lines(batch, a))
    if found < b:
        raise ParseError(f"expected {b} {what} lines, found {found}")
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return a, b, k, batches


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


def _read_id_lines(
    tag: str, what: str, out_of_range, batch: list[tuple[int, str]], bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, offsets) of ``_read_ids`` of every line of a batch, as
    ``_flatten`` gives them, read in whole-array passes.

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
    bad = np.flatnonzero(bad).tolist()
    if not bad:
        return ids.astype(np.min_scalar_type(bound)), offs
    rows = np.split(ids, offs[1:-1])  # a view of each line's ids
    for i in bad:
        ln, line = batch[i]
        rows[i] = _read_ids(tag, what, out_of_range, line.split(), ln, bound)
    return _flatten(rows, bound)


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


def _joined(arrays: list[tuple[np.ndarray, np.ndarray]], bound: int) -> tuple[np.ndarray, np.ndarray]:
    """One (ids, offsets) pair of the batches' pairs, in batch order."""
    if len(arrays) == 1:
        return arrays[0]
    if not arrays:
        return _flatten((), bound)
    starts = np.cumsum([len(ids) for ids, _ in arrays])  # batch i + 1 starts at starts[i]
    offs = [arrays[0][1]] + [ends[1:] + start for (_, ends), start in zip(arrays[1:], starts)]
    return np.concatenate([ids for ids, _ in arrays]), np.concatenate(offs)


# Record line reader and record name of each document kind that has id rows.
_ID_DOCUMENTS = {"maxcover": (_read_sets, "set"), "approval": (_read_ballots, "ballot")}


def _read_id_document(text: str, kind: str) -> tuple[int, int, int, np.ndarray, np.ndarray]:
    """Header counts (a, b, k) and the (ids, offsets) of the b rows of a 'p
    maxcover' or 'p approval' document, as ``_flatten`` gives them: each
    row's ids sorted, distinct and in [1, a]. No row becomes a tuple."""
    read_lines, what = _ID_DOCUMENTS[kind]
    a, b, k, batches = _read_records(text, kind, what, read_lines)
    return a, b, k, *_joined(batches, a)


def parse_instance(text: str) -> Instance:
    """Parse a 'p maxcover <n> <m> <k>' document with m 's <e1> <e2> ...' lines.

    Element lists are deduplicated and sorted on ingest; ids must lie in [1, n].
    """
    n, _, k, ids, offs = _read_id_document(text, "maxcover")
    return _unchecked(Instance, n=n, k=k, _ids=(ids, offs))


def serialize_instance(inst: Instance) -> str:
    """Canonical document for an instance; ``parse_instance`` inverts it.
    The lines are written from the id arrays a block of rows at a time, and
    no set becomes a tuple."""
    lines = [f"p maxcover {inst.n} {inst.m} {inst.k}"]
    lines += [" ".join(["s", *map(str, row)]) for row in _row_lists(*_id_arrays(inst), _BLOCK_BYTES // 32)]
    return "\n".join(lines) + "\n"


def parse_election(text: str) -> ApprovalElection:
    """Parse a 'p approval <candidates> <voters> <k>' document with 'v' ballot
    lines. The election keeps the ballots' id arrays, and makes its
    ``approvals`` tuples from them when they are first read."""
    a, b, k, ids, offs = _read_id_document(text, "approval")
    return _unchecked(ApprovalElection, num_candidates=a, num_voters=b, committee_size=k, _ids=(ids, offs))


def parse_graph(text: str) -> Graph:
    """Parse a 'p graph <vertices> <edges> <k>' document with 'e <u> <v>' lines."""
    num_vertices, _, k, batches = _read_records(text, "graph", "edge", _read_edges)
    return Graph(num_vertices, tuple(chain.from_iterable(batches)), k)
