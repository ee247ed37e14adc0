"""Instance model, coverage evaluation, file formats, and problem reductions.

Universe elements are numbered 1..n in documents and in ``Instance.sets``;
set indices are 0-based in the API and 1-based in documents. The greedy
counts its gains on the instance's rows of ids, set by set and element by
element; the exhaustive searches count coverage on one packed form, uint64
rows built once from the ids, where bit e-1 holds element e; ``coverage``
counts the distinct ids of the chosen rows. Every instance and election
holds its rows as id arrays: one built by a caller flattens and checks its
tuples at construction, and a copy or a pickle is rebuilt through the
constructor. All values here are immutable after construction and safe to
share across threads: no field changes, and the forms a value derives from
its fields are built once and never change.
"""

from __future__ import annotations

import numbers
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, combinations, islice
from operator import index
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

    A derived form (the element rows, the read-only packed rows, the
    frequency profile) is built on first use and kept in the instance dict
    under a private key, which ``==``, ``hash`` and ``repr`` never read.
    Every build of a form gives the same value and only the first one stored
    is kept, so threads that race to build one all read that one. A copy or a
    pickle is rebuilt through the constructor, from the fields.

    ``_lazy`` names the tuple field that a value built from id arrays
    (``_ids``) makes from them when it is first read, and keeps the same way,
    and the field that bounds its ids: an instance's ``sets``, an election's
    ``approvals``, a graph's ``edges``.
    """

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __getattr__(self, name):
        # Reached only for a name not in the instance dict: the lazy field,
        # before it is first read, or a name the value lacks.
        field, bound = self._lazy
        if name == field:
            return self._derived(field, lambda v: _tuples(*v._ids, getattr(v, bound)))
        raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'")

    def _derived(self, key: str, build):
        try:
            return self.__dict__[key]
        except KeyError:
            return self.__dict__.setdefault(key, build(self))


def _check_integer(value, what: str) -> None:
    """Refuse a value that is not an integer; ``what`` names it."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_count(value, what: str) -> None:
    """Refuse a count that is not a nonnegative integer; ``what`` names it."""
    _check_integer(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")


def _check_ratio(value, what: str) -> None:
    """Refuse a ratio outside the open interval (0, 1), NaN included."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{what} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class Instance(_Derived):
    """A coverage instance: universe 1..n, m element sets, selection budget k.

    Each set is a strictly increasing tuple of element ids from [1, n].
    ``k`` may exceed ``m``; solvers clamp the effective budget to min(k, m).
    Every instance holds its sets' id arrays, ``_ids``: a caller's sets are
    flattened and checked at construction, and an instance that the package
    builds from id arrays (a parsed document, a reduction, a generated
    family) makes its ``sets`` tuples when they are first read.
    """

    n: int
    sets: tuple[tuple[int, ...], ...]
    k: int

    _lazy = ("sets", "n")
    _faults = {
        "type": "element id {e} is not an integer in set {row}",
        "low": "element id {e} must be at least 1 in set {row}",
        "order": "set {row} is not strictly increasing",
        "high": "element id {e} exceeds n={bound} in set {row}",
    }

    def __post_init__(self):
        _check_count(self.n, "universe size")
        _check_count(self.k, "budget")
        # Stored as plain ints, so that a bool or numpy count writes and sizes as a number.
        self.__dict__.update(n=index(self.n), k=index(self.k), _ids=_flatten(self.sets, self.n, self._faults))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]], k: int) -> "Instance":
        """Build an instance, sorting and deduplicating each set."""
        rows = [tuple(row) for row in sets]
        for i, row in enumerate(rows):
            with suppress(TypeError):  # ids that do not hash or compare: the constructor refuses them
                rows[i] = tuple(sorted(set(row)))
        return cls(n, tuple(rows), k)

    @property
    def m(self) -> int:
        return len(self._ids[1]) - 1

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
    """Approval ballots: every voter lists the candidates they find acceptable.
    An election holds its ballots' id arrays as an instance holds its sets'."""

    num_candidates: int
    num_voters: int
    approvals: tuple[tuple[int, ...], ...]
    committee_size: int

    _lazy = ("approvals", "num_candidates")
    _faults = {
        "type": "voter {voter} approves non-integer candidate {e}",
        "low": "voter {voter} approves unknown candidate {e}",
        "order": "ballot of voter {voter} is not strictly increasing",
        "high": "voter {voter} approves unknown candidate {e}",
    }

    def __post_init__(self):
        counts = (self.num_candidates, self.num_voters, self.committee_size)
        for count in counts:
            if not isinstance(count, numbers.Integral):
                raise ValueError(f"election counts must be integers, got {count!r}")
        if min(counts) < 0:
            raise ValueError("election counts must be nonnegative")
        if len(self.approvals) != self.num_voters:
            raise ValueError(f"expected {self.num_voters} ballots, got {len(self.approvals)}")
        self.__dict__["_ids"] = _flatten(self.approvals, self.num_candidates, self._faults)


@dataclass(frozen=True)
class Graph(_Derived):
    """Undirected edge list with a vertex budget, as read from 'p graph' files.
    A graph that ``parse_graph`` reads keeps its edges' id arrays, two ids a
    row, and makes its ``edges`` tuples from them when they are first read."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    k: int

    _lazy = ("edges", "num_vertices")


def _unchecked(cls, **values):
    """A ``cls`` of the given fields without running its check, for rows that
    the package has itself checked, or built in range and strictly
    increasing; the other keys give forms of the value already at hand. A
    field left out is one the value derives when it is first read."""
    value = object.__new__(cls)
    value.__dict__.update(values)
    return value


# Byte budget of the whole-array passes over id arrays (the row build, the
# counts, the transpose, the tuples and the greedy's gain updates): each pass
# takes the rows a block at a time, with at most this many bytes of
# temporaries, so that no temporary grows with the instance. A block is
# larger only to hold one long row, or, where a block's work includes one
# count per id value, as many ids as there are values.
_BLOCK_BYTES = 1 << 18


def _flatten(rows: Sequence[Sequence], bound: int, faults: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ids as (ids, offsets): one array of every id in row order, of
    the smallest unsigned type that holds bound, and int64 offsets where row
    i holds ids[offsets[i]:offsets[i + 1]]. The rows are read a block at a
    time. The first id, in (row, position) order, that is not an integer
    ("type"), else below 1 ("low"), else above bound ("high"), else not above
    the id before it in its row ("order"), is refused with ``faults[kind]``
    formatted with the id ``e``, its ``row`` (0-based) or ``voter`` (1-based)
    and ``bound``. An id beyond int64 is compared as the object it is."""
    offs = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=offs[1:])
    ids = np.empty(int(offs[-1]), np.min_scalar_type(index(bound)))
    for lo, hi in _row_blocks(offs, _BLOCK_BYTES // 24):  # an id takes 8 bytes of list, 8 of int64 and a few flags
        flat = list(chain.from_iterable(rows[lo:hi]))
        # The type test comes first: an integer array would read 1.5 as 1.
        end = len(flat)
        if not all(issubclass(t, numbers.Integral) for t in set(map(type, flat))):
            end = next(i for i, e in enumerate(flat) if not isinstance(e, numbers.Integral))
        try:
            run = np.fromiter(flat[:end], np.int64, end)
        except OverflowError:
            run = np.fromiter(flat[:end], object, end)
        bad = np.zeros(end, np.bool_)
        bad[1:] = run[1:] <= run[:-1]
        starts = offs[lo:hi] - offs[lo]
        bad[starts[starts < end]] = False  # a row's first id follows none of its row
        bad |= (run < 1) | (run > bound)
        first = int(np.argmax(bad)) if bad.any() else end
        if first < len(flat):
            # The id before the first offender is in range, so "high" and "order" cannot both hold.
            e = flat[first]
            kind = "type" if first == end else "low" if e < 1 else "high" if e > bound else "order"
            row = int(np.searchsorted(offs, offs[lo] + first, "right")) - 1
            raise ValueError(faults[kind].format(e=e, row=row, voter=row + 1, bound=bound))
        ids[offs[lo] : offs[hi]] = run
    return ids, offs


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


def _element_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """The (ids, offsets) of an instance's elements: row e - 1 lists the
    1-based sets that hold element e, in any order. These are the rows that a
    reduction or a generator transposed into the sets; a parsed or
    caller-built instance transposes its sets once, on first use."""
    return inst._derived("_elements", lambda inst: _transpose(inst.n, inst.m, *inst._ids))


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


def _set_rows(inst: Instance) -> np.ndarray:
    """The instance's sets as (m, ceil(n / 64)) little-endian uint64 rows,
    bit e-1 holding element e: the one packed form, which every exhaustive
    search reads, built once per instance and read-only."""
    return inst._derived("_rows", lambda inst: _pack_rows(inst.n, *inst._ids))


def _pack_rows(n: int, ids: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Read-only packed rows of the rows of ids in [1, n], from (ids,
    offsets); rows that would take more than ``MAX_MASK_BYTES`` are refused
    with ValueError before any allocation. One pass, a block of rows at a
    time, adds each id's bit into its byte of the rows with ``np.add.at``.
    The ids of a row are distinct (``_flatten`` checks a caller's rows, the
    parser deduplicates, the reductions refuse self-loops and repeated edges,
    and the generators and ``pad_frequencies`` build distinct rows), so no
    byte gets the same bit twice and the sum is the OR of the bits. The rows
    are a read-only view of a bytearray, so no flag makes them writable."""
    m, words = len(offs) - 1, (n + 63) // 64
    if m * 8 * words > MAX_MASK_BYTES:
        raise ValueError(f"masks need {m * 8 * words} bytes, above the ceiling {MAX_MASK_BYTES}")
    buf = bytearray(m * 8 * words)
    out = np.frombuffer(buf, np.uint8)
    # An id takes 25 bytes of temporaries: 8 of its id, 8 of its byte index,
    # 8 of its shifted bit and 1 of that bit as a byte.
    for lo, hi in _row_blocks(offs, _BLOCK_BYTES // 25):
        e = ids[offs[lo] : offs[hi]].astype(np.intp)
        e -= 1
        at = np.repeat(np.arange(lo, hi) * (8 * words), np.diff(offs[lo : hi + 1]))
        at += e >> 3
        e &= 7
        np.add.at(out, at, np.left_shift(1, e).astype(np.uint8))
    return np.frombuffer(memoryview(buf).toreadonly(), "<u8").reshape(m, words)


def set_masks(inst: Instance) -> list[int]:
    """One bitmask per set, bit e-1 holding element e: the packed rows read
    into a new list of ints on each call. Refuses with ValueError, before it
    allocates, a family whose rows would take more than ``MAX_MASK_BYTES``."""
    return [int.from_bytes(row, "little") for row in _set_rows(inst)]


def _check_indices(inst: Instance, chosen: Iterable[int]) -> list[int]:
    out: dict[int, None] = {}  # the indices in order
    for i in chosen:
        if not isinstance(i, numbers.Integral):
            raise ValueError(f"set index {i} is not an integer")
        i = index(i)
        if not 0 <= i < inst.m:
            raise ValueError(f"set index {i} out of range [0, {inst.m})")
        if i in out:
            raise ValueError(f"duplicate set index {i}")
        out[i] = None
    return list(out)


def coverage(inst: Instance, chosen: Iterable[int]) -> int:
    """Number of distinct elements in the chosen sets, read from the
    instance's rows of ids by a set union. (The first ``np.unique`` in a
    process takes 1.3 MB of resident memory.)"""
    ids, offs = inst._ids
    return len(set().union(*(ids[offs[i] : offs[i + 1]].tolist() for i in _check_indices(inst, chosen))))


def _voters_covered(election: ApprovalElection, committee: Iterable[int]) -> int:
    """Number of voters that a committee, given as 0-based candidate indices,
    covers: the ballots that approve one of its candidates, read from the
    election's id arrays a block of ballots at a time. It equals ``coverage``
    of the same indices in ``election_to_maxcover(election)``."""
    ids, offs = election._ids
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
    """Reject a p that is not an integer, p < 1, and any element that
    appears in more than p sets.

    ``word`` names p in the error messages, as in "frequency bound must be
    positive" or "above the bound p=2".
    """
    _check_integer(p, f"frequency {word}")
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
    freq = _counts(inst._ids[0], inst.n)[1:].tolist()
    if freq:
        return FrequencyProfile(tuple(freq), min(freq), max(freq))
    return FrequencyProfile((), 0, 0)


def election_to_maxcover(election: ApprovalElection) -> Instance:
    """Voters become elements and candidates become the sets of their approvers.

    A committee leaving the fewest voters unrepresented is then exactly a set
    selection leaving the fewest elements uncovered.

    The reduction reads the election's ballots as the id arrays it holds,
    and makes no ballot tuples.
    """
    return _reduce(election.num_candidates, election.num_voters, election.committee_size, *election._ids)


def _reduce(width: int, height: int, k: int, ids: np.ndarray, offs: np.ndarray) -> Instance:
    """The instance with budget k whose set c - 1 lists, in increasing order,
    the 1-based rows of ``height`` rows of distinct ids in [1, width], given
    as (ids, offsets), that hold c. The rows may be ballots (the approval
    reduction), or each element's sets, as the generators and the graph
    reduction give them; a row's ids need not be sorted. The instance keeps
    the transposed arrays as its sets' ids, and the given ones as its element
    rows; it makes its ``sets`` tuples when they are first read. The counts
    are taken as plain ints, so that a bool count sizes no array as bool."""
    width, height, k = index(width), index(height), index(k)
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


def _bounded_draw(bitgen: np.random.PCG64, halves: list[int], bound: int, words: int = 16) -> int:
    """The value ``np.random.Generator(bitgen).integers(bound)`` would draw
    next, for a bound in [1, 2**32], read from the stream's 32-bit halves by
    numpy's own rule.

    ``halves`` is a stack over a sentinel 0: the stream's halves, low half
    first, with the next one on top. When no half is left above the sentinel,
    ``words`` more words go in: a minnc repetition draws some tens of halves,
    a generated instance some per element, and a ``random_raw`` call costs
    about as much whatever it returns. A bound of 1 gives 0 and draws
    nothing; any other runs Lemire's method on the next half, which rejects
    exactly the products whose low 32 bits fall below 2**32 % bound.
    """
    if bound == 1:
        return 0
    threshold = (1 << 32) % bound
    while True:
        if len(halves) < 2:
            halves[1:] = bitgen.random_raw(words).astype("<u8").view("<u4")[::-1].tolist()
        m = halves.pop() * bound
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


def pad_frequencies(inst: Instance, p: int) -> Instance:
    """Append p-1 singleton copies of every element, raising each frequency by p-1.

    Rejects elements that belong to no set at all: padding raises frequencies
    but must not turn an uncoverable element into a coverable one.
    """
    _check_integer(p, "target frequency bound")
    if p < 1:
        raise ValueError(f"target frequency bound must be positive, got {p}")
    freq = frequency_profile(inst).freq
    if 0 in freq:
        raise ValueError(f"element {freq.index(0) + 1} belongs to no set and cannot be padded")
    ids, offs = inst._ids
    singles = np.repeat(np.arange(1, inst.n + 1, dtype=ids.dtype), p - 1)
    ids = np.concatenate((ids, singles))
    offs = np.concatenate((offs, offs[-1] + np.arange(1, len(singles) + 1)))
    return _unchecked(Instance, n=inst.n, k=inst.k, _ids=(ids, offs))


# ---------------------------------------------------------------------------
# Document formats (line oriented, ASCII; 'c' lines are comments).
# ---------------------------------------------------------------------------

# Largest element or set count a document header may declare: the universe
# (elements, voters, edges) and the family (sets, candidates, vertices). The
# row build, the frequency profile and the reductions allocate in proportion
# to these counts, so a larger header is a ParseError before any allocation.
MAX_HEADER_COUNT = 10**7

# Largest packed row build, m * 8 * ceil(n / 64) bytes, that ``_set_rows``,
# and so every exhaustive search and ``set_masks``, accepts. A header within
# the counts above may still declare a family whose rows take gigabytes:
# 10**4 one-element sets at n = 10**7 need 1.25 * 10**10 bytes.
MAX_MASK_BYTES = 1 << 30

# Byte budget of the document reader: it takes the text in blocks of about
# this many characters, each ending just after a newline, and encodes and
# decodes one block at a time, so that no temporary grows with the document.
# Each block pays a fixed cost of about 70 numpy calls; a larger block pays
# it less often but holds more: an approval-12k load peaks at 1.65 MiB of
# temporaries and arrays here, and at 1.32 MiB with 32 KiB blocks.
_READ_BYTES = 1 << 16


def _significant_lines(text: str) -> Iterator[tuple[int, str]]:
    ln = start = 0
    size = 64  # doubles up to _READ_BYTES, so that a reader of the first lines splits little more
    while start < len(text):
        # A piece ends after a newline, which ends a line (alone or in
        # "\r\n"), so its lines are those of the whole text.
        end = text.find("\n", start + min(size, _READ_BYTES)) + 1 or len(text)
        for ln, raw in enumerate(text[start:end].splitlines(), start=ln + 1):
            line = raw.strip()
            if line and line != "c" and not line.startswith("c "):
                yield ln, line
        start, size = end, 2 * size


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


def _read_edge(tokens: list[str], ln: int, num_vertices: int) -> tuple[int, int]:
    """The two ids of an 'e <u> <v>' line, in line order, each in [1, num_vertices]."""
    if tokens[0] != "e" or len(tokens) != 3:
        raise ParseError("expected an edge line 'e <u> <v>'", ln)
    u, v = _int_token(tokens[1], ln), _int_token(tokens[2], ln)
    for w in (u, v):
        if not 1 <= w <= num_vertices:
            raise ParseError(f"vertex id {w} out of range [1, {num_vertices}]", ln)
    return u, v


# Longest id the array pass reads; every id of at most this many digits fits
# an int32. A longer id sends its line to the per-line check.
_MAX_ID_DIGITS = 9

# Record tag, record name and the wording of an out-of-range id of each
# document kind; an edge line ('e') has a check of its own, ``_read_edge``.
_RECORDS = {
    "maxcover": ("s", "set", lambda e, n: f"element id {e} " + ("must be at least 1" if e < 1 else f"exceeds n={n}")),
    "approval": ("v", "ballot", lambda c, bound: f"candidate id {c} out of range [1, {bound}]"),
    "graph": ("e", "edge", None),
}


def _block_lines(block: str, tag: str, bound: int) -> tuple[np.ndarray, ...]:
    """The lines of a block of text that ends just after a newline, or at the
    end of the text, read in whole-array passes over its bytes: ``nl``, where
    line i is block[nl[i] : nl[i + 1]] with its line end; the lines to read
    on their own; the canonical record lines; and their ids and id counts,
    each set's or ballot's sorted and distinct, each edge's as written.

    A canonical record is the tag, then only ASCII digits and spaces, every
    id of at most _MAX_ID_DIGITS digits and in [1, bound], and an edge's
    exactly two. Blank lines, and comments with no control byte, line break
    or character that is not ASCII, are neither. A "\r" before a newline
    ends a line with it.
    """
    # A newline before and after every line; the trailing spaces keep the
    # digit reads of the last id inside the buffer.
    tail = "" if block.endswith("\n") else "\n"
    buf = np.frombuffer(("\n" + block + tail + " " * _MAX_ID_DIGITS).encode("ascii", "replace"), np.uint8)
    nl = np.flatnonzero(buf == 10)  # line i is buf[nl[i] + 1 : nl[i + 1]], before its newline
    starts = nl[:-1] + 1
    d = buf - 48  # a digit's value; uint8 arithmetic wraps any other byte to 10 or more
    digit = d < 10
    plain = (buf == 32) | (buf == 10)
    plain[nl[buf[nl - 1] == 13] - 1] = True  # a "\r" before a newline
    e = np.flatnonzero(digit[1:] != digit[:-1])
    e0, width = e[0::2], e[1::2] - e[0::2]  # digit run r is buf[e0[r] + 1 :][: width[r]]
    count = np.diff(np.searchsorted(e0, nl))  # line i holds count[i] runs
    other = ~(plain | digit)
    other[starts] = False
    word = np.logical_or.reduceat(other, starts)  # a byte past the first that is no digit, space or newline
    lead = buf[starts]
    canon = ~word & (lead == ord(tag)) & ~digit[starts + 1] & ((count == 2) | (tag != "e"))  # 's1' is no tag
    skip = ~word & (count == 0) & plain[starts]  # blank
    if (lead == 99).any():  # 'c' or 'c ...'
        odd = ((buf < 32) & ~plain) | (buf == 63)  # control bytes, line breaks among them, and '?' for non-ASCII
        skip |= (lead == 99) & plain[starts + 1] & ~np.logical_or.reduceat(odd, starts)
    ids = d[1:][e0].astype(np.int32)
    for j in range(1, min(int(width.max(initial=0)), _MAX_ID_DIGITS)):
        ids += (j < width) * (ids * 9 + d[1 + j :][e0])  # ten times the id plus its next digit, if it has one
    ids[width > _MAX_ID_DIGITS] = 0  # out of range, like any id below 1
    line = np.repeat(np.arange(len(starts)), count)  # the line of each id
    canon[line[(ids < 1) | (ids > bound)]] = False
    rows = np.flatnonzero(canon)
    if len(rows) < len(starts):
        keep = np.repeat(canon, count)
        ids, line = ids[keep], line[keep]
    count = count[rows]
    if tag != "e" and ((ids[1:] <= ids[:-1]) & (line[1:] == line[:-1])).any():
        key = np.sort(line << 30 | ids)
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        ids, count = key & (1 << 30) - 1, np.bincount(key >> 30, minlength=len(starts))[rows]
    return nl, np.flatnonzero(~skip & ~canon), rows, ids.astype(np.min_scalar_type(bound)), count


def _read_id_document(text: str, kind: str) -> tuple[int, int, int, np.ndarray, np.ndarray]:
    """Header counts (a, b, k) and the (ids, offsets) of the b records of a
    'p <kind>' document, as ``_flatten`` gives them: a set's or a ballot's
    ids sorted and distinct, an edge's two in line order (so that 'e 3 3'
    reaches the reduction's self-loop check), all in [1, a]. No content may
    follow the last record, and no record becomes a tuple.

    After the header, the text is read in blocks of about _READ_BYTES, each
    ending just after a newline and encoded on its own, and ``_block_lines``
    reads a block's canonical records. Every other line, such as one with a
    character that is not ASCII or a line break other than "\n" or "\r\n",
    is read on its own by ``_read_ids`` or ``_read_edge``, which word the
    error, numbered from a count of the lines before it. Canonical records
    cannot fail and the others are read in line order, so the first
    offender is reported.
    """
    tag, what, out_of_range = _RECORDS[kind]
    header = list(islice(_significant_lines(text), 1))
    a, b, k = _parse_header(iter(header), kind)
    dtype = np.min_scalar_type(a)
    found = ln = start = 0  # records read, the lines before the block, and its start
    id_parts, lengths = [np.zeros(0, dtype)], [[0]]  # the records' ids and lengths, in record order

    def take(piece: str, ln: int) -> int:
        """Read the records among the lines of a piece of text whose first
        line is line ln + 1 on their own; the number of lines it holds."""
        nonlocal found
        for n, line in _significant_lines(piece):
            n += ln
            if n <= header[0][0]:  # the header, read already
                continue
            if found == b:
                raise ParseError(f"unexpected content '{line}'", n)
            tokens = line.split()
            row = _read_edge(tokens, n, a) if tag == "e" else _read_ids(tag, what, out_of_range, tokens, n, a)
            id_parts.append(np.array(row, dtype))
            lengths.append([len(row)])
            found += 1
        return len(piece.splitlines())

    while start < len(text):
        end = text.find("\n", start + _READ_BYTES) + 1 or len(text)
        block, start, extra = text[start:end], end, 0
        nl, slow, rows, ids, count = _block_lines(block, tag, a)
        offs = np.concatenate(([0], np.cumsum(count)))
        # The canonical lines are records between the lines read on their own.
        read = 0
        for i in [*slow.tolist(), len(nl) - 1]:
            more = int(np.searchsorted(rows, i)) - read
            if found + more > b:
                j = int(rows[read + b - found])
                raise ParseError(f"unexpected content '{block[nl[j] : nl[j + 1]].strip()}'", ln + j + 1 + extra)
            id_parts.append(ids[offs[read] : offs[read + more]])
            lengths.append(count[read : read + more])
            found, read = found + more, read + more
            if i < len(nl) - 1:
                extra += take(block[nl[i] : nl[i + 1]], ln + i + extra) - 1
        ln += len(nl) - 1 + extra
    if found < b:
        raise ParseError(f"expected {b} {what} lines, found {found}")
    return a, b, k, np.concatenate(id_parts), np.cumsum(np.concatenate(lengths))


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
    lines += [" ".join(["s", *map(str, row)]) for row in _row_lists(*inst._ids, _BLOCK_BYTES // 32)]
    return "\n".join(lines) + "\n"


def parse_election(text: str) -> ApprovalElection:
    """Parse a 'p approval <candidates> <voters> <k>' document with 'v' ballot
    lines. The election keeps the ballots' id arrays, and makes its
    ``approvals`` tuples from them when they are first read."""
    a, b, k, ids, offs = _read_id_document(text, "approval")
    return _unchecked(ApprovalElection, num_candidates=a, num_voters=b, committee_size=k, _ids=(ids, offs))


def parse_graph(text: str) -> Graph:
    """Parse a 'p graph <vertices> <edges> <k>' document with 'e <u> <v>'
    lines. The graph keeps its edges' ids as arrays, two a row, and makes its
    ``edges`` tuples from them when they are first read."""
    num_vertices, _, k, ids, offs = _read_id_document(text, "graph")
    return _unchecked(Graph, num_vertices=num_vertices, k=k, _ids=(ids, offs))
