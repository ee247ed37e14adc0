"""Exhaustive branch-and-bound search over fixed-size subfamilies; the
optimum oracle of the suite."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, Solution, _check_integer, _set_rows

DEFAULT_CEILING = 10**8


class EnumerationCeilingError(RuntimeError):
    """The requested enumeration is larger than the configured ceiling.
    ``count`` is None when it has 4 300 digits or more, near the most Python
    will print, and the message then says it is more than 10**power."""

    def __init__(self, count: int | None, ceiling: int, what: str = "subsets to scan", power: int = 0):
        shown = f"more than 10^{power}" if count is None else count
        super().__init__(f"{shown} {what} exceeds the ceiling of {ceiling}")
        self.count = count
        self.ceiling = ceiling


def check_ceiling(m: int, size: int, ceiling: int) -> None:
    """Refuse with :class:`EnumerationCeilingError` when comb(m, size), for
    0 <= size <= m, exceeds ``ceiling``.

    Step i of the running product comb(m - j + i, i), j = min(size, m - size),
    at least doubles it, so a count past the ceiling is seen within
    ceiling.bit_length() + 1 steps and never computed in full. A ceiling
    that is not an integer is refused with a ``ValueError``.
    """
    _check_integer(ceiling, "ceiling")
    j = min(size, m - size)
    count = 1
    for i in range(1, j + 1):
        if count > ceiling:
            break
        count = count * (m - j + i) // i
    if count > ceiling:
        digits = (math.lgamma(m + 1) - math.lgamma(size + 1) - math.lgamma(m - size + 1)) / math.log(10)
        # Python prints ints of at most 4 300 digits; math.comb takes a few ms there.
        raise EnumerationCeilingError(math.comb(m, size) if digits < 4299 else None, ceiling, power=int(digits))


@dataclass(frozen=True)
class ExactResult:
    """Optimal solution, its value, and the number of leaves (full-size
    subsets) whose union the search evaluated."""

    solution: Solution
    opt: int
    subsets_scanned: int


def best_fixed_size_subset(
    rows: np.ndarray, size: int, ceiling: int = DEFAULT_CEILING
) -> tuple[tuple[int, ...], int, int]:
    """Branch-and-bound search of the ``size``-subsets of the packed uint64
    ``rows`` for the largest union.

    ``size`` is clamped to ``len(rows)``, and comb(m, size) above ``ceiling``
    is refused up front. Returns (indices, union popcount, leaves evaluated).
    Subsets are visited in lexicographic order and only a strictly larger
    union replaces the best, so ties keep the lexicographically smallest
    index tuple.

    This is :func:`_walk` to depth ``size - 1``, whose counts there are the
    leaves' unions; a cut leaf could at best tie. The search stops at the
    first union covering every element some row holds.
    """
    m = len(rows)
    size = min(size, m)
    check_ceiling(m, size, ceiling)
    if size == 0:
        return (), 0, 1
    stop_at = int(np.bitwise_count(np.bitwise_or.reduce(rows)).sum())
    best: tuple[int, ...] = ()
    best_cov, scanned = -1, 0

    def scan(choice, _union, covs, _most):
        nonlocal best, best_cov, scanned
        top = max(covs)
        if top > best_cov:
            j = covs.index(top)
            best, best_cov = (*choice, (choice[-1] + 1 if choice else 0) + j), top
            if top >= stop_at:  # evaluation in order stops at the first such leaf
                scanned += j + 1
                return None
        scanned += len(covs)
        return best_cov

    _walk(rows, size, size - 1, scan)
    return best, best_cov, scanned


def _walk(rows: np.ndarray, picks: int, depth: int, leaf, free: int = 0) -> None:
    """Depth-first branch and bound over the ``picks``-subsets of ``rows`` in
    lexicographic order, handing each node ``depth`` picks deep to ``leaf``.

    The rows are uint64 words, as ``core._set_rows`` packs an instance's
    sets. A node whose union ``u`` is a row counts ``u | row`` with one
    ``np.bitwise_count`` for each later row, or each row if ``free``. At
    ``depth`` it calls ``leaf(choice, u, covs, most)`` with its picks, union,
    those counts (a list, or an array if ``free``), and popcount(u) plus the
    ``free`` largest gains over all the rows; the hook returns the floor, the
    largest bound to cut, or None to stop the search.

    Above ``depth``, with r picks left, a subset whose next pick is j covers
    at most popcount(u) plus the gain of j and the r - 1 largest gains after
    j, plus the ``free`` largest gains over all the rows for picks a caller
    makes outside the walk, counted only when ``free`` is nonzero. One pass
    from the last child back keeps those r - 1 gains in a heap and pushes
    each child whose bound beats the floor. A child with no pick after it
    (r = 1) is bounded by its own union.

    With p the most rows that hold one element, an element outside ``u``
    that t <= p of the r picks hold is counted t - 1 >= (2/p) * C(t, 2) times
    too often in their summed gains, and C(t, 2) times in their summed
    overlaps outside ``u``. So ceil(r * (r - 1) * delta / p) comes off the
    bound, delta being the least overlap outside ``u`` of two later rows. It
    is taken where that is their least overlap: with nothing covered yet, and
    everywhere when p <= 2, as no picked row then holds an element two later
    rows share. One pass finds those minima; p is counted at the first node
    where one is nonzero.

    A frame of the explicit stack is an unvisited child: its depth, first
    later row, parent's union row, own union's popcount and bound. Children
    pop in index order, skipped if their bound no longer beats the floor,
    and form their unions as they pop: the memory is a few rows at any depth.
    """
    choice = [0] * depth
    # gate[j] is delta for a node starting at j (a leaf root reads none); a
    # pass over every pair of later rows at each node costs more than it saves.
    gate = _least_overlaps(rows) if depth else []
    p = 0  # counted where the gate first opens
    floor = -1
    stack = [(0, 0, np.zeros(rows.shape[1], np.uint64), 0, math.inf)]
    while stack:
        pos, start, union, union_cov, bound = stack.pop()
        if bound <= floor:
            continue
        if pos:  # the root picks nothing
            choice[pos - 1] = start - 1
            union = union | rows[start - 1]
        lo = 0 if free else start
        counts = np.bitwise_count(rows[lo:] | union).sum(axis=1)
        extra = int(np.partition(counts, -free)[-free:].sum()) - free * union_cov if free else 0
        if pos == depth:
            floor = leaf(choice, union, counts if free else counts.tolist(), union_cov + extra)
            if floor is None:
                return
            continue
        covs = counts[start - lo :].tolist()
        r = picks - pos
        # covs[j] is popcount(union) plus the gain of row start + j, so the
        # bound popcount(union) + (gain j and the r - 1 largest after it) +
        # extra is covs[j] + (the r - 1 largest counts after j) - excess.
        excess = (r - 1) * union_cov - extra
        if gate[start]:
            p = p or _most_holders(rows)
            if p <= 2 or not union_cov:
                excess += -(-r * (r - 1) * gate[start] // p)
        # From the last child back, so the first is pushed last and pops
        # first; ``after`` holds the r - 1 largest counts after j.
        last = len(covs) - r
        after = covs[last + 1 :]
        heapq.heapify(after)
        total = sum(after)
        for j in range(last, -1, -1):
            cov = covs[j]
            bound = cov + total - excess
            if bound > floor:
                stack.append((pos + 1, start + j + 1, union, cov, bound))
            if after and cov > after[0]:
                total += cov - heapq.heapreplace(after, cov)


def _least_overlaps(rows: np.ndarray) -> list[int]:
    """``out[j]`` is the smallest |A_a & A_b| over pairs a < b of
    ``rows[j:]``; 0 where that suffix has a disjoint pair or fewer than two
    rows. The pass runs from the end and stops after the first row that
    holds a disjoint pair, so on most families it reads a few pairs."""
    out = [0] * len(rows)
    least = math.inf
    for a in range(len(rows) - 2, -1, -1):
        least = min(least, int(np.bitwise_count(rows[a] & rows[a + 1 :]).sum(axis=1).min()))
        if not least:
            break
        out[a] = least
    return out


def _most_holders(rows: np.ndarray) -> int:
    """The largest number of ``rows`` that hold one bit. At most an eighth of
    the rows, and at most 255, are unpacked to a byte per bit at a time, so a
    block is no larger than the rows and its column sums fit a byte."""
    counts = np.zeros(64 * rows.shape[1], np.min_scalar_type(len(rows)))
    step = min(max(len(rows) // 8, 1), 255)
    for a in range(0, len(rows), step):
        counts += np.unpackbits(rows[a : a + step].view(np.uint8), axis=1).sum(axis=0, dtype=np.uint8)
    return int(counts.max())


def brute_force(inst: Instance, ceiling: int = DEFAULT_CEILING) -> ExactResult:
    """Optimal coverage by searching the min(k, m)-subsets of the family.

    Refuses with :class:`EnumerationCeilingError` when comb(m, min(k, m))
    exceeds ``ceiling``. The minimum achievable uncovered count is n - opt,
    so this doubles as the exact reference for uncovered-count minimization.
    """
    combo, covered, scanned = best_fixed_size_subset(_set_rows(inst), inst.k, ceiling)
    solution = Solution(combo, covered, inst.n - covered)
    return ExactResult(solution, covered, scanned)
