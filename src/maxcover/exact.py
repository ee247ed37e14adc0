"""Exhaustive branch-and-bound search over fixed-size subfamilies; the
optimum oracle of the suite."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Instance, Solution, set_masks

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
    ceiling.bit_length() + 1 steps and never computed in full.
    """
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
    masks: Sequence[int], size: int, ceiling: int = DEFAULT_CEILING
) -> tuple[tuple[int, ...], int, int]:
    """Branch-and-bound search of the ``size``-subsets of ``masks`` for the
    largest union.

    ``size`` is clamped to ``len(masks)``, and comb(m, size) above ``ceiling``
    is refused up front. Returns (indices, union popcount, leaves evaluated).
    Subsets are visited in lexicographic order and only a strictly larger
    union replaces the best, so ties keep the lexicographically smallest
    index tuple.

    For ``size >= 2`` the masks are packed once into an (m, ceil(bits / 64))
    array of little-endian uint64 rows. A node holding union ``u``, itself
    such a row, with ``r`` picks left counts ``u | masks[i]`` for every later
    set with one ``np.bitwise_count`` over the rows from its start, and hands
    each child that count as the popcount of the child's union. A size-1
    search is a single scan with no pruning and reads the ints, because
    packing costs more than that scan.

    Any subset whose next pick is j or later covers at most popcount(u) plus
    the r largest gains from j on; that bound never grows with j, so a node's
    children are cut from the first one whose bound cannot beat the best
    union. Such a subset could at best tie, and a tie never replaces the best,
    so the answer is that of a full scan. At the last level those counts are
    the leaves' unions themselves, evaluated without descending further. The
    search stops at the first union covering every element some mask holds.

    The tree is walked depth first on an explicit stack, so no budget is too
    deep for it. A frame is an unvisited child: its depth, first later set,
    parent's union row, own union's popcount and bound. Children are pushed
    in reverse, so they pop in index order, and each is skipped if its bound
    no longer beats the best. A child forms its union when it pops, so the
    stack holds one row per level, and with each scan's temporaries dropped
    the extra memory stays that of a few rows.

    The bound also uses p, the largest number of ``masks`` that hold one
    element. An element outside ``u`` that t <= p of the r picks hold counts
    t - 1 times too often in the summed gains and C(t, 2) times in the summed
    pairwise overlaps outside ``u``, and t - 1 >= (2/p) * C(t, 2). With delta
    the smallest such overlap among the later sets, the union is therefore at
    most the bound above minus ceil(r * (r - 1) * delta / p), and the node
    still returns only when that cannot beat the best. The term is used where
    delta is simply the smallest overlap of two later sets: at a node with
    nothing covered yet, and at every node when p <= 2, since an element two
    later sets share then lies in no picked set. One pass per search over the
    rows finds those minima, and p is counted over all the rows at the first
    node where such a minimum is nonzero.
    """
    m = len(masks)
    size = min(size, m)
    check_ceiling(m, size, ceiling)
    if size == 0:
        return (), 0, 1
    reachable = 0
    for mask in masks:
        reachable |= mask
    stop_at = reachable.bit_count()
    if size == 1:
        covs = [mask.bit_count() for mask in masks]
        top = max(covs)
        j = covs.index(top)
        return (j,), top, j + 1 if top >= stop_at else m
    words = -(-reachable.bit_length() // 64)
    packed = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    rows = np.frombuffer(packed, "<u8").reshape(m, words)
    best: tuple[int, ...] = ()
    best_cov = -1
    scanned = 0
    choice = [0] * size
    # gate[j] is delta for a node starting at j where the term is used.
    # Elsewhere delta would take a pass over every pair of later sets at each
    # node, which costs more than the leaves it saves.
    gate = _least_overlaps(rows)
    p = 0  # counted where the gate first opens
    stack = [(0, 0, np.zeros(words, np.uint64), 0, math.inf)]
    while stack:
        pos, start, union, union_cov, bound = stack.pop()
        if bound <= best_cov:
            continue
        if pos:  # the root picks nothing
            choice[pos - 1] = start - 1
            union = union | rows[start - 1]
        covs = np.bitwise_count(rows[start:] | union).sum(axis=1).tolist()
        if pos == size - 1:
            top = max(covs)
            if top <= best_cov:
                scanned += len(covs)
                continue
            # Evaluation in order stops at the first leaf covering stop_at.
            j = covs.index(top)
            scanned += j + 1 if top >= stop_at else len(covs)
            best_cov = top
            choice[pos] = start + j
            best = tuple(choice)
            if top >= stop_at:
                break
            continue
        r = size - pos
        # covs[j] is popcount(union) plus the gain of set start + j, so the
        # bound popcount(union) + (r largest gains from j on) is
        # bounds[j] - (r - 1) * popcount(union).
        excess = (r - 1) * union_cov
        if gate[start]:
            p = p or _most_holders(rows)
            if p <= 2 or not union_cov:
                excess += -(-r * (r - 1) * gate[start] // p)
        bounds = _suffix_top_sums(covs, r)
        kids = []
        for j in range(len(covs) - r + 1):
            if bounds[j] - excess <= best_cov:
                break
            kids.append((pos + 1, start + j + 1, union, covs[j], bounds[j] - excess))
        stack += reversed(kids)
    return best, best_cov, scanned


def _suffix_top_sums(values: Sequence[int], r: int) -> list[int]:
    """``out[j]`` is the sum of the ``r`` largest of ``values[j:]``."""
    out = [0] * len(values)
    smallest_first: list[int] = []
    total = 0
    for j in range(len(values) - 1, -1, -1):
        v = values[j]
        if len(smallest_first) < r:
            heapq.heappush(smallest_first, v)
            total += v
        elif v > smallest_first[0]:
            total += v - heapq.heapreplace(smallest_first, v)
        out[j] = total
    return out


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
    combo, covered, scanned = best_fixed_size_subset(set_masks(inst), inst.k, ceiling)
    solution = Solution(combo, covered, inst.n - covered)
    return ExactResult(solution, covered, scanned)
