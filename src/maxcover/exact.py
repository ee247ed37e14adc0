"""Brute-force search over fixed-size subfamilies; the optimum oracle of the suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import Instance, Solution, set_masks

DEFAULT_CEILING = 10**8


class EnumerationCeilingError(RuntimeError):
    """The requested enumeration is larger than the configured ceiling."""

    def __init__(self, count: int, ceiling: int, what: str = "subsets to scan"):
        super().__init__(f"{count} {what} exceeds the ceiling of {ceiling}")
        self.count = count
        self.ceiling = ceiling


@dataclass(frozen=True)
class ExactResult:
    """Optimal solution, its value, and the number of subsets scanned."""

    solution: Solution
    opt: int
    subsets_scanned: int


def best_fixed_size_subset(
    masks: Sequence[int], size: int, ceiling: int = DEFAULT_CEILING
) -> tuple[tuple[int, ...], int, int]:
    """Scan all ``size``-subsets of ``masks`` for the largest union.

    ``size`` is clamped to ``len(masks)``. Returns (indices, union popcount,
    scanned count). Ties keep the lexicographically smallest index tuple; the
    scan stops once no later subset can have a larger union. Unions grow
    incrementally down the enumeration tree, one mask per level, and are
    undone simply by returning to the parent level.
    """
    m = len(masks)
    size = min(size, m)
    total = math.comb(m, size)
    if total > ceiling:
        raise EnumerationCeilingError(total, ceiling)
    reachable = 0
    for mask in masks:
        reachable |= mask
    stop_at = reachable.bit_count()
    best: tuple[int, ...] = ()
    best_cov = -1
    scanned = 0
    choice = [0] * size
    done = False

    def descend(pos: int, start: int, union: int) -> None:
        nonlocal best, best_cov, scanned, done
        if pos == size:
            scanned += 1
            cov = union.bit_count()
            if cov > best_cov:
                best_cov = cov
                best = tuple(choice)
                if cov >= stop_at:
                    done = True
            return
        for i in range(start, m - (size - pos) + 1):
            choice[pos] = i
            descend(pos + 1, i + 1, union | masks[i])
            if done:
                return

    descend(0, 0, 0)
    return best, best_cov, scanned


def brute_force(inst: Instance, ceiling: int = DEFAULT_CEILING) -> ExactResult:
    """Optimal coverage by scanning every min(k, m)-subset of the family.

    Refuses with :class:`EnumerationCeilingError` when comb(m, min(k, m))
    exceeds ``ceiling``. The minimum achievable uncovered count is n - opt,
    so this doubles as the exact reference for uncovered-count minimization.
    """
    combo, covered, scanned = best_fixed_size_subset(set_masks(inst), inst.k, ceiling)
    solution = Solution(combo, covered, inst.n - covered)
    return ExactResult(solution, covered, scanned)
