"""Iterative best-marginal-gain selection with a full per-step trace."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .core import Instance, Solution, set_masks


@dataclass(frozen=True)
class GreedyTrace:
    """Pick order, per-step marginal gains, and uncovered counts after each step."""

    picks: tuple[int, ...]
    marginal_gains: tuple[int, ...]
    uncovered_after: tuple[int, ...]


def extend_greedily(
    masks: Sequence[int], taken: list[bool], covered: int, steps: int
) -> tuple[list[int], list[int], int]:
    """Append ``steps`` picks, each maximizing newly covered elements.

    Ties go to the lowest set index, and zero-gain picks are still made so
    exactly ``steps`` sets are added while any remain. ``taken`` is updated
    in place. Returns (picks, gains, covered mask).

    Evaluation is lazy (Minoux's accelerated greedy): a heap holds every
    untaken set keyed by (-gain when last scored, index), and only the top
    entry is re-scored. Gains never grow as coverage grows, so a top entry
    whose fresh gain equals its key beats every other set's fresh gain, or
    ties it from a lower index: exactly the eager scan's pick.
    """
    if steps <= 0:
        return [], [], covered
    heap = [(-(mask & ~covered).bit_count(), i) for i, mask in enumerate(masks) if not taken[i]]
    heapq.heapify(heap)
    picks: list[int] = []
    gains: list[int] = []
    while heap and len(picks) < steps:
        stale, i = heap[0]
        gain = (masks[i] & ~covered).bit_count()
        if gain != -stale:
            heapq.heapreplace(heap, (-gain, i))
            continue
        heapq.heappop(heap)
        taken[i] = True
        covered |= masks[i]
        picks.append(i)
        gains.append(gain)
    return picks, gains, covered


def greedy_cover(inst: Instance) -> tuple[Solution, GreedyTrace]:
    """Run min(k, m) greedy steps and report the per-step trace alongside."""
    masks = set_masks(inst)
    taken = [False] * inst.m
    picks, gains, covered_mask = extend_greedily(masks, taken, 0, inst.effective_budget)
    uncovered_after = []
    uncovered = inst.n
    for g in gains:
        uncovered -= g
        uncovered_after.append(uncovered)
    covered = covered_mask.bit_count()
    solution = Solution(tuple(sorted(picks)), covered, inst.n - covered)
    return solution, GreedyTrace(tuple(picks), tuple(gains), tuple(uncovered_after))


def greedy_guarantee(p: int, k: int, m: int) -> float:
    """Worst-case coverage ratio 1 - exp(-max(p*k/m, 1)) of the greedy picker
    when every element appears in at least p of the m sets."""
    if p < 1 or k < 1 or m < 1:
        raise ValueError(f"p, k, and m must all be positive, got p={p}, k={k}, m={m}")
    return 1.0 - math.exp(-max(p * k / m, 1.0))
