"""Randomized branch-and-sample search minimizing the uncovered count.

Each repetition walks a depth-k tree: sample one still-uncovered element
uniformly, branch over every set containing it (at most p under the
frequency bound), and keep the branch with the fewest uncovered elements.
Repetitions draw from independent, reproducible substreams of one seed, so
they could run in any order, or in parallel, with an identical outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, Solution, check_frequency_bound, set_masks
from .exact import DEFAULT_CEILING, EnumerationCeilingError


@dataclass(frozen=True)
class RandomizedRun:
    """All repetition outcomes: the planned repetition count, the best solution
    found, every repetition's uncovered count, the master seed, and the number
    of search nodes that drew an element."""

    repetitions: int
    best: Solution
    per_rep_uncovered: tuple[int, ...]
    seed: int
    samples: int


def repetition_count(beta: float, epsilon: float, k: int) -> int:
    """ceil(-ln(epsilon) * (beta/(beta-1))**k).

    Running that many independent searches keeps uncovered within beta times
    the minimum with probability at least 1 - epsilon.
    """
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1 for uncovered-count ratios, got {beta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 0:
        raise ValueError(f"budget must be nonnegative, got {k}")
    try:
        return math.ceil(-math.log(epsilon) * (beta / (beta - 1.0)) ** k)
    except OverflowError:
        raise ValueError(
            f"repetition count for beta={beta}, epsilon={epsilon}, k={k} is too large to represent"
        ) from None


def _nth_uncovered(covered: int, count: int, r: int) -> int:
    """The r-th (1-based) element outside ``covered``, a mask of ``count``
    elements. Elements 1..e leave e - count + popcount(covered >> e) of
    themselves uncovered, which never falls as e grows, so bisection finds
    the first e where that reaches r; it lies in [r, r + count]."""
    lo, hi = r, r + count
    while lo < hi:
        mid = (lo + hi) // 2
        if mid - count + (covered >> mid).bit_count() >= r:
            hi = mid
        else:
            lo = mid + 1
    return lo


def randomized_min_noncovered(
    inst: Instance, p: int, beta: float, epsilon: float, seed: int,
    ceiling: int = DEFAULT_CEILING,
) -> RandomizedRun:
    """Best of repetition_count(beta, epsilon, k) randomized depth-k searches.

    Deterministic per (instance, parameters, seed): repetition i uses the
    PCG64 stream derived from SeedSequence(seed, spawn_key=(i,)). A branch
    that covers everything returns early; ties on uncovered counts keep the
    earlier candidate, both across branches and across repetitions, so a
    repetition's result is the first leaf, in depth-first order, that covers
    the most. Each tree is walked on an explicit stack of (picks left, picks
    made, covered mask) frames, so no budget is too deep for it. Refuses
    with :class:`EnumerationCeilingError`, before any search, when the plan's
    repetitions times p**k search leaves exceed ``ceiling``.
    """
    check_frequency_bound(inst, p)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    reps = repetition_count(beta, epsilon, inst.k)
    # One search has at most p**k leaves. For p >= 2 the power passes any
    # ceiling within ceiling.bit_length() levels, so the exponent is clamped
    # there and a huge budget costs nothing to check.
    planned = reps * p ** min(inst.k, max(ceiling, 1).bit_length())
    if planned > ceiling:
        raise EnumerationCeilingError(planned, ceiling, "search leaves planned")
    masks = set_masks(inst)
    samples = 0
    owners: list[list[int]] = [[] for _ in range(inst.n)]
    for i, s in enumerate(inst.sets):
        for e in s:
            owners[e - 1].append(i)

    best_solution: Solution | None = None
    per_rep: list[int] = []
    for rep in range(reps):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.PCG64(stream))
        # Nodes pop, and draw, in depth-first order; children with no picks
        # left are leaves, read in order where they are made.
        best_chosen, best_count = (), -1
        stack = [(inst.k, (), 0)]
        while stack:
            depth, chosen, covered = stack.pop()
            count = covered.bit_count()
            if depth and count < inst.n:
                samples += 1
                e = _nth_uncovered(covered, count, int(rng.integers(inst.n - count)) + 1)
                kids = owners[e - 1]
                if kids and depth > 1:
                    stack += [(depth - 1, chosen + (i,), covered | masks[i]) for i in reversed(kids)]
                    continue
                for i in kids:
                    kid_count = (covered | masks[i]).bit_count()
                    if kid_count > best_count:
                        best_chosen, best_count = chosen + (i,), kid_count
                if kids:
                    continue
                # The sampled element lies in no set; nothing to branch on.
            if count > best_count:
                best_chosen, best_count = chosen, count
        uncovered = inst.n - best_count
        per_rep.append(uncovered)
        if best_solution is None or uncovered < best_solution.uncovered:
            best_solution = Solution(tuple(sorted(best_chosen)), best_count, uncovered)
    assert best_solution is not None  # reps >= 1 since -ln(epsilon) > 0
    return RandomizedRun(reps, best_solution, tuple(per_rep), seed, samples)
