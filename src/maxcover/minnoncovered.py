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

from .core import Instance, Solution, frequency_profile, set_masks
from .exact import DEFAULT_CEILING, EnumerationCeilingError


@dataclass(frozen=True)
class RandomizedRun:
    """All repetition outcomes: the planned repetition count, the best solution
    found, every repetition's uncovered count, and the master seed."""

    repetitions: int
    best: Solution
    per_rep_uncovered: tuple[int, ...]
    seed: int


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


def randomized_min_noncovered(
    inst: Instance, p: int, beta: float, epsilon: float, seed: int,
    ceiling: int = DEFAULT_CEILING,
) -> RandomizedRun:
    """Best of repetition_count(beta, epsilon, k) randomized depth-k searches.

    Deterministic per (instance, parameters, seed): repetition i uses the
    PCG64 stream derived from SeedSequence(seed, spawn_key=(i,)). A branch
    that covers everything returns early; ties on uncovered counts keep the
    earlier candidate, both across branches and across repetitions. Refuses
    with :class:`EnumerationCeilingError`, before any search, when the plan's
    repetitions times p**k search leaves exceed ``ceiling``.
    """
    if p < 1:
        raise ValueError(f"frequency bound must be positive, got {p}")
    profile = frequency_profile(inst)
    if profile.p_max > p:
        e = next(i + 1 for i, f in enumerate(profile.freq) if f > p)
        raise ValueError(
            f"element {e} appears in {profile.freq[e - 1]} sets, above the bound p={p}"
        )
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
    full = (1 << inst.n) - 1
    nbytes = (inst.n + 7) // 8
    owners: list[list[int]] = [[] for _ in range(inst.n)]
    for i, s in enumerate(inst.sets):
        for e in s:
            owners[e - 1].append(i)

    def search(depth: int, chosen: tuple[int, ...], covered: int, rng) -> tuple[tuple[int, ...], int]:
        if depth == 0:
            return chosen, covered
        left = inst.n - covered.bit_count()
        if not left:
            return chosen, covered
        # The r-th uncovered element in increasing order: the r-th set bit of
        # the complement, found by unpacking it to one flag per element.
        r = int(rng.integers(left))
        flags = np.unpackbits(
            np.frombuffer((full ^ covered).to_bytes(nbytes, "little"), np.uint8), bitorder="little"
        )
        e = int(flags.nonzero()[0][r]) + 1
        if not owners[e - 1]:
            # The sampled element lies in no set; nothing to branch on.
            return chosen, covered
        best_chosen = chosen
        best_covered = covered
        best_count = -1
        for i in owners[e - 1]:
            ch, cov = search(depth - 1, chosen + (i,), covered | masks[i], rng)
            count = cov.bit_count()
            if count > best_count:
                best_chosen, best_covered, best_count = ch, cov, count
        return best_chosen, best_covered

    best_solution: Solution | None = None
    per_rep: list[int] = []
    for rep in range(reps):
        stream = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.PCG64(stream))
        chosen, covered = search(inst.k, (), 0, rng)
        covered_count = covered.bit_count()
        uncovered = inst.n - covered_count
        per_rep.append(uncovered)
        if best_solution is None or uncovered < best_solution.uncovered:
            best_solution = Solution(tuple(sorted(chosen)), covered_count, uncovered)
    assert best_solution is not None  # reps >= 1 since -ln(epsilon) > 0
    return RandomizedRun(reps, best_solution, tuple(per_rep), seed)
