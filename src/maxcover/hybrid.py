"""Split-budget combinations of exhaustive search and greedy completion.

Two orderings are provided: greedy first with an exhaustive finish on what is
still uncovered, and exhaustive prefixes each finished greedily. Their
closed-form guarantees, the guarantee of the exact-then-approximate split
used for comparison, and the density-based greedy-or-exact dispatcher live
here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Instance, Solution, frequency_profile, set_masks
from .exact import DEFAULT_CEILING, best_fixed_size_subset, brute_force, check_ceiling
from .greedy import extend_greedily, greedy_cover

RATIO_METHODS = ("alg4", "alg5", "alg5_vertexcover", "croce_paschos")


@dataclass(frozen=True)
class HybridReport:
    """Split parameter, result, the a-priori ratio for that split, and the
    exact phase's work: the leaves the residual search evaluated
    (greedy-then-exact), or the prefixes finished greedily (exact-then-greedy)."""

    x_split: int
    solution: Solution
    guarantee: float
    combos_scanned: int


def hybrid_ratio(method: str, x: float, k: int, beta_a: float | None = None) -> float:
    """Closed-form guarantee of a split-budget method at split x of budget k.

    For 'croce_paschos', x counts the exactly solved share and beta_a is the
    ratio of its approximation component; for the other methods x counts the
    greedy share. 'alg5_vertexcover' is the variant whose greedy stage is
    replaced by a 3/4-approximation, valid on vertex-cover style instances.
    """
    if k < 1:
        raise ValueError(f"budget must be positive, got {k}")
    if not 0 <= x <= k:
        raise ValueError(f"split must lie in [0, {k}], got {x}")
    t = x / k
    if method == "alg4":
        return 1.0 - t * math.exp(-t)
    if method == "alg5":
        return 1.0 - t * math.exp(-1.0)
    if method == "alg5_vertexcover":
        return 1.0 - t / 4.0
    if method == "croce_paschos":
        if beta_a is None or not 0.0 < beta_a <= 1.0:
            raise ValueError(f"croce_paschos needs beta_a in (0, 1], got {beta_a}")
        return t + beta_a * (1.0 - t) ** 2
    raise ValueError(f"unknown method '{method}', expected one of {RATIO_METHODS}")


def greedy_then_exact(inst: Instance, x: int, ceiling: int = DEFAULT_CEILING) -> HybridReport:
    """x greedy picks, then an exhaustive pass for the remaining budget.

    The exhaustive pass works on the leftover sets restricted to the still
    uncovered elements, exactly as if solving the residual instance. With
    x = 0 this is plain exhaustive search, with x = k plain greedy.
    """
    _check_split(inst, x)
    masks = set_masks(inst)
    k_eff = inst.effective_budget
    x_eff = min(x, k_eff)
    taken = [False] * inst.m
    picks, _, covered_mask = extend_greedily(masks, taken, 0, x_eff)
    remaining = [i for i in range(inst.m) if not taken[i]]
    scored = [masks[i] & ~covered_mask for i in remaining]
    combo, residual, scanned = best_fixed_size_subset(scored, k_eff - x_eff, ceiling)
    chosen = tuple(sorted(picks + [remaining[j] for j in combo]))
    covered = covered_mask.bit_count() + residual
    solution = Solution(chosen, covered, inst.n - covered)
    return HybridReport(x, solution, _ratio_or_unit("alg4", x, inst.k), scanned)


def exact_then_greedy(inst: Instance, x: int, ceiling: int = DEFAULT_CEILING) -> HybridReport:
    """For every (k-x)-subset of the family, finish with x greedy picks and
    keep the best completed solution.

    Rerunning the greedy finish per prefix lets a deliberately suboptimal
    prefix win when it leaves better ground for the greedy stage. Ties on
    coverage keep the lexicographically smallest completed index tuple.

    Prefixes grow as a tree in lexicographic order, walked depth first on an
    explicit stack of (next index, prefix, union) frames, so no budget is too
    deep for it. Children are pushed in reverse, so they pop in order. A
    prefix with union ``u`` and ``r`` picks left completes with r + x more
    sets outside it, so no completion below it covers more than popcount(u)
    plus the r + x largest gains among those sets; when it pops, its subtree
    is skipped if that bound is below the best coverage so far. A completion
    that only ties may still win on its index tuple, so a tying bound is
    searched. ``combos_scanned`` counts the prefixes finished greedily.
    """
    _check_split(inst, x)
    masks = set_masks(inst)
    k_eff = inst.effective_budget
    x_eff = min(x, k_eff)
    prefix_size = k_eff - x_eff
    check_ceiling(inst.m, prefix_size, ceiling)
    best_chosen: tuple[int, ...] = ()
    best_covered = -1
    finished = 0
    stack = [(0, (), 0)]
    while stack:
        start, prefix, union = stack.pop()
        r = prefix_size - len(prefix)
        base = union.bit_count()
        # A prefix set gains 0, and at least r + x_eff other sets remain, so
        # the prefix sets do not change the sum of the r + x_eff largest gains.
        gains = sorted([(union | mask).bit_count() - base for mask in masks], reverse=True)
        if base + sum(gains[: r + x_eff]) < best_covered:
            continue
        if r == 0:
            finished += 1
            taken = [False] * inst.m
            for i in prefix:
                taken[i] = True
            picks, _, covered = extend_greedily(masks, taken, union, x_eff)
            chosen = tuple(sorted(prefix + tuple(picks)))
            cov = covered.bit_count()
            if cov > best_covered or (cov == best_covered and chosen < best_chosen):
                best_covered = cov
                best_chosen = chosen
            continue
        stack += [(i + 1, prefix + (i,), union | masks[i]) for i in range(inst.m - r, start - 1, -1)]
    solution = Solution(best_chosen, best_covered, inst.n - best_covered)
    return HybridReport(x, solution, _ratio_or_unit("alg5", x, inst.k), finished)


def ptas_dispatch(
    inst: Instance, alpha: float, beta: float, ceiling: int = DEFAULT_CEILING
) -> tuple[Solution, str]:
    """Greedy when the budget alone already forces a beta ratio, exhaustive
    search otherwise; returns the solution and the branch taken, "greedy" or
    "exact".

    Requires the density floor alpha <= p_min/m. Above the budget threshold
    -(m/p_min) * ln(1-beta) the greedy guarantee beats beta; below it the
    budget is small enough to enumerate outright. Either way the returned
    coverage is at least beta times the optimum.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    profile = frequency_profile(inst)
    if inst.m == 0 or profile.p_min / inst.m < alpha:
        raise ValueError(
            f"minimum frequency over set count must reach alpha={alpha}, "
            f"got {profile.p_min}/{inst.m}"
        )
    if greedy_branch_applies(profile.p_min, inst.m, inst.k, beta):
        return greedy_cover(inst)[0], "greedy"
    return brute_force(inst, ceiling).solution, "exact"


def greedy_branch_applies(p_min: int, m: int, k: int, beta: float) -> bool:
    """True when k > -(m/p_min) * ln(1-beta), i.e. greedy already achieves beta."""
    return k > -(m / p_min) * math.log(1.0 - beta)


def _check_split(inst: Instance, x: int) -> None:
    if not 0 <= x <= inst.k:
        raise ValueError(f"split x must lie in [0, k={inst.k}], got {x}")


def _ratio_or_unit(method: str, x: int, k: int) -> float:
    # k = 0 forces the empty, trivially optimal solution.
    return hybrid_ratio(method, x, k) if k >= 1 else 1.0
