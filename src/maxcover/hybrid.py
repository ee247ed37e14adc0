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

import numpy as np

from .core import Instance, Solution, _check_integer, _check_ratio, _element_rows, _set_rows, frequency_profile
from .exact import DEFAULT_CEILING, _walk, best_fixed_size_subset, brute_force, check_ceiling
from .greedy import greedy_cover, greedy_on_rows, greedy_rows

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

    A residual search of two or more picks runs on the kernel over the
    leftover packed rows less the union of the greedy picks, made on the same
    rows. Otherwise the greedy runs on the id rows, and the residual search, a
    scan of the leftover sets' gains, reads them from it: it counts the leaves
    ``best_fixed_size_subset`` would.
    """
    _check_split(inst, x)
    k_eff = inst.effective_budget
    x_eff = min(x, k_eff)
    size = k_eff - x_eff
    if size >= 2:
        rows = _set_rows(inst)
        counts = np.bitwise_count(rows).sum(axis=1)
        picks, gains, union = greedy_on_rows(rows, np.zeros_like(rows[0]), [], x_eff, counts)
        remaining = sorted(set(range(inst.m)).difference(picks))
        combo, residual, scanned = best_fixed_size_subset(rows[remaining] & ~union, size, ceiling)
        picks += [remaining[j] for j in combo]
    else:
        picks, gains, gain = greedy_rows(inst, x_eff)
        check_ceiling(inst.m - x_eff, size, ceiling)
        residual, scanned = 0, 1
        if size:
            i = int(gain.argmax())
            residual = int(gain[i])
            # The scan stops after the first leftover set that covers every
            # uncovered element some set holds, and reads them all otherwise.
            starts = _element_rows(inst)[1]
            reachable = int(np.count_nonzero(starts[1:] != starts[:-1])) - sum(gains)
            scanned = i + 1 - sum(j < i for j in picks) if residual >= reachable else inst.m - x_eff
            picks.append(i)
    covered = sum(gains) + residual
    solution = Solution(tuple(sorted(picks)), covered, inst.n - covered)
    return HybridReport(x, solution, _ratio_or_unit("alg4", x, inst.k), scanned)


def exact_then_greedy(inst: Instance, x: int, ceiling: int = DEFAULT_CEILING) -> HybridReport:
    """For every (k-x)-subset of the family, finish with x greedy picks and
    keep the best completed solution.

    Rerunning the greedy finish per prefix lets a deliberately suboptimal
    prefix win when it leaves better ground for the greedy stage. Ties on
    coverage keep the lexicographically smallest completed index tuple.

    The prefixes are the leaves of the kernel's walk to depth k - x, whose
    bounds add the x largest gains over all the sets for the greedy picks. A
    prefix with union ``u`` is finished greedily unless popcount(u) plus its
    own x largest gains is below the best coverage so far, since a tying
    completion may still win on its index tuple. A cut above a prefix fails
    that prefix's own check too. ``combos_scanned`` counts the prefixes
    finished greedily. The finish runs on the kernel's rows, and its first
    pick reads the counts the walk made at the prefix's node.
    """
    _check_split(inst, x)
    rows = _set_rows(inst)
    k_eff = inst.effective_budget
    x_eff = min(x, k_eff)
    prefix_size = k_eff - x_eff
    check_ceiling(inst.m, prefix_size, ceiling)
    best_chosen: tuple[int, ...] = ()
    best_covered, finished = -1, 0

    def finish(prefix, union, counts, most):
        nonlocal best_chosen, best_covered, finished
        if most >= best_covered:
            finished += 1
            picks, _, union = greedy_on_rows(rows, union, prefix, x_eff, counts)
            chosen = tuple(sorted(prefix + picks))
            cov = int(np.bitwise_count(union).sum())
            if cov > best_covered or (cov == best_covered and chosen < best_chosen):
                best_covered, best_chosen = cov, chosen
        return best_covered - 1  # a tie is not cut

    _walk(rows, prefix_size, prefix_size, finish, x_eff)
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
    _check_ratio(beta, "beta")
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
    _check_integer(x, "split x")
    if not 0 <= x <= inst.k:
        raise ValueError(f"split x must lie in [0, k={inst.k}], got {x}")


def _ratio_or_unit(method: str, x: int, k: int) -> float:
    # k = 0 forces the empty, trivially optimal solution.
    return hybrid_ratio(method, x, k) if k >= 1 else 1.0
