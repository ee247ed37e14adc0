"""Pool-restricted exhaustive search: a tunable-ratio scheme for instances
whose element frequencies are upper-bounded by a constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index

import numpy as np

from .core import Instance, Solution, _check_integer, _check_ratio, _set_rows, check_frequency_bound
from .exact import DEFAULT_CEILING, best_fixed_size_subset


@dataclass(frozen=True)
class PoolPlan:
    """The candidate pool handed to the exhaustive stage.

    ``pool`` lists set indices ordered by (cardinality desc, index asc), so
    every excluded set is no larger than any included one. ``combos`` is the
    number of budget-size subsets the pool admits, and ``subsets_scanned``
    the number of them whose union the search evaluated, as in
    :class:`~maxcover.exact.ExactResult`.
    """

    pool_size: int
    pool: tuple[int, ...]
    combos: int
    subsets_scanned: int


def pool_size(p: int, k: int, beta: float) -> int:
    """Unclamped pool size ceil(2pk/(1-beta) + k).

    Evaluated in exact rational arithmetic on the given float so the ceiling
    never drifts by one from rounding noise.
    """
    _check_integer(p, "frequency bound")
    _check_integer(k, "budget")
    if p < 1 or k < 1:
        raise ValueError(f"p and k must be positive, got p={p}, k={k}")
    _check_ratio(beta, "beta")
    p, k = index(p), index(k)  # a numpy integer would wrap in the product
    return math.ceil(Fraction(2 * p * k) / (1 - Fraction(beta)) + k)


def fpt_approx(
    inst: Instance, p: int, beta: float, ceiling: int = DEFAULT_CEILING
) -> tuple[Solution, PoolPlan]:
    """Enumerate budget-size subsets of the highest-cardinality pool.

    Requires every element to appear in at most p sets; the returned coverage
    is then at least beta times the optimum. Cardinality ties at the pool
    boundary go to the lowest index, and with the formula pool clamped to m
    the search degenerates to plain exhaustive search. Only the pool size
    reads p; the search counts the pool's own frequency bound.
    """
    _check_ratio(beta, "beta")
    check_frequency_bound(inst, p)
    if inst.effective_budget == 0:
        return Solution((), 0, inst.n), PoolPlan(0, (), 1, 1)
    clamped = min(pool_size(p, inst.k, beta), inst.m)
    # A stable sort of the negated row lengths orders the sets by (-size, index).
    by_cardinality = np.argsort(-np.diff(inst._ids[1]), kind="stable")
    pool = tuple(by_cardinality[:clamped].tolist())
    budget = min(inst.k, clamped)
    in_index_order = sorted(pool)
    combo, covered, scanned = best_fixed_size_subset(_set_rows(inst)[in_index_order], budget, ceiling)
    chosen = tuple(in_index_order[j] for j in combo)
    plan = PoolPlan(clamped, pool, math.comb(clamped, budget), scanned)
    return Solution(chosen, covered, inst.n - covered), plan
