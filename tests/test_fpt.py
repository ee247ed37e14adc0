"""Pool search: pool construction, the beta guarantee, and degenerate modes."""

import random

import numpy as np
import pytest

from maxcover import (
    Instance,
    TightFptSpec,
    brute_force,
    fpt_approx,
    gen_random,
    gen_tight_fpt,
    pool_size,
)
from helpers import random_instance


def test_pool_size_examples():
    assert pool_size(2, 2, 0.5) == 18
    assert pool_size(1, 1, 0.5) == 5


def test_pool_size_monotone_in_beta():
    prev = 0
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        size = pool_size(2, 3, beta)
        assert size > prev
        prev = size


def test_pool_size_rejects_bad_arguments():
    for beta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="beta"):
            pool_size(1, 1, beta)
    with pytest.raises(ValueError):
        pool_size(0, 1, 0.5)
    with pytest.raises(ValueError):
        pool_size(1, 0, 0.5)


def test_numpy_integer_pool_parameters_are_multiplied_without_wrapping():
    sets = [[1, 2], [3, 4], [5, 6], [1, 3, 5]]
    want = fpt_approx(Instance.of(6, sets, 2), 2**62, 0.5)
    assert want[0].chosen == (0, 1) and want[1].pool_size == 4
    assert fpt_approx(Instance.of(6, sets, 2), np.int64(2**62), 0.5) == want
    assert fpt_approx(Instance.of(6, sets, np.int64(2)), 2**62, 0.5) == want
    assert pool_size(np.int64(2**62), np.int64(2), 0.5) == pool_size(2**62, 2, 0.5) == 2**65 + 2


def test_pool_ordering_invariant():
    rand = random.Random(59)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 12), rand.randint(1, 10),
                               rand.randint(1, 3), p_max=3, min_freq=0)
        _, plan = fpt_approx(inst, 3, 0.3)
        sizes = [len(inst.sets[i]) for i in plan.pool]
        assert sizes == sorted(sizes, reverse=True)
        outside = set(range(inst.m)) - set(plan.pool)
        if plan.pool and outside:
            assert max(len(inst.sets[i]) for i in outside) <= min(sizes)


def test_matches_brute_force_when_pool_holds_everything():
    rand = random.Random(61)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               rand.randint(0, 3), p_max=3, min_freq=0)
        sol, plan = fpt_approx(inst, 3, 0.9)  # formula pool far exceeds m
        assert plan.pool_size == inst.m or inst.k == 0
        assert sol == brute_force(inst).solution


def test_beta_guarantee_on_random_instances():
    rand = random.Random(67)
    for _ in range(60):
        inst = random_instance(rand, rand.randint(1, 12), rand.randint(1, 14),
                               rand.randint(1, 3), p_max=3, min_freq=0)
        opt = brute_force(inst).opt
        sol, _ = fpt_approx(inst, 3, 0.7)
        assert 10 * sol.covered >= 7 * opt


def test_quality_monotone_in_beta():
    rand = random.Random(71)
    for _ in range(15):
        inst = random_instance(rand, rand.randint(2, 12), rand.randint(2, 14),
                               rand.randint(1, 3), p_max=2, min_freq=0)
        prev = -1
        for beta in (0.05, 0.2, 0.5, 0.8, 0.95):
            sol, _ = fpt_approx(inst, 2, beta)
            assert sol.covered >= prev
            prev = sol.covered


def test_disjoint_instances_pick_largest_sets():
    rand = random.Random(73)
    for seed in range(10):
        inst = gen_random(n=rand.randint(4, 12), m=rand.randint(2, 8),
                          k=rand.randint(1, 3), p_max=1, seed=seed)
        sol, _ = fpt_approx(inst, 1, 0.5)
        sizes = sorted((len(s) for s in inst.sets), reverse=True)
        assert sol.covered == sum(sizes[: inst.effective_budget])


def test_rejects_frequency_violation_with_element():
    inst = Instance.of(2, [[1], [1], [1, 2]], 1)
    with pytest.raises(ValueError, match="element 1 appears in 3 sets"):
        fpt_approx(inst, 2, 0.5)


def test_budget_zero():
    inst = Instance.of(3, [[1, 2]], 0)
    sol, plan = fpt_approx(inst, 1, 0.5)
    assert sol.chosen == ()
    assert plan.combos == 1


def test_plan_counts_the_leaves_the_search_evaluated():
    assert fpt_approx(Instance.of(3, [[1, 2]], 0), 1, 0.5)[1].subsets_scanned == 1
    inst = gen_tight_fpt(TightFptSpec(p=2, k=4, beta=0.75))
    _, plan = fpt_approx(inst, 2, 0.75)
    assert (plan.pool_size, plan.combos, plan.subsets_scanned) == (68, 814385, 65)
    # Pairs (0, 1) and (0, 2) are leaves; the gain bound 1 + 2 of pair (1, 2)
    # cannot beat (0, 2)'s 3, so it is never evaluated.
    inst = Instance.of(4, [[1], [2], [3, 4]], 2)
    _, plan = fpt_approx(inst, 1, 0.5)
    assert (plan.combos, plan.subsets_scanned) == (3, 2)
