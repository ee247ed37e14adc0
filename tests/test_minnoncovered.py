"""Randomized uncovered-count minimizer: determinism, bounds, hand oracles."""

import math
import random

import pytest

import maxcover.minnoncovered
from maxcover import (
    EnumerationCeilingError,
    Instance,
    brute_force,
    gen_random,
    randomized_min_noncovered,
    repetition_count,
)
from helpers import random_instance


def test_repetition_count_examples():
    assert repetition_count(2.0, math.exp(-1), 2) == 4
    assert repetition_count(2.0, math.exp(-4), 2) == 16


def test_repetition_count_limit_for_huge_beta():
    # (beta/(beta-1))^k tends to 1, leaving ceil(-ln epsilon).
    assert repetition_count(1e12, 0.1, 5) == math.ceil(-math.log(0.1))


def test_repetition_count_rejects_bad_arguments():
    with pytest.raises(ValueError, match="beta"):
        repetition_count(1.0, 0.1, 2)
    with pytest.raises(ValueError, match="beta"):
        repetition_count(0.5, 0.1, 2)
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="epsilon"):
            repetition_count(2.0, eps, 2)
    with pytest.raises(ValueError, match="budget"):
        repetition_count(2.0, 0.1, -1)


def test_repetition_count_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="too large"):
        repetition_count(1.0001, 0.1, 200)


@pytest.fixture
def no_search(monkeypatch):
    """Fail at once if a search starts: the mask build precedes every search."""

    def refuse(inst):
        raise AssertionError("the search started")

    monkeypatch.setattr(maxcover.minnoncovered, "set_masks", refuse)


def test_huge_plan_refused_before_any_search(no_search):
    inst = Instance.of(40, [[e] for e in range(1, 41)], 20)
    assert repetition_count(1.5, 0.1, 20) == 8_028_617_785
    with pytest.raises(EnumerationCeilingError) as err:
        randomized_min_noncovered(inst, 1, 1.5, 0.1, seed=0)
    assert err.value.count == 8_028_617_785
    assert err.value.ceiling == 10**8
    # A large budget with p >= 2 is refused as quickly.
    wide = Instance.of(4, [[1, 2], [2, 3], [3, 4], [4, 1]], 10**9)
    with pytest.raises(EnumerationCeilingError):
        randomized_min_noncovered(wide, 2, 1e12, 0.1, seed=0)


def test_plan_counts_repetitions_times_branching(no_search):
    inst = Instance.of(4, [[1, 2], [2, 3], [3, 4], [4, 1]], 2)
    assert repetition_count(2.0, math.exp(-1), 2) == 4
    with pytest.raises(EnumerationCeilingError) as err:
        randomized_min_noncovered(inst, 2, 2.0, math.exp(-1), seed=0, ceiling=15)
    assert err.value.count == 4 * 2**2


def test_plan_at_the_ceiling_runs():
    inst = Instance.of(4, [[1, 2], [2, 3], [3, 4], [4, 1]], 2)
    run = randomized_min_noncovered(inst, 2, 2.0, math.exp(-1), seed=0, ceiling=16)
    assert run.repetitions == 4
    assert run.best.uncovered == 0


def test_deterministic_per_seed():
    inst = gen_random(n=9, m=6, k=2, p_max=3, seed=5)
    a = randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=42)
    b = randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=42)
    assert a == b
    c = randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=43)
    assert c.seed != a.seed


def test_run_invariants():
    inst = gen_random(n=10, m=7, k=3, p_max=3, seed=8)
    run = randomized_min_noncovered(inst, 3, 2.0, 0.2, seed=1)
    assert run.repetitions == repetition_count(2.0, 0.2, inst.k)
    assert len(run.per_rep_uncovered) == run.repetitions
    assert run.best.uncovered == min(run.per_rep_uncovered)
    assert len(run.best.chosen) <= min(inst.k, inst.m)


def test_never_beats_the_optimum():
    rand = random.Random(79)
    for _ in range(20):
        inst = random_instance(rand, rand.randint(2, 9), rand.randint(2, 7),
                               rand.randint(1, 3), p_max=3, min_freq=0)
        opt_uncovered = inst.n - brute_force(inst).opt
        run = randomized_min_noncovered(inst, 3, 2.0, 0.2, seed=rand.randrange(2**32))
        assert run.best.uncovered >= opt_uncovered


def test_unique_branches_cover_partition():
    # Disjoint sets partitioning the universe: every branch chain is forced
    # and k picks cover everything, whatever the seed.
    inst = Instance.of(6, [[1, 2], [3, 4], [5, 6]], 3)
    for seed in range(20):
        run = randomized_min_noncovered(inst, 1, 2.0, 0.1, seed=seed)
        assert run.best.uncovered == 0


def test_hand_enumerated_single_pick():
    # k=1: wherever the sampled element lies, some branch keeps only one
    # element uncovered, and no single set covers all three.
    inst = Instance.of(3, [[1, 2], [2, 3], [3]], 1)
    for seed in range(30):
        run = randomized_min_noncovered(inst, 2, 2.0, 0.1, seed=seed)
        assert run.best.uncovered == 1


def test_branch_early_exit_keeps_budget_unused():
    inst = Instance.of(3, [[1, 2, 3]], 3)
    run = randomized_min_noncovered(inst, 1, 2.0, 0.1, seed=0)
    assert run.best.uncovered == 0
    assert run.best.chosen == (0,)


def test_statistical_success_rate_small():
    # beta=2, epsilon=0.1 on one oracle-checked instance over 60 seeds.
    inst = gen_random(n=10, m=7, k=2, p_max=3, seed=12)
    opt_uncovered = inst.n - brute_force(inst).opt
    hits = sum(
        randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=s).best.uncovered
        <= 2 * opt_uncovered
        for s in range(60)
    )
    assert hits >= 0.85 * 60


def test_budget_zero_is_total():
    inst = Instance.of(2, [[1], [2]], 0)
    run = randomized_min_noncovered(inst, 1, 2.0, 0.5, seed=0)
    assert run.best.chosen == ()
    assert run.best.uncovered == 2
    assert run.repetitions == math.ceil(-math.log(0.5))


def test_rejects_bad_inputs():
    inst = Instance.of(2, [[1, 2], [1]], 1)
    with pytest.raises(ValueError, match="element 1 appears in 2 sets"):
        randomized_min_noncovered(inst, 1, 2.0, 0.1, seed=0)
    with pytest.raises(ValueError, match="seed"):
        randomized_min_noncovered(inst, 2, 2.0, 0.1, seed=-1)
    with pytest.raises(ValueError, match="frequency bound"):
        randomized_min_noncovered(inst, 0, 2.0, 0.1, seed=0)
