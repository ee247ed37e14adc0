"""Greedy picker: traces, tie-breaking, and the frequency-dependent guarantee."""

import math
import random

import numpy as np
import pytest

from maxcover import (
    Instance,
    Solution,
    brute_force,
    frequency_profile,
    greedy_cover,
    greedy_guarantee,
    pad_frequencies,
)
from helpers import random_instance


def test_two_step_example():
    sol, trace = greedy_cover(Instance.of(4, [[1, 2, 3], [3, 4], [4]], 2))
    assert trace.picks == (0, 1)
    assert trace.marginal_gains == (3, 1)
    assert sol.covered == 4
    assert trace.uncovered_after == (1, 0)


def test_tie_then_zero_gain():
    sol, trace = greedy_cover(Instance.of(1, [[1], [1]], 2))
    assert trace.picks == (0, 1)
    assert trace.marginal_gains == (1, 0)
    assert sol.chosen == (0, 1)


def test_budget_exhausted_with_zero_gain_picks():
    # Two sets suffice to cover; the third pick still happens.
    inst = Instance.of(3, [[1, 2], [3], [1], [2]], 3)
    sol, trace = greedy_cover(inst)
    assert len(sol.chosen) == 3
    assert trace.marginal_gains == (2, 1, 0)
    assert trace.picks == (0, 1, 2)


def test_trace_deltas_link_up():
    rand = random.Random(43)
    for _ in range(30):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               rand.randint(0, 5), p_max=rand.randint(1, 4), min_freq=0)
        sol, trace = greedy_cover(inst)
        assert len(trace.picks) == inst.effective_budget
        uncovered = inst.n
        for gain, after in zip(trace.marginal_gains, trace.uncovered_after):
            assert gain >= 0
            uncovered -= gain
            assert uncovered == after
        assert sol.covered == inst.n - uncovered if trace.picks else sol.covered == 0


def test_coverage_never_drops_as_budget_grows():
    rand = random.Random(47)
    for _ in range(20):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 7),
                               0, p_max=rand.randint(1, 4), min_freq=0)
        prev = 0
        for k in range(inst.m + 2):
            sol, _ = greedy_cover(Instance(inst.n, inst.sets, k))
            assert sol.covered >= prev
            prev = sol.covered


def test_empty_family():
    sol, trace = greedy_cover(Instance(3, (), 5))
    assert sol == Solution((), 0, 3)
    assert trace.picks == ()


def test_guarantee_formula_values():
    assert greedy_guarantee(1, 1, 2) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert greedy_guarantee(4, 1, 2) == pytest.approx(1 - math.exp(-2), abs=1e-12)
    # Ratio climbs toward 1 as the exponent grows.
    prev = 0.0
    for pk_over_m in (1, 2, 4, 8, 16):
        val = greedy_guarantee(pk_over_m, 1, 1)
        assert prev < val < 1.0
        prev = val
    # Numpy integers count as the Python ints they equal; p * k would wrap in int8.
    assert greedy_guarantee(np.int8(100), 100, 50) == greedy_guarantee(100, 100, 50) == 1.0
    assert greedy_guarantee(np.int8(100), np.int8(100), np.uint8(50)) == 1.0


def test_guarantee_rejects_nonpositive_arguments():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            greedy_guarantee(*bad)


def test_guarantee_and_step_bound_against_oracle():
    rand = random.Random(53)
    for _ in range(40):
        base = random_instance(rand, rand.randint(2, 8), rand.randint(2, 5),
                               rand.randint(1, 3), p_max=rand.randint(1, 3))
        inst = pad_frequencies(base, rand.randint(2, 4))
        p = frequency_profile(inst).p_min
        sol, trace = greedy_cover(inst)
        opt = brute_force(inst).opt
        bound = greedy_guarantee(p, inst.effective_budget, inst.m)
        assert sol.covered >= bound * opt - 1e-9
        for i, after in enumerate(trace.uncovered_after, start=1):
            assert after <= inst.n * (1 - p / inst.m) ** i + 1e-9
