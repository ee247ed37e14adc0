"""Randomized uncovered-count minimizer: determinism, bounds, hand oracles."""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import maxcover.minnoncovered
from maxcover import core
from maxcover.minnoncovered import RandomizedRun, _bounded_draw, _nth_uncovered, _stream_states
from maxcover import (
    EnumerationCeilingError,
    Instance,
    Solution,
    brute_force,
    gen_random,
    graph_to_maxvertexcover,
    randomized_min_noncovered,
    repetition_count,
    set_masks,
)
from helpers import random_instance, unpacked_nth_uncovered


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
    for beta in (math.nan, math.inf):
        want = f"^beta must exceed 1 and be finite for uncovered-count ratios, got {beta}$"
        with pytest.raises(ValueError, match=want):
            repetition_count(beta, 0.1, 5)
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="epsilon"):
            repetition_count(2.0, eps, 2)
    with pytest.raises(ValueError, match="budget"):
        repetition_count(2.0, 0.1, -1)


def test_repetition_count_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="too large"):
        repetition_count(1.0001, 0.1, 200)
    # A numpy-integer budget is raised to its power as a Python int, with no
    # numpy overflow warning on the way.
    with pytest.raises(ValueError, match="too large to represent"):
        repetition_count(2.0, 0.1, np.int64(2000))


def select_masks(n: int, rand: random.Random):
    """Covered masks over 1..n: empty, all but one element covered, low,
    middle and high covered runs, every other element, and random masks of
    density 0.05 to 0.99."""
    full = (1 << n) - 1
    masks = [0]
    masks += [full ^ (1 << b) for b in {0, n // 2, n - 1}]
    masks += [(1 << length) - 1 for length in {1, n // 2, n - 1}]
    masks += [((1 << length) - 1) << start for start in {1, n // 3} for length in {1, n // 2} if start + length < n]
    masks += [full ^ ((1 << (n - length)) - 1) for length in {1, n // 2, n - 1}]
    masks += [sum(1 << b for b in range(start, n, 2)) for start in (0, 1)]
    for density in (0.05, 0.3, 0.5, 0.9, 0.99):
        masks += [sum(1 << b for b in range(n) if rand.random() < density) for _ in range(3)]
    return [mask for mask in masks if mask != full]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000])
def test_nth_uncovered_equals_unpacked_select(n):
    rand = random.Random(n)
    for covered in select_masks(n, rand):
        count = covered.bit_count()
        left = n - count
        # r = 1 on a low run, and r at the first covered element, make every
        # fixed-point step one element long, so the select falls back to
        # bisection.
        first = (covered & -covered).bit_length()
        for r in {1, 2, first, left // 2, left - 1, left}:
            if 1 <= r <= left:
                assert _nth_uncovered(covered, count, r) == unpacked_nth_uncovered(covered, n, r)


def test_nth_uncovered_steps_are_bounded_on_a_long_covered_run():
    """A covered run at r holds every fixed-point step to one element: at
    n = 10**5 with half the elements covered, stepping alone would take
    50 000 steps a select. The bounded select stays a few steps and a
    bisection."""
    n = 10**5
    low = (1 << n // 2) - 1  # elements 1..n/2
    middle = low << n // 4  # elements n/4 + 1..3n/4
    cases = [(low, r) for r in (1, 2, n // 4, n // 2)] + [(middle, n // 4 + 1)]
    want = [unpacked_nth_uncovered(covered, n, r) for covered, r in cases]
    start = time.process_time()
    got = [_nth_uncovered(covered, covered.bit_count(), r) for covered, r in cases for _ in range(20)]
    assert time.process_time() - start < 1.0
    assert got == [w for w in want for _ in range(20)]


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


def test_numpy_integer_plan_is_counted_without_wrapping(no_search):
    # 8**16 in int64 wraps to a negative count, which a ceiling never refuses.
    inst = Instance.of(1, [[1]], 16)
    for p, ceiling in ((np.int64(8), 10**8), (8, np.int64(10**8))):
        with pytest.raises(EnumerationCeilingError) as err:
            randomized_min_noncovered(inst, p, 2.0, 0.5, seed=0, ceiling=ceiling)
        assert err.value.count == repetition_count(2.0, 0.5, 16) * 8**16


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


def test_samples_count_the_nodes_that_drew():
    # Every repetition on the 4-cycle draws at the root, and both branches
    # leave two elements for a draw at depth 1: 3 draws in each of 4.
    cycle = Instance.of(4, [[1, 2], [2, 3], [3, 4], [4, 1]], 2)
    assert randomized_min_noncovered(cycle, 2, 2.0, math.exp(-1), seed=0).samples == 12
    # One set covers everything, so only the root of each of the 19
    # repetitions draws.
    whole = Instance.of(3, [[1, 2, 3]], 3)
    assert randomized_min_noncovered(whole, 1, 2.0, 0.1, seed=0).samples == 19
    # A drawn element in no set still counts; a zero budget draws nothing.
    assert randomized_min_noncovered(Instance.of(1, [[]], 1), 1, 2.0, 0.5, seed=0).samples == 2
    assert randomized_min_noncovered(Instance.of(2, [[1], [2]], 0), 1, 2.0, 0.5, seed=0).samples == 0


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
    # The seed's type is checked before its range.
    for seed in (1.5, 2.0, "3", None):
        with pytest.raises(ValueError) as err:
            randomized_min_noncovered(inst, 2, 2.0, 0.1, seed=seed)
        assert str(err.value) == f"seed must be an integer, got {seed!r}"
    assert randomized_min_noncovered(inst, 2, 2.0, 0.1, seed=np.uint64(2**64 - 1)) == \
        randomized_min_noncovered(inst, 2, 2.0, 0.1, seed=2**64 - 1)


# Bounds across the range minnc draws from: no draw at 1, then 32-bit Lemire
# up to 2**32 (3 * 2**30 rejects a third of its draws, and 2**32 takes each
# half as it is).
DRAW_BOUNDS = [1, 2, 3, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


def test_draws_equal_the_generator_values_on_one_stream():
    """The draws read from the stream's halves equal ``Generator.integers``
    value for value, bounds in [1, 2**32] mixed on one stream. Should a
    numpy release change its bounded-integer rule, this test fails first,
    and names the cause the pinned digests would only show as a change."""
    pick = random.Random(5)
    for seed in range(200):
        bounds = [pick.choice(DRAW_BOUNDS) for _ in range(150)]
        want = np.random.Generator(np.random.PCG64(seed))
        bitgen, halves = np.random.PCG64(seed), [0]
        assert [_bounded_draw(bitgen, halves, b) for b in bounds] == [int(want.integers(b)) for b in bounds], seed


def test_more_than_2_to_the_32_elements_are_refused_before_any_allocation(monkeypatch):
    """A draw's bound is at most n, and the draws follow numpy's 32-bit rule
    only, so a larger universe is refused before its frequency profile, an
    array of n + 1 counts, is built."""
    monkeypatch.setattr(core, "frequency_profile", lambda inst: pytest.fail("built a frequency profile"))
    inst = Instance(2**32 + 1, (), 1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            randomized_min_noncovered(inst, 1, 2.0, 0.1, seed=0)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "minnc draws among at most 2**32 elements, got n=4294967297"
    assert elapsed < 0.5 and peak < 1 << 20


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_states_equal_the_seeded_generators(seed):
    """The batched seeding gives each repetition the state SeedSequence and
    PCG64 would, for one- and two-word seeds and spawn keys."""
    for start, stop in ((0, 300), (2**32 - 2, 2**32 + 2)):
        want = [np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))).state
                for rep in range(start, stop)]
        assert _stream_states(seed, start, stop) == want


def generator_loop(inst, p, beta, epsilon, seed):
    """The search as written with one ``np.random.Generator`` a repetition,
    drawing each sample with ``rng.integers``: the reference the raw-word
    draws must reproduce."""
    reps = repetition_count(beta, epsilon, inst.k)
    masks = set_masks(inst)
    owners = [[] for _ in range(inst.n)]
    for i, s in enumerate(inst.sets):
        for e in s:
            owners[e - 1].append(i)
    best, per_rep, samples = None, [], 0
    for rep in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))
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
            if count > best_count:
                best_chosen, best_count = chosen, count
        per_rep.append(inst.n - best_count)
        if best is None or inst.n - best_count < best.uncovered:
            best = Solution(tuple(sorted(best_chosen)), best_count, inst.n - best_count)
    return RandomizedRun(reps, best, tuple(per_rep), seed, samples)


def graph_instance(seed):
    rand = random.Random(seed)
    edges = sorted({tuple(sorted(rand.sample(range(1, 31), 2))) for _ in range(60)})
    return graph_to_maxvertexcover(30, edges, 4)


@pytest.mark.parametrize("family", ["p1", "p2", "p3", "p4", "graph", "small"])
def test_runs_equal_the_generator_loop(family):
    for seed in (0, 1, 7, 2**64 - 1):
        if family == "graph":
            inst, p = graph_instance(seed % 5), 2
        elif family == "small":
            # Nodes with one element left draw with bound 1, which reads
            # nothing from the stream, and their later siblings draw again.
            inst, p = gen_random(n=5, m=6, k=3, p_max=3, seed=seed % 5), 3
        else:
            p = int(family[1])
            inst = gen_random(n=60, m=25, k=4, p_max=p, seed=seed % 5)
        assert randomized_min_noncovered(inst, p, 2.0, 0.1, seed) == generator_loop(inst, p, 2.0, 0.1, seed)


def test_runs_cross_the_seeding_blocks():
    # 4 608 repetitions take two blocks of seeded states.
    inst = gen_random(n=12, m=6, k=1, p_max=2, seed=3)
    run = randomized_min_noncovered(inst, 2, 1.0005, 0.1, seed=9)
    assert run.repetitions == 4608 > maxcover.minnoncovered._SEED_BLOCK
    assert run == generator_loop(inst, 2, 1.0005, 0.1, 9)


def test_no_generator_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Generator was built")

    monkeypatch.setattr(np.random, "Generator", refuse)
    inst = gen_random(n=40, m=15, k=3, p_max=3, seed=2)
    assert randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=3).samples > 0


def test_no_seed_sequence_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a SeedSequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    inst = gen_random(n=40, m=15, k=3, p_max=3, seed=2)
    assert randomized_min_noncovered(inst, 3, 2.0, 0.1, seed=3).samples > 0
