"""The fast hot paths against test-local copies of the loops they replaced.

Lazy greedy, select-based minnc sampling, the packed mask build and the
bound-pruned exhaustive searches must give exactly what the earlier eager
scan, list-rebuilding sampler, bit-by-bit mask build, full subset scan and
prefix-by-prefix hybrid gave, on seeded batches of random instances, graph
reductions and the adversarial families. The pruned searches may only do less
work than the scans they replaced.
"""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from maxcover import (
    Instance,
    TightFptSpec,
    TightGreedySpec,
    brute_force,
    exact_then_greedy,
    frequency_profile,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    randomized_min_noncovered,
    set_masks,
)
from maxcover.exact import best_fixed_size_subset
from maxcover.greedy import extend_greedily


def mask_of(ids) -> int:
    mask = 0
    for e in ids:
        mask |= 1 << (e - 1)
    return mask


def eager_extend(masks, taken, covered, steps):
    picks, gains = [], []
    for _ in range(steps):
        best_idx = -1
        best_gain = -1
        for i, mask in enumerate(masks):
            if taken[i]:
                continue
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx < 0:
            break
        taken[best_idx] = True
        covered |= masks[best_idx]
        picks.append(best_idx)
        gains.append(best_gain)
    return picks, gains, covered


def rebuilding_min_noncovered(inst, reps, seed):
    """Per-repetition uncovered counts and best (chosen, uncovered) of the
    search that rebuilt the uncovered list at every node."""
    masks = [mask_of(s) for s in inst.sets]
    owners = [[] for _ in range(inst.n)]
    for i, s in enumerate(inst.sets):
        for e in s:
            owners[e - 1].append(i)

    def search(depth, chosen, covered, rng):
        if depth == 0:
            return chosen, covered
        uncovered = [e for e in range(1, inst.n + 1) if not covered >> (e - 1) & 1]
        if not uncovered:
            return chosen, covered
        e = uncovered[int(rng.integers(len(uncovered)))]
        if not owners[e - 1]:
            return chosen, covered
        best_chosen, best_covered, best_count = chosen, covered, -1
        for i in owners[e - 1]:
            ch, cov = search(depth - 1, chosen + (i,), covered | masks[i], rng)
            if cov.bit_count() > best_count:
                best_chosen, best_covered, best_count = ch, cov, cov.bit_count()
        return best_chosen, best_covered

    per_rep, best = [], None
    for rep in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))
        chosen, covered = search(inst.k, (), 0, rng)
        uncovered = inst.n - covered.bit_count()
        per_rep.append(uncovered)
        if best is None or uncovered < best[1]:
            best = (tuple(sorted(chosen)), uncovered)
    return tuple(per_rep), best


def full_scan(masks, size):
    """Every size-subset in lexicographic order, stopping at the first union
    that covers every element some mask holds."""
    m = len(masks)
    size = min(size, m)
    reachable = 0
    for mask in masks:
        reachable |= mask
    stop_at = reachable.bit_count()
    best, best_cov, scanned = (), -1, 0
    for combo in combinations(range(m), size):
        union = 0
        for i in combo:
            union |= masks[i]
        scanned += 1
        if union.bit_count() > best_cov:
            best, best_cov = combo, union.bit_count()
            if best_cov >= stop_at:
                break
    return best, best_cov, scanned


def every_prefix_then_greedy(inst, x):
    """(chosen, covered, prefixes finished) of the loop that finished every
    (k - x)-prefix greedily."""
    masks = set_masks(inst)
    x_eff = min(x, inst.effective_budget)
    best_chosen, best_covered, finished = None, -1, 0
    for prefix in combinations(range(inst.m), inst.effective_budget - x_eff):
        covered = 0
        taken = [False] * inst.m
        for i in prefix:
            covered |= masks[i]
            taken[i] = True
        picks, _, covered = extend_greedily(masks, taken, covered, x_eff)
        finished += 1
        chosen = tuple(sorted(prefix + tuple(picks)))
        cov = covered.bit_count()
        if cov > best_covered or (cov == best_covered and chosen < best_chosen):
            best_covered, best_chosen = cov, chosen
    return best_chosen, best_covered, finished


def random_graph(rand, vertices, edges, k):
    seen = set()
    while len(seen) < edges:
        u, v = rand.sample(range(1, vertices + 1), 2)
        seen.add((min(u, v), max(u, v)))
    return graph_to_maxvertexcover(vertices, sorted(seen), k)


def batch(seed, count):
    """Random instances with p_max in {1, 2, 3}, some with duplicated sets or
    elements in no set, and graph reductions."""
    rand = random.Random(seed)
    out = []
    for t in range(count):
        p_max = 1 + t % 3
        m = rand.randint(p_max, 12)
        inst = gen_random(rand.randint(1, 60), m, rand.randint(0, 6), p_max, rand.randrange(2**32))
        if t % 4 == 1:
            dupes = tuple(inst.sets[rand.randrange(m)] for _ in range(3))
            inst = Instance(inst.n, inst.sets + dupes, inst.k)
        if t % 4 == 2:
            inst = Instance(inst.n + rand.randint(1, 9), inst.sets, inst.k)
        out.append(inst)
        vertices = rand.randint(3, 14)
        edges = rand.randint(1, min(25, vertices * (vertices - 1) // 2))
        out.append(random_graph(rand, vertices, edges, rand.randint(0, 5)))
    return out


def test_set_masks_equal_bit_by_bit_masks():
    cases = batch(1, 60) + [
        Instance(0, ((), ()), 1),
        Instance(9, ((1, 9), (8,), (), tuple(range(1, 10))), 2),
        gen_random(3000, 40, 5, 3, 7),
    ]
    for inst in cases:
        assert set_masks(inst) == [mask_of(s) for s in inst.sets]


def test_lazy_greedy_equals_eager_scan():
    rand = random.Random(2)
    for inst in batch(2, 80):
        masks = set_masks(inst)
        for steps in (inst.effective_budget, inst.m, inst.m + 3):
            assert extend_greedily(masks, [False] * inst.m, 0, steps) == \
                eager_extend(masks, [False] * inst.m, 0, steps)
        # A prefix already taken, as the hybrids start the greedy stage.
        prefix = rand.sample(range(inst.m), rand.randint(0, inst.m))
        covered = 0
        for i in prefix:
            covered |= masks[i]
        lazy_taken = [i in prefix for i in range(inst.m)]
        eager_taken = list(lazy_taken)
        steps = rand.randint(0, inst.m + 2)
        assert extend_greedily(masks, lazy_taken, covered, steps) == \
            eager_extend(masks, eager_taken, covered, steps)
        assert lazy_taken == eager_taken


def test_lazy_greedy_ties_and_zero_gains():
    masks = [0b011, 0b110, 0b011, 0b000, 0b110]
    picks, gains, covered = extend_greedily(masks, [False] * 5, 0, 5)
    assert (picks, gains, covered) == eager_extend(masks, [False] * 5, 0, 5)
    assert picks == [0, 1, 2, 3, 4] and gains == [2, 1, 0, 0, 0]


@pytest.mark.parametrize("seed", [0, 5])
def test_select_sampling_equals_list_rebuild(seed):
    for inst in batch(3 + seed, 30):
        run = randomized_min_noncovered(inst, max(frequency_profile(inst).p_max, 1), 2.0, 0.3, seed)
        per_rep, (chosen, uncovered) = rebuilding_min_noncovered(inst, run.repetitions, seed)
        assert run.per_rep_uncovered == per_rep
        assert (run.best.chosen, run.best.uncovered) == (chosen, uncovered)


def tight_instances():
    return [
        gen_tight_greedy(TightGreedySpec(p=4, k=3, m=9)),
        gen_tight_greedy(TightGreedySpec(p=4, k=4, m=12)),
        gen_tight_fpt(TightFptSpec(p=2, k=2, beta=0.5)),
        gen_tight_fpt(TightFptSpec(p=2, k=2, beta=0.75)),
    ]


def test_pruned_kernel_equals_full_scan():
    for inst in batch(4, 80) + tight_instances():
        masks = set_masks(inst)
        for size in {0, 1, 2, inst.k, inst.k + 1, inst.m - 1, inst.m, inst.m + 1}:
            chosen, covered, scanned = best_fixed_size_subset(masks, size)
            ref_chosen, ref_covered, ref_scanned = full_scan(masks, size)
            assert (chosen, covered) == (ref_chosen, ref_covered)
            assert 1 <= scanned <= ref_scanned


def test_pruned_kernel_on_duplicates_and_size_edges():
    masks = [0b0110, 0b0110, 0b1001, 0b0110, 0b1001, 0b0001]
    for size in range(len(masks) + 3):
        chosen, covered, scanned = best_fixed_size_subset(masks, size)
        assert (chosen, covered) == full_scan(masks, size)[:2]
        assert scanned <= full_scan(masks, size)[2]
    assert best_fixed_size_subset(masks, 0) == ((), 0, 1)
    assert best_fixed_size_subset(masks, 9) == ((0, 1, 2, 3, 4, 5), 4, 1)
    assert best_fixed_size_subset([], 3) == ((), 0, 1)


def test_pruned_kernel_stops_at_the_first_full_cover():
    # (0, 2) is the first pair covering all four elements; the scan must stop
    # there and never see the later full covers (0, 4), (1, 3) or (3, 4).
    masks = [0b0011, 0b0100, 0b1100, 0b1011, 0b1100]
    chosen, covered, scanned = best_fixed_size_subset(masks, 2)
    assert (chosen, covered) == ((0, 2), 4) == full_scan(masks, 2)[:2]
    assert scanned <= full_scan(masks, 2)[2] == 2
    # Single picks: the first set holding every element ends the scan at once.
    assert best_fixed_size_subset([0b01, 0b11, 0b11], 1) == ((1,), 2, 2)


def test_pruned_kernel_skips_most_subsets_of_a_random_instance():
    inst = gen_random(600, 30, 4, 2, 0)
    result = brute_force(inst)
    assert (result.solution.chosen, result.opt) == full_scan(set_masks(inst), inst.k)[:2]
    assert result.subsets_scanned * 10 < math.comb(inst.m, inst.k)


def test_pruned_hybrid_equals_every_prefix_scan():
    for inst in batch(5, 60) + tight_instances():
        for x in range(inst.k + 1):
            report = exact_then_greedy(inst, x)
            chosen, covered, finished = every_prefix_then_greedy(inst, x)
            assert (report.solution.chosen, report.solution.covered) == (chosen, covered)
            assert 1 <= report.combos_scanned <= finished


def test_pruned_hybrid_keeps_a_tying_prefix_with_a_smaller_tuple():
    # Split x = 2 of k = 3: prefix (0,) completes to (0, 1, 3), covering all
    # 3 elements. Prefix (1,) has union {2} and two picks left whose largest
    # gains are 1 and 1, so its bound 3 only ties; it completes to (0, 1, 2),
    # which also covers 3 and wins on the smaller index tuple.
    inst = Instance.of(3, [[1], [2], [3], [2, 3]], 3)
    report = exact_then_greedy(inst, 2)
    assert (report.solution.chosen, report.solution.covered) == ((0, 1, 2), 3)
    assert every_prefix_then_greedy(inst, 2) == ((0, 1, 2), 3, 4)
    assert report.combos_scanned == 4
