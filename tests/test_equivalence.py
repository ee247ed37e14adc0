"""The fast hot paths against test-local copies of the loops they replaced.

Lazy greedy, select-based minnc sampling and the packed mask build must give
exactly what the earlier eager scan, list-rebuilding sampler and bit-by-bit
mask build gave, on seeded batches of random instances and graph reductions.
"""

import random

import numpy as np
import pytest

from maxcover import (
    Instance,
    frequency_profile,
    gen_random,
    graph_to_maxvertexcover,
    randomized_min_noncovered,
    set_masks,
)
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
