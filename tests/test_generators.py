"""Instance builders: tight families, random instances, the graph adapter."""

import math

import numpy as np
import pytest

from maxcover import (
    TightFptSpec,
    TightGreedySpec,
    brute_force,
    coverage,
    fpt_approx,
    frequency_profile,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    greedy_cover,
    parse_instance,
    rank_colex,
    serialize_instance,
    unrank_colex,
)


# ---------------------------------------------------------------------------
# Combination ranking
# ---------------------------------------------------------------------------

def test_colex_roundtrip():
    for size in (1, 2, 3, 5):
        seen = []
        for r in range(math.comb(9, size)):
            subset = unrank_colex(r, size)
            assert len(subset) == size
            assert all(a < b for a, b in zip(subset, subset[1:]))
            assert rank_colex(subset) == r
            seen.append(subset)
        assert len(set(seen)) == len(seen)
        assert all(max(s) <= 8 for s in seen)


# ---------------------------------------------------------------------------
# Greedy-tight family
# ---------------------------------------------------------------------------

def test_tight_greedy_smallest_construction():
    # m=6, k=3, p=4: blocks of comb(3,3)=1 element, spread sets of size
    # k*comb(2,2)=3, and every element in exactly p sets.
    inst = gen_tight_greedy(TightGreedySpec(p=4, k=3, m=6))
    assert inst.n == 3
    assert inst.m == 6
    assert inst.sets[:3] == ((1, 2, 3),) * 3
    assert inst.sets[3:] == ((1,), (2,), (3,))
    prof = frequency_profile(inst)
    assert prof.p_min == prof.p_max == 4
    assert brute_force(inst).opt == inst.n


def test_tight_greedy_structure():
    spec = TightGreedySpec(p=8, k=3, m=12)
    inst = gen_tight_greedy(spec)
    q = spec.m - spec.k
    block = math.comb(q, spec.p - 1)
    assert inst.n == spec.k * block
    assert inst.m == spec.m
    # Spread sets carry the bijection-derived size k*comb(m-k-1, p-2).
    for s in inst.sets[:q]:
        assert len(s) == spec.k * math.comb(q - 1, spec.p - 2)
    # Blocks partition the universe and are the optimum.
    prof = frequency_profile(inst)
    assert prof.p_min == prof.p_max == spec.p
    assert coverage(inst, range(q, spec.m)) == inst.n
    assert brute_force(inst).opt == inst.n
    # Greedy stays inside the spread family for all k steps.
    _, trace = greedy_cover(inst)
    assert all(i < q for i in trace.picks)


def test_tight_greedy_rejects_bad_parameters():
    with pytest.raises(ValueError, match="p\\*k > m"):
        TightGreedySpec(p=2, k=2, m=6)
    with pytest.raises(ValueError, match="must exceed"):
        TightGreedySpec(p=9, k=6, m=6)
    with pytest.raises(ValueError, match="p-1 <= m-k"):
        TightGreedySpec(p=9, k=3, m=10)
    with pytest.raises(ValueError, match="ceiling"):
        gen_tight_greedy(TightGreedySpec(p=20, k=4, m=40))


def test_tight_greedy_alpha():
    spec = TightGreedySpec(p=8, k=3, m=12)
    assert spec.alpha == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Pool-tight family
# ---------------------------------------------------------------------------

def test_tight_fpt_smallest_construction():
    spec = TightFptSpec(p=2, k=2, beta=0.5)
    assert spec.x == 18
    inst = gen_tight_fpt(spec)
    n1 = math.comb(18, 2)
    per_set = math.comb(17, 1)
    assert n1 == 153 and inst.n == n1 + 2 * per_set == 187
    assert inst.m == 20
    assert all(len(s) == per_set for s in inst.sets)
    prof = frequency_profile(inst)
    assert prof.p_max == 2
    # The k disjoint decoys realize the optimum k*comb(x,p)*p/x.
    assert brute_force(inst).opt == 2 * n1 * 2 // 18 == 34


def test_tight_fpt_overlap_counts():
    # Elements of the overlapping block hitting exactly j of the first k sets
    # number comb(k, j) * comb(x-k, p-j).
    spec = TightFptSpec(p=2, k=2, beta=0.5)
    inst = gen_tight_fpt(spec)
    x, p, k = spec.x, spec.p, spec.k
    n1 = math.comb(x, p)
    first = [set(inst.sets[i]) for i in range(k)]
    for j in range(p + 1):
        count = sum(
            1 for e in range(1, n1 + 1) if sum(e in s for s in first) == j
        )
        assert count == math.comb(k, j) * math.comb(x - k, p - j)


def test_tight_fpt_pool_search_is_tight():
    # All 20 sets tie on cardinality, the pool keeps the first 18 (the
    # overlapping family), and any 2 of those share exactly one element:
    # coverage 33 against the optimum 34.
    spec = TightFptSpec(p=2, k=2, beta=0.5)
    inst = gen_tight_fpt(spec)
    sol, plan = fpt_approx(inst, spec.p, spec.beta)
    assert plan.pool_size == spec.x
    assert set(plan.pool) == set(range(spec.x))
    assert sol.covered == 33
    opt = brute_force(inst).opt
    assert sol.covered < opt
    assert sol.covered >= spec.beta * opt


def test_tight_fpt_rejects_bad_parameters():
    with pytest.raises(ValueError, match="integer"):
        TightFptSpec(p=2, k=2, beta=0.3)
    with pytest.raises(ValueError, match="divide"):
        TightFptSpec(p=2, k=3, beta=0.5)
    with pytest.raises(ValueError, match="ceiling"):
        gen_tight_fpt(TightFptSpec(p=4, k=4, beta=0.75))


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def test_gen_random_deterministic_per_seed():
    a = gen_random(n=20, m=9, k=3, p_max=4, seed=99)
    b = gen_random(n=20, m=9, k=3, p_max=4, seed=99)
    assert a == b
    c = gen_random(n=20, m=9, k=3, p_max=4, seed=100)
    assert c != a


def test_gen_random_respects_frequency_cap():
    for seed in range(10):
        p_max = seed % 4 + 1
        inst = gen_random(n=15, m=6, k=2, p_max=p_max, seed=seed)
        prof = frequency_profile(inst)
        assert 1 <= prof.p_min and prof.p_max <= p_max


def test_gen_random_p1_yields_disjoint_sets():
    inst = gen_random(n=12, m=5, k=2, p_max=1, seed=3)
    seen = set()
    for s in inst.sets:
        assert not seen & set(s)
        seen |= set(s)
    assert seen == set(range(1, 13))


def test_gen_random_validation():
    with pytest.raises(ValueError, match="p_max"):
        gen_random(n=5, m=3, k=1, p_max=4, seed=0)
    with pytest.raises(ValueError, match="positive"):
        gen_random(n=0, m=3, k=1, p_max=1, seed=0)
    # Refused before the draw's n * p_max ids are allocated.
    with pytest.raises(ValueError, match="^construction needs up to 5000001 incidences, above the ceiling 5000000$"):
        gen_random(n=5000001, m=3, k=1, p_max=1, seed=0)


# ---------------------------------------------------------------------------
# Graph adapter
# ---------------------------------------------------------------------------

def test_triangle_graph():
    inst = graph_to_maxvertexcover(3, [(1, 2), (2, 3), (1, 3)], 1)
    assert inst.n == 3
    prof = frequency_profile(inst)
    assert prof.p_min == prof.p_max == 2
    # Any single vertex covers two of the three edges.
    assert brute_force(inst).opt == 2
    assert all(coverage(inst, [v]) == 2 for v in range(3))


def test_star_graph_center_covers_everything():
    edges = [(1, 2), (1, 3), (1, 4), (1, 5)]
    inst = graph_to_maxvertexcover(5, edges, 1)
    assert coverage(inst, [0]) == 4
    assert brute_force(inst).solution.chosen == (0,)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        graph_to_maxvertexcover(3, [(1, 1)], 1)
    with pytest.raises(ValueError, match="duplicate edge"):
        graph_to_maxvertexcover(3, [(1, 2), (2, 1)], 1)
    with pytest.raises(ValueError, match="out of range"):
        graph_to_maxvertexcover(3, [(1, 4)], 1)


def test_graph_refuses_non_integer_endpoints():
    # An endpoint that is not an integer is refused, never truncated to a
    # vertex, and so is an edge without two endpoints. The first edge with any
    # fault wins; within it, the endpoint count comes first, then each
    # endpoint's type and range in turn, then a self-loop.
    cases = [
        ([(1, 2.5)], "edge 1 endpoint 2.5 is not an integer"),
        ([(1, 2), (2.0, 3)], "edge 2 endpoint 2.0 is not an integer"),
        ([(1, "a")], "edge 1 endpoint 'a' is not an integer"),
        ([(1, None)], "edge 1 endpoint None is not an integer"),
        ([(1,)], "edge 1 must have two endpoints, got 1"),
        ([(1, 2), (1, 2, 3)], "edge 2 must have two endpoints, got 3"),
        ([(1, 2), (2.5, 3)], "edge 2 endpoint 2.5 is not an integer"),
        ([(1.5, 1.5)], "edge 1 endpoint 1.5 is not an integer"),
        ([(5, 2.5)], "edge 1 endpoint 5 out of range [1, 3]"),
        ([(1, 1), (1, "a")], "edge 1 is a self-loop at vertex 1"),
        ([(1, 2), (1, 2), (3,)], "duplicate edge (1, 2) at position 2"),
        ([(1, 2, 3), (1, 1)], "edge 1 must have two endpoints, got 3"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError) as err:
            graph_to_maxvertexcover(3, edges, 1)
        assert str(err.value) == message
    assert graph_to_maxvertexcover(3, [(True, np.int64(3))], 1) == graph_to_maxvertexcover(3, [(1, 3)], 1)
    tuples = graph_to_maxvertexcover(3, [(True, np.int64(3)), (np.int64(2), 3)], 1)
    array = graph_to_maxvertexcover(3, np.array([[1, 3], [2, 3]]), 1)
    for got, want in zip(tuples._ids, array._ids, strict=True):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert graph_to_maxvertexcover(3, iter([[1, 2], iter((2, 3))]), 1) == graph_to_maxvertexcover(3, [(1, 2), (2, 3)], 1)


def test_isolated_vertices_become_empty_sets():
    inst = graph_to_maxvertexcover(4, [(1, 2)], 1)
    assert inst.m == 4
    assert inst.sets[2] == () and inst.sets[3] == ()


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------

def test_generated_instances_roundtrip_through_documents():
    instances = [
        gen_tight_greedy(TightGreedySpec(p=4, k=3, m=6)),
        gen_tight_fpt(TightFptSpec(p=2, k=2, beta=0.5)),
        gen_random(n=10, m=6, k=2, p_max=3, seed=1),
        graph_to_maxvertexcover(4, [(1, 2), (2, 3), (3, 4)], 2),
    ]
    for inst in instances:
        assert parse_instance(serialize_instance(inst)) == inst
