"""Brute-force oracle: exactness, tie-breaking, determinism, refusal, and the
kernel's frequency bound."""

import json
import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from maxcover import (
    EnumerationCeilingError,
    Instance,
    Solution,
    TightFptSpec,
    TightGreedySpec,
    brute_force,
    coverage,
    exact_then_greedy,
    fpt_approx,
    frequency_profile,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    greedy_then_exact,
    ptas_dispatch,
    randomized_min_noncovered,
    set_masks,
)
from maxcover.cli import main
from maxcover.exact import best_fixed_size_subset, check_ceiling
from helpers import (
    bounded_families,
    full_scan,
    int_kernel,
    most_holders,
    random_instance,
    union_coverage,
)


def test_scans_all_pairs_example():
    # Pairs by hand: {0,1} -> 3, {0,2} -> 3, {1,2} -> 2; lexicographic winner (0,1).
    inst = Instance.of(3, [[1, 2], [2, 3], [3]], 2)
    res = brute_force(inst)
    assert res.solution.chosen == (0, 1)
    assert res.opt == res.solution.covered == 3
    assert res.solution.uncovered == 0


def test_budget_zero():
    inst = Instance.of(3, [[1, 2], [2, 3]], 0)
    res = brute_force(inst)
    assert res.solution.chosen == ()
    assert res.opt == 0
    assert res.subsets_scanned == 1


def test_budget_clamped_to_family():
    inst = Instance.of(4, [[1], [2, 3]], 5)
    res = brute_force(inst)
    assert res.solution.chosen == (0, 1)
    assert res.opt == 3


def test_lexicographic_tie_break():
    inst = Instance.of(2, [[1, 2], [1, 2], [1]], 1)
    assert brute_force(inst).solution.chosen == (0,)
    inst = Instance.of(4, [[3, 4], [1, 2], [1, 2]], 2)
    # (0,1) and (0,2) both cover everything; lexicographic minimum wins.
    assert brute_force(inst).solution.chosen == (0, 1)


def test_deterministic():
    rand = random.Random(31)
    inst = random_instance(rand, 10, 8, 3, p_max=4)
    assert brute_force(inst) == brute_force(inst)


def test_scan_counter():
    # No full cover exists, so every subset is scanned.
    inst = Instance.of(3, [[1], [2]], 1)
    assert brute_force(inst).subsets_scanned == 2
    # A full cover stops the scan at the first combination.
    inst = Instance.of(2, [[1, 2], [1]], 1)
    assert brute_force(inst).subsets_scanned == 1


def test_ceiling_refusal_reports_count():
    inst = Instance.of(1, [[1]] * 20, 10)
    with pytest.raises(EnumerationCeilingError) as err:
        brute_force(inst, ceiling=1000)
    assert err.value.count == 184756
    assert err.value.ceiling == 1000


def test_ceiling_check_names_the_count_while_it_can_be_printed():
    assert check_ceiling(20, 10, 184756) is None
    assert check_ceiling(20, 15, 15504) is None
    assert check_ceiling(0, 0, 1) is None
    with pytest.raises(EnumerationCeilingError) as err:
        check_ceiling(20, 15, 15503)
    assert (err.value.count, str(err.value)) == (15504, "15504 subsets to scan exceeds the ceiling of 15503")
    with pytest.raises(EnumerationCeilingError) as err:
        check_ceiling(14000, 7000, 10**8)  # 4 213 digits
    assert err.value.count == math.comb(14000, 7000)
    with pytest.raises(EnumerationCeilingError) as err:
        check_ceiling(10**6, 5 * 10**5, 10**8)
    assert err.value.count is None
    assert str(err.value) == "more than 10^301026 subsets to scan exceeds the ceiling of 100000000"


def test_tight_greedy_search():
    # The 24-set, K = 6 document of the exhaustive-small benchmark: the last
    # six sets are the disjoint blocks that cover every element.
    inst = gen_tight_greedy(TightGreedySpec(5, 6, 24))
    res = brute_force(inst)
    assert res.solution.chosen == tuple(range(18, 24))
    assert res.opt == res.solution.covered == inst.n == 18360
    assert res.subsets_scanned == 17111


def test_search_memory_stays_within_a_few_row_copies():
    # The kernel packs the 24 masks into 24 rows of ceil(18360 / 64) words.
    # Each node's scan makes its temporaries and drops them before it
    # descends, so the peak is the rows, one scan's temporaries and numpy's
    # fixed iteration buffers, whatever the depth. Keeping each level's scan
    # alive would add about five more row copies. The rows themselves are
    # freed when the search returns.
    masks = set_masks(gen_tight_greedy(TightGreedySpec(5, 6, 24)))
    rows_bytes = len(masks) * -(-18360 // 64) * 8
    tracemalloc.start()
    try:
        best_fixed_size_subset(masks, 6)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows_bytes
    assert left < rows_bytes // 8


def singletons(m):
    """m singleton sets with budget m: every search goes m picks deep."""
    return Instance.of(m, [[e] for e in range(1, m + 1)], m)


def test_searches_as_deep_as_the_family():
    inst = singletons(990)
    assert brute_force(inst).subsets_scanned == 1
    assert greedy_then_exact(inst, 0).combos_scanned == 1
    assert exact_then_greedy(inst, 0).combos_scanned == 1
    run = randomized_min_noncovered(singletons(1200), 1, 1e6, 0.5, 0)
    assert (run.repetitions, run.samples, run.best.uncovered) == (1, 1200, 0)


def call_at_depth(frames, solve):
    """``solve()`` called from ``frames`` more nested Python frames."""
    return solve() if frames <= 0 else call_at_depth(frames - 1, solve)


def test_solvers_give_the_same_answer_at_any_caller_stack_depth():
    inst = singletons(300)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    solvers = [
        lambda: brute_force(inst),
        lambda: fpt_approx(inst, 1, 0.5),
        lambda: greedy_then_exact(inst, 0),
        lambda: exact_then_greedy(inst, 0),
        lambda: randomized_min_noncovered(inst, 1, 1e6, 0.5, 0),
    ]
    for solve in solvers:
        assert call_at_depth(sys.getrecursionlimit() - 150 - depth, solve) == solve()


def test_never_beaten_by_random_subsets():
    rand = random.Random(37)
    for _ in range(60):
        inst = random_instance(rand, rand.randint(1, 12), rand.randint(1, 10),
                               rand.randint(0, 4), p_max=rand.randint(1, 5) % 5 + 1,
                               min_freq=0)
        opt = brute_force(inst).opt
        masks = set_masks(inst)
        for _ in range(50):
            combo = rand.sample(range(inst.m), inst.effective_budget)
            union = 0
            for i in combo:
                union |= masks[i]
            assert opt >= union.bit_count()
            assert union.bit_count() == union_coverage(inst, combo)


def test_uncovered_minimum_is_n_minus_opt():
    rand = random.Random(41)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 9), rand.randint(1, 7),
                               rand.randint(0, 3), p_max=3, min_freq=0)
        res = brute_force(inst)
        best_uncovered = min(
            inst.n - coverage(inst, combo)
            for combo in combinations(range(inst.m), inst.effective_budget)
        )
        assert inst.n - res.opt == best_uncovered


# ---------------------------------------------------------------------------
# The frequency bound p: a pairwise-overlap term in the kernel's gain bound.
# ---------------------------------------------------------------------------

def tight_pool(beta):
    """The masks of the fpt pool of the (p, k) = (2, 4) tight family."""
    inst = gen_tight_fpt(TightFptSpec(p=2, k=4, beta=beta))
    _, plan = fpt_approx(inst, 2, beta)
    masks = set_masks(inst)
    return [masks[i] for i in sorted(plan.pool)]


def test_frequency_bound_keeps_the_full_scan_answer():
    for inst, _, _ in bounded_families(9):
        masks = set_masks(inst)
        ref_chosen, ref_covered, ref_scanned = full_scan(masks, inst.k)
        chosen, covered, scanned = best_fixed_size_subset(masks, inst.k)
        assert (chosen, covered) == (ref_chosen, ref_covered)
        assert 1 <= scanned <= ref_scanned
        assert (chosen, covered, scanned) == int_kernel(masks, inst.k, most_holders(masks))


@pytest.mark.parametrize("beta, pool, covered, unbounded, bounded",
                         [(0.75, 68, 262, 814385, 65), (0.5, 36, 134, 58905, 33)])
def test_frequency_bound_leaf_counts_on_the_tight_pools(beta, pool, covered, unbounded, bounded):
    masks = tight_pool(beta)
    assert len(masks) == pool
    assert math.comb(pool, 4) == unbounded
    result = best_fixed_size_subset(masks, 4)
    assert result == int_kernel(masks, 4, most_holders(masks)) == ((0, 1, 2, 3), covered, bounded)


def test_search_that_counts_its_frequency_bound_stays_within_a_few_row_copies():
    # Every pair of the 68 pooled sets overlaps, so the search counts p over
    # all the rows, a block of them at a time, at its root.
    masks = tight_pool(0.75)
    rows_bytes = len(masks) * -(-max(masks).bit_length() // 64) * 8
    tracemalloc.start()
    try:
        scanned = best_fixed_size_subset(masks, 4)[2]
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scanned == 65
    assert peak < 4 * rows_bytes
    assert left < rows_bytes // 8


def test_frequency_bound_is_off_where_two_sets_are_disjoint():
    inst = gen_random(2000, 40, 5, 2, 0)
    masks = set_masks(inst)
    assert any(not a & b for a, b in combinations(masks, 2))
    result = best_fixed_size_subset(masks, 5)
    assert result == int_kernel(masks, 5, most_holders(masks)) == int_kernel(masks, 5)
    assert result[2] == 1075


def test_frequency_bound_subtracts_only_two_over_p_of_the_pair_overlaps():
    # p = 3, k = 3. Elements 4 and 5 lie in sets 1, 2 and 3; sets 1, 2 and 3
    # each share two more elements with set 0, so every pair overlaps in
    # exactly 2. The triples with set 0 cover at most 10; (1, 2, 3) covers all
    # 11. At the root, from set 1 on, the three largest gains sum to 15, and
    # the bound 15 - ceil(3 * 2 * 2 / 3) = 11 lets the search reach (1, 2, 3).
    # Subtracting C(3, 2) * 2 = 6 instead would give 9 <= 10 and lose it.
    # Below the root the overlaps shrink: with set 1 picked, sets 2 and 3
    # share nothing outside it, so the root's 2 is no bound there at p = 3.
    sets = [[6, 7, 8, 9, 10, 11], [1, 4, 5, 6, 7], [2, 4, 5, 8, 9], [3, 4, 5, 10, 11]]
    inst = Instance.of(11, sets, 3)
    assert frequency_profile(inst).p_max == 3
    masks = set_masks(inst)
    assert full_scan(masks, 3)[:2] == ((1, 2, 3), 11)
    result = best_fixed_size_subset(masks, 3)
    assert result == int_kernel(masks, 3, most_holders(masks))
    assert result[:2] == ((1, 2, 3), 11)


def complete_graph(n):
    return [(u, v) for u, v in combinations(range(1, n + 1), 2)]


def test_every_exhaustive_search_answers_complete_graph_reductions(tmp_path):
    # Every element lies in exactly two sets and every pair of sets overlaps,
    # so the frequency bound can cut at every node of every search here.
    for n in range(5, 25):
        for k in range(2, 7):
            inst = graph_to_maxvertexcover(n, complete_graph(n), k)
            want = full_scan(set_masks(inst), k)[:2]
            exact = brute_force(inst)
            assert (exact.solution.chosen, exact.opt) == want
            for x in range(k + 1):
                sol = greedy_then_exact(inst, x).solution
                assert (sol.chosen, sol.covered) == want
            sol, branch = ptas_dispatch(inst, 1 / n, 0.99)
            assert (sol.chosen, sol.covered, branch) == (*want, "exact")
    assert want == ((0, 1, 2, 3, 4, 5), 123)
    doc = tmp_path / "k24.graph"
    doc.write_text(f"p graph 24 276 6\n" + "".join(f"e {u} {v}\n" for u, v in complete_graph(24)))
    out = tmp_path / "r.json"
    assert main(["solve", "--alg", "greedy", "--with-opt", "--in", str(doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["opt"] == 123


def test_fpt_answer_depends_on_the_frequency_bound_only_through_its_pool():
    # p = 2 pools the 36 largest of the 40 sets; p = 3 and p = 4 pool all 40.
    inst = gen_tight_fpt(TightFptSpec(p=2, k=4, beta=0.5))
    runs = {p: fpt_approx(inst, p, 0.5) for p in (2, 3, 4)}
    assert [runs[p][1].pool_size for p in (2, 3, 4)] == [36, 40, 40]
    assert runs[2][0] == Solution((0, 1, 2, 3), 134, 636)
    assert runs[3][0] == runs[4][0] == Solution((0, 36, 37, 38), 140, 630)


def test_frequency_bound_cuts_the_complete_graph_search():
    inst = graph_to_maxvertexcover(24, complete_graph(24), 6)
    result = brute_force(inst)
    assert (result.opt, result.subsets_scanned) == (123, 19)
    assert greedy_then_exact(inst, 1).combos_scanned == 19
