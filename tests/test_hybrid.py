"""Split-budget hybrids: closed-form ratios, endpoint identities, guarantees,
and the greedy-or-exact dispatcher."""

import math
import random

import pytest

from maxcover import (
    EnumerationCeilingError,
    Instance,
    brute_force,
    exact_then_greedy,
    frequency_profile,
    greedy_branch_applies,
    greedy_cover,
    greedy_then_exact,
    hybrid_ratio,
    ptas_dispatch,
)
from helpers import random_instance


def dense_instance(rand, alpha=0.4):
    """Every element appears in at least ceil(alpha*m) of the m sets."""
    m = rand.randint(4, 7)
    floor = math.ceil(alpha * m)
    n = rand.randint(4, 10)
    sets = [[] for _ in range(m)]
    for e in range(1, n + 1):
        for i in rand.sample(range(m), rand.randint(floor, m)):
            sets[i].append(e)
    return Instance.of(n, sets, rand.randint(1, 4))


# ---------------------------------------------------------------------------
# Closed-form ratios
# ---------------------------------------------------------------------------

def test_ratio_values():
    assert hybrid_ratio("alg4", 2, 2) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert hybrid_ratio("alg4", 1, 2) == pytest.approx(0.69673, abs=1e-5)
    assert hybrid_ratio("alg4", 0, 2) == 1.0
    assert hybrid_ratio("alg5", 3, 3) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert hybrid_ratio("alg5", 0, 3) == 1.0
    assert hybrid_ratio("alg5_vertexcover", 4, 4) == 0.75
    assert hybrid_ratio("alg5_vertexcover", 0, 4) == 1.0
    assert hybrid_ratio("croce_paschos", 0, 2, beta_a=0.75) == 0.75
    assert hybrid_ratio("croce_paschos", 2, 2, beta_a=0.75) == 1.0


def test_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown method"):
        hybrid_ratio("alg6", 1, 2)
    with pytest.raises(ValueError, match="split"):
        hybrid_ratio("alg4", 3, 2)
    with pytest.raises(ValueError, match="split"):
        hybrid_ratio("alg4", -1, 2)
    with pytest.raises(ValueError, match="budget"):
        hybrid_ratio("alg4", 0, 0)
    with pytest.raises(ValueError, match="beta_a"):
        hybrid_ratio("croce_paschos", 1, 2)
    with pytest.raises(ValueError, match="beta_a"):
        hybrid_ratio("croce_paschos", 1, 2, beta_a=1.5)


def test_curve_dominance_and_cp_dip():
    # On a 101-point grid of t = (k-x)/k, the greedy-finishing vertex-cover
    # form dominates the exact-then-approximate form at beta_a = 3/4, which
    # itself dips below its own starting value.
    cp_values = []
    for i in range(101):
        t = i / 100
        vc = hybrid_ratio("alg5_vertexcover", (1 - t) * 4, 4)
        cp = hybrid_ratio("croce_paschos", t * 4, 4, beta_a=0.75)
        assert vc >= cp
        cp_values.append(cp)
    assert cp_values[10] < cp_values[0]
    assert cp_values[0] == 0.75 and cp_values[100] == 1.0


# ---------------------------------------------------------------------------
# Hybrid solvers
# ---------------------------------------------------------------------------

def test_endpoints_match_reference_solvers():
    rand = random.Random(83)
    for _ in range(30):
        inst = random_instance(rand, rand.randint(1, 9), rand.randint(1, 7),
                               rand.randint(0, 4), p_max=rand.randint(1, 4), min_freq=0)
        exact_sol = brute_force(inst).solution
        greedy_sol, _ = greedy_cover(inst)
        assert greedy_then_exact(inst, 0).solution == exact_sol
        assert exact_then_greedy(inst, 0).solution == exact_sol
        assert greedy_then_exact(inst, inst.k).solution == greedy_sol
        assert exact_then_greedy(inst, inst.k).solution == greedy_sol


def test_guarantees_for_every_split():
    rand = random.Random(89)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 9), rand.randint(1, 7),
                               rand.randint(1, 4), p_max=rand.randint(1, 4), min_freq=0)
        opt = brute_force(inst).opt
        for x in range(inst.k + 1):
            a = greedy_then_exact(inst, x)
            b = exact_then_greedy(inst, x)
            assert a.guarantee == hybrid_ratio("alg4", x, inst.k)
            assert b.guarantee == hybrid_ratio("alg5", x, inst.k)
            assert a.solution.covered >= a.guarantee * opt - 1e-9
            assert b.solution.covered >= b.guarantee * opt - 1e-9


def test_split_validation_and_scan_counts():
    inst = Instance.of(4, [[1, 2], [2, 3], [4]], 2)
    with pytest.raises(ValueError, match="split"):
        greedy_then_exact(inst, 3)
    with pytest.raises(ValueError, match="split"):
        exact_then_greedy(inst, -1)
    assert exact_then_greedy(inst, 1).combos_scanned == 3
    assert exact_then_greedy(inst, 0).combos_scanned == 3
    with pytest.raises(EnumerationCeilingError):
        exact_then_greedy(inst, 0, ceiling=2)
    with pytest.raises(EnumerationCeilingError):
        greedy_then_exact(inst, 0, ceiling=2)


def test_prefix_rescan_ignores_the_largest_prefix():
    # The coverage-best single prefix {1,2,3,4} greedily completes to only 5
    # covered elements; scanning every prefix finds the full cover through the
    # smaller prefixes, so the largest set is absent from the answer.
    inst = Instance.of(6, [[1, 2, 3, 4], [3, 4, 5], [1, 2, 6]], 2)
    report = exact_then_greedy(inst, 1)
    assert report.solution.covered == 6 == brute_force(inst).opt
    assert report.solution.chosen == (1, 2)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def test_dispatch_threshold_examples():
    # p_min/m = 0.5: budget 2 exceeds -2*ln(0.5) ~= 1.386, budget 1 does not.
    assert greedy_branch_applies(1, 2, 2, 0.5)
    assert not greedy_branch_applies(1, 2, 1, 0.5)


def test_dispatch_branches_agree_with_solvers():
    inst2 = Instance.of(2, [[1], [2]], 2)
    assert ptas_dispatch(inst2, 0.5, 0.5) == (greedy_cover(inst2)[0], "greedy")
    inst1 = Instance.of(2, [[1], [2]], 1)
    assert ptas_dispatch(inst1, 0.5, 0.5) == (brute_force(inst1).solution, "exact")


def test_dispatch_guarantee_on_dense_instances():
    rand = random.Random(97)
    greedy_branch = exact_branch = 0
    for _ in range(40):
        inst = dense_instance(rand)
        opt = brute_force(inst).opt
        for beta in (0.5, 0.8):
            sol, branch = ptas_dispatch(inst, 0.4, beta)
            assert 10 * sol.covered >= int(10 * beta) * opt
            if greedy_branch_applies(frequency_profile(inst).p_min, inst.m, inst.k, beta):
                assert branch == "greedy"
                greedy_branch += 1
            else:
                assert branch == "exact"
                exact_branch += 1
    assert greedy_branch > 0 and exact_branch > 0


def test_dispatch_rejects_sparse_instances():
    inst = Instance.of(4, [[1], [2], [3], [4], [1, 2]], 1)
    with pytest.raises(ValueError, match="alpha"):
        ptas_dispatch(inst, 0.5, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        ptas_dispatch(Instance(1, (), 1), 0.5, 0.5)
