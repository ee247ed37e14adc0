"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every tolerance is pinned here; coverage comparisons against rational
ratios are exact integer arithmetic, analytic bounds get a 1e-9 slack.
"""

import math
import random
import time
from itertools import combinations

from maxcover import (
    Instance,
    TightGreedySpec,
    brute_force,
    coverage,
    coverage_inclusion_exclusion,
    fpt_approx,
    frequency_profile,
    gen_random,
    gen_tight_greedy,
    greedy_branch_applies,
    greedy_cover,
    greedy_guarantee,
    greedy_then_exact,
    exact_then_greedy,
    hybrid_ratio,
    pad_frequencies,
    ptas_dispatch,
    randomized_min_noncovered,
    set_masks,
)
from maxcover.cli import run_curves
from helpers import random_instance


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_consistency():
    """brute_force never loses to 1000 random subsets on 500 seeded instances."""
    rand = random.Random(1001)
    start = time.perf_counter()
    violations = 0
    for _ in range(500):
        n = rand.randint(1, 12)
        m = rand.randint(1, 10)
        k = rand.randint(0, 4)
        inst = random_instance(rand, n, m, k, p_max=m, min_freq=0)
        opt = brute_force(inst).opt
        masks = set_masks(inst)
        k_eff = inst.effective_budget
        for _ in range(1000):
            union = 0
            for i in rand.sample(range(m), k_eff):
                union |= masks[i]
            if union.bit_count() > opt:
                violations += 1
    elapsed = time.perf_counter() - start
    report(1, "oracle consistency", violations == 0 and elapsed < 30,
           f"violations={violations}, elapsed={elapsed:.1f}s")


def test_criterion_2_pool_search_guarantee():
    """fpt_approx covers at least beta*OPT, exact integer comparison."""
    rand = random.Random(1002)
    start = time.perf_counter()
    violations = 0
    for _ in range(200):
        inst = random_instance(rand, rand.randint(1, 12), rand.randint(1, 14),
                               rand.randint(1, 3), p_max=3, min_freq=0)
        opt = brute_force(inst).opt
        for beta in (0.5, 0.7, 0.9):
            sol, _ = fpt_approx(inst, 3, beta)
            if 10 * sol.covered < int(10 * beta) * opt:
                violations += 1
    elapsed = time.perf_counter() - start
    report(2, "pool search beta guarantee", violations == 0 and elapsed < 60,
           f"violations={violations}, elapsed={elapsed:.1f}s")


def test_criterion_3_greedy_guarantee_and_trace_bound():
    """Greedy meets 1 - e^(-max(pK/m, 1)) and its per-step uncovered bound."""
    rand = random.Random(1003)
    violations = 0
    for _ in range(200):
        base = random_instance(rand, rand.randint(2, 8), rand.randint(2, 5),
                               rand.randint(1, 3), p_max=rand.randint(1, 3))
        inst = pad_frequencies(base, rand.randint(2, 4))
        p = frequency_profile(inst).p_min
        sol, trace = greedy_cover(inst)
        opt = brute_force(inst).opt
        bound = greedy_guarantee(p, inst.effective_budget, inst.m)
        if sol.covered < bound * opt - 1e-9:
            violations += 1
        for i, after in enumerate(trace.uncovered_after, start=1):
            if after > inst.n * (1 - p / inst.m) ** i + 1e-9:
                violations += 1
    report(3, "greedy lower-bounded-frequency guarantee", violations == 0,
           f"violations={violations}")


def test_criterion_4_tight_greedy_structure():
    """On the adversarial family greedy takes spread sets only and leaves
    exactly comb(m-2k, p-1) elements uncovered in every block."""
    ok = True
    details = []
    for m, k, p in ((12, 3, 8), (20, 4, 10)):
        inst = gen_tight_greedy(TightGreedySpec(p=p, k=k, m=m))
        sol, trace = greedy_cover(inst)
        spread_only = all(i < m - k for i in trace.picks)
        masks = set_masks(inst)
        covered = 0
        for i in trace.picks:
            covered |= masks[i]
        block = math.comb(m - k, p - 1)
        expected = math.comb(m - 2 * k, p - 1)
        per_block_ok = True
        for b in range(k):
            uncovered = sum(
                1 for e in range(b * block + 1, (b + 1) * block + 1)
                if not covered >> (e - 1) & 1
            )
            per_block_ok &= uncovered == expected
        ok &= spread_only and per_block_ok
        details.append(f"(m={m},k={k},p={p}): spread_only={spread_only}, per_block={expected}")
    report(4, "tight greedy family structure", ok, "; ".join(details))


def test_criterion_5_randomized_statistical_guarantee():
    """beta=2, epsilon=0.1: per-instance success fraction over 200 seeds."""
    start = time.perf_counter()
    fixtures = [
        (10, 7, 2, 3, 0),
        (12, 8, 3, 3, 0),
        (11, 6, 2, 2, 0),
        (10, 7, 2, 3, 1),
        (12, 8, 3, 3, 1),
    ]
    ok = True
    fractions = []
    for n, m, k, p_max, seed in fixtures:
        inst = gen_random(n=n, m=m, k=k, p_max=p_max, seed=seed)
        opt_uncovered = inst.n - brute_force(inst).opt
        assert opt_uncovered >= 1, "fixture must have a nonzero optimal uncovered count"
        hits = sum(
            randomized_min_noncovered(inst, p_max, 2.0, 0.1, seed=s).best.uncovered
            <= 2 * opt_uncovered
            for s in range(200)
        )
        fractions.append(hits / 200)
        ok &= hits / 200 >= 0.85
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120
    report(5, "randomized uncovered-count guarantee", ok,
           f"fractions={fractions}, elapsed={elapsed:.1f}s")


def test_criterion_6_hybrid_guarantees_and_endpoints():
    """Both hybrids meet their split-dependent bounds; endpoints reproduce the
    reference solvers exactly."""
    rand = random.Random(1006)
    violations = 0
    for _ in range(100):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               rand.randint(1, 4), p_max=rand.randint(1, 4), min_freq=0)
        exact_sol = brute_force(inst).solution
        greedy_sol, _ = greedy_cover(inst)
        opt = exact_sol.covered
        for x in range(inst.k + 1):
            a = greedy_then_exact(inst, x)
            b = exact_then_greedy(inst, x)
            if a.solution.covered < hybrid_ratio("alg4", x, inst.k) * opt - 1e-9:
                violations += 1
            if b.solution.covered < hybrid_ratio("alg5", x, inst.k) * opt - 1e-9:
                violations += 1
        if greedy_then_exact(inst, 0).solution != exact_sol:
            violations += 1
        if exact_then_greedy(inst, 0).solution != exact_sol:
            violations += 1
        if greedy_then_exact(inst, inst.k).solution != greedy_sol:
            violations += 1
        if exact_then_greedy(inst, inst.k).solution != greedy_sol:
            violations += 1
    report(6, "hybrid split guarantees and endpoints", violations == 0,
           f"violations={violations}")


def test_criterion_7_guarantee_curve_reproduction():
    """Vertex-cover form dominates the exact-then-approximate curve on 101
    points and the latter is non-monotone."""
    start = time.perf_counter()
    csv = run_curves(1, 0.75, 101, alg5_form="vertexcover")
    rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
    assert len(rows) == 101
    values = [(float(t), float(a), float(c)) for t, a, c in rows]
    dominance = all(a >= c for _, a, c in values)
    by_t = {round(t, 10): c for t, _, c in values}
    non_monotone = by_t[0.1] < by_t[0.0]
    elapsed = time.perf_counter() - start
    report(7, "guarantee curve comparison", dominance and non_monotone and elapsed < 1.0,
           f"dominance={dominance}, dip={by_t[0.0]}->{by_t[0.1]}, elapsed={elapsed:.2f}s")


def test_criterion_8_inclusion_exclusion_identity():
    """Truncated inclusion-exclusion equals plain coverage for every subset of
    every sampled instance (integer equality, exhaustive over subsets)."""
    rand = random.Random(1008)
    checked = 0
    mismatches = 0
    instances = [random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                                 4, p_max=3, min_freq=0) for _ in range(40)]
    instances.append(Instance.of(5, [[1, 2, 3], [], [3, 4], [5]], 4))
    instances.append(Instance.of(3, [], 2))
    for inst in instances:
        for k in range(0, min(4, inst.m) + 1):
            for combo in combinations(range(inst.m), k):
                checked += 1
                if coverage_inclusion_exclusion(inst, combo, 3) != coverage(inst, combo):
                    mismatches += 1
    report(8, "inclusion-exclusion identity", mismatches == 0,
           f"checked={checked}, mismatches={mismatches}")


def test_criterion_9_dispatcher_guarantee():
    """ptas_dispatch meets beta on dense instances and both branches fire."""
    rand = random.Random(1009)
    violations = 0
    branch_counts = {"greedy": 0, "exact": 0}
    for _ in range(100):
        m = rand.randint(4, 7)
        floor = math.ceil(0.4 * m)
        n = rand.randint(4, 10)
        sets = [[] for _ in range(m)]
        for e in range(1, n + 1):
            for i in rand.sample(range(m), rand.randint(floor, m)):
                sets[i].append(e)
        inst = Instance.of(n, sets, rand.randint(1, 4))
        opt = brute_force(inst).opt
        p_min = frequency_profile(inst).p_min
        for beta in (0.5, 0.8):
            sol, _ = ptas_dispatch(inst, 0.4, beta)
            if 10 * sol.covered < int(10 * beta) * opt:
                violations += 1
            branch = "greedy" if greedy_branch_applies(p_min, inst.m, inst.k, beta) else "exact"
            branch_counts[branch] += 1
    ok = violations == 0 and all(v >= 10 for v in branch_counts.values())
    report(9, "density dispatcher guarantee", ok,
           f"violations={violations}, branches={branch_counts}")
