"""The fast hot paths against test-local copies of the loops they replaced.

The greedy on the id rows must give the picks, gains and residual scan
counts of the greedy on the masks, within one block of owner temporaries,
and a greedy solve must build no tuples and no masks. No CLI command may
build set tuples. The document written from the id arrays must be the one
the per-set loop wrote.

Lazy greedy, select-based minnc sampling, the packed mask build and the
bound-pruned exhaustive searches must give exactly what the earlier eager
scan, list-rebuilding sampler, bit-by-bit mask build, full subset scan and
prefix-by-prefix hybrid gave, on seeded batches of random instances, graph
reductions and the adversarial families. The pruned searches may only do less
work than the scans they replaced. The exhaustive kernel must also give what
its Python-int form gave, leaf count included, with the frequency bound it
counts from its masks.

``verify`` must recount what plain set unions over the loop-built instance
count, and reject a document as the loops do.

The document load (record reader, ``Instance`` and ``ApprovalElection``
checks, approval and graph reductions, frequency profile) must give what the
per-token and per-element loops gave: the same value, or an error of the same
type with the same message, on seeded documents and on mutated record lines.
Every value the parsers, reductions and generators build must pass the
public constructor's check unchanged, with plain int ids. The generators
must give what the appending builders gave, and keep the arrays they
transposed, and the line split a piece at a time must give the lines of the
whole text. The reader must read the same at every block size, and read no
canonical record line on its own.
"""

import dataclasses
import json
import math
import numbers
import random
from functools import cache, partial
from itertools import combinations

import numpy as np
import pytest

from maxcover import (
    ApprovalElection,
    Instance,
    ParseError,
    TightFptSpec,
    TightGreedySpec,
    brute_force,
    election_to_maxcover,
    exact_then_greedy,
    fpt_approx,
    greedy_cover,
    greedy_then_exact,
    frequency_profile,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    pad_frequencies,
    parse_election,
    parse_graph,
    parse_instance,
    randomized_min_noncovered,
    serialize_instance,
    set_masks,
    unrank_colex,
)
from maxcover import cli, core, greedy
from maxcover.cli import SOLVERS, load_instance_text, main
from maxcover.core import _BLOCK_BYTES, _parse_header
from maxcover.exact import EnumerationCeilingError, _most_holders, best_fixed_size_subset
from maxcover.greedy import greedy_on_rows
from helpers import (
    appended_election_to_maxcover,
    bounded_families,
    eager_extend,
    flag_row_masks,
    full_scan,
    int_kernel,
    most_holders,
    peak_bytes,
    random_graph,
    recursive_exact_then_greedy,
    rows_of,
    union_coverage,
)
from test_core import SOURCES


def mask_of(ids) -> int:
    mask = 0
    for e in ids:
        mask |= 1 << (e - 1)
    return mask


def rebuilding_min_noncovered(inst, reps, seed):
    """Per-repetition uncovered counts, best (chosen, uncovered) and number of
    draws of the search that rebuilt the uncovered list at every node."""
    masks = [mask_of(s) for s in inst.sets]
    owners = [[] for _ in range(inst.n)]
    for i, s in enumerate(inst.sets):
        for e in s:
            owners[e - 1].append(i)
    draws = 0

    def search(depth, chosen, covered, rng):
        nonlocal draws
        if depth == 0:
            return chosen, covered
        uncovered = [e for e in range(1, inst.n + 1) if not covered >> (e - 1) & 1]
        if not uncovered:
            return chosen, covered
        draws += 1
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
    return tuple(per_rep), best, draws


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
        picks, _, covered = eager_extend(masks, taken, covered, x_eff)
        finished += 1
        chosen = tuple(sorted(prefix + tuple(picks)))
        cov = covered.bit_count()
        if cov > best_covered or (cov == best_covered and chosen < best_chosen):
            best_covered, best_chosen = cov, chosen
    return best_chosen, best_covered, finished


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
    # The rows against the flag-row reference, padding words included, for
    # every way the package builds an instance: by a caller, the parser (ids
    # unsorted and repeated on a line), the approval and graph reductions
    # (edges written high end first), the generators and the padding. The
    # families range from dense, where many ids share a byte, to one wide
    # and sparse; the dense one and the one of 1499 sets take more than one
    # block.
    rand = random.Random(5)
    election = approval_text(rand, 30, 400, 3, 12)
    edges = [(3, 1), (5, 2), (6, 4), (2, 1), (6, 5), (4, 3)]
    cases = batch(1, 60) + [
        Instance(0, (), 1),
        Instance(0, ((), ()), 1),
        Instance(70, ((), (), ()), 1),
        Instance(64, ((64,), (1, 64), ()), 1),
        Instance(65, ((65,), (1, 64, 65), ()), 1),
        Instance(9, ((1, 9), (8,), (), tuple(range(1, 10))), 2),
        parse_instance("p maxcover 70 3 1\ns 9 3 9 70 1 3\ns 64 2 64 65 1\ns\n"),
        election_to_maxcover(parse_election(election)),
        graph_to_maxvertexcover(6, edges, 2),
        load_instance_text("p graph 6 6 2\n" + "".join(f"e {u} {v}\n" for u, v in edges)),
        gen_tight_greedy(TightGreedySpec(5, 6, 24)),
        gen_tight_fpt(TightFptSpec(2, 4, 0.5)),
        gen_tight_fpt(TightFptSpec(2, 4, 0.75)),
        pad_frequencies(gen_random(300, 20, 3, 2, 4), 3),
        Instance.of(10**6, [rand.sample(range(1, 10**6 + 1), 5) for _ in range(12)], 1),
        Instance.of(200, [rand.sample(range(1, 201), 100) for _ in range(300)], 1),
        Instance.of(20000, [range(e, 20001, 2999) for e in range(1, 1500)], 1),
        gen_random(3000, 40, 5, 3, 7),
    ]
    for inst in cases:
        rows = core._set_rows(inst)
        words = -(-inst.n // 64)
        reference = flag_row_masks(inst.n, inst.sets)
        assert rows.shape == (inst.m, words) and rows.dtype == np.dtype("<u8")
        assert rows.flags.aligned and rows.flags.c_contiguous
        assert rows.tobytes() == b"".join(mask.to_bytes(8 * words, "little") for mask in reference)
        assert set_masks(inst) == [int.from_bytes(row, "little") for row in rows] == [mask_of(s) for s in inst.sets]


def test_packed_row_greedy_equals_eager_scan():
    rand = random.Random(2)
    for inst in batch(2, 80):
        masks = set_masks(inst)
        rows = core._set_rows(inst)
        # With nothing taken, and with a prefix taken, as the hybrids start
        # their greedy stages.
        for chosen in ([], rand.sample(range(inst.m), rand.randint(0, inst.m))):
            covered, union = 0, np.zeros(rows.shape[1], np.uint64)
            for i in chosen:
                covered |= masks[i]
                union |= rows[i]
            counts = np.bitwise_count(rows | union).sum(axis=1)
            for steps in range(inst.m - len(chosen) + 1):
                picks, gains, after = greedy_on_rows(rows, union, chosen, steps, counts)
                want = eager_extend(masks, [i in chosen for i in range(inst.m)], covered, steps)
                assert (picks, gains, int.from_bytes(after.tobytes(), "little")) == want
            assert int.from_bytes(union.tobytes(), "little") == covered


def test_packed_row_greedy_ties_and_zero_gains():
    masks = [0b011, 0b110, 0b011, 0b000, 0b110]
    rows = rows_of(masks)
    picks, gains, union = greedy_on_rows(rows, np.zeros(1, np.uint64), [], 5, np.bitwise_count(rows).sum(axis=1))
    assert (picks, gains, int(union[0])) == eager_extend(masks, [False] * 5, 0, 5)
    assert picks == [0, 1, 2, 3, 4] and gains == [2, 1, 0, 0, 0]


def mask_greedy_cover(inst):
    """(picks, gains, uncovered after each pick) of the greedy on the masks."""
    picks, gains, _ = eager_extend(set_masks(inst), [False] * inst.m, 0, inst.effective_budget)
    return tuple(picks), tuple(gains), tuple(inst.n - sum(gains[: i + 1]) for i in range(len(gains)))


def mask_greedy_then_exact(inst, x, ceiling):
    """(chosen, covered, leaves scanned) of greedy_then_exact with its greedy
    on the masks and its residual search on the kernel, at every size."""
    masks = set_masks(inst)
    x_eff = min(x, inst.effective_budget)
    taken = [False] * inst.m
    picks, _, covered = eager_extend(masks, taken, 0, x_eff)
    remaining = [i for i in range(inst.m) if not taken[i]]
    scored = [masks[i] & ~covered for i in remaining]
    combo, residual, scanned = best_fixed_size_subset(rows_of(scored), inst.effective_budget - x_eff, ceiling)
    return tuple(sorted(picks + [remaining[j] for j in combo])), covered.bit_count() + residual, scanned


def greedy_edge_cases():
    """n = 0, m = 0, k > m, duplicate sets, zero-gain tails, and every
    builder's instance."""
    return [make() for make in SOURCES] + [
        Instance(0, ((), ()), 1),
        Instance(3, (), 2),
        parse_instance("p maxcover 3 0 2\n"),
        Instance.of(4, [[1, 2], [3]], 5),
        Instance.of(4, [[1, 2], [1, 2], [3], [3], [1, 2], [4]], 5),
        Instance.of(3, [[1], [1], [], [2], [1, 2], []], 6),
        Instance.of(5, [[], [], [1, 2, 3, 4, 5], [1]], 3),
    ]


def test_row_greedy_equals_the_mask_greedy(monkeypatch):
    # Approval-shaped: the first pick newly covers about 3 600 voters, whose
    # owners take many blocks; the small budgets cut blocks at every size.
    approval = load_instance_text(approval_text(random.Random(12), 100, 12000, 10, 40, lo=20))
    cases = greedy_edge_cases() + batch(9, 60) + tight_instances() + [approval, gen_random(3000, 200, 60, 3, 5)]
    for budget in (_BLOCK_BYTES, 32, 1):
        monkeypatch.setattr(greedy, "_BLOCK_BYTES", budget)
        for inst in cases:
            picks, gains, after = mask_greedy_cover(inst)
            sol, trace = greedy_cover(inst)
            assert (trace.picks, trace.marginal_gains, trace.uncovered_after) == (picks, gains, after)
            assert (sol.chosen, sol.covered, sol.uncovered) == (tuple(sorted(picks)), sum(gains), inst.n - sum(gains))


def test_greedy_then_exact_keeps_its_residual_scan_counts():
    cases = greedy_edge_cases() + batch(10, 60) + tight_instances()
    cases.append(load_instance_text(approval_text(random.Random(13), 40, 3000, 3, 12)))
    sizes = set()
    for inst in cases:
        for x in range(inst.k + 1):
            sizes.add(inst.effective_budget - min(x, inst.effective_budget))
            for ceiling in (10**8, inst.m - 1, 0):
                try:
                    want = mask_greedy_then_exact(inst, x, ceiling)
                except EnumerationCeilingError as err:
                    with pytest.raises(EnumerationCeilingError, match=f"^{err}$"):
                        greedy_then_exact(inst, x, ceiling)
                    continue
                report = greedy_then_exact(inst, x, ceiling)
                assert (report.solution.chosen, report.solution.covered, report.combos_scanned) == want
                assert report.solution.uncovered == inst.n - want[1]
    assert {0, 1, 2} <= sizes


def test_greedy_solves_build_no_tuples_and_no_masks(monkeypatch, tmp_path):
    maxcover_doc = serialize_instance(gen_random(300, 40, 6, 3, 2))
    for text in (maxcover_doc, approval_text(random.Random(17), 30, 400, 4, 8)):
        doc, report = tmp_path / "doc.txt", tmp_path / "report.json"
        doc.write_text(text)
        k = load_instance_text(text).k
        for name in ("_tuples", "_pack_rows"):
            monkeypatch.setattr(core, name, lambda *a, name=name: pytest.fail(f"called {name}"))
        for alg in (["greedy"], ["greedy-exact", "--x", str(k - 1)]):
            assert main(["solve", "--alg", *alg, "--in", str(doc), "--out", str(report)]) == 0
            assert main(["verify", "--in", str(doc), "--sol", str(report)]) == 0
        monkeypatch.undo()
        assert json.loads(report.read_text())["chosen"]


def test_row_greedy_stays_within_one_block_of_owners():
    # Beyond one block of owner temporaries, the greedy holds the covered
    # flags, the gains, and a few int64 arrays as long as the longest row.
    approval = load_instance_text(approval_text(random.Random(12), 100, 12000, 10, 40, lo=20))
    parsed = parse_instance(serialize_instance(gen_random(30000, 1200, 40, 3, 0)))
    for inst in (approval, parsed):
        greedy_cover(inst)  # the parsed instance transposes its element rows once
        longest = int(np.diff(inst._ids[1]).max())
        peak, _ = peak_bytes(lambda: greedy_cover(inst))
        assert peak <= _BLOCK_BYTES + 32 * longest + inst.n + 16 * inst.m


def loop_serialize_instance(inst):
    lines = [f"p maxcover {inst.n} {inst.m} {inst.k}"]
    lines += ["s" + "".join(f" {e}" for e in s) for s in inst.sets]
    return "\n".join(lines) + "\n"


def test_serialize_equals_the_per_set_loop(monkeypatch):
    # Small budgets cut the blocks of rows at every size.
    cases = greedy_edge_cases() + batch(11, 40) + tight_instances() + [gen_random(3000, 200, 6, 3, 5)]
    for budget in (_BLOCK_BYTES, 256, 1):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        for inst in cases:
            assert serialize_instance(inst) == loop_serialize_instance(inst)
    parsed = SOURCES[0]()
    serialize_instance(parsed)
    assert "sets" not in parsed.__dict__  # written from the arrays, with no tuples


def mostly_covered(k):
    """Instances where a few picks cover nearly everything, so the sampled
    element is one of a few left: n = 300 with a set holding the run 1..290,
    free elements only at the low or only at the high end of the range,
    elements in no set placed last, and the graph reduction of the complete
    graph on 12 vertices."""
    def run(a, b):
        return list(range(a, b + 1))

    edges = list(combinations(range(1, 13), 2))
    return [
        Instance.of(300, [run(1, 290), [291, 292], run(293, 295), run(296, 300), [5, 6], [290, 291], [1, 300]], k),
        Instance.of(300, [run(20, 300), [1, 2], run(3, 5), run(6, 10), run(11, 19), [15, 25]], k),
        Instance.of(300, [run(1, 280), run(281, 285), [286, 287], run(288, 300), [279, 281]], k),
        Instance.of(300, [run(1, 150), run(151, 290), run(1, 10), [150, 151]], k),
        graph_to_maxvertexcover(12, edges, k),
    ]


@pytest.mark.parametrize("seed", [0, 5])
def test_select_sampling_equals_list_rebuild(seed):
    for inst in batch(3 + seed, 30) + [inst for k in range(1, 5) for inst in mostly_covered(k)]:
        run = randomized_min_noncovered(inst, max(frequency_profile(inst).p_max, 1), 2.0, 0.3, seed)
        per_rep, (chosen, uncovered), draws = rebuilding_min_noncovered(inst, run.repetitions, seed)
        assert run.per_rep_uncovered == per_rep
        assert (run.best.chosen, run.best.uncovered) == (chosen, uncovered)
        assert run.samples == draws


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
            chosen, covered, scanned = best_fixed_size_subset(core._set_rows(inst), size)
            ref_chosen, ref_covered, ref_scanned = full_scan(masks, size)
            assert (chosen, covered) == (ref_chosen, ref_covered)
            assert 1 <= scanned <= ref_scanned


def test_pruned_kernel_on_duplicates_and_size_edges():
    masks = [0b0110, 0b0110, 0b1001, 0b0110, 0b1001, 0b0001]
    for size in range(len(masks) + 3):
        chosen, covered, scanned = best_fixed_size_subset(rows_of(masks), size)
        assert (chosen, covered) == full_scan(masks, size)[:2]
        assert scanned <= full_scan(masks, size)[2]
    assert best_fixed_size_subset(rows_of(masks), 0) == ((), 0, 1)
    assert best_fixed_size_subset(rows_of(masks), 9) == ((0, 1, 2, 3, 4, 5), 4, 1)
    assert best_fixed_size_subset(rows_of([]), 3) == ((), 0, 1)


def test_pruned_kernel_stops_at_the_first_full_cover():
    # (0, 2) is the first pair covering all four elements; the scan must stop
    # there and never see the later full covers (0, 4), (1, 3) or (3, 4).
    masks = [0b0011, 0b0100, 0b1100, 0b1011, 0b1100]
    chosen, covered, scanned = best_fixed_size_subset(rows_of(masks), 2)
    assert (chosen, covered) == ((0, 2), 4) == full_scan(masks, 2)[:2]
    assert scanned <= full_scan(masks, 2)[2] == 2
    # Single picks: the first set holding every element ends the scan at once.
    assert best_fixed_size_subset(rows_of([0b01, 0b11, 0b11]), 1) == ((1,), 2, 2)


def row_width_cases(rand):
    """Mask families at and around the 64-bit word boundaries: random masks,
    all-zero masks, a single non-empty mask, and masks far narrower than the
    widest one."""
    for n in (1, 63, 64, 65, 127, 128, 129):
        full = (1 << n) - 1
        yield [rand.getrandbits(n) for _ in range(rand.randint(2, 8))]
        yield [rand.getrandbits(n) & rand.getrandbits(n) for _ in range(7)]
        yield [0] * 5
        yield [0, 0, full, 0]
        yield [1 << (n - 1)]
        wide = [full, 1 << (n - 1)]
        narrow = [rand.getrandbits(max(1, n // 3)) for _ in range(5)]
        yield narrow[:2] + wide[:1] + narrow[2:] + wide[1:]


def test_kernel_equals_the_int_kernel():
    rand = random.Random(10)
    families = [inst for inst, _, _ in bounded_families(10)] + tight_instances() + batch(4, 80)
    cases = [(set_masks(inst), core._set_rows(inst), inst.k) for inst in families]
    cases += [(masks, rows_of(masks), 2) for masks in row_width_cases(rand)]
    for masks, rows, k in cases:
        m = len(masks)
        for size in {1, 2, k, m - 1, m}:
            assert best_fixed_size_subset(rows, size) == int_kernel(masks, size, most_holders(masks))


def test_frequency_count_equals_the_bit_loop():
    # Past 2 040 rows a block holds more rows than a byte counts.
    rand = random.Random(12)
    for m in (1, 2, 9, 255, 256, 2100):
        masks = [rand.getrandbits(130) | 1 for _ in range(m)]
        rows = np.frombuffer(b"".join(mask.to_bytes(24, "little") for mask in masks), "<u8").reshape(m, 3)
        assert _most_holders(rows) == most_holders(masks)


def test_pruned_kernel_skips_most_subsets_of_a_random_instance():
    inst = gen_random(600, 30, 4, 2, 0)
    result = brute_force(inst)
    assert (result.solution.chosen, result.opt) == full_scan(set_masks(inst), inst.k)[:2]
    assert result.subsets_scanned * 10 < math.comb(inst.m, inst.k)


def test_fpt_pool_search_equals_full_scan_of_its_pool():
    for inst, p, beta in bounded_families(8):
        sol, plan = fpt_approx(inst, p, beta)
        pool = sorted(plan.pool)
        masks = set_masks(inst)
        combo, covered, _ = full_scan([masks[i] for i in pool], inst.k)
        assert (sol.chosen, sol.covered) == (tuple(pool[j] for j in combo), covered)
        assert sol.uncovered == inst.n - covered


def test_pruned_hybrid_equals_every_prefix_scan():
    for inst in batch(5, 60) + tight_instances():
        for x in range(inst.k + 1):
            report = exact_then_greedy(inst, x)
            chosen, covered, finished = every_prefix_then_greedy(inst, x)
            assert (report.solution.chosen, report.solution.covered) == (chosen, covered)
            assert 1 <= report.combos_scanned <= finished


def test_hybrid_equals_its_recursive_form():
    # The exhaustive-small rand-m40 and rand-m60 documents of seeds 0 and 11,
    # and its tight-fpt documents, whose narrow rows reach children with one
    # pick left, which are bounded by their own unions.
    shapes = [gen_random(2000, 40, 5, 2, s) for s in (0, 11000)]
    shapes += [gen_random(2000, 60, 4, 3, s) for s in (1, 11001)]
    shapes += [gen_tight_fpt(TightFptSpec(p=2, k=4, beta=beta)) for beta in (0.5, 0.75)]
    for inst in batch(5, 60) + tight_instances() + shapes:
        for x in range(inst.k + 1):
            report = exact_then_greedy(inst, x)
            got = (report.solution.chosen, report.solution.covered, report.combos_scanned)
            assert got == recursive_exact_then_greedy(inst, x), x


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


def kept_bytes(inst):
    return sum(a.nbytes for a in inst._ids)


def test_approval_load_peak_stays_within_the_appending_reduction():
    # Shaped like the benchmark's approval-12k document. The reference parses
    # the same text with the per-token loop, which keeps no id arrays, and
    # reduces as the appending loop did. The load may hold more than that
    # only by the id arrays its instance keeps and one block of temporaries.
    text = approval_text(random.Random(12), 100, 12000, 10, 40, lo=20)
    reference, _ = peak_bytes(lambda: appended_election_to_maxcover(ApprovalElection(*loop_parse_election(text))))
    peak, _ = peak_bytes(lambda: load_instance_text(text))
    assert peak <= reference + kept_bytes(load_instance_text(text)) + _BLOCK_BYTES


def test_approval_load_peak_stays_within_parse_and_reduction():
    # The reference is the route the load replaced: the reader's arrays
    # reduced with no election. The load may hold more than that only by its
    # election object and the election's dict.
    text = approval_text(random.Random(12), 100, 12000, 10, 40, lo=20)
    reference, _ = peak_bytes(lambda: core._reduce(*core._read_id_document(text, "approval")))
    peak, _ = peak_bytes(lambda: load_instance_text(text))
    assert peak <= reference + 4096


def test_cli_approval_load_builds_no_ballot_tuples(monkeypatch, tmp_path):
    text = approval_text(random.Random(16), 30, 400, 4, 8)
    election = ApprovalElection(*loop_parse_election(text))
    expected = Instance(election.num_voters, appended_election_to_maxcover(election), election.committee_size)
    doc, report = tmp_path / "election.txt", tmp_path / "report.json"
    doc.write_text(text)
    built = []
    unchecked = core._unchecked
    monkeypatch.setattr(core, "_unchecked", lambda cls, *a, **kw: built.append(cls) or unchecked(cls, *a, **kw))
    monkeypatch.setattr(ApprovalElection, "__post_init__", lambda self: pytest.fail("checked an election"))
    monkeypatch.setattr(core, "_tuples", lambda *a: pytest.fail("built ballot tuples"))
    inst = load_instance_text(text)
    assert main(["solve", "--alg", "greedy", "--in", str(doc), "--out", str(report)]) == 0
    assert main(["verify", "--in", str(doc), "--sol", str(report)]) == 0
    assert ApprovalElection in built
    monkeypatch.undo()
    assert inst == expected


def test_mask_build_peak_stays_within_the_flag_row_build():
    # Shaped like the benchmark's rand-30k document, parsed, and generated;
    # both keep their id arrays from the start, and the sets are read before
    # the reference runs. Beyond the masks, the reference holds a row of n
    # flags, and a build one block. A fresh set_masks builds the rows, keeps
    # them, and reads the masks from them, so it holds both: the rows, no
    # larger than the masks, come on top of the reference.
    text = serialize_instance(gen_random(30000, 1200, 40, 3, 0))
    for fresh in (lambda: parse_instance(text), lambda: gen_random(30000, 1200, 40, 3, 0)):
        inst, other = fresh(), fresh()
        inst.sets
        reference, _ = peak_bytes(lambda: flag_row_masks(inst.n, inst.sets))
        rows_bytes = inst.m * 8 * -(-inst.n // 64)
        peak, _ = peak_bytes(lambda: set_masks(inst))
        assert peak <= reference + rows_bytes + 8 * inst.m + _BLOCK_BYTES
        # With the rows kept, a call reads only the masks.
        peak, _ = peak_bytes(lambda: set_masks(inst))
        assert peak <= reference + 8 * inst.m + _BLOCK_BYTES
        peak, _ = peak_bytes(lambda: core._set_rows(other))
        assert peak <= reference + _BLOCK_BYTES


# ---------------------------------------------------------------------------
# Document load against the per-token and per-element loops.
# ---------------------------------------------------------------------------

def loop_significant_lines(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield ln, line


def loop_read_ids(tag, what, out_of_range, tokens, ln, bound):
    if tokens[0] != tag:
        raise ParseError(f"expected a {what} line starting with '{tag}', got '{tokens[0]}'", ln)
    ids = set()
    for t in tokens[1:]:
        try:
            e = int(t)
        except ValueError:
            raise ParseError(f"non-numeric token '{t}'", ln) from None
        if not 0 < e <= bound:
            raise ParseError(out_of_range(e, bound), ln)
        ids.add(e)
    return tuple(sorted(ids))


def loop_read_records(text, kind, what, read_record):
    lines = loop_significant_lines(text)
    a, b, k = _parse_header(lines, kind)
    records = []
    for i in range(b):
        try:
            ln, line = next(lines)
        except StopIteration:
            raise ParseError(f"expected {b} {what} lines, found {i}") from None
        records.append(read_record(line.split(), ln, a))
    for ln, line in lines:
        raise ParseError(f"unexpected content '{line}'", ln)
    return a, b, tuple(records), k


loop_read_set = partial(
    loop_read_ids, "s", "set",
    lambda e, n: f"element id {e} must be at least 1" if e < 1 else f"element id {e} exceeds n={n}",
)
loop_read_ballot = partial(
    loop_read_ids, "v", "ballot", lambda c, bound: f"candidate id {c} out of range [1, {bound}]"
)


def loop_check_instance(n, sets, k):
    """The former per-id loop of ``Instance.__post_init__``, which the array
    check replaced; returns its fields."""
    if n < 0:
        raise ValueError(f"universe size must be nonnegative, got {n}")
    if k < 0:
        raise ValueError(f"budget must be nonnegative, got {k}")
    for idx, s in enumerate(sets):
        prev = 0
        for e in s:
            if not isinstance(e, numbers.Integral):
                raise ValueError(f"element id {e} is not an integer in set {idx}")
            if e < 1:
                raise ValueError(f"element id {e} must be at least 1 in set {idx}")
            if e <= prev:
                raise ValueError(f"set {idx} is not strictly increasing")
            if e > n:
                raise ValueError(f"element id {e} exceeds n={n} in set {idx}")
            prev = e
    return n, sets, k


def loop_check_election(num_candidates, num_voters, approvals, committee_size):
    """The former per-id loop of ``ApprovalElection.__post_init__``, which
    the array check replaced; returns its fields."""
    if min(num_candidates, num_voters, committee_size) < 0:
        raise ValueError("election counts must be nonnegative")
    if len(approvals) != num_voters:
        raise ValueError(f"expected {num_voters} ballots, got {len(approvals)}")
    for voter, ballot in enumerate(approvals, start=1):
        prev = 0
        for c in ballot:
            if not isinstance(c, numbers.Integral):
                raise ValueError(f"voter {voter} approves non-integer candidate {c}")
            if not 1 <= c <= num_candidates:
                raise ValueError(f"voter {voter} approves unknown candidate {c}")
            if c <= prev:
                raise ValueError(f"ballot of voter {voter} is not strictly increasing")
            prev = c
    return num_candidates, num_voters, approvals, committee_size


def loop_parse_instance(text):
    n, _, sets, k = loop_read_records(text, "maxcover", "set", loop_read_set)
    return loop_check_instance(n, sets, k)


def loop_parse_election(text):
    return loop_check_election(*loop_read_records(text, "approval", "ballot", loop_read_ballot))


def loop_election_to_maxcover(election):
    supporters = [[] for _ in range(election.num_candidates)]
    for voter, ballot in enumerate(election.approvals, start=1):
        for c in ballot:
            supporters[c - 1].append(voter)
    return Instance.of(election.num_voters, supporters, election.committee_size)


def loop_frequency_profile(inst):
    counts = [0] * inst.n
    for s in inst.sets:
        for e in s:
            counts[e - 1] += 1
    if counts:
        return tuple(counts), min(counts), max(counts)
    return (), 0, 0


def outcome(fn, *args):
    """("ok", value) or (error type, message)."""
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


def instance_fields(inst):
    return inst.n, inst.sets, inst.k


def election_fields(e):
    return e.num_candidates, e.num_voters, e.approvals, e.committee_size


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def mutate_line(rand, tag, line, bound):
    """A record line made non-canonical, out of range or malformed, as the
    lines that replace it (none drops it, two insert one before it)."""
    head, *ids = line.split(" ")
    pos = rand.randint(0, len(ids))
    j = rand.randrange(len(ids)) if ids else None
    kind = rand.randrange(22)
    if kind == 0:
        ids.insert(pos, rand.choice(["0", "-1", "-0", "+0", f"-{bound}"]))
    elif kind == 1:
        ids.insert(pos, rand.choice([str(bound + 1), str(bound + 10**6), "999999999"]))
    elif kind == 2:
        ids.insert(pos, str(rand.randint(1, max(bound, 1))).zfill(rand.randint(10, 14)))
    elif kind == 3:
        ids.insert(pos, "9" * rand.randint(10, 30))
    elif kind == 4:
        return [tag]
    elif kind == 5 and ids:
        return [tag + " ".join(ids)]  # "v1 2": the tag glued to the first id
    elif kind == 6:
        return []
    elif kind == 7:
        sep = rand.choice(["\x1c", "　", "\t", "\x0b", "\x0c", "\xa0", "  "])
        return [line.replace(" ", sep, rand.randint(1, 3))]
    elif kind == 8 and ids:
        ids[j] = "+" + ids[j]
    elif kind == 9 and ids and len(ids[j]) > 1:
        ids[j] = ids[j][0] + "_" + ids[j][1:]
    elif kind == 10 and ids:
        ids[j] = ids[j].translate(FULLWIDTH)
    elif kind == 11 and ids:
        rand.shuffle(ids)
    elif kind == 12 and ids:
        ids.insert(pos, ids[j])
    elif kind == 13 and ids:
        ids[j] = "00" + ids[j]
    elif kind == 14:
        return [" " * rand.randint(1, 3) + line + " " * rand.randint(0, 3)]
    elif kind == 15:
        ids.insert(pos, rand.choice(["x", "1.0", "0x1", "1e3", "--"]))
    elif kind == 16:
        return [rand.choice(["c note", "", "c", "   ", "c\tnote", "cc", "p maxcover 1 1 1"]), line]
    elif kind == 17:
        return [rand.choice(["s", "v", "e"]) + (" " + " ".join(ids) if ids else "")]
    elif kind == 18 and ids:
        ids[j] = ids[j] + rand.choice(["x", "٣", "\U0001d7ce"])
    elif kind == 19:
        ids.insert(pos, rand.choice(["", " "]))
    elif kind == 20 and ids:
        ids[j] = str(bound).zfill(9) if bound < 10**9 else ids[j]
    elif kind == 21:
        return [line + rand.choice(["\r", "\x1c1", "\x1d", " "])]
    return [" ".join([head, *ids])]


def mutated(rand, text, tag, bound):
    """The document with one to three record lines mutated, maybe a trailing
    line, and LF or CRLF line ends."""
    lines = text.splitlines()
    for _ in range(rand.randint(1, 3)):
        if len(lines) < 2:
            break
        i = rand.randrange(1, len(lines))
        lines[i:i + 1] = mutate_line(rand, tag, lines[i], bound)
    if rand.random() < 0.15:
        lines.append(rand.choice([f"{tag} 1", "x", "c tail", ""]))
    end = rand.choice(["\n", "\r\n"])
    return end.join(lines) + rand.choice([end, ""])


def approval_text(rand, candidates, voters, k, hi, lo=0):
    lines = [f"p approval {candidates} {voters} {k}"]
    for _ in range(voters):
        size = rand.randint(lo, min(hi, candidates))
        lines.append(" ".join(["v", *map(str, sorted(rand.sample(range(1, candidates + 1), size)))]))
    return "\n".join(lines) + "\n"


def maxcover_documents(rand, count):
    docs = []
    for t in range(count):
        p_max = 1 + t % 3
        m = rand.randint(p_max, 15)
        inst = gen_random(rand.randint(1, 80), m, rand.randint(0, 6), p_max, rand.randrange(2**32))
        docs.append((serialize_instance(inst), inst.n))
    return docs


def approval_documents(rand, count):
    docs = []
    for _ in range(count):
        candidates = rand.randint(1, 30)
        docs.append((approval_text(rand, candidates, rand.randint(1, 40), rand.randint(0, 5), 8), candidates))
    return docs


@cache
def long_documents():
    """Documents above the reader's chunk size, with some lines longer than
    a chunk, so that mutations land past chunk boundaries."""
    rand = random.Random(99)
    wide = Instance(12000, (tuple(range(1, 12001)), (), tuple(range(2, 12001, 2))) * 3, 2)
    return [
        (serialize_instance(gen_random(20000, 40, 3, 3, 1)), 20000, "s"),
        (serialize_instance(wide), 12000, "s"),
        (approval_text(rand, 60, 6000, 5, 30), 60, "v"),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_reader_equals_token_loop(seed):
    rand = random.Random(seed)
    cases = [(text, bound, "s") for text, bound in maxcover_documents(rand, 120)]
    cases += [(text, bound, "v") for text, bound in approval_documents(rand, 120)]
    for text, bound, tag in cases:
        for doc in [text] + [mutated(rand, text, tag, bound) for _ in range(4)]:
            if tag == "s":
                got = outcome(lambda d: instance_fields(parse_instance(d)), doc)
                assert got == outcome(loop_parse_instance, doc), repr(doc)
            else:
                got = outcome(lambda d: election_fields(parse_election(d)), doc)
                assert got == outcome(loop_parse_election, doc), repr(doc)


def test_record_reader_equals_token_loop_past_chunk_boundaries():
    rand = random.Random(5)
    for text, bound, tag in long_documents():
        parse, loop, fields = (
            (parse_instance, loop_parse_instance, instance_fields) if tag == "s"
            else (parse_election, loop_parse_election, election_fields)
        )
        for doc in [text] + [mutated(rand, text, tag, bound) for _ in range(6)]:
            assert outcome(lambda d: fields(parse(d)), doc) == outcome(loop, doc)


def verify_outcome(monkeypatch, capsys, text, chosen, covered, uncovered):
    """(exit code, stdout, stderr) of ``verify`` on the text and a report
    naming the 0-based ``chosen`` sets."""
    report = json.dumps({"chosen": [i + 1 for i in chosen], "covered": covered, "uncovered": uncovered})
    monkeypatch.setattr(cli, "_read", {"document": text, "report": report}.__getitem__)
    code = main(["verify", "--in", "document", "--sol", "report"])
    return (code, *capsys.readouterr())


VERIFY_DOCUMENTS = [
    "p maxcover 0 2 1\ns\ns\n",  # n = 0, empty sets
    "p maxcover 5 0 1\n",  # m = 0
    "p maxcover 4 3 0\ns 1 2\ns\ns 4\n",  # k = 0
    "p maxcover 9 3 2\ns 9 +3 007\ns\t8 8 1\ns 2 ３\n",  # lines the array pass hands to _read_ids
    "p approval 0 3 0\nv\nv\nv\n",  # no candidates, k = 0
    "p approval 3 0 2\n",  # no voters
    "p approval 4 5 2\nv\nv 1 3\nv\nv 4\nv\n",  # voters who approve nothing, first and last; nobody approves 2
    "p approval 5 4 3\nv +2 007\nv\t3 1\nv ４ 4\nv 5 5\n",
]


def loop_load(text):
    """The CLI's instance of a maxcover or approval document, by the
    per-token loops and the appending reduction."""
    if text.split()[1] == "maxcover":
        return Instance(*loop_parse_instance(text))
    return loop_election_to_maxcover(ApprovalElection(*loop_parse_election(text)))


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_recount_equals_set_union(monkeypatch, capsys, seed):
    rand = random.Random(20 + seed)
    docs = list(VERIFY_DOCUMENTS)
    cases = [(text, bound, "s") for text, bound in maxcover_documents(rand, 20)]
    cases += [(text, bound, "v") for text, bound in approval_documents(rand, 20)]
    for text, bound, tag in cases:
        docs += [text] + [mutated(rand, text, tag, bound) for _ in range(2)]
    recounted = 0
    for text in docs:
        try:
            inst = loop_load(text)
        except ParseError as err:
            assert verify_outcome(monkeypatch, capsys, text, [], 0, 0) == (1, "", f"error: {err}\n")
            continue
        recounted += 1
        budget = min(inst.k, inst.m)
        for chosen in [[]] + [rand.sample(range(inst.m), rand.randint(0, budget)) for _ in range(3)]:
            c, n = union_coverage(inst, chosen), inst.n
            assert verify_outcome(monkeypatch, capsys, text, chosen, c, n - c) == \
                (0, f"ok: {len(chosen)} sets cover {c}/{n} elements\n", "")
            assert verify_outcome(monkeypatch, capsys, text, chosen, c, n - c + 1) == (2, "", (
                f"mismatch: recounted covered={c} uncovered={n - c}, "
                f"report says covered={c} uncovered={n - c + 1}\n"
            ))
    assert recounted > len(docs) // 2


def mutated_sets(rand, sets, bound):
    """Rows with one id moved out of range, repeated, swapped or made huge."""
    rows = [list(s) for s in sets]
    for _ in range(rand.randint(0, 2)):
        i = rand.randrange(len(rows))
        row = rows[i]
        pos = rand.randint(0, len(row))
        kind = rand.randrange(6)
        if kind == 0:
            row.insert(pos, rand.choice([0, -1, -(2**70)]))
        elif kind == 1:
            row.insert(pos, rand.choice([bound + 1, bound + 2**40, 2**70]))
        elif kind == 2 and row:
            row.insert(pos, row[rand.randrange(len(row))])
        elif kind == 3 and len(row) > 1:
            a, b = rand.sample(range(len(row)), 2)
            row[a], row[b] = row[b], row[a]
        elif kind == 4 and row:
            row[rand.randrange(len(row))] = np.int64(row[0])
        elif kind == 5:
            rows[i] = []
    return tuple(tuple(r) for r in rows)


def test_instance_check_equals_element_loop():
    rand = random.Random(7)
    cases = [(0, ((), ()), 1), (3, (), 0), (-1, ((1,),), 1), (2, ((1,),), -1), (2**70, ((1, 2**69),), 0),
             (4, ((1.5, 2.5),), 1), (4, ((4.5,),), 1), (4, ((0.5,),), 1),
             # Faults in two rows, where the earlier row's wins.
             (5, ((1, 9), (0,)), 1), (5, ((2, 1), (1.5,)), 1), (5, ((1,), (3, 3), (0,)), 1),
             (4, ((1, 7, 2.5),), 1), (4, ((0, 1.5),), 1), (4, ((-(2**70), 1.5),), 1),
             (4, ((np.uint64(2**64 - 1),),), 1), (4, ((1, np.uint64(2**64 - 1)),), 1),
             (3, ((True, 2), (False,)), 1), (1, ((True,),), 1), (3, ((True, True),), 1),
             (2**70, ((1, 2**69, 2**70), (), (5,)), 1), (2**70, ((2**69, 2**69),), 1), (0, (), 0)]
    for inst in batch(8, 60) + [gen_random(30000, 20, 3, 3, 2)]:
        for _ in range(4):
            cases.append((inst.n, mutated_sets(rand, inst.sets, inst.n), inst.k))
    for n, sets, k in cases:
        assert outcome(lambda *a: instance_fields(Instance(*a)), n, sets, k) == \
            outcome(loop_check_instance, n, sets, k)


def test_election_check_equals_element_loop():
    rand = random.Random(8)
    cases = [(0, 0, (), 0), (2, 1, ((),), 0), (-1, 0, (), 0), (2, 2, ((1,),), 0), (3, 1, ((1.5, 2.5),), 1),
             # Faults in two ballots, where the earlier ballot's wins.
             (3, 2, ((1, 5), (0,)), 1), (3, 3, ((2,), (2, 1), (1.5,)), 1), (3, 2, ((1,), (3, 3)), 1),
             (3, 1, ((1, 7, 2.5),), 1), (3, 1, ((0, 1.5),), 1), (3, 1, ((-(2**70), 1.5),), 1),
             (3, 1, ((np.uint64(2**64 - 1),),), 1), (3, 1, ((1, np.uint64(2**64 - 1)),), 1),
             (2, 2, ((True, 2), (False,)), 1), (1, 1, ((True,),), 1), (2, 1, ((True, True),), 1),
             (2**70, 3, ((1, 2**69), (), (2**70,)), 1), (2**70, 1, ((2**69, 2**69),), 1), (5, 0, (), 2)]
    for candidates, text in [(c, t) for t, c in approval_documents(rand, 60)] + [(60, long_documents()[2][0])]:
        election = parse_election(text)
        for _ in range(4):
            ballots = mutated_sets(rand, election.approvals, candidates) if election.approvals else ()
            cases.append((candidates, election.num_voters, ballots, election.committee_size))
    for args in cases:
        assert outcome(lambda *a: election_fields(ApprovalElection(*a)), *args) == \
            outcome(loop_check_election, *args)


def test_reductions_and_profile_equal_loops():
    rand = random.Random(9)
    texts = [text for text, _ in approval_documents(rand, 60)] + [
        approval_text(rand, 5, 0, 1, 3), approval_text(rand, 40, 3, 1, 0), long_documents()[2][0],
    ]
    for text in texts:
        election = parse_election(text)
        inst = election_to_maxcover(election)
        assert inst == loop_election_to_maxcover(election)
        # One int object per voter, shared by every set the voter supports.
        assert len({id(v) for s in inst.sets for v in s}) == len({v for s in inst.sets for v in s})
        profile = frequency_profile(inst)
        assert (profile.freq, profile.p_min, profile.p_max) == loop_frequency_profile(inst)
    for inst in batch(10, 60) + [Instance(0, (), 0), Instance(5, ((),), 1), gen_random(30000, 20, 3, 3, 3)]:
        profile = frequency_profile(inst)
        assert (profile.freq, profile.p_min, profile.p_max) == loop_frequency_profile(inst)
        assert all(type(f) is int for f in profile.freq + (profile.p_min, profile.p_max))


def test_graph_reduction_equals_sorting_build():
    rand = random.Random(11)
    for _ in range(60):
        vertices = rand.randint(2, 20)
        seen = set()
        for _ in range(rand.randint(0, min(40, vertices * (vertices - 1) // 2))):
            u, v = rand.sample(range(1, vertices + 1), 2)
            seen.add((u, v) if (v, u) not in seen else (v, u))
        edges = list(seen)
        rand.shuffle(edges)
        incident = [[] for _ in range(vertices)]
        for eid, (u, v) in enumerate(edges, start=1):
            incident[u - 1].append(eid)
            incident[v - 1].append(eid)
        k = rand.randint(0, 4)
        assert graph_to_maxvertexcover(vertices, edges, k) == Instance.of(len(edges), incident, k)
        assert graph_to_maxvertexcover(vertices, iter(edges), k) == Instance.of(len(edges), incident, k)


# ---------------------------------------------------------------------------
# Graph documents against the per-token loop and the edge loop with a seen
# set; the reader at every block size; canonical lines never read on their own.
# ---------------------------------------------------------------------------

def loop_read_edge(tokens, ln, num_vertices):
    if tokens[0] != "e" or len(tokens) != 3:
        raise ParseError("expected an edge line 'e <u> <v>'", ln)
    ends = []
    for t in tokens[1:]:
        try:
            ends.append(int(t))
        except ValueError:
            raise ParseError(f"non-numeric token '{t}'", ln) from None
    for w in ends:
        if not 1 <= w <= num_vertices:
            raise ParseError(f"vertex id {w} out of range [1, {num_vertices}]", ln)
    return tuple(ends)


def loop_parse_graph(text):
    num_vertices, _, edges, k = loop_read_records(text, "graph", "edge", loop_read_edge)
    return num_vertices, edges, k


def loop_graph_to_maxvertexcover(num_vertices, edges, k):
    """The instance of the edge loop that the array checks replaced."""
    incident = [[] for _ in range(num_vertices)]
    seen = set()
    for eid, (u, v) in enumerate(edges, start=1):
        for w in (u, v):
            if not 1 <= w <= num_vertices:
                raise ValueError(f"edge {eid} endpoint {w} out of range [1, {num_vertices}]")
        if u == v:
            raise ValueError(f"edge {eid} is a self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key} at position {eid}")
        seen.add(key)
        incident[u - 1].append(eid)
        incident[v - 1].append(eid)
    return Instance.of(len(edges), incident, k)


def load_outcome(load, text):
    """("ok", the instance's fields) or (error type, message, line)."""
    try:
        return "ok", instance_fields(load(text))
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "line", None)


def loop_graph_load(text):
    return loop_graph_to_maxvertexcover(*loop_parse_graph(text))


def graph_load(text):
    g = parse_graph(text)
    return graph_to_maxvertexcover(g.num_vertices, g.edges, g.k)


def assert_graph_loads_equal_loops(text):
    want = load_outcome(loop_graph_load, text)
    assert load_outcome(graph_load, text) == want, repr(text)
    assert load_outcome(load_instance_text, text) == want, repr(text)


def graph_text(rand, vertices, edges, k):
    lines = [f"p graph {vertices} {edges} {k}"]
    seen = set()
    while len(seen) < edges:
        u, v = rand.sample(range(1, vertices + 1), 2)
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def mutated_graph(rand, text, vertices):
    """The document with an edge line made a self-loop or a repeat of an
    earlier edge, either way round, and then maybe ``mutated``."""
    lines = text.splitlines()
    if len(lines) > 2 and rand.random() < 0.6:
        i = rand.randrange(2, len(lines))
        u, v = lines[rand.randrange(1, i)].split()[1:]
        lines[i] = rand.choice([f"e {v} {u}", f"e {u} {v}", f"e {u} {u}", f"e {v}  {v}"])
        text = "\n".join(lines) + "\n"
    return mutated(rand, text, "e", vertices) if rand.random() < 0.7 else text


GRAPH_DOCUMENTS = [
    "p graph 3 2 1\ne 1 2\ne 3 3\n",  # a self-loop
    "p graph 3 3 1\ne 1 2\ne 2 3\ne 2 1\n",  # a repeat, the other way round
    "p graph 4 3 1\ne 1 4\ne 2 2\ne 4 1\n",  # a self-loop before a repeat
    "p graph 3 1 1\ne 1\n",
    "p graph 3 1 1\ne 1 2 3\n",
    "p graph 3 1 1\ne\n",
    "p graph 3 2 1\ne 0000000001 2\ne 3 00000000002\n",  # ids of more than nine digits
    "p graph 3 1 1\ne 1 99999999999\n",
    "p graph 3 1 1\ne 0 2\n",
    "p graph 3 1 1\ne 1 4\n",
    "p graph 3 1 1\ne -1 2\n",
    "p graph 3 1 1\ne x 9\n",
    "p graph 3 1 1\ne 1 2.0\n",
    "p graph 3 2 1\ne +1 ３\ne 1_0 2\n",
    "p graph 3 1 1\ne1 2\n",
    "c a graph\r\np graph 3 2 1\r\n\r\ne 1 2\r\nc\r\n  e 2 3  \r\nc tail\r\n",  # comments, blank lines, CRLF
    "p graph 3 2 1\ne 1 2\ne 2 3\ne 1 3\n",
    "p graph 0 0 0\n",
    "p graph 5 0 2\nc no edges\n",
]


@pytest.mark.parametrize("seed", [0, 1])
def test_graph_load_equals_token_and_edge_loops(seed):
    rand = random.Random(40 + seed)
    docs = list(GRAPH_DOCUMENTS)
    for _ in range(120):
        vertices = rand.randint(2, 30)
        text = graph_text(rand, vertices, rand.randint(0, min(40, vertices * (vertices - 1) // 2)), rand.randint(0, 4))
        docs += [text] + [mutated_graph(rand, text, vertices) for _ in range(3)]
    long = graph_text(rand, 3000, 9000, 5)  # longer than one block
    assert len(long) > core._READ_BYTES
    docs += [long] + [mutated_graph(rand, long, 3000) for _ in range(4)]
    for text in docs:
        assert_graph_loads_equal_loops(text)


def line_break_documents():
    """Documents of every kind whose lines end in each line break of
    ``str.splitlines``, with a comment, a blank line and maybe a tail, and
    with each line break inside a comment line, before a record."""
    heads = [("p maxcover 3 2 1", "s 1 2", "s 3"), ("p approval 3 2 1", "v 3 1", "v 2"), ("p graph 3 2 1", "e 1 2", "e 3 1")]
    docs = [head + br + first + br + "c" + br + br + second + tail
            for head, first, second in heads for br in LINE_BREAKS for tail in ("", br, br + "s 2", br + "x")]
    return docs + [f"{head}\n{first}\nc x{br}{second}\n" for head, first, second in heads for br in LINE_BREAKS]


def assert_load_equals_loops(text):
    kind = text.split()[1]
    if kind == "graph":
        assert_graph_loads_equal_loops(text)
    elif kind == "maxcover":
        assert outcome(lambda d: instance_fields(parse_instance(d)), text) == outcome(loop_parse_instance, text)
    else:
        assert outcome(lambda d: election_fields(parse_election(d)), text) == outcome(loop_parse_election, text)


@pytest.mark.parametrize("size", [*range(1, 10), 100, 4096])
def test_reader_equals_loops_at_every_block_size(monkeypatch, size):
    # A block of under ten bytes holds a line or two, and costs about as much
    # as a full one, so each such size reads one of the long documents in
    # turn, and every one of them is read at three of those sizes.
    rand = random.Random(50 + size)
    cases = long_documents() if size >= 10 else [long_documents()[size % 3]]
    graph = graph_text(rand, 200, 600, 3)
    docs = [graph, mutated_graph(rand, graph, 200)] + line_break_documents()
    for text, bound, tag in cases:
        docs += [text, mutated(rand, text, tag, bound)]
    monkeypatch.setattr(core, "_READ_BYTES", size)
    for text in docs:
        assert_load_equals_loops(text)


def test_canonical_documents_read_no_line_on_their_own(monkeypatch):
    # Blank lines, comments and CRLF line ends keep a document on the array
    # pass; only the header is read on its own.
    rand = random.Random(60)
    docs = [serialize_instance(gen_random(3000, 40, 5, 3, 4)), approval_text(rand, 30, 2000, 4, 8), graph_text(rand, 300, 2000, 4)]
    docs += [doc.replace("\n", "\r\n", 40).replace("\n", "\n\nc note\n", 3) for doc in docs]
    expected = [load_instance_text(doc) for doc in docs]

    def refuse(*args):
        raise AssertionError(f"a canonical line was read on its own: {args}")

    monkeypatch.setattr(core, "_read_ids", refuse)
    monkeypatch.setattr(core, "_read_edge", refuse)
    for doc, want in zip(docs, expected):
        assert load_instance_text(doc) == want
    with pytest.raises(AssertionError, match="read on its own"):
        load_instance_text(docs[0].replace("\ns ", "\ns\t", 1))


def test_cli_graph_load_builds_no_edge_tuples(monkeypatch):
    text = graph_text(random.Random(61), 300, 2000, 4)
    expected = loop_graph_load(text)
    monkeypatch.setattr(core, "_tuples", lambda *a: pytest.fail("built edge tuples"))
    inst = load_instance_text(text)
    monkeypatch.undo()
    assert inst == expected


def test_no_cli_command_builds_set_tuples(monkeypatch, tmp_path):
    """Every solver, the ``--with-opt`` oracle and ``verify`` read the id
    arrays or the packed rows, on every document kind; none makes tuples."""
    rand = random.Random(28)
    docs = (
        serialize_instance(gen_random(60, 10, 3, 3, 4)),
        approval_text(rand, 8, 60, 3, 4, lo=1),
        graph_text(rand, 12, 30, 3),
    )
    flags = ["--epsilon", "0.5", "--x", "1", "--alpha", "0.05", "--with-opt"]
    doc, out = tmp_path / "doc.txt", tmp_path / "out"
    for text in docs:
        doc.write_text(text)
        monkeypatch.setattr(core, "_tuples", lambda *a: pytest.fail("built tuples"))
        for alg in SOLVERS:
            beta = "2" if alg == "minnc" else "0.5"
            assert main(["solve", "--alg", alg, "--in", str(doc), "--out", str(out), "--beta", beta, *flags]) == 0, (text, alg)
            assert main(["verify", "--in", str(doc), "--sol", str(out)]) == 0, (text, alg)
        for algs, beta in (("exact,greedy,fpt,greedy-exact,exact-greedy,ptas", "0.5"), ("minnc,greedy", "2")):
            assert main(["compare", "--algs", algs, "--in", str(doc), "--out", str(out), "--beta", beta, *flags]) == 0
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# Values the package builds from rows it has checked or constructed itself.
# ---------------------------------------------------------------------------

def rebuilt(value):
    """The value rebuilt through its public constructor, which checks every id."""
    return type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))


def assert_rebuilds(value):
    assert rebuilt(value) == value
    rows = value.sets if isinstance(value, Instance) else value.approvals
    assert all(type(e) is int for row in rows for e in row)


# ---------------------------------------------------------------------------
# Masks and frequency profile against the bit loops, on every source of an
# instance: the parser, the reductions and the public constructors.
# ---------------------------------------------------------------------------

def assert_masks_and_profile_equal_bit_loops(inst):
    masks = [mask_of(s) for s in inst.sets]
    profile = loop_frequency_profile(inst)
    for _ in range(2):  # the second round reads what the first one built
        assert set_masks(inst) == masks
        got = frequency_profile(inst)
        assert (got.freq, got.p_min, got.p_max) == profile
    assert all(type(f) is int for f in got.freq + (got.p_min, got.p_max))


EDGE_DOCUMENTS = [
    "p maxcover 0 2 1\ns\ns\n",  # n = 0, empty sets
    "p maxcover 5 0 1\n",  # m = 0
    "p maxcover 65 4 2\ns 65 1 64\ns 65 65\ns\ns 8 9 7\n",  # unsorted and duplicate ids, id n
    "p maxcover 9 3 1\ns 9 +3 007\ns 8 8 1\ns\t2 ３\n",  # lines the array pass hands to _read_ids
    "p maxcover 63 2 1\ns 63 1\ns 62 63\n",
    "p maxcover 64 2 1\ns 64\ns 1 64 2\n",
    "p maxcover 129 3 3\ns 129 128 127\ns 1\ns 64 65 129\n",
    "p maxcover 7 7 7\n" + "".join(f"s {e}\n" for e in range(7, 0, -1)),
]


def test_masks_and_profile_of_parsed_documents_equal_bit_loops():
    rand = random.Random(13)
    docs = EDGE_DOCUMENTS + [text for text, _, tag in long_documents() if tag == "s"]
    for text, bound in maxcover_documents(rand, 40):
        docs += [text] + [mutated(rand, text, "s", bound) for _ in range(4)]
    parsed = 0
    for doc in docs:
        try:
            inst = parse_instance(doc)
        except ParseError:
            continue
        parsed += 1
        assert_masks_and_profile_equal_bit_loops(inst)
    assert parsed > len(docs) // 2


def test_masks_and_profile_of_reductions_equal_bit_loops():
    rand = random.Random(14)
    texts = [text for text, _ in approval_documents(rand, 40)] + [
        approval_text(rand, 5, 0, 1, 3), approval_text(rand, 3, 6, 1, 0), long_documents()[2][0],
        "p approval 4 3 2\nv 1\nv\nv 3 1 3\n",  # a voter who approves nobody; candidates 2 and 4 have no supporter
    ]
    for text in texts:
        inst = election_to_maxcover(parse_election(text))
        assert inst == loop_election_to_maxcover(parse_election(text))
        assert_masks_and_profile_equal_bit_loops(inst)
    elections = [ApprovalElection(4, 3, ((1,), (), (1, 3)), 2), ApprovalElection(0, 2, ((), ()), 0),
                 ApprovalElection(2, 0, (), 1), ApprovalElection(2, 1, ((np.int64(2),),), 1)]
    for election in elections:
        assert_masks_and_profile_equal_bit_loops(election_to_maxcover(election))
    for _ in range(30):
        vertices = rand.randint(2, 20)
        edges = rand.randint(0, min(40, vertices * (vertices - 1) // 2))
        assert_masks_and_profile_equal_bit_loops(random_graph(rand, vertices, edges, rand.randint(0, 4)))
    assert_masks_and_profile_equal_bit_loops(graph_to_maxvertexcover(0, [], 0))
    assert_masks_and_profile_equal_bit_loops(graph_to_maxvertexcover(3, [], 1))
    g = parse_graph("p graph 4 3 2\ne 1 2\ne 2 3\ne 4 2\n")
    assert_masks_and_profile_equal_bit_loops(graph_to_maxvertexcover(g.num_vertices, g.edges, g.k))


def test_masks_and_profile_of_constructed_instances_equal_bit_loops():
    rand = random.Random(15)
    cases = [
        Instance(0, (), 0), Instance(0, ((), ()), 1), Instance(5, ((),), 1),
        Instance(9, ((1, 9), (8,), (), tuple(range(1, 10))), 2),
        Instance(3, ((np.int64(1), np.int64(3)), (True, 2)), 1),
        Instance(130, (tuple(range(1, 131)), (64, 65, 128, 130), (130,)), 2),
        Instance.of(70, [[70, 1, 1], [64, 63, 64], [], [8, 16, 24]], 1),
        Instance.of(12, [], 3),
        gen_random(3000, 40, 5, 3, 7),
        gen_tight_greedy(TightGreedySpec(p=4, k=3, m=9)),
        gen_tight_fpt(TightFptSpec(p=2, k=2, beta=0.5)),
    ]
    for inst in batch(16, 20):
        cases.append(Instance(inst.n, inst.sets, inst.k))
        cases.append(Instance.of(inst.n, [rand.sample(s, len(s)) * 2 for s in inst.sets], inst.k))
    for inst in cases:
        assert_masks_and_profile_equal_bit_loops(inst)


@pytest.mark.parametrize("seed", [0, 1])
def test_package_built_values_pass_the_public_check(seed):
    rand = random.Random(seed)
    cases = [(text, bound, "s") for text, bound in maxcover_documents(rand, 80)]
    cases += [(text, bound, "v") for text, bound in approval_documents(rand, 80)]
    cases += long_documents()
    for text, bound, tag in cases:
        for doc in [text] + [mutated(rand, text, tag, bound) for _ in range(4)]:
            try:
                value = parse_instance(doc) if tag == "s" else parse_election(doc)
            except ParseError:
                continue
            assert_rebuilds(value)
            if tag == "v":
                assert_rebuilds(election_to_maxcover(value))
    for _ in range(40):
        vertices = rand.randint(2, 14)
        edges = rand.randint(0, min(25, vertices * (vertices - 1) // 2))
        assert_rebuilds(random_graph(rand, vertices, edges, rand.randint(0, 5)))
    assert_rebuilds(graph_to_maxvertexcover(0, [], 0))
    for spec in [TightGreedySpec(p=2, k=2, m=3), TightGreedySpec(p=4, k=3, m=6), TightGreedySpec(p=8, k=3, m=12)]:
        assert_rebuilds(gen_tight_greedy(spec))
    for spec in [TightFptSpec(p=1, k=1, beta=0.5), TightFptSpec(p=2, k=2, beta=0.75), TightFptSpec(p=3, k=3, beta=0.5)]:
        assert_rebuilds(gen_tight_fpt(spec))
    for t in range(30):
        p_max = 1 + t % 3
        m = rand.randint(p_max, 40)
        assert_rebuilds(gen_random(rand.randint(1, 300), m, rand.randint(0, 6), p_max, rand.randrange(2**32)))


# ---------------------------------------------------------------------------
# Generators against the appending builders they replaced.
# ---------------------------------------------------------------------------

def loop_gen_random(n, m, k, p_max, seed):
    rng = np.random.default_rng(seed)
    sets = [[] for _ in range(m)]
    for e in range(1, n + 1):
        size = int(rng.integers(1, p_max + 1))
        for i in rng.choice(m, size=size, replace=False):
            sets[int(i)].append(e)
    return Instance(n, tuple(map(tuple, sets)), k)


def loop_tight_greedy(spec):
    q = spec.m - spec.k
    block = math.comb(q, spec.p - 1)
    spread = [[] for _ in range(q)]
    blocks = []
    for b in range(spec.k):
        base = b * block
        blocks.append(tuple(range(base + 1, base + block + 1)))
        for r in range(block):
            for j in unrank_colex(r, spec.p - 1):
                spread[j].append(base + r + 1)
    return Instance(spec.k * block, tuple(map(tuple, spread)) + tuple(blocks), spec.k)


def loop_tight_fpt(spec):
    x = spec.x
    n1 = math.comb(x, spec.p)
    per_set = math.comb(x - 1, spec.p - 1)
    overlapping = [[] for _ in range(x)]
    for r in range(n1):
        for j in unrank_colex(r, spec.p):
            overlapping[j].append(r + 1)
    decoys = [tuple(range(n1 + b * per_set + 1, n1 + (b + 1) * per_set + 1)) for b in range(spec.k)]
    return Instance(n1 + spec.k * per_set, tuple(map(tuple, overlapping)) + tuple(decoys), spec.k)


# The benchmark's families first, then the smallest and the dtype edges.
TIGHT_GREEDY_SPECS = [TightGreedySpec(5, 6, 24), TightGreedySpec(2, 2, 3), TightGreedySpec(4, 3, 9),
                      TightGreedySpec(8, 3, 12), TightGreedySpec(2, 5, 9), TightGreedySpec(2, 129, 256)]
TIGHT_FPT_SPECS = [TightFptSpec(2, 4, 0.5), TightFptSpec(2, 4, 0.75), TightFptSpec(1, 1, 0.5),
                   TightFptSpec(3, 3, 0.5), TightFptSpec(1, 2, 0.875), TightFptSpec(1, 64, 0.5)]
RANDOM_PARAMS = [(2000, 40, 5, 2), (2000, 60, 4, 3), (1000, 150, 5, 3), (2000, 300, 5, 2)]


def test_generators_equal_appending_builders():
    for spec in TIGHT_GREEDY_SPECS:
        assert gen_tight_greedy(spec) == loop_tight_greedy(spec), spec
    for spec in TIGHT_FPT_SPECS:
        assert gen_tight_fpt(spec) == loop_tight_fpt(spec), spec
    cases = [(*params, seed) for params in RANDOM_PARAMS for seed in (0, 1, 11000, 11001)]
    cases += [(1, 1, 0, 1, 0), (3, 1, 2, 1, 5), (5, 7, 1, 7, 3), (300, 255, 2, 255, 4), (256, 256, 3, 2, 6)]
    rand = random.Random(17)
    for t in range(40):
        p_max = 1 + t % 4
        cases.append((rand.randint(1, 300), rand.randint(p_max, 50), rand.randint(0, 6), p_max, rand.randrange(2**32)))
    for args in cases:
        assert gen_random(*args) == loop_gen_random(*args), args


def test_built_families_keep_their_id_arrays():
    edges = [(1, 2), (3, 1), (2, 4), (4, 3)]
    built = [gen_tight_greedy(spec) for spec in TIGHT_GREEDY_SPECS[:3]]
    built += [gen_tight_fpt(spec) for spec in TIGHT_FPT_SPECS[:3]]
    built += [gen_random(2000, 40, 5, 2, 0), gen_random(300, 255, 2, 255, 4), gen_random(1, 1, 0, 1, 0)]
    built += [graph_to_maxvertexcover(5, edges, 2), graph_to_maxvertexcover(3, [], 1), graph_to_maxvertexcover(0, [], 0)]
    for inst in built:
        ids, offs = inst.__dict__["_ids"]  # kept by the builder, before any solver reads them
        want_ids, want_offs = Instance(inst.n, inst.sets, inst.k)._ids  # the public constructor's
        assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
        assert offs.dtype == want_offs.dtype and np.array_equal(offs, want_offs)


# ---------------------------------------------------------------------------
# The line split, a piece at a time, against the split of the whole text.
# ---------------------------------------------------------------------------

def loop_document_kind(text):
    for ln, line in loop_significant_lines(text):
        tokens = line.split()
        if tokens[0] != "p" or len(tokens) < 2:
            raise ParseError("malformed header", ln)
        return tokens[1]
    raise ParseError("empty document", 1)


# Every line boundary of ``str.splitlines``.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_split_in_pieces_equals_whole_split(monkeypatch):
    rand = random.Random(18)
    texts = ["", "\n", "\r\n", "\r", "\r\r\n\n", "\n\r", "s 1\r\n", "s 1\r"]
    for _ in range(300):
        parts = [rand.choice(["", "s 1", "c", "c 2", " x ", "p maxcover 3 2 1", "s\t2 3", "cc"])
                 for _ in range(rand.randint(1, 12))]
        texts.append("".join(part + rand.choice(LINE_BREAKS) for part in parts)[: rand.randint(0, 200)])
    docs = ["p maxcover 3 2 1" + br + "s 1 2" + br + "c" + br + br + "s 3" + tail
            for br in LINE_BREAKS for tail in ("", br, br + "s 2", br + "x")]
    docs += ["p maxcover 3 2 1\r\ns 1 2\r\r\ns 3\r\n", "p maxcover 3 2 1\n\rs 1 2\ns 3\n", "\r\n\r\np maxcover 3 1 1\r\ns 4\r\n"]
    for size in range(1, 9):
        monkeypatch.setattr(core, "_READ_BYTES", size)
        for text in texts + docs:
            assert list(core._significant_lines(text)) == list(loop_significant_lines(text)), (size, text)
        for doc in docs:
            got = outcome(lambda d: instance_fields(parse_instance(d)), doc)
            assert got == outcome(loop_parse_instance, doc), (size, doc)
            assert outcome(core.document_kind, doc) == outcome(loop_document_kind, doc), (size, doc)
