"""The fast hot paths against test-local copies of the loops they replaced.

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
public constructor's check unchanged, with plain int ids.
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
    frequency_profile,
    gen_random,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    parse_election,
    parse_graph,
    parse_instance,
    randomized_min_noncovered,
    serialize_instance,
    set_masks,
)
from maxcover import cli, core
from maxcover.cli import load_instance_text, main
from maxcover.core import _BLOCK_BYTES, _id_arrays, _parse_header
from maxcover.exact import _most_holders, best_fixed_size_subset
from maxcover.greedy import extend_greedily
from helpers import (
    appended_election_to_maxcover,
    bounded_families,
    flag_row_masks,
    full_scan,
    int_kernel,
    most_holders,
    peak_bytes,
    random_graph,
    recursive_exact_then_greedy,
    union_coverage,
)


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
        picks, _, covered = extend_greedily(masks, taken, covered, x_eff)
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
    cases = [(set_masks(inst), inst.k) for inst in families]
    cases += [(masks, 2) for masks in row_width_cases(rand)]
    for masks, k in cases:
        m = len(masks)
        for size in {1, 2, k, m - 1, m}:
            assert best_fixed_size_subset(masks, size) == int_kernel(masks, size, most_holders(masks))


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
    # The exhaustive-small rand-m40 and rand-m60 documents of seeds 0 and 11.
    shapes = [gen_random(2000, 40, 5, 2, s) for s in (0, 11000)]
    shapes += [gen_random(2000, 60, 4, 3, s) for s in (1, 11001)]
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
    return sum(a.nbytes for a in _id_arrays(inst))


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
    # The public route keeps the ballot tuples on its election; the load
    # makes none, so it may not peak higher.
    text = approval_text(random.Random(12), 100, 12000, 10, 40, lo=20)
    peak, _ = peak_bytes(lambda: load_instance_text(text))
    public, _ = peak_bytes(lambda: election_to_maxcover(parse_election(text)))
    assert peak <= public


def test_cli_approval_load_builds_no_election(monkeypatch, tmp_path):
    text = approval_text(random.Random(16), 30, 400, 4, 8)
    expected = election_to_maxcover(parse_election(text))
    doc, report = tmp_path / "election.txt", tmp_path / "report.json"
    doc.write_text(text)
    built = []
    unchecked = core._unchecked
    monkeypatch.setattr(core, "_unchecked", lambda cls, *a, **kw: built.append(cls) or unchecked(cls, *a, **kw))
    monkeypatch.setattr(ApprovalElection, "__post_init__", lambda self: pytest.fail("built an election"))
    assert load_instance_text(text) == expected
    assert main(["solve", "--alg", "greedy", "--in", str(doc), "--out", str(report)]) == 0
    assert main(["verify", "--in", str(doc), "--sol", str(report)]) == 0
    assert built and ApprovalElection not in built


def test_mask_build_peak_stays_within_the_flag_row_build():
    # Shaped like the benchmark's rand-30k document, parsed, and generated,
    # whose id arrays the build makes and keeps. Beyond the masks, the
    # reference holds a row of n flags, and the build one block.
    generated = gen_random(30000, 1200, 40, 3, 0)
    for inst in (parse_instance(serialize_instance(generated)), generated):
        reference, _ = peak_bytes(lambda: flag_row_masks(inst.n, inst.sets))
        peak, _ = peak_bytes(lambda: set_masks(inst))
        made = kept_bytes(inst) if inst is generated else 0
        assert peak <= reference + made + 8 * inst.m + _BLOCK_BYTES


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
    """The element loop of ``Instance.__post_init__``; returns its fields."""
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
    """The element loop of ``ApprovalElection.__post_init__``; returns its fields."""
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
             (4, ((1.5, 2.5),), 1), (4, ((4.5,),), 1), (4, ((0.5,),), 1)]
    for inst in batch(8, 60) + [gen_random(30000, 20, 3, 3, 2)]:
        for _ in range(4):
            cases.append((inst.n, mutated_sets(rand, inst.sets, inst.n), inst.k))
    for n, sets, k in cases:
        assert outcome(lambda *a: instance_fields(Instance(*a)), n, sets, k) == \
            outcome(loop_check_instance, n, sets, k)


def test_election_check_equals_element_loop():
    rand = random.Random(8)
    cases = [(0, 0, (), 0), (2, 1, ((),), 0), (-1, 0, (), 0), (2, 2, ((1,),), 0), (3, 1, ((1.5, 2.5),), 1)]
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
