"""Shared builders and independent oracles for the test suite."""

import heapq
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np

from maxcover import (
    Instance,
    TightFptSpec,
    gen_random,
    gen_tight_fpt,
    graph_to_maxvertexcover,
    set_masks,
)


def random_instance(rand: random.Random, n: int, m: int, k: int, p_max: int,
                    min_freq: int = 1) -> Instance:
    """Instance where each element joins between min_freq and p_max random sets."""
    sets = [[] for _ in range(m)]
    cap = min(p_max, m)
    for e in range(1, n + 1):
        f = rand.randint(min(min_freq, cap), cap)
        for i in rand.sample(range(m), f):
            sets[i].append(e)
    return Instance.of(n, sets, k)


def union_coverage(inst: Instance, chosen) -> int:
    """Independent recount via plain set union, no bitmask kernel."""
    union = set()
    for i in chosen:
        union.update(inst.sets[i])
    return len(union)


def peak_bytes(fn):
    """(peak, still held) bytes that tracemalloc sees during one call ``fn()``,
    counted from the start of the call; the result is dropped before the
    second count."""
    tracemalloc.start()
    try:
        fn()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, left


def unpacked_nth_uncovered(covered: int, n: int, r: int) -> int:
    """The r-th (1-based) element of 1..n outside ``covered``, found as minnc
    once found it: unpack the complement to one flag per element."""
    flags = np.unpackbits(
        np.frombuffer((((1 << n) - 1) ^ covered).to_bytes((n + 7) // 8, "little"), np.uint8),
        bitorder="little",
    )
    return int(flags.nonzero()[0][r - 1]) + 1


def rows_of(masks):
    """Int masks as the little-endian uint64 rows that the exhaustive kernel
    reads, as few words a row as the widest mask needs, and read-only."""
    words = -(-max(masks, default=0).bit_length() // 64)
    packed = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(packed, "<u8").reshape(len(masks), words)


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


def most_holders(masks):
    """The largest number of ``masks`` holding one element, at least 1."""
    width = max(masks, default=0).bit_length()
    return max([1] + [sum(mask >> e & 1 for mask in masks) for e in range(width)])


def int_kernel(masks, size, p=None):
    """The exhaustive kernel as it was on Python ints: each node ORs its union
    into every later mask and counts each result with ``int.bit_count``; the
    frequency-bound gate reads every pair with big-int ANDs. Returns (indices,
    union popcount, leaves evaluated), node for node as the packed kernel."""
    m = len(masks)
    size = min(size, m)
    if size == 0:
        return (), 0, 1
    reachable = 0
    for mask in masks:
        reachable |= mask
    stop_at = reachable.bit_count()
    best, best_cov, scanned = (), -1, 0
    choice = [0] * size
    gate = [0] * m
    if p is not None and size >= 2:
        least = math.inf
        for a in range(m - 2, -1, -1):
            least = min(least, min((masks[a] & b).bit_count() for b in masks[a + 1:]))
            if not least:
                break
            gate[a] = least

    def descend(pos, start, union):
        nonlocal best, best_cov, scanned
        covs = [(union | mask).bit_count() for mask in masks[start:]]
        if pos == size - 1:
            top = max(covs)
            if top <= best_cov:
                scanned += len(covs)
                return False
            j = covs.index(top)
            scanned += j + 1 if top >= stop_at else len(covs)
            best_cov = top
            choice[pos] = start + j
            best = tuple(choice)
            return top >= stop_at
        r = size - pos
        excess = (r - 1) * union.bit_count()
        if gate[start] and (p <= 2 or not union):
            excess += -(-r * (r - 1) * gate[start] // p)
        for j in range(len(covs) - r + 1):
            # Every subset under pick j holds it, plus r - 1 picks after it.
            if covs[j] + sum(heapq.nlargest(r - 1, covs[j + 1:])) - excess <= best_cov:
                continue
            choice[pos] = start + j
            if descend(pos + 1, start + j + 1, union | masks[start + j]):
                return True
        return False

    descend(0, 0, 0)
    return best, best_cov, scanned


def eager_extend(masks, taken, covered, steps):
    """The greedy reference on int masks: up to ``steps`` picks, each the
    lowest-index set of largest gain among those not ``taken``, zero gains
    included. ``taken`` is updated in place; returns (picks, gains, covered)."""
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


def recursive_exact_then_greedy(inst, x):
    """``exact_then_greedy`` as it was with a recursive prefix tree: each
    node sums the r + x largest gains among the sets outside its prefix, and
    every finished prefix is completed greedily. Returns (chosen, covered,
    prefixes finished), prefix for prefix as the library's search."""
    masks = set_masks(inst)
    x_eff = min(x, inst.effective_budget)
    prefix_size = inst.effective_budget - x_eff
    prefix, taken = [], [False] * inst.m
    best_chosen, best_covered, finished = (), -1, 0

    def descend(start, union):
        nonlocal best_chosen, best_covered, finished
        r = prefix_size - len(prefix)
        base = union.bit_count()
        gains = [(union | mask).bit_count() - base for i, mask in enumerate(masks) if not taken[i]]
        if base + sum(heapq.nlargest(r + x_eff, gains)) < best_covered:
            return
        if r == 0:
            finished += 1
            picks, _, covered = eager_extend(masks, taken[:], union, x_eff)
            chosen = tuple(sorted(prefix + picks))
            cov = covered.bit_count()
            if cov > best_covered or (cov == best_covered and chosen < best_chosen):
                best_covered, best_chosen = cov, chosen
            return
        for i in range(start, inst.m - r + 1):
            prefix.append(i)
            taken[i] = True
            descend(i + 1, union | masks[i])
            taken[i] = False
            prefix.pop()

    descend(0, 0)
    return best_chosen, best_covered, finished


def appended_election_to_maxcover(election):
    """The supporter tuples of the approval reduction as it was: each voter's
    int is appended to one list per approved candidate, and each list is then
    replaced by its tuple."""
    supporters = [[] for _ in range(election.num_candidates)]
    adds = [s.append for s in supporters]
    for voter, ballot in enumerate(election.approvals, start=1):
        for c in ballot:
            adds[c - 1](voter)
    del adds
    for c, s in enumerate(supporters):
        supporters[c] = tuple(s)
    return tuple(supporters)


def flag_row_masks(n, sets):
    """The mask build as it was: each set marks one reused row of n + 1 flags,
    which is packed to bytes and read as one integer."""
    row = np.zeros(n + 1, np.bool_)
    masks = []
    for s in sets:
        ids = np.fromiter(s, np.intp, len(s))
        row[ids] = True
        masks.append(int.from_bytes(np.packbits(row[1:], bitorder="little"), "little"))
        row[ids] = False
    return masks


def random_graph(rand: random.Random, vertices: int, edges: int, k: int) -> Instance:
    """Vertex-cover instance of a uniform simple graph with the given edge count."""
    seen = set()
    while len(seen) < edges:
        u, v = rand.sample(range(1, vertices + 1), 2)
        seen.add((min(u, v), max(u, v)))
    return graph_to_maxvertexcover(vertices, sorted(seen), k)


def dense_instance(rand: random.Random, m: int, k: int, p: int) -> Instance:
    """Every pair of sets shares an element, and every element lies in at
    most p >= 2 sets: each pair gets elements it holds with up to p - 2
    further sets, then come elements of random frequency 1..p."""
    sets = [[] for _ in range(m)]
    e = 0
    for a, b in combinations(range(m), 2):
        others = [i for i in range(m) if i not in (a, b)]
        for _ in range(rand.randint(1, 2)):
            e += 1
            for i in [a, b] + rand.sample(others, rand.randint(0, min(p - 2, len(others)))):
                sets[i].append(e)
    for _ in range(rand.randint(0, 3 * m)):
        e += 1
        for i in rand.sample(range(m), rand.randint(1, min(p, m))):
            sets[i].append(e)
    return Instance.of(e, sets, k)


def bounded_families(seed: int):
    """(instance, p, beta) triples whose every element lies in at most p sets:
    tight-fpt families, graph reductions (p = 2), ``gen_random`` with p_max in
    {1, 2, 3}, and dense families where every pair of sets overlaps (p = 2..4).
    The betas make the fpt pool both smaller than m and all of it."""
    rand = random.Random(seed)
    out = []
    for p, k, beta in [(2, 2, 0.5), (2, 4, 0.5), (2, 2, 0.75), (3, 3, 0.5)]:
        out.append((gen_tight_fpt(TightFptSpec(p=p, k=k, beta=beta)), p, beta))
    for t in range(150):
        beta = rand.choice([0.05, 0.3, 0.5, 0.75])
        k = rand.randint(1, 4)
        if t % 3 == 0:
            vertices = rand.randint(3, 18)
            edges = rand.randint(1, min(40, vertices * (vertices - 1) // 2))
            out.append((random_graph(rand, vertices, edges, k), 2, beta))
        elif t % 3 == 1:
            p_max = 1 + t % 9 // 3
            m = rand.randint(p_max, 24)
            inst = gen_random(rand.randint(1, 80), m, k, p_max, rand.randrange(2**32))
            out.append((inst, p_max, beta))
        else:
            p = 2 + t % 9 // 3
            out.append((dense_instance(rand, rand.randint(2, 11), k, p), p, beta))
    return out
