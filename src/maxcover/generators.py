"""Instance builders: adversarial families for the greedy picker and the pool
search, seeded random instances with capped frequencies, and the graph adapter.

Each builder lists, element by element, the 1-based ids of the sets holding
the element, and ``core._reduce`` turns these rows into the sets. Combination
bijections are realized by colexicographic ranking/unranking, so every
construction is reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .core import MAX_HEADER_COUNT, Instance, _check_count, _check_ratio, _reduce

# Most incidences the tight constructions build, and that ``gen_random`` sizes
# its draw for (n * p_max, since each element joins up to p_max sets); a
# larger spec is refused before anything is allocated.
DEFAULT_SIZE_CEILING = 5_000_000


def rank_colex(subset: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing tuple of nonnegative ints."""
    return sum(math.comb(c, j + 1) for j, c in enumerate(subset))


def unrank_colex(rank: int, size: int) -> tuple[int, ...]:
    """The ``size``-subset of the nonnegative integers with colex rank ``rank``."""
    out = []
    r = rank
    for j in range(size, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= r:
            c += 1
        out.append(c)
        r -= math.comb(c, j)
    out.reverse()
    return tuple(out)


@dataclass(frozen=True)
class TightGreedySpec:
    """Parameters of the family on which greedy attains its lower-bound ratio.

    Requires p*k > m, which makes the spread sets strictly more attractive
    to greedy than the disjoint blocks, and p-1 <= m-k so the per-block
    bijection onto (p-1)-subsets exists.
    """

    p: int
    k: int
    m: int

    def __post_init__(self):
        if self.p < 1 or self.k < 1:
            raise ValueError(f"p and k must be positive, got p={self.p}, k={self.k}")
        if self.m <= self.k:
            raise ValueError(f"m={self.m} must exceed k={self.k}")
        if self.p * self.k <= self.m:
            raise ValueError(f"need p*k > m, got {self.p}*{self.k} <= {self.m}")
        if self.p - 1 > self.m - self.k:
            raise ValueError(
                f"need p-1 <= m-k, got p-1={self.p - 1} and m-k={self.m - self.k}"
            )

    @property
    def alpha(self) -> float:
        """Frequency pressure p*k/m realized by the construction (above 1)."""
        return self.p * self.k / self.m


@dataclass(frozen=True)
class TightFptSpec:
    """Parameters of the family on which the pool search overlaps itself.

    1/(1-beta) must be an integer (checked on the nearest small rational of
    the given float) and p must divide k; the derived pool value
    x = 2pk/(1-beta) + k is then an integer multiple of p. Betas that are
    exact binary fractions (0.5, 0.75, ...) keep x aligned with the pool
    formula evaluated on the same float.
    """

    p: int
    k: int
    beta: float

    def __post_init__(self):
        if self.p < 1 or self.k < 1:
            raise ValueError(f"p and k must be positive, got p={self.p}, k={self.k}")
        _check_ratio(self.beta, "beta")
        if (1 / self._gap).denominator != 1:
            raise ValueError(f"1/(1-beta) must be an integer, got beta={self.beta}")
        if self.k % self.p:
            raise ValueError(f"p={self.p} must divide k={self.k}")

    @property
    def _gap(self) -> Fraction:
        return 1 - Fraction(self.beta).limit_denominator(10**6)

    @property
    def x(self) -> int:
        """Pool value 2pk/(1-beta) + k, integral and divisible by p."""
        return int(Fraction(2 * self.p * self.k) / self._gap + self.k)


def gen_tight_greedy(spec: TightGreedySpec) -> Instance:
    """Blocks of identically spread elements baiting greedy away from the
    disjoint optimal blocks.

    The universe is k blocks of comb(m-k, p-1) elements. The r-th element of
    every block lies in the spread sets (the first m-k) named by the
    colex-unranked (p-1)-subset of rank r, and in its block's set (one of the
    last k). Every element then lies in exactly p sets, the blocks form an
    optimal full cover, and greedy, preferring lower indices on ties, picks
    spread sets only, leaving comb(m-2k, p-1) elements per block uncovered.
    """
    q = spec.m - spec.k
    block = math.comb(q, spec.p - 1)
    n = spec.k * block
    if n * spec.p > DEFAULT_SIZE_CEILING:
        raise ValueError(f"construction needs {n * spec.p} incidences, above the ceiling {DEFAULT_SIZE_CEILING}")
    rows = np.empty((spec.k, block, spec.p), np.min_scalar_type(spec.m))
    spread = chain.from_iterable(unrank_colex(r, spec.p - 1) for r in range(block))
    rows[..., :-1] = np.fromiter(spread, rows.dtype).reshape(block, spec.p - 1) + 1  # the same in every block
    rows[..., -1] = np.arange(q + 1, spec.m + 1)[:, None]
    inst = _reduce(spec.m, n, spec.k, rows.reshape(-1), np.arange(0, rows.size + 1, spec.p))
    # The bijection fixes each spread set's size at k * comb(m-k-1, p-2).
    expected = spec.k * math.comb(q - 1, spec.p - 2)
    assert (np.diff(inst._ids[1][: q + 1]) == expected).all()
    return inst


def gen_tight_fpt(spec: TightFptSpec) -> Instance:
    """A pool-sized overlapping family next to k disjoint decoys.

    The first x sets cover a block of comb(x, p) elements, one element per
    p-subset of their indices, so any k of them overlap; the last k sets are
    pairwise disjoint with the same cardinality comb(x-1, p-1) and realize
    the optimal coverage k * comb(x, p) * p / x. All x + k sets tie on
    cardinality, so a pool of x sets preferring low indices is exactly the
    overlapping family.
    """
    x = spec.x
    n1 = math.comb(x, spec.p)
    per_set = math.comb(x - 1, spec.p - 1)
    n2 = spec.k * per_set
    if n1 * spec.p + n2 > DEFAULT_SIZE_CEILING:
        raise ValueError(f"construction needs {n1 * spec.p + n2} incidences, above the ceiling {DEFAULT_SIZE_CEILING}")
    # Element r + 1 <= n1 lies in the sets of the p-subset of rank r, and each later one in one decoy.
    decoys = np.repeat(np.arange(x + 1, x + spec.k + 1, dtype=np.min_scalar_type(x + spec.k)), per_set)
    overlap = chain.from_iterable(unrank_colex(r, spec.p) for r in range(n1))
    ids = np.concatenate((np.fromiter(overlap, decoys.dtype) + 1, decoys))
    inst = _reduce(x + spec.k, n1 + n2, spec.k, ids, np.r_[0 : n1 * spec.p : spec.p, n1 * spec.p : len(ids) + 1])
    assert (np.diff(inst._ids[1][: x + 1]) == per_set).all()
    return inst


def gen_random(n: int, m: int, k: int, p_max: int, seed: int) -> Instance:
    """Random instance where each element joins a uniform nonempty selection
    of sets, its size drawn uniformly from [1, p_max]. Deterministic per seed.

    n and m may not exceed ``MAX_HEADER_COUNT``, the largest counts a
    document header may declare, nor n * p_max ``DEFAULT_SIZE_CEILING``."""
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    if max(n, m) > MAX_HEADER_COUNT:
        raise ValueError(f"n and m must be at most {MAX_HEADER_COUNT}, got n={n}, m={m}")
    if not 1 <= p_max <= m:
        raise ValueError(f"p_max must lie in [1, {m}], got {p_max}")
    _check_count(k, "budget")
    if n * p_max > DEFAULT_SIZE_CEILING:
        raise ValueError(f"construction needs up to {n * p_max} incidences, above the ceiling {DEFAULT_SIZE_CEILING}")
    rng = np.random.default_rng(seed)
    ids = np.empty(n * p_max, np.min_scalar_type(m))
    offs = np.zeros(n + 1, np.int64)
    for e in range(n):
        size = int(rng.integers(1, p_max + 1))
        offs[e + 1] = offs[e] + size
        ids[offs[e] : offs[e + 1]] = rng.choice(m, size=size, replace=False)
    ids = ids[: offs[-1]] + 1
    return _reduce(m, n, k, ids, offs)


def graph_to_maxvertexcover(
    num_vertices: int, edges: Iterable[tuple[int, int]], k: int
) -> Instance:
    """Edges become elements and vertices become their incident edge sets,
    so every element has frequency exactly 2.

    Edge ids follow the input order, 1-based. ``edges`` holds (u, v) pairs,
    or is an integer array of them, one a row, as a parsed graph keeps them;
    pairs are flattened once into an array, where an endpoint that is not an
    integer, or both of an edge without two, read as vertex 0. Whole-array
    passes find endpoints out of range, self-loops and duplicate edges. The
    first edge with a fault is reported for its first failing check: its
    endpoint count, each endpoint's type then range, self-loop, duplicate.
    """
    _check_count(num_vertices, "vertex count")
    _check_count(k, "budget")
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        pairs, ends = None, edges.reshape(-1)
    else:
        edges = [tuple(edge) for edge in edges]
        pairs = [w if isinstance(w, Integral) else 0 for e in edges for w in (e if len(e) == 2 else (0, 0))]
        ends = np.fromiter(pairs, object, len(pairs))  # compared as the objects they are
    u, v = ends[0::2], ends[1::2]
    out = ~((ends >= 1) & (ends <= num_vertices))
    bad = out[0::2] | out[1::2] | (u == v)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))  # a stable sort: each edge after the earlier ones with the same ends
    bad[order[1:]] |= (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    first = int(np.argmax(bad)) if bad.any() else len(bad)
    if first < len(bad):
        eid, edge = first + 1, edges[first] if pairs is not None else ends[2 * first : 2 * first + 2].tolist()
        if len(edge) != 2:
            raise ValueError(f"edge {eid} must have two endpoints, got {len(edge)}")
        for w in edge:
            if not isinstance(w, Integral):
                raise ValueError(f"edge {eid} endpoint {w!r} is not an integer")
            if not 1 <= w <= num_vertices:
                raise ValueError(f"edge {eid} endpoint {w} out of range [1, {num_vertices}]")
        u, v = edge
        if u == v:
            raise ValueError(f"edge {eid} is a self-loop at vertex {u}")
        raise ValueError(f"duplicate edge {(min(u, v), max(u, v))} at position {eid}")
    ids = ends.astype(np.min_scalar_type(num_vertices))  # a copy: the instance owns its arrays
    return _reduce(num_vertices, len(bad), k, ids, np.arange(0, len(ids) + 1, 2))
