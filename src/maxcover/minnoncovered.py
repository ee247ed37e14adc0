"""Randomized branch-and-sample search minimizing the uncovered count.

Each repetition walks a depth-k tree: sample one still-uncovered element
uniformly, branch over every set containing it (at most p under the
frequency bound), and keep the branch with the fewest uncovered elements.
Repetitions draw from independent, reproducible substreams of one seed, so
they could run in any order, or in parallel, with an identical outcome.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (_BLOCK_BYTES, Instance, Solution, _check_count, _check_integer, _check_ratio, _row_lists,
                   check_frequency_bound, set_masks)
from .exact import DEFAULT_CEILING, EnumerationCeilingError


@dataclass(frozen=True)
class RandomizedRun:
    """All repetition outcomes: the planned repetition count, the best solution
    found, every repetition's uncovered count, the master seed, and the number
    of search nodes that drew an element."""

    repetitions: int
    best: Solution
    per_rep_uncovered: tuple[int, ...]
    seed: int
    samples: int


def repetition_count(beta: float, epsilon: float, k: int) -> int:
    """ceil(-ln(epsilon) * (beta/(beta-1))**k).

    Running that many independent searches keeps uncovered within beta times
    the minimum with probability at least 1 - epsilon.
    """
    if not 1.0 < beta < math.inf:  # NaN fails both
        raise ValueError(f"beta must exceed 1 and be finite for uncovered-count ratios, got {beta}")
    _check_ratio(epsilon, "epsilon")
    _check_count(k, "budget")
    k = operator.index(k)  # a numpy integer power would overflow to inf with a warning
    try:
        return math.ceil(-math.log(epsilon) * (beta / (beta - 1.0)) ** k)
    except OverflowError:
        raise ValueError(
            f"repetition count for beta={beta}, epsilon={epsilon}, k={k} is too large to represent"
        ) from None


# At most this many fixed-point steps a select before it bisects.
_SELECT_STEPS = 4


def _nth_uncovered(covered: int, count: int, r: int) -> int:
    """The r-th (1-based) element outside ``covered``, a mask of ``count``
    elements.

    Elements 1..e hold count - popcount(covered >> e) covered ones, so the
    pick is the least fixed point of e = r + count - popcount(covered >> e).
    Stepping from e = r never passes it, and on a search's masks reaches it
    in two or three steps. A covered run can make every step short, so after
    ``_SELECT_STEPS`` steps the select bisects for the first e in
    [e, r + count] whose elements 1..e leave r uncovered: that count,
    e - count + popcount(covered >> e), never falls as e grows.
    """
    e = r
    for _ in range(_SELECT_STEPS):
        step = r + count - (covered >> e).bit_count()
        if step == e:
            return e
        e = step
    lo, hi = e, r + count
    while lo < hi:
        mid = (lo + hi) // 2
        if mid - count + (covered >> mid).bit_count() >= r:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bounded_draw(bitgen: np.random.PCG64, halves: list[int], bound: int) -> int:
    """The value ``np.random.Generator(bitgen).integers(bound)`` would draw
    next, for a bound in [1, 2**32], read from the stream's 32-bit halves by
    numpy's own rule.

    ``halves`` is a stack over a sentinel 0: the stream's halves, low half
    first, with the next one on top. When no half is left above the sentinel,
    16 more words go in: a repetition draws some tens of halves, and a
    ``random_raw`` call costs about as much whatever it returns. A bound of 1
    gives 0 and draws nothing; any other runs Lemire's method on the next
    half, which rejects exactly the products whose low 32 bits fall below
    2**32 % bound.
    """
    if bound == 1:
        return 0
    threshold = (1 << 32) % bound
    while True:
        if len(halves) < 2:
            halves[1:] = bitgen.random_raw(16).astype("<u8").view("<u4")[::-1].tolist()
        m = halves.pop() * bound
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
# The hash constant steps by a fixed multiplier at every call, whatever the
# data, so each pass's constants are listed once: the entropy mix makes at
# most 24 calls, the state output 8.
_A = [_INIT_A * pow(_MULT_A, i, 1 << 32) & _M32 for i in range(25)]
_B = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)]


def _hash(value, call: int, consts: list[int] = _A):
    """SeedSequence's ``hashmix``, the ``call``-th of a pass, on uint32
    arrays or Python ints below 2**32."""
    value = (value ^ consts[call]) * consts[call + 1] & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _stream_states(seed: int, start: int, stop: int) -> list[dict]:
    """The ``state`` of ``PCG64(SeedSequence(entropy=seed, spawn_key=(rep,)))``
    for each rep in [start, stop).

    SeedSequence pads the seed's 32-bit words (two at most) with zeros to its
    pool of four and appends the spawn key's (one below 2**32, else two). The
    pool that mixes from the seed words alone is the same for every rep and
    is hashed once in Python ints; the spawn words are then mixed in, and the
    four 64-bit state words drawn, as whole uint32-array passes over the
    block. uint32 arrays wrap without a warning, where a numpy scalar would
    warn. PCG64's ``srandom_r`` then runs on Python ints.
    """
    seed = operator.index(seed)
    pool = [_hash(word, call) for call, word in enumerate((seed & _M32, seed >> 32, 0, 0))]
    call = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], call))
                call += 1
    reps = np.arange(start, stop, dtype=np.uint64)
    pool = [np.full(len(reps), word, np.uint32) for word in pool]
    pool = [_mix(word, _hash(reps.astype(np.uint32), call + dst)) for dst, word in enumerate(pool)]
    if stop > 1 << 32:
        high = (reps >> 32).astype(np.uint32)
        pool = [np.where(high > 0, _mix(word, _hash(high, call + 4 + dst)), word) for dst, word in enumerate(pool)]
    words = np.stack([_hash(pool[i % 4], i, _B) for i in range(8)], axis=1)
    states = []
    for s_high, s_low, i_high, i_low in words.astype("<u4").view("<u8").tolist():
        inc = ((i_high << 64 | i_low) << 1 | 1) & _M128
        state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# Repetitions seeded a block at a time, so memory stays bounded however many.
_SEED_BLOCK = 4096


def randomized_min_noncovered(
    inst: Instance, p: int, beta: float, epsilon: float, seed: int,
    ceiling: int = DEFAULT_CEILING,
) -> RandomizedRun:
    """Best of repetition_count(beta, epsilon, k) randomized depth-k searches.

    Deterministic per (instance, parameters, seed): repetition i uses the
    PCG64 stream derived from SeedSequence(seed, spawn_key=(i,)), and each
    sample is the value ``Generator.integers`` would draw on it. No
    SeedSequence and no Generator is built: one PCG64 takes each
    repetition's seeded state from ``_stream_states``, and the search reads
    its stream as 32-bit halves. It inlines Lemire's early accept, a half
    whose product with the bound keeps low bits of at least the bound (numpy's
    threshold 2**32 % bound lies below it), and leaves every other case to
    ``_bounded_draw``. A branch that covers everything returns early; ties on
    uncovered counts keep the earlier candidate, both across branches and
    across repetitions, so a repetition's result is the first leaf, in
    depth-first order, that covers the most. Each tree is walked on an
    explicit stack of (picks left, picks made, covered mask) frames, so no
    budget is too deep for it. Refuses with :class:`EnumerationCeilingError`,
    before any search, when the plan's repetitions times p**k search leaves
    exceed ``ceiling``, and with ``ValueError`` an instance of more than
    2**32 elements, more than a 32-bit draw can pick from.
    """
    if inst.n > 1 << 32:
        raise ValueError(f"minnc draws among at most 2**32 elements, got n={inst.n}")
    check_frequency_bound(inst, p)
    _check_integer(seed, "seed")
    _check_integer(ceiling, "ceiling")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    reps = repetition_count(beta, epsilon, inst.k)
    # One search has at most p**k leaves. For p >= 2 the power passes any
    # ceiling within ceiling.bit_length() levels, so the exponent is clamped
    # there and a huge budget costs nothing to check. The power is taken on
    # Python ints, since a numpy integer's would wrap.
    planned = reps * int(p) ** min(inst.k, max(int(ceiling), 1).bit_length())
    if planned > ceiling:
        raise EnumerationCeilingError(planned, ceiling, "search leaves planned")
    masks = set_masks(inst)
    n = inst.n
    samples = 0
    owners: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(_row_lists(*inst._ids, _BLOCK_BYTES // 24)):
        for e in s:
            owners[e - 1].append(i)

    bitgen = np.random.PCG64(0)  # takes each repetition's state in turn
    best_solution: Solution | None = None
    per_rep: list[int] = []
    states = chain.from_iterable(
        _stream_states(seed, start, min(reps, start + _SEED_BLOCK)) for start in range(0, reps, _SEED_BLOCK)
    )
    for state in states:
        bitgen.state = state
        halves = [0]  # the stream's halves over a sentinel, as _bounded_draw reads them
        pop, push = halves.pop, halves.append
        # Nodes pop, and draw, in depth-first order; children with no picks
        # left are leaves, read in order where they are made.
        best_chosen, best_count = (), -1
        stack = [(inst.k, (), 0)]
        while stack:
            depth, chosen, covered = stack.pop()
            count = covered.bit_count()
            if depth and count < n:
                samples += 1
                bound = n - count
                half = pop()
                m = half * bound
                if m & 0xFFFFFFFF >= bound > 1:
                    r = m >> 32
                else:
                    push(half)
                    r = _bounded_draw(bitgen, halves, bound)
                e = _nth_uncovered(covered, count, r + 1)
                kids = owners[e - 1]
                if kids and depth > 1:
                    stack += [(depth - 1, chosen + (i,), covered | masks[i]) for i in reversed(kids)]
                    continue
                for i in kids:
                    kid_count = (covered | masks[i]).bit_count()
                    if kid_count > best_count:
                        best_chosen, best_count = chosen + (i,), kid_count
                if kids:
                    continue
                # The sampled element lies in no set; nothing to branch on.
            if count > best_count:
                best_chosen, best_count = chosen, count
        uncovered = n - best_count
        per_rep.append(uncovered)
        if best_solution is None or uncovered < best_solution.uncovered:
            best_solution = Solution(tuple(sorted(best_chosen)), best_count, uncovered)
    assert best_solution is not None  # reps >= 1 since -ln(epsilon) > 0
    return RandomizedRun(reps, best_solution, tuple(per_rep), seed, samples)
