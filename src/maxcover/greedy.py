"""Iterative best-marginal-gain selection with a full per-step trace.

Every greedy from nothing covered picks with ``greedy_rows``, on the
instance's rows of ids. ``exact_then_greedy``'s finish, which starts from a
prefix, recounts the kernel's packed rows instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import index

import numpy as np

from .core import _BLOCK_BYTES, Instance, Solution, _check_integer, _element_rows, _row_blocks


@dataclass(frozen=True)
class GreedyTrace:
    """Pick order, per-step marginal gains, and uncovered counts after each step."""

    picks: tuple[int, ...]
    marginal_gains: tuple[int, ...]
    uncovered_after: tuple[int, ...]


def greedy_rows(inst: Instance, steps: int) -> tuple[list[int], list[int]]:
    """``steps`` <= m greedy picks from nothing covered, counted on the
    instance's rows of ids: (picks, the gain of each).

    Every set's gain starts at its row length. A pick marks the ids of its
    row that are not yet covered, and takes one off the gain of every set
    that holds one of them, read from the instance's element rows a block at
    a time, so the gains stay exact. The pick is the first largest gain: ties
    go to the lowest set index. Once no set gains anything, the picks left
    are the lowest-index sets not taken.
    """
    ids, offs = inst._ids
    gain = np.diff(offs)
    covered = np.zeros(inst.n + 1, np.bool_)  # by element id; 0 is no element
    picks: list[int] = []
    gains: list[int] = []
    while len(picks) < steps:
        i = int(gain.argmax())
        if gain[i] == 0:
            rest = np.flatnonzero(gain == 0)[: steps - len(picks)]
            picks += rest.tolist()
            gains += [0] * len(rest)
            break
        row = ids[offs[i] : offs[i + 1]]
        new = row[~covered[row]]
        covered[new] = True
        _discount(gain, *_element_rows(inst), new)
        picks.append(i)
        gains.append(len(new))
        gain[i] = -1
    return picks, gains


def _discount(gain: np.ndarray, owners: np.ndarray, starts: np.ndarray, new: np.ndarray) -> None:
    """Take one off ``gain[j - 1]`` for each element id in ``new`` that set j
    holds, with element e's sets at owners[starts[e - 1]:starts[e]]. The
    owners are gathered and counted a block of at least as many owners as
    there are sets at a time; an owner takes 32 bytes of temporaries."""
    first = starts[new - 1]
    lens = starts[new] - first
    ends = np.zeros(len(new) + 1, np.int64)
    np.cumsum(lens, out=ends[1:])
    for lo, hi in _row_blocks(ends, max(_BLOCK_BYTES // 32, len(gain) + 1)):
        at = np.repeat(first[lo:hi] - ends[lo:hi], lens[lo:hi])
        at += np.arange(ends[lo], ends[hi])
        gain -= np.bincount(owners[at], minlength=len(gain) + 1)[1:]


def greedy_cover(inst: Instance) -> tuple[Solution, GreedyTrace]:
    """Run min(k, m) greedy steps and report the per-step trace alongside."""
    picks, gains = greedy_rows(inst, inst.effective_budget)
    uncovered_after = tuple(inst.n - c for c in accumulate(gains))
    solution = Solution(tuple(sorted(picks)), sum(gains), inst.n - sum(gains))
    return solution, GreedyTrace(tuple(picks), tuple(gains), uncovered_after)


def greedy_guarantee(p: int, k: int, m: int) -> float:
    """Worst-case coverage ratio 1 - exp(-max(p*k/m, 1)) of the greedy picker
    when every element appears in at least p of the m sets."""
    for value, what in ((p, "frequency bound"), (k, "budget"), (m, "set count")):
        _check_integer(value, what)
    p, k, m = index(p), index(k), index(m)  # a numpy integer would wrap in the product
    if p < 1 or k < 1 or m < 1:
        raise ValueError(f"p, k, and m must all be positive, got p={p}, k={k}, m={m}")
    return 1.0 - math.exp(-max(p * k / m, 1.0))
