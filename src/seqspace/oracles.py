"""Brute-force reference implementations used as ground truth in tests.

Each oracle recomputes a quantity the fast paths obtain through run-length
tricks, prefix caches, or dynamic programming, but does so by exhaustive
enumeration or naive expansion with none of that machinery.  They share no
code with the fast paths on purpose; agreement between the two routes is
what the property suites certify.  All oracles enforce hard size limits
beyond which exhaustion stops being trustworthy or affordable.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .exceptions import CapExceededError, InputError
from .functionals import StepSequence
from .weights import WeightFamily

SUBSET_LIMIT = 20
PERMUTATION_LIMIT = 8
SCAN_LIMIT = 10**6
GRID_LIMIT = 10**7


def garling_norm_bruteforce(b, fam: WeightFamily, p: float) -> float:
    """Selection norm by enumerating all 2^m index subsets.

    Subset sums are grown one position at a time: extending a subset by a
    new rightmost element assigns it the next weight in rank order, so the
    score table doubles per position with a popcount-indexed weight lookup.
    """
    try:
        c = np.abs(np.atleast_1d(np.asarray(b, dtype=np.float64)))
    except OverflowError:  # an int or Fraction past the double range
        raise InputError("vector entries must be finite") from None
    if not np.all(np.isfinite(c)):
        raise InputError("vector entries must be finite")
    m = c.size
    if m > SUBSET_LIMIT:
        raise CapExceededError(f"subset enumeration capped at {SUBSET_LIMIT}, got {m}")
    p = float(p)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputError(f"exponent p must be a real >= 1, got {p}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        cp = c**p
        if not np.all(np.isfinite(cp)):
            raise InputError(f"the entries' p-th powers (p = {p}) overflow double precision")
        w = np.array([fam.weight_at(i) for i in range(1, m + 1)])
        scores = np.zeros(1)
        counts = np.zeros(1, dtype=np.int64)
        for i in range(m):
            scores = np.concatenate([scores, scores + cp[i] * w[counts]])
            counts = np.concatenate([counts, counts + 1])
    best = float(np.max(scores))
    if not math.isfinite(best):
        raise InputError("a weighted subset sum of the entries' p-th powers overflows")
    return best ** (1.0 / p)


def rearrangement_check(
    a, b, n: int
) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """Exhaustively test the pairing inequalities over all n! permutations.

    Returns (ok, minimizing permutation, maximizing permutation), the
    permutations given as 1-based images (sigma(1), ..., sigma(n)).  ``ok``
    means every permutation's pairing sum landed between the reversed and
    the aligned pairing, up to a relative jitter allowance for float
    reordering.
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n > PERMUTATION_LIMIT:
        raise CapExceededError(
            f"permutation enumeration capped at {PERMUTATION_LIMIT}, got {n}"
        )
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.size < n or bv.size < n:
        raise InputError(f"both inputs must have at least n = {n} entries")
    av, bv = av[:n], bv[:n]
    for name, v in (("first", av), ("second", bv)):
        if not np.all(np.isfinite(v)):
            raise InputError(f"{name} input must be finite")
        if np.any(v < 0):
            raise InputError(f"{name} input must be non-negative")
        if np.any(np.diff(v) > 0):
            raise InputError(f"{name} input must be non-increasing")

    aligned = float(np.dot(av, bv))
    reversed_sum = float(np.dot(av, bv[::-1]))
    tol = 1e-12 * (1.0 + abs(aligned))
    table = _permutation_table(n)
    sums = bv[table] @ av
    ok = bool(np.all(sums <= aligned + tol) and np.all(sums >= reversed_sum - tol))
    # lexicographically first permutation on ties (the table is in lex order)
    min_perm = tuple(int(j) + 1 for j in table[int(np.argmin(sums))])
    max_perm = tuple(int(j) + 1 for j in table[int(np.argmax(sums))])
    return ok, min_perm, max_perm


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def functional_B_bruteforce(
    f: StepSequence, fam: WeightFamily, N: int
) -> tuple[float, int]:
    """Reversed window sums by dense expansion, scanned over n = 1..N.

    No run-length structure and no prefix cache: the sequence is expanded
    entry by entry and every window is a fresh dot product against freshly
    generated weights.
    """
    m = f.support
    if N < m:
        raise InputError(f"scan limit N = {N} is below the support {m}")
    if N > SCAN_LIMIT:
        raise CapExceededError(f"dense scan capped at {SCAN_LIMIT}, got {N}")
    dense = []
    for length, value in f.runs:
        dense.extend([float(value)] * length)
    a = np.array(dense if dense else [0.0])
    k = a.size
    w = np.array([fam.weight_at(i) for i in range(1, N + 1)])
    best = -math.inf
    best_n = 1
    for n in range(1, N + 1):
        lead = min(n, k)
        window = w[n - lead : n][::-1]
        s = float(np.dot(a[:lead], window))
        if s > best:
            best = s
            best_n = n
    return best, best_n


def exhaustive_ratio(
    fam: WeightFamily, m: int, grid
) -> tuple[float, StepSequence]:
    """Maximize A/B over every non-increasing tuple with values from the grid.

    Enumerates supports t = 1..m and, per support, all non-increasing
    t-tuples (combinations with repetition of the decreasingly sorted grid,
    in lexicographic order).  Ties keep the earliest tuple enumerated.  The
    returned ratio is a certified-by-exhaustion lower bound for the ratio
    supremum over all sequences.
    """
    if m < 1:
        raise InputError(f"support bound must be >= 1, got {m}")
    values = sorted({float(g) for g in grid}, reverse=True)
    if not values:
        raise InputError("grid must be non-empty")
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise InputError("grid values must be strictly positive and finite")
    g = len(values)
    total = sum(math.comb(g + t - 1, t) for t in range(1, m + 1))
    if total > GRID_LIMIT:
        raise CapExceededError(
            f"grid enumeration of {total} tuples exceeds the cap {GRID_LIMIT}"
        )

    w = np.array([fam.weight_at(i) for i in range(1, m + 1)])
    best_ratio = -math.inf
    best_tuple: tuple[float, ...] = (values[0],)
    batch_size = 10**5
    for t in range(1, m + 1):
        combos = itertools.combinations_with_replacement(values, t)
        while True:
            batch = list(itertools.islice(combos, batch_size))
            if not batch:
                break
            tuples = np.array(batch)
            a_sums = tuples @ w[:t]
            b_best = np.full(tuples.shape[0], -math.inf)
            for n in range(1, t + 1):
                window = w[:n][::-1]
                b_best = np.maximum(b_best, tuples[:, :n] @ window)
            ratios = a_sums / b_best
            idx = int(np.argmax(ratios))
            if ratios[idx] > best_ratio:
                best_ratio = float(ratios[idx])
                best_tuple = tuple(float(x) for x in tuples[idx])
    return best_ratio, StepSequence.from_values(best_tuple)
