"""Two weighted sequence-space norms and the experiments separating them.

``lorentz_norm`` pairs the decreasing rearrangement of |b| with the weights:
rearrangement-invariant by construction.  ``garling_norm`` instead maximizes
the weighted p-sum over order-preserving selections i_1 < ... < i_t, which
is position-sensitive: moving large entries late in the vector starves them
of large weights.  The gap between the two behaviors is quantified by
``symmetric_defect`` (a non-increasing prefix against its reversal) and
``inclusion_gap`` (rearranged norm over selection norm on a reversed block
witness), both of which grow without bound along the witnesses built in
:mod:`seqspace.witness`.  For a non-increasing x = a^(1/p) the p-th power
of the selection norm of x is the aligned sum A(a) and that of its reversal
is the window supremum B(a), so both quotients are the functional ratio
A / B of the runs, for every p.

The selection norm dispatches on shape.  Non-increasing |b|: the full
nonzero prefix is optimal (aligned sorted-with-sorted pairing).  Non-
decreasing |b|: an optimal selection is a suffix, and the best suffix value
is exactly the largest reversed window sum of the reversed vector, so the
run-length scan from :mod:`seqspace.functionals` answers it without the
quadratic DP.  Anything else runs an O(m^2)-time dynamic program over
(position, selected-count) that holds at most 4 MiB of its backward rows at
once, plus one checkpoint row per 4 MiB segment.  Reported selectors are
canonical: fewest indices first, then lexicographically smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CapExceededError, InputError
from .functionals import StepSequence, _float_runs, _read, _report, _scan, ratio
from .weights import WeightFamily, as_index
from .witness import DEFAULT_SLACK, build_witness, find_block_lengths

GARLING_DP_CAP = 4096
_SELECTOR_TOL = 1e-12
_DP_ROW_BYTES = 2**22  # the DP's backward rows held at once, beside its checkpoint rows


@dataclass(frozen=True, eq=False)
class NormResult:
    """Norm value with the optimizing index data (1-based).

    For the selection norm, ``selector`` lists the chosen indices; summing
    |b_{selector[j]}|^p * w_{j+1} reproduces value**p.  For the rearranged
    norm it is the stable sorting permutation of |b|.
    """

    value: float
    p: float
    selector: np.ndarray

    def __post_init__(self) -> None:
        _finite_norm(self.value)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "selector": [int(i) for i in self.selector],
        }


def _finite_norm(value: float) -> float:
    if not math.isfinite(value):
        raise InputError(
            f"norm is not finite ({value}): a weighted sum of the "
            "entries' p-th powers overflows double precision"
        )
    return value


def _as_vector(b) -> np.ndarray:
    try:
        arr = np.atleast_1d(np.asarray(b, dtype=np.float64))
    except OverflowError as exc:  # a Python int or Fraction past the double range
        raise InputError("vector entries must be finite") from exc
    if arr.ndim != 1:
        raise InputError("vector input must be one-dimensional")
    if arr.size == 0:
        raise InputError("vector input must have at least one entry")
    if not np.isfinite(arr).all():
        raise InputError("vector entries must be finite")
    return arr


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputError(f"exponent p must be a real >= 1, got {p}")
    return p


def _powers(c: np.ndarray, p: float) -> np.ndarray:
    """Entrywise c**p, rejecting powers that overflow (callers silence the warning).

    A nonzero c whose every power underflows to 0 is rejected too: its norm
    would read 0.  Powers that underflow beside a positive one stay 0.
    """
    cp = c**p
    if not np.isfinite(cp).all():
        raise InputError(
            f"the entries' p-th powers (p = {p}) are not finite: they overflow double precision"
        )
    if not cp.any() and c.any():
        raise InputError(
            f"the entries' p-th powers (p = {p}) all underflow to 0 in double precision"
        )
    return cp


def _aligned(cp: np.ndarray, t: int, fam: WeightFamily, p: float, selector) -> NormResult:
    """Norm of the first t p-th powers paired with the top t weights."""
    total = float(np.add.reduce(cp[:t] * fam.weights_head(t)))
    return NormResult(total ** (1.0 / p), p, selector)


@np.errstate(over="ignore", invalid="ignore")
def lorentz_norm(b, fam: WeightFamily, p: float) -> NormResult:
    """(sum of (sorted |b|)^p against the weights)^(1/p)."""
    p = _check_p(p)
    c = np.abs(_as_vector(b))
    order = np.argsort(-c, kind="stable")
    return _aligned(_powers(c, p)[order], int(np.count_nonzero(c)), fam, p, order + 1)


def _suffix_selector(runs: list[tuple[int, int, float]], m: int, t: int) -> np.ndarray:
    """Canonical best suffix of length t of a non-decreasing vector of length m.

    ``runs`` holds the (start, end, value) runs of the vector's p-th powers,
    reversed, as the scan read them.  The selector takes the earliest
    indices holding the required values: the first entries of the run the
    cut at t falls in, then every later index.
    """
    start, end = next((s, e) for s, e, _ in runs if e >= t)
    return np.r_[m + 1 - end : m + 2 - end + t - start, m + 2 - start : m + 1]


def _garling_dp(cp: np.ndarray, fam: WeightFamily, p: float) -> NormResult:
    """General dynamic program over (position, selected-count).

    Forward pass: M[j] = best score selecting exactly j entries, updated as
    M[j] = max(M[j], M[j-1] + c_i^p w_j) with the previous row on the right;
    item i (from 0) reaches only M[1..i+1], and the rest stays -inf.  With j*
    the first maximizer of M, the backward pass builds the exact-completion
    scores S_i[j], the best score of items i..m adding exactly j* - j more
    entries at ranks j+1..j*, so a forward prefer-take walk emits the
    lexicographically smallest selector among those with the fewest indices.
    The walk takes an item when the score so far, its gain and the best
    completion reach opt = M[j*] within the relative tolerance
    ``_SELECTOR_TOL`` * opt, at every scale of the entries.  The caller
    returns before the DP when every p-th power is 0, and w_1 = 1 makes
    M[1] = max c_i^p > 0 = M[0], so opt > 0 and j* >= 1.

    The walk reads S_{i+1}[j+1] with j <= i - 1 and j* - j <= m - i + 1,
    so row i is computed only on its band max(0, j* - (m - i + 1)) <= j <
    min(i, j*), where it is finite; S_i[j*] = 0.0, and the entry just left
    of the band is -inf, which row i - 1 reads.  Rows 2..m+1 are held in
    segments of at most ``_DP_ROW_BYTES``.  One backward pass computes every
    row, leaves the first segment in place and keeps a checkpoint, the row
    past the end of every other segment; the walk recomputes a segment from
    its checkpoint when it reaches it, on the columns it can still read:
    from j + 1 at the segment's first row, one more per row.  So the rows
    take at most 4 MiB plus one checkpoint row per segment, and until the
    rows outgrow one segment nothing is recomputed.  Every value keeps its
    bits: each band entry takes the operands and operations of the full
    table, and the walk adds Python floats, which round as numpy float64
    scalars do.  It skips a completion of +inf, as the full table's
    finiteness test did, and -inf fails the comparison itself.
    """
    m = cp.size
    if m > GARLING_DP_CAP:
        raise CapExceededError(
            f"selection-norm DP capped at {GARLING_DP_CAP} entries, got {m}; "
            "monotone inputs of any size use the direct rules"
        )
    w = fam.weights_head(m)
    cpl, wl = cp.tolist(), w.tolist()

    M = np.full(m + 1, -np.inf)
    M[0] = 0.0
    for i in range(m):
        reach = M[1 : i + 2]
        np.maximum(reach, M[: i + 1] + cpl[i] * w[: i + 1], out=reach)
    jstar = int(M.argmax())
    opt = float(M[jstar])

    per = max(1, _DP_ROW_BYTES // (8 * (jstar + 1)))  # rows per segment
    rows = np.empty((min(per, m), jstar + 1))
    rows[:, jstar] = 0.0

    def fill(seg: int, nxt, left: int = 0, width: int = m) -> None:
        """Rows of segment seg, last first, from nxt, the row past its end (None past m + 1).

        Row base + t is computed on columns left .. left + width + t - 1 of its band.
        """
        base = 2 + seg * per
        for i in range(min(m + 1, base + per - 1), base - 1, -1):
            row = rows[i - base]
            lo = max(left, jstar - (m - i + 1))
            hi = min(i, jstar, left + width + i - base)
            if lo > left:
                row[lo - 1] = -np.inf
            if lo < hi:
                np.maximum(nxt[lo:hi], cpl[i - 1] * w[lo:hi] + nxt[lo + 1 : hi + 1], out=row[lo:hi])
            nxt = row

    nseg = -(-m // per)
    checkpoints = [None] * nseg  # row 2 + (k + 1) per, which segment k is computed from
    for seg in range(nseg - 1, -1, -1):
        fill(seg, checkpoints[seg])
        if seg:
            checkpoints[seg - 1] = rows[0].copy()

    tol = _SELECTOR_TOL * opt
    selector = np.empty(jstar, dtype=np.int64)
    acc = 0.0
    j = seg = k = 0  # row i + 1 is rows[k] of segment seg
    for i in range(1, m + 1):
        if j == jstar:
            break
        if k == per:
            seg, k = seg + 1, 0
            # the walk reads row base + t at columns j + 1 .. j + 1 + t
            fill(seg, checkpoints[seg], j + 1, 1)
        gain = cpl[i - 1] * wl[j]
        if m - i < jstar - j or (
            (c := rows.item(k, j + 1)) < math.inf and acc + gain + c >= opt - tol
        ):
            selector[j] = i
            acc += gain
            j += 1
        k += 1
    return NormResult(opt ** (1.0 / p), p, selector)


@np.errstate(over="ignore", invalid="ignore")
def garling_norm(b, fam: WeightFamily, p: float, method: str = "auto") -> NormResult:
    """Largest weighted p-sum over order-preserving index selections.

    ``method="auto"`` routes monotone inputs through closed-form rules and
    everything else through the DP; ``method="dp"`` forces the DP (useful
    for cross-checking the monotone rules against an independent route).
    """
    p = _check_p(p)
    if method not in ("auto", "dp"):
        raise InputError(f"method must be 'auto' or 'dp', got {method!r}")
    c = np.abs(_as_vector(b))
    cp = _powers(c, p)
    m_pos = int(np.count_nonzero(cp))
    if m_pos == 0:
        return NormResult(0.0, p, np.empty(0, dtype=np.int64))
    if method == "auto":
        diffs = c[1:] - c[:-1]
        if (diffs <= 0).all():
            # Non-increasing: the full nonzero prefix aligned with the top
            # weights is optimal and is the unique fewest-index optimum.
            return _aligned(cp, m_pos, fam, p, np.arange(1, m_pos + 1, dtype=np.int64))
        if (diffs >= 0).all():
            # The best selection is a suffix: length t scores the reversed
            # window sum of the reversed p-th powers at n = t.
            ar, runs = _read(StepSequence.from_values(cp[::-1]), fam, "float")
            value_p, t = _scan(ar, runs, fam)
            return NormResult(float(value_p) ** (1.0 / p), p, _suffix_selector(runs, c.size, t))
    return _garling_dp(cp, fam, p)


def symmetric_defect(
    a: StepSequence, fam: WeightFamily, p: float, r: int
) -> tuple[float, NormResult, NormResult]:
    """Selection norm of a non-increasing prefix against its reversal.

    Takes the first r entries of a, maps them through x -> x^(1/p), and
    compares the selection norms of the forward (non-increasing) and
    reversed (non-decreasing) vectors; their p-th powers are the aligned
    sum A and the window supremum B of the prefix, so for every p the
    defect is A / B of the prefix's runs.  Any uniform bound on this
    quotient would make the selection-norm basis symmetric; along the
    block witnesses it grows like r/6, so no bound exists.
    """
    p = _check_p(p)
    r = as_index(r, "prefix length")
    if not 1 <= r <= a.support:
        raise InputError(f"prefix length must lie in 1..{a.support} (the support), got {r}")
    kept = _float_runs([(start, min(end, r), v) for start, end, v in a.bounds() if start <= r])
    g = StepSequence(tuple((1 + end - start, v) for start, end, v in kept))
    ar, runs = _read(g, fam, "float")
    rep = _report(ar, runs, fam)
    return (  # a NormResult rejects a norm that is not finite
        rep.ratio,
        NormResult(rep.A ** (1.0 / p), p, np.arange(1, r + 1)),
        NormResult(rep.B ** (1.0 / p), p, _suffix_selector(runs, r, rep.argmax_n)),
    )


def witness_gap(f: StepSequence, fam: WeightFamily, p: float) -> float:
    """Rearranged-over-selection norm quotient for one reversed block sequence.

    The rearranged norm ignores the reversal, so the p-th powers of the two
    norms are A and B of f's runs and the quotient is A / B for every p,
    computed without building either selector; ``ratio`` rejects an A past
    the double range.
    """
    _check_p(p)
    return ratio(f, fam).ratio


def inclusion_gap(
    fam: WeightFamily,
    p: float,
    r: int,
    slack: float = DEFAULT_SLACK,
) -> float:
    """Rearranged norm over selection norm on a reversed block witness.

    The rearranged norm ignores the reversal, so its p-th power equals the
    aligned sum A of the witness (>= r/2); the selection norm of the
    reversal is bounded by the reversed-window supremum (<= 3).  A quotient
    growing with r shows the rearrangement-invariant space sits strictly
    inside the selection-norm space, with no equivalent norm between them.
    """
    p = _check_p(p)
    d = find_block_lengths(fam, r, slack=slack)
    f = build_witness(fam, d)
    return witness_gap(f, fam, p)
