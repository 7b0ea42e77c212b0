"""Two weighted sequence-space norms and the experiments separating them.

``lorentz_norm`` pairs the decreasing rearrangement of |b| with the weights:
rearrangement-invariant by construction.  ``garling_norm`` instead maximizes
the weighted p-sum over order-preserving selections i_1 < ... < i_t, which
is position-sensitive: moving large entries late in the vector starves them
of large weights.  The gap between the two behaviors is quantified by
``symmetric_defect`` (a non-increasing prefix against its reversal) and
``inclusion_gap`` (rearranged norm over selection norm on a reversed block
witness), both of which grow without bound along the witnesses built in
:mod:`seqspace.witness`.

The selection norm dispatches on shape.  Non-increasing |b|: the full
nonzero prefix is optimal (aligned sorted-with-sorted pairing).  Non-
decreasing |b|: an optimal selection is a suffix, and the best suffix value
is exactly the largest reversed window sum of the reversed vector, so the
run-length scan from :mod:`seqspace.functionals` answers it without the
quadratic DP.  Anything else runs an O(m^2) dynamic program over
(position, selected-count).  Reported selectors are canonical: fewest
indices first, then lexicographically smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CapExceededError, InputError
from .functionals import StepSequence, functional_B
from .weights import WeightFamily
from .witness import DEFAULT_SLACK, build_witness, find_block_lengths

GARLING_DP_CAP = 4096
_SELECTOR_TOL = 1e-12


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
        if not math.isfinite(self.value):
            raise InputError(
                f"norm is not finite ({self.value}): the entries' p-th powers "
                "overflow double precision"
            )

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "selector": [int(i) for i in self.selector],
        }


def _as_vector(b) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if arr.ndim != 1:
        raise InputError("vector input must be one-dimensional")
    if arr.size == 0:
        raise InputError("vector input must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise InputError("vector entries must be finite")
    return arr


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0) or not math.isfinite(p):
        raise InputError(f"exponent p must be a real >= 1, got {p}")
    return p


def _powers(c: np.ndarray, p: float) -> np.ndarray:
    """Entrywise c**p, rejecting powers that overflow double precision."""
    with np.errstate(over="ignore"):
        cp = c**p
    if not np.all(np.isfinite(cp)):
        raise InputError(
            f"the entries' p-th powers (p = {p}) are not finite: they overflow double precision"
        )
    return cp


def _aligned(cp: np.ndarray, t: int, fam: WeightFamily, p: float, selector) -> NormResult:
    """Norm of the first t p-th powers paired with the top t weights."""
    total = float(np.sum(cp[:t] * fam.weights_head(t)))
    return NormResult(total ** (1.0 / p), p, selector)


def lorentz_norm(b, fam: WeightFamily, p: float) -> NormResult:
    """(sum of (sorted |b|)^p against the weights)^(1/p)."""
    p = _check_p(p)
    c = np.abs(_as_vector(b))
    order = np.argsort(-c, kind="stable")
    return _aligned(_powers(c, p)[order], int(np.count_nonzero(c)), fam, p, order + 1)


def _garling_monotone_up(cp: np.ndarray, fam: WeightFamily, p: float) -> NormResult:
    """Non-decreasing |b|: best selection is a suffix.

    Suffix of length t scores sum_j c_{m-t+j}^p w_j, which is the reversed
    window sum at n = t of the reversed (hence non-increasing) vector; the
    run-length scan maximizes it over t.  The canonical selector then picks,
    for each rank, the earliest index holding the required value.
    """
    value_p, t = functional_B(StepSequence.from_values(cp[::-1]), fam)
    needed = cp[-t:]
    firsts = np.searchsorted(cp, needed, side="left") + 1
    ranks = np.arange(t, dtype=np.int64)
    selector = np.maximum.accumulate(firsts - ranks) + ranks
    return NormResult(float(value_p) ** (1.0 / p), p, selector)


def _garling_dp(cp: np.ndarray, fam: WeightFamily, p: float) -> NormResult:
    """General dynamic program over (position, selected-count).

    Forward pass: M[j] = best score selecting exactly j entries, updated as
    M[j] = max(M[j], M[j-1] + c_i^p w_j) with the previous row on the right.
    Backward pass builds exact-completion scores so a forward prefer-take
    walk emits the lexicographically smallest selector among those with the
    fewest indices.
    """
    m = cp.size
    if m > GARLING_DP_CAP:
        raise CapExceededError(
            f"selection-norm DP capped at {GARLING_DP_CAP} entries, got {m}; "
            "monotone inputs of any size use the direct rules"
        )
    w = fam.weights_head(m)

    M = np.full(m + 1, -np.inf)
    M[0] = 0.0
    for i in range(m):
        cand = M[:-1] + cp[i] * w
        np.maximum(M[1:], cand, out=M[1:])
    jstar = int(np.argmax(M))
    opt = float(M[jstar])
    if jstar == 0:
        return NormResult(0.0, p, np.empty(0, dtype=np.int64))

    suffix = np.full((m + 2, jstar + 1), -np.inf)
    suffix[m + 1, jstar] = 0.0
    w_rank = w[:jstar]
    for i in range(m, 0, -1):
        nxt = suffix[i + 1]
        suffix[i, :jstar] = np.maximum(nxt[:jstar], cp[i - 1] * w_rank + nxt[1:])
        suffix[i, jstar] = nxt[jstar]

    tol = _SELECTOR_TOL * max(1.0, abs(opt))
    selector = np.empty(jstar, dtype=np.int64)
    acc = 0.0
    j = 0
    for i in range(1, m + 1):
        if j == jstar:
            break
        gain = cp[i - 1] * w[j]
        completion = suffix[i + 1, j + 1]
        forced = (m - i) < (jstar - j)
        if forced or (
            np.isfinite(completion) and acc + gain + completion >= opt - tol
        ):
            selector[j] = i
            acc += gain
            j += 1
    return NormResult(opt ** (1.0 / p), p, selector)


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
    m_pos = int(np.count_nonzero(c))
    if m_pos == 0:
        return NormResult(0.0, p, np.empty(0, dtype=np.int64))
    cp = _powers(c, p)
    if method == "auto":
        diffs = np.diff(c)
        if np.all(diffs <= 0):
            # Non-increasing: the full nonzero prefix aligned with the top
            # weights is optimal and is the unique fewest-index optimum.
            return _aligned(cp, m_pos, fam, p, np.arange(1, m_pos + 1, dtype=np.int64))
        if np.all(diffs >= 0):
            return _garling_monotone_up(cp, fam, p)
    return _garling_dp(cp, fam, p)


def symmetric_defect(
    a: StepSequence, fam: WeightFamily, p: float, r: int
) -> tuple[float, NormResult, NormResult]:
    """Selection norm of a non-increasing prefix against its reversal.

    Takes the first r entries of a, maps them through x -> x^(1/p), and
    compares the selection norms of the forward (non-increasing) and
    reversed (non-decreasing) vectors; the defect is forward^p / reversed^p.
    Any uniform bound on this quotient over all vectors would make the
    selection-norm basis symmetric; along the block witnesses it grows
    like r/6, so no bound exists.
    """
    p = _check_p(p)
    if r < 1:
        raise InputError(f"prefix length must be >= 1, got {r}")
    if r > a.support:
        raise InputError(f"prefix length {r} exceeds the support {a.support}")
    vals = a.expand()[:r] ** (1.0 / p)
    forward = garling_norm(vals, fam, p)
    backward = garling_norm(vals[::-1], fam, p)
    defect = (forward.value / backward.value) ** p
    return defect, forward, backward


def witness_gap(f: StepSequence, fam: WeightFamily, p: float) -> float:
    """Rearranged-over-selection norm quotient for one reversed block sequence."""
    p = _check_p(p)
    if f.is_zero:
        raise InputError("gap undefined for the zero sequence")
    reversed_vals = (f.expand() ** (1.0 / p))[::-1]
    lor = lorentz_norm(reversed_vals, fam, p)
    gar = garling_norm(reversed_vals, fam, p)
    return (lor.value / gar.value) ** p


def inclusion_gap(
    fam: WeightFamily,
    p: float,
    r: int,
    slack: float = DEFAULT_SLACK,
    cap: int | None = None,
) -> float:
    """Rearranged norm over selection norm on a reversed block witness.

    The rearranged norm ignores the reversal, so its p-th power equals the
    aligned sum A of the witness (>= r/2); the selection norm of the
    reversal is bounded by the reversed-window supremum (<= 3).  A quotient
    growing with r shows the rearrangement-invariant space sits strictly
    inside the selection-norm space, with no equivalent norm between them.
    """
    p = _check_p(p)
    d = find_block_lengths(fam, r, slack=slack, cap=cap)
    f = build_witness(fam, d)
    return witness_gap(f, fam, p)
