"""Aligned and reversed pairings of a non-increasing sequence with a weight.

For a finitely supported non-increasing sequence f = (a_i) and a weight
family w this module computes

* ``functional_A``: the aligned sum  A(f, w) = sum_i a_i * w_i,
* ``functional_B_at``: the reversed window sum  B(f, w, n) = sum_{i<=n} a_i * w_{1+n-i},
* ``functional_B``: the supremum of the window sums, and
* ``ratio``: A / B, the quantity whose boundedness over all f separates the
  weight classes identified in :mod:`seqspace.weights`.

Sequences are run-length encoded (:class:`StepSequence`), so A and a single
window sum cost O(runs) weight-window sums rather than O(support).  The
supremum takes one window-scan kernel, in float and exact arithmetic alike:
O(runs * support) work against one prefix array.
For the supremum it suffices to scan window lengths n up to the support
size m: for n > m every factor w_{1+n-i} on the support has shifted further
down the non-increasing weight, so B(f, w, n) <= B(f, w, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable

import numpy as np

from .exceptions import CapExceededError, InputError
from .weights import EXACT_PREFIX_CAP, PREFIX_ARRAY_CAP, WeightFamily

SCAN_CAP = PREFIX_ARRAY_CAP
SCAN_WORK_CAP = 2**34
EXPAND_CAP = 2**24
_SCAN_BLOCK = 2**16

Value = float | Fraction


def _coerce_value(v) -> Value:
    """Normalize a run value to Fraction (exact input) or float."""
    if isinstance(v, bool):
        raise InputError("run values must be numbers, not booleans")
    if isinstance(v, Rational):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise InputError(f"run value {v} is not finite")
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise InputError(f"run value {v!r} is not a real number")


def _value_to_string(v: Value) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return format(float(v), ".17g")


def _value_from_string(s: str) -> Value:
    s = s.strip()
    try:
        if "/" in s:
            return Fraction(s)
        if s.lstrip("+-").isdigit():
            return Fraction(int(s))
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad run value {s!r}") from exc


@dataclass(frozen=True)
class StepSequence:
    """Run-length encoded non-increasing, non-negative, finitely supported sequence.

    ``runs`` is a tuple of (length, value) pairs covering the support;
    everything beyond is zero.  Construction canonicalizes: adjacent equal
    values merge, zero runs are dropped (they may only appear at the tail),
    and the remaining values must be strictly decreasing and positive.  The
    all-zero sequence is the empty run list; it is a valid StepSequence but
    is rejected by :func:`ratio`, where it would divide by zero.

    Values are finite floats or Fractions; exact-mode functionals require
    every value to be a Fraction.
    """

    runs: tuple[tuple[int, Value], ...]

    def __post_init__(self) -> None:
        cleaned: list[tuple[int, Value]] = []
        for entry in self.runs:
            try:
                length, value = entry
            except (TypeError, ValueError) as exc:
                raise InputError(f"run {entry!r} is not a (length, value) pair") from exc
            if not isinstance(length, int) or isinstance(length, bool) or length < 1:
                raise InputError(f"run length must be a positive integer, got {length!r}")
            value = _coerce_value(value)
            if value < 0:
                raise InputError(f"run value must be non-negative, got {value}")
            if cleaned and cleaned[-1][1] == value:
                cleaned[-1] = (cleaned[-1][0] + length, value)
            else:
                cleaned.append((length, value))
        while cleaned and cleaned[-1][1] == 0:
            cleaned.pop()
        for (_, a), (_, b) in zip(cleaned, cleaned[1:]):
            if b >= a:
                raise InputError("run values must be non-increasing")
        if cleaned and cleaned[-1][1] <= 0:
            raise InputError("interior run values must be strictly positive")
        object.__setattr__(self, "runs", tuple(cleaned))

    @classmethod
    def from_values(cls, values) -> "StepSequence":
        """Encode a dense value list or array; run values keep their Python types."""
        x = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        if x.ndim != 1:
            raise InputError("dense values must form a one-dimensional sequence")
        ends = np.r_[np.flatnonzero(x[1:] != x[:-1]), x.size - 1][: x.size]
        lengths = np.diff(np.r_[-1, ends])
        return cls(tuple(zip(lengths.tolist(), x[ends].tolist())))

    @property
    def support(self) -> int:
        return sum(length for length, _ in self.runs)

    @property
    def is_zero(self) -> bool:
        return not self.runs

    @property
    def all_rational(self) -> bool:
        return all(isinstance(v, Fraction) for _, v in self.runs)

    def bounds(self) -> list[tuple[int, int, Value]]:
        """Per-run (start, end, value) with 1-based inclusive positions."""
        out = []
        pos = 1
        for length, value in self.runs:
            out.append((pos, pos + length - 1, value))
            pos += length
        return out

    def expand(self) -> np.ndarray:
        """Dense float array of the support (no trailing zeros)."""
        m = self.support
        if m > EXPAND_CAP:
            raise CapExceededError(f"expansion capped at {EXPAND_CAP} entries, got {m}")
        out = np.empty(m)
        pos = 0
        for length, value in self.runs:
            out[pos : pos + length] = float(value)
            pos += length
        return out

    def scaled(self, factor) -> "StepSequence":
        factor = _coerce_value(factor)
        if factor <= 0:
            raise InputError("scale factor must be positive")
        return StepSequence(tuple((n, v * factor) for n, v in self.runs))

    def to_json_dict(self) -> dict:
        return {"runs": [[length, _value_to_string(v)] for length, v in self.runs]}

    @classmethod
    def from_json_dict(cls, data) -> "StepSequence":
        if not isinstance(data, dict) or "runs" not in data:
            raise InputError('step sequence JSON must be {"runs": [[len, "value"], ...]}')
        runs = []
        for entry in data["runs"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError(f"bad run entry {entry!r}")
            length, value = entry
            if not isinstance(length, int):
                raise InputError(f"run length must be an integer, got {length!r}")
            runs.append((length, _value_from_string(str(value))))
        return cls(tuple(runs))


@dataclass(frozen=True)
class FunctionalReport:
    """A, B, the smallest window length attaining B, and their quotient."""

    A: Value
    B: Value
    argmax_n: int
    ratio: Value


@dataclass(frozen=True)
class Arithmetic:
    """The number type and weight sums one evaluation runs in.

    Float arithmetic sums weight windows directly with compensation and
    totals with ``math.fsum``; exact arithmetic takes differences of exact
    ``Fraction`` prefixes and totals from ``Fraction(0)``.  ``prefixes(m)`` is
    the array [W(0), ..., W(m)], of floats or of the cached Fractions.
    """

    exact: bool
    num: type
    prefix: Callable[[int], Value]
    prefixes: Callable[[int], np.ndarray]
    window: Callable[[int, int], Value]
    total: Callable[[Iterable[Value]], Value]


def arithmetic(
    mode: str, fam: WeightFamily, f: StepSequence | None = None
) -> Arithmetic:
    """Select float or exact arithmetic, checking that fam (and f) admit it.

    ``mode`` is ``"float"`` or ``"rational"``.  Exact arithmetic needs a
    rational family and, when a sequence is given, rational run values and a
    support within the exact-prefix cap.
    """
    if mode == "float":
        return Arithmetic(
            False, float, fam.prefix_sum, fam.prefix_array, fam.window_sum, math.fsum
        )
    if mode != "rational":
        raise InputError(f"mode must be 'float' or 'rational', got {mode!r}")
    if not fam.supports_exact:
        raise InputError(f"family {fam.spec!r} does not support exact evaluation")
    if f is not None and not f.all_rational:
        raise InputError("exact evaluation needs all run values rational")
    if f is not None and f.support > EXACT_PREFIX_CAP:
        raise CapExceededError(
            f"exact evaluation capped at support {EXACT_PREFIX_CAP}, got {f.support}"
        )
    prefix = fam.prefix_fraction
    return Arithmetic(
        True,
        Fraction,
        prefix,
        lambda m: np.fromiter(map(prefix, range(m + 1)), dtype=object, count=m + 1),
        lambda lo, hi: prefix(hi) - prefix(lo - 1),
        lambda parts: sum(parts, Fraction(0)),
    )


def _check_support(f: StepSequence, fam: WeightFamily) -> None:
    if f.support > fam.index_cap:
        raise CapExceededError(
            f"support {f.support} exceeds the family index cap {fam.index_cap}"
        )


def functional_A(f: StepSequence, fam: WeightFamily, mode: str = "float") -> Value:
    """Aligned sum A(f, w) = sum_i a_i w_i, evaluated run by run.

    Each run contributes value * (window sum of the weights it covers); the
    windows are summed directly rather than as prefix differences, so small
    runs deep in the sequence do not suffer cancellation.
    """
    _check_support(f, fam)
    ar = arithmetic(mode, fam, f)
    return ar.total(
        ar.num(value) * ar.window(start, end) for start, end, value in f.bounds()
    )


def functional_B_at(
    f: StepSequence, fam: WeightFamily, n: int, mode: str = "float"
) -> Value:
    """Reversed window sum B(f, w, n) = sum_{i=1..n} a_i w_{1+n-i}.

    A run covering positions s..e meets the window in positions s..min(e, n)
    and, reversed, picks up the weight window [1+n-min(e,n), 1+n-s].
    """
    if n < 1:
        raise InputError(f"window length must be >= 1, got {n}")
    _check_support(f, fam)
    ar = arithmetic(mode, fam, f)
    return ar.total(
        ar.num(value) * ar.window(1 + n - min(end, n), 1 + n - start)
        for start, end, value in f.bounds()
        if start <= n
    )


def _scan_dense(f: StepSequence, ar: Arithmetic) -> tuple[Value, int]:
    """All window sums, in either arithmetic, from one prefix array.

    Window lengths n are taken in blocks of ``_SCAN_BLOCK``, so temporaries
    stay O(block) beside the O(support) prefix array.  Each n adds the same
    run terms in the same order whatever the blocking, and the first block
    maximum wins ties, so the result does not depend on the block size.
    """
    m = f.support
    prefix = ar.prefixes(m)
    runs = [(start, end, ar.num(value)) for start, end, value in f.bounds()]
    best, best_n = None, 0
    for lo in range(1, m + 1, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK - 1, m)
        scan = np.zeros(hi - lo + 1, dtype=prefix.dtype)
        for start, end, v in runs:
            if start > hi:
                break
            # Window n >= start sees the run's first min(end, n) - start + 1 terms:
            # v * W(1+n-start) while n < end, then v * (W(1+n-start) - W(n-end)),
            # the difference taken before scaling so that v * W cannot overflow.
            a, b = max(start, lo), min(end, hi + 1)
            if a < b:
                scan[a - lo : b - lo] += v * prefix[1 + a - start : 1 + b - start]
            if end <= hi:
                a = max(end, lo)
                scan[a - lo :] += v * (
                    prefix[1 + a - start : 2 + hi - start] - prefix[a - end : 1 + hi - end]
                )
        k = int(np.argmax(scan))
        if best is None or scan[k] > best:
            best, best_n = scan[k], lo + k
    return ar.num(best), best_n


def functional_B(
    f: StepSequence, fam: WeightFamily, mode: str = "float"
) -> tuple[Value, int]:
    """Largest reversed window sum and the smallest window length attaining it.

    Scans n = 1..support; windows beyond the support only shift the support
    onto smaller weights, so they never exceed the value at n = support.
    The scan holds one prefix array of support + 1 entries and does
    O(runs * support) work; both are capped before anything is allocated.
    """
    _check_support(f, fam)
    ar = arithmetic(mode, fam, f)
    m = f.support
    if m == 0:
        return ar.num(0), 1
    if m > SCAN_CAP:
        raise CapExceededError(f"window scan capped at support {SCAN_CAP}, got {m}")
    if len(f.runs) * m > SCAN_WORK_CAP:
        raise CapExceededError(
            f"window scan capped at {SCAN_WORK_CAP} run-window terms, "
            f"got {len(f.runs)} runs over support {m}"
        )
    return _scan_dense(f, ar)


def ratio(f: StepSequence, fam: WeightFamily, mode: str = "float") -> FunctionalReport:
    """Full report: A, B, argmax window, and the quotient A / B."""
    if f.is_zero:
        raise InputError("ratio undefined for the zero sequence (B = 0)")
    a = functional_A(f, fam, mode=mode)
    b, argmax_n = functional_B(f, fam, mode=mode)
    return FunctionalReport(A=a, B=b, argmax_n=argmax_n, ratio=a / b)
