"""Aligned and reversed pairings of a non-increasing sequence with a weight.

For a finitely supported non-increasing sequence f = (a_i) and a weight
family w this module computes

* ``functional_A``: the aligned sum  A(f, w) = sum_i a_i * w_i,
* ``functional_B_at``: the reversed window sum  B(f, w, n) = sum_{i<=n} a_i * w_{1+n-i},
* ``functional_B``: the supremum of the window sums, and
* ``ratio``: A / B, the quantity whose boundedness over all f separates the
  weight classes identified in :mod:`seqspace.weights`.

Sequences are run-length encoded (:class:`StepSequence`), so the functionals
cost O(runs) point work plus prefix-sum lookups rather than O(support).
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
from .weights import EXACT_PREFIX_CAP, PREFIX_ARRAY_CAP, WeightFamily, neumaier_add

DENSE_SCAN_CAP = PREFIX_ARRAY_CAP
SCAN_CAP = 2**28
EXPAND_CAP = 2**24
_SCAN_BLOCK = 2**22

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
    ``Fraction`` prefixes and totals from ``Fraction(0)``.
    """

    exact: bool
    num: type
    prefix: Callable[[int], Value]
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
        return Arithmetic(False, float, fam.prefix_sum, fam.window_sum, math.fsum)
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


def _scan_dense(f: StepSequence, fam: WeightFamily) -> tuple[float, int]:
    """All window sums at once via one prefix array and per-run shifted slices."""
    m = f.support
    prefix = fam.prefix_array(m)
    scan = np.zeros(m + 1)
    for start, end, value in f.bounds():
        v = float(value)
        # Window n >= start sees the run's first min(end, n) - start + 1 terms:
        # contribution v * (W(1+n-start) - W(n-end)), the subtrahend vanishing
        # while n < end.
        scan[start:] += v * prefix[1 : m - start + 2]
        if end <= m:
            scan[end:] -= v * prefix[0 : m - end + 1]
    n = int(np.argmax(scan[1:])) + 1
    return float(scan[n]), n


def _scan_chunked(f: StepSequence, fam: WeightFamily) -> tuple[float, int]:
    """Streaming window-sum scan for supports past the dense-array cap.

    Walks n in blocks, advancing each run's contribution by its first
    difference v * (w_{1+n-start} - w_{n-end}); block deltas are accumulated
    into the running base with compensation.  Accuracy is slightly below the
    dense path.  Certified witnesses do reach this path: the harmonic r = 5
    witness has support 72,174,691, past the dense cap of 2**26.
    """
    m = f.support
    bounds = f.bounds()
    if len(bounds) * m > 2**34:
        raise CapExceededError("window scan too large: too many runs for this support")
    best = -math.inf
    best_n = 0
    base = 0.0
    comp = 0.0
    block_lo = 1
    while block_lo <= m:
        block_hi = min(block_lo + _SCAN_BLOCK - 1, m)
        size = block_hi - block_lo + 1
        deltas = np.zeros(size)
        for start, end, value in bounds:
            if start > block_hi:
                break
            v = float(value)
            # gain index 1+n-start for n in block, only once n >= start
            g_lo = 1 + block_lo - start
            if g_lo < 1:
                first = start - block_lo  # offset where n reaches start
                deltas[first:] += v * fam.weights_slice(1, 1 + block_hi - start)
            else:
                deltas += v * fam.weights_slice(g_lo, 1 + block_hi - start)
            # loss index n-end once n > end
            l_hi = block_hi - end
            if l_hi >= 1:
                l_lo = block_lo - end
                if l_lo < 1:
                    deltas[size - l_hi :] -= v * fam.weights_slice(1, l_hi)
                else:
                    deltas -= v * fam.weights_slice(l_lo, l_hi)
        np.cumsum(deltas, out=deltas)
        values = base + comp + deltas
        k = int(np.argmax(values))
        if values[k] > best:
            best = float(values[k])
            best_n = block_lo + k
        base, comp = neumaier_add(base, comp, float(deltas[-1]))
        block_lo = block_hi + 1
    return best, best_n


def functional_B(
    f: StepSequence, fam: WeightFamily, mode: str = "float"
) -> tuple[Value, int]:
    """Largest reversed window sum and the smallest window length attaining it.

    Scans n = 1..support; windows beyond the support only shift the support
    onto smaller weights, so they never exceed the value at n = support.
    """
    _check_support(f, fam)
    ar = arithmetic(mode, fam, f)
    m = f.support
    if m == 0:
        return ar.num(0), 1
    if ar.exact:
        best = Fraction(-1)
        best_n = 0
        for n in range(1, m + 1):
            value = functional_B_at(f, fam, n, mode=mode)
            if value > best:
                best, best_n = value, n
        return best, best_n
    if m <= DENSE_SCAN_CAP:
        return _scan_dense(f, fam)
    if m <= SCAN_CAP:
        return _scan_chunked(f, fam)
    raise CapExceededError(f"window scan capped at support {SCAN_CAP}, got {m}")


def ratio(f: StepSequence, fam: WeightFamily, mode: str = "float") -> FunctionalReport:
    """Full report: A, B, argmax window, and the quotient A / B."""
    if f.is_zero:
        raise InputError("ratio undefined for the zero sequence (B = 0)")
    a = functional_A(f, fam, mode=mode)
    b, argmax_n = functional_B(f, fam, mode=mode)
    return FunctionalReport(A=a, B=b, argmax_n=argmax_n, ratio=a / b)
