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
supremum takes one float window-scan kernel over the blocks of the family's
:class:`~seqspace.weights.Ledger`, which ``ratio``'s A then reads as kept
block sums.  The scan costs O(runs) per window for each block it scans.  In
float mode it skips a block whose per-run peak bound (:func:`_peak_bound`)
lies more than twice its error bound below the best sum so far.  The bound
reads kept block ends and single weights only, so a skipped block's
prefixes are never formed: verifying the largest witness certificates
scans one to three of their 168 to 2,702 blocks.  A scanned block reads
two slices of W per run from the ledger's cached blocks.  Exact
arithmetic runs the same float scan, every block of it, with a proven error
band and re-evaluates exactly only the windows inside the band, so its
O(support) work stays in floats.
For the supremum it suffices to scan window lengths n up to the support
size m: for n > m every factor w_{1+n-i} on the support has shifted further
down the non-increasing weight, so B(f, w, n) <= B(f, w, m).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Iterator

import numpy as np

from . import weights
from .exceptions import CapExceededError, InputError
from .weights import EXACT_PREFIX_CAP, WeightFamily, as_index

SCAN_WORK_CAP = 2**34
EXPAND_CAP = 2**24
_UNIT = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1073  # rounding error bound of a result below the normal range

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
    raise InputError(f"run value {v!r} is not a real number")


def _digit_limit() -> int:
    """The interpreter's integer/string conversion digit limit, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _digit_limit_error() -> InputError:
    return InputError(
        f"exact value exceeds the interpreter's {_digit_limit()}-digit limit for "
        "integer/string conversion; sys.set_int_max_str_digits(0) lifts it"
    )


def _value_to_string(v: Value) -> str:
    if isinstance(v, Fraction):
        try:
            return f"{v.numerator}/{v.denominator}"
        except ValueError as exc:  # only the digit limit can refuse an int
            raise _digit_limit_error() from exc
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
        parts = re.fullmatch(r"[+-]?(\d+)(?:/(\d+))?", s)
        if parts and max(len(part or "") for part in parts.groups()) > _digit_limit() > 0:
            raise _digit_limit_error() from exc
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
            length = as_index(length, "run length")
            if length < 1:
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

    ``mode`` is ``"float"`` or ``"rational"``.  A given sequence's support
    must lie within the family's index cap.  Exact arithmetic needs a
    rational family and, when a sequence is given, rational run values and a
    support within the exact-prefix cap.
    """
    if f is not None and f.support > fam.index_cap:
        raise CapExceededError(
            f"support {f.support} exceeds the family index cap {fam.index_cap}"
        )
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


def functional_A(f: StepSequence, fam: WeightFamily, mode: str = "float") -> Value:
    """Aligned sum A(f, w) = sum_i a_i w_i, evaluated run by run.

    Each run contributes value * (window sum of the weights it covers); the
    windows are summed directly rather than as prefix differences, so small
    runs deep in the sequence do not suffer cancellation.
    """
    ar = arithmetic(mode, fam, f)
    return ar.total(
        ar.num(value) * ar.window(start, end) for start, end, value in f.bounds()
    )


def _B_at(bounds: list[tuple[int, int, Value]], n: int, ar: Arithmetic) -> Value:
    # exact arithmetic has Fraction run values, and a Fraction times a float
    # window is a float, so each product already has the arithmetic's type
    return ar.total(
        value * ar.window(1 + n - min(end, n), 1 + n - start)
        for start, end, value in bounds
        if start <= n
    )


def functional_B_at(
    f: StepSequence, fam: WeightFamily, n: int, mode: str = "float"
) -> Value:
    """Reversed window sum B(f, w, n) = sum_{i=1..n} a_i w_{1+n-i}.

    A run covering positions s..e meets the window in positions s..min(e, n)
    and, reversed, picks up the weight window [1+n-min(e,n), 1+n-s].
    """
    n = as_index(n, "window length")
    if n < 1:
        raise InputError(f"window length must be >= 1, got {n}")
    return _B_at(f.bounds(), n, arithmetic(mode, fam, f))


def _scan_dense(
    runs: list[tuple[int, int, float]],
    prefixes: Callable[[int], np.ndarray],
    block: int,
    skip: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """All float window sums against the prefixes W(0..m), read block by block.

    ``runs`` holds (start, end, value) per run, tiling 1..m, and
    ``prefixes(j)`` is [W(jB), ..., W(jB + B)], B = ``block``, cut at m or
    later.  Yields (lo, scan), where scan[i] is the sum for window length
    lo + i; window lengths 1..m come in blocks of B, so temporaries stay
    O(block).  Each n adds the same run terms in the same order whatever the
    blocking, so no sum depends on it.  A block [lo, hi] for which
    ``skip(lo, hi)`` is true is neither scanned nor yielded, and reads no
    prefix.  A scanned block reads two slices of W per run, W(1+n-s) and
    W(n-e) over its windows n, each a view of one block's prefixes or two
    joined.  It holds the blocks it reads and passes those the next scanned
    block reads again on to it, so a scan holds O(min(runs, m/B)) blocks.
    """
    m = runs[-1][1]
    held: dict[int, np.ndarray] = {}
    for lo in range(1, m + 1, block):
        hi = min(lo + block - 1, m)
        if skip is not None and skip(lo, hi):
            continue
        held, last = {}, held

        def W(x: int, k: int) -> np.ndarray:  # W(x..x+k-1), k <= B
            j, i = divmod(x, block)
            p = held[j] if j in held else fetch(j)
            if i + k <= p.size:
                return p[i : i + k]
            q = held[j + 1] if j + 1 in held else fetch(j + 1)
            return np.concatenate((p[i:], q[1 : i + k - block]))

        def fetch(j: int) -> np.ndarray:
            p = held[j] = last[j] if j in last else prefixes(j)
            return p

        scan = np.zeros(hi - lo + 1)
        for start, end, v in runs:
            if start > hi:
                break
            # Window n >= start sees the run's first min(end, n) - start + 1 terms:
            # v * W(1+n-start) while n < end, then v * (W(1+n-start) - W(n-end)),
            # the difference taken before scaling so that v * W cannot overflow.
            a, b = max(start, lo), min(end, hi + 1)
            if a < b:
                scan[a - lo : b - lo] += v * W(1 + a - start, b - a)
            if end <= hi:
                a = max(end, lo)
                k = 1 + hi - a
                scan[a - lo :] += v * (W(1 + a - start, k) - W(a - end, k))
        yield lo, scan


def _peak_bound(
    runs: list[tuple[int, int, float]], fam: WeightFamily, lo: int, hi: int, top_w: float
) -> float:
    """A float upper bound on the window sums lo..hi from each run's peak, forming no prefix.

    Run k, on positions s..e with value v, adds v c(n) to B(n), where
    c(n) = W(1+n-s) - W(n-e) and W(x) = 0 for x <= 0.  For n >= s,
    c(n+1) - c(n) = w_{2+n-s} - w_{n+1-e}, with w_x = 0 for x <= 0.  While
    n < e the second weight is 0, so c rises; from n = e on,
    2+n-s > n+1-e >= 1 and the weights do not increase, so c falls; before
    s, c is 0.  So on lo..hi, c <= c(min(e, hi)) = W(1 + min(e, hi) - s),
    and W, non-decreasing, is at most its value at the first block end at
    or past that index, kept in the family's ledger, or ``top_w`` = P(hi)
    where that block end lies past hi, in the last block.  A run that ended
    before lo also has c <= c(lo), the sum of its L = e-s+1 weights from
    w_{lo-e+1} on, so c <= L w_{lo-e+1}.  And c(lo) = W(1+lo-s) - W(lo-e),
    where W(1+lo-s) is at most W at the first block end at or past 1+lo-s
    and W(lo-e) at least W at the last block end at or before lo-e, so c is
    at most their difference, the least form for a long run that ended well
    before lo.
    The bound takes the least of the three.  A run starting after hi adds
    nothing.  The products with v are added in run order onto 0.0.
    """
    b = weights._ARRAY_BLOCK

    def end(x: int) -> float:  # a kept block end is a prefix_sum that forms no prefix
        x = -(-x // b) * b
        return fam.prefix_sum(x) if x <= hi else top_w

    total = 0.0
    for start, e, v in runs:
        if start > hi:
            break
        x = end(1 + min(e, hi) - start)
        if e < lo:
            length_bound = (1 + e - start) * fam.weight_at(1 + lo - e)
            x = min(x, length_bound, end(1 + lo - start) - fam.prefix_sum((lo - e) // b * b))
        total += v * x
    return total


def _gamma(k: int) -> float:
    return k * _UNIT / (1 - k * _UNIT)


def _scan_error_bound(m: int, values: list[float], top_prefix: float) -> float:
    """E with |scan(n) - c B(n)| <= E for every window n = 1..M.

    ``scan`` is :func:`_scan_dense` run on the non-increasing positive floats
    v_j in ``values``, each c a_j rounded at most once, against the float
    prefixes P of a :class:`~seqspace.weights.Ledger` over W(1..m);
    ``top_prefix`` is P(M), 1 <= M <= m.  Exact mode takes c = 1 / a_1, so
    v_1 = 1 and every v_j lies in (0, 1]; float mode takes c = 1, the raw
    run values, which are exact and of any size.  The same E bounds the
    error of any sum formed as a scan value is, from prefixes P(x), x <= M
    (:func:`_peak_bound`).  Write
    u = 2**-53, gamma(k) = k u / (1 - k u), eta = 2**-1073 for a result
    that lands below the normal range, R runs, U = sum_j v_j, and
    V >= W(M) >= w_1 = 1.  The error enters in five steps:

    1. Term rounding.  The rational families form each float weight with at
       most three roundings (1/i; max(c, 1/i); a listed p/q; w_L * L / i),
       so |t_i - w_i| <= tau w_i + eta with tau = gamma(3).  The ``power:``
       terms of ``np.power`` are assumed within 4 ulps (8u) of i**-a; that
       raises rho, below, by at most 5u (1 + rho) against rho >= 10u, so E_0
       by less than a factor 1.6 and E_0 <= E / 2.5.
    2. Prefixes (``Ledger``).  Within a block P is a sequential
       ``cumsum`` (gamma(m)); the block base is a Neumaier sum of pairwise
       block sums (gamma(m) for the block sums, u for the compensated sum and
       u m gamma(m) <= gamma(m) for its compensation term); one add joins
       the two (u), and at a whole block's end P is that sum alone.  Which
       blocks the ledger caches, and when a block is generated again,
       changes none of them.  So |P(k) - W(k)| <= rho W(k) + 2 k eta, with
       rho = tau + (3 gamma(m) + 4u)(1 + tau).
    3. Per-run prefix difference P(a) - P(b), a, b <= M (b = 0 while the
       window ends inside the run, where P(0) = 0 exactly): the two prefix
       errors and one rounding give eps_D V + 5 m eta, eps_D = 2 rho (1 + u) + u.
    4. Product with the run value, |v_j - c a_j| <= u c a_j + eta (0 for
       raw values), and its own rounding: v_j V eps_p + alpha with
       eps_p = eps_D + 5u.  The factor v_j <= max(1, v_1) scales step 3's
       absolute part, so alpha = 8 (m + 1) eta max(1, v_1) covers it, the
       run values and the products that underflow.
    5. Run sum.  The R products are added in run order onto 0.0, which adds
       gamma(R) times the sum of their magnitudes.

    So E_0 = U V (eps_p + gamma(R) (1 + eps_p)) + R alpha (1 + gamma(R)),
    with U and V bounded from the floats with upward margins, and E = 4 E_0.
    The factor 4 is a safety margin; it also covers the few roundings made
    in evaluating E and the candidate threshold.  E is affine in
    ``top_prefix`` with non-negative coefficients.
    """
    runs = len(values)
    tau = _gamma(3)
    rho = tau + (3 * _gamma(m) + 4 * _UNIT) * (1 + tau)
    eps_p = 2 * rho * (1 + _UNIT) + 6 * _UNIT
    total_u = math.fsum(values) * (1 + 4 * _UNIT) + 2 * runs * _ETA
    top_w = top_prefix * (1 + 2 * rho) + 4 * m * _ETA
    alpha = 8 * (m + 1) * _ETA * max(1.0, values[0])
    e0 = total_u * top_w * (eps_p + _gamma(runs) * (1 + eps_p))
    return 4 * (e0 + runs * alpha * (1 + _gamma(runs)))


def _scan(f: StepSequence, fam: WeightFamily, ar: Arithmetic) -> tuple[Value, int]:
    """B and its smallest attaining window from the family ledger's blocks.

    Float mode passes over a block of windows [lo, hi] when ``_peak_bound``
    + 2E < top (never while top is still -inf), E from
    :func:`_scan_error_bound` for the raw run values with V = P(hi), the
    kept W(hi) (for the last block, P(m)).  Its E_0 <= E / 2.5
    bounds the error of a scan value, and of the bound's float T' against
    the real bound T it evaluates.  Each kept end there is W at a block end
    x <= hi, the Neumaier sum of the block sums alone, or P(m) in the last
    block, so within rho W(x) + 2x eta of W(x) <= W(hi): step 3's error
    without its subtraction.  A difference of two such kept ends is a
    prefix difference P(a) - P(b), a, b <= hi, with step 3's error.  A
    product L w_j, within (tau + u) of itself, is the least of a run's
    three forms only if it lies below a kept end's float, so that it too is
    within (tau + u)(1 + 2 rho) W(hi), inside eps_p W(hi).  So T' is
    within E_0 of T whichever form is least, and every window n of the
    block has scan(n) <= B(n) + E_0 <= T + E_0 <= T' + 2 E_0.  The rest of
    2E, at least 3 E_0 >= 78u U V (eps_p >= 26u), covers the roundings in
    forming 2E as 2E(0) + 2E(1) V and in adding it to T', which is at most
    U V + E_0.  So no window of a skipped block reaches top, and the first
    maximum is the full scan's.  A bound that is inf or NaN compares false,
    and its block is scanned.  Reading P(hi) grows the ledger through hi,
    but prefixes are formed only in the blocks the scanned windows read and
    in the last.  Exact mode scans every block.
    """
    m = f.support
    if m == 0:
        return ar.num(0), 1
    if len(f.runs) * m > SCAN_WORK_CAP:
        raise CapExceededError(
            f"window scan capped at {SCAN_WORK_CAP} run-window terms, "
            f"got {len(f.runs)} runs over support {m}"
        )
    bounds = f.bounds()
    scale = bounds[0][2] if ar.exact else 1.0
    runs = [(start, end, float(value / scale)) for start, end, value in bounds]
    top, first, blocks = -math.inf, 0, []
    block, skip = weights._ARRAY_BLOCK, None
    if not ar.exact and m > block:
        # E is affine in V with non-negative coefficients: 2E(V) <= e0 + e1 V
        e0, e1 = (2 * _scan_error_bound(m, [v for *_, v in runs], x) for x in (0.0, 1.0))

        def skip(lo: int, hi: int) -> bool:
            top_w = fam.prefix_sum(hi)
            margin = e0 + e1 * top_w
            return _peak_bound(runs, fam, lo, hi, top_w) + margin < top

    for lo, scan in _scan_dense(runs, fam._prefixes, block, skip):
        k = int(scan.argmax())  # the block's first maximum
        if scan[k] > top:
            top, first = float(scan[k]), lo + k
        if ar.exact:
            blocks.append(scan)
    if not ar.exact:
        return top, first
    # B(n*) >= B(n) for every n, so scan(n*) >= top - 2E for a true maximiser n*
    band = 2 * _scan_error_bound(m, [u for *_, u in runs], fam.prefix_sum(m))
    scan = np.concatenate(blocks)
    candidates = (np.flatnonzero(scan >= top - band) + 1).tolist()
    best, neg_n = max((_B_at(bounds, n, ar), -n) for n in candidates)
    return best, -neg_n


def functional_B(
    f: StepSequence, fam: WeightFamily, mode: str = "float"
) -> tuple[Value, int]:
    """Largest reversed window sum and the smallest window length attaining it.

    Scans n = 1..support; windows beyond the support only shift the support
    onto smaller weights, so they never exceed the value at n = support.
    One float scan serves both arithmetics.  It reads the weight prefixes
    from the family's :class:`~seqspace.weights.Ledger`, holding only the
    blocks the windows of one block read; its O(runs * support) work is
    capped before anything is allocated.  Float mode scans the run values
    and returns the first maximum, skipping each block of windows that its
    per-run peak bound, read from kept block ends and single weights, rules
    out (:func:`_scan`).  So the work is O(runs) per block plus O(runs) per
    window of the blocks scanned, and the ledger forms prefixes only in the
    blocks the scanned windows read and in the last.  B is linear in f, so
    exact mode scans the values divided exactly by the first one, where no
    float overflows, keeping the at most ``EXACT_PREFIX_CAP`` scan values.
    With E from :func:`_scan_error_bound` and P(m) the ledger's W(m), a true
    maximiser n* has scan(n*) >= B(n*) - E >= B(n_top) - E >= top - 2E, so
    only the windows in that band below the top are re-evaluated exactly,
    from the cached Fraction prefixes.
    """
    return _scan(f, fam, arithmetic(mode, fam, f))


def ratio(f: StepSequence, fam: WeightFamily, mode: str = "float") -> FunctionalReport:
    """Full report: A, B, argmax window, and the quotient A / B.

    B's scan grows the family ledger over the support first, so A's run
    windows then read its kept block sums and cached blocks.
    """
    if f.is_zero:
        raise InputError("ratio undefined for the zero sequence (B = 0)")
    b, argmax_n = _scan(f, fam, arithmetic(mode, fam, f))
    a = functional_A(f, fam, mode=mode)
    return FunctionalReport(A=a, B=b, argmax_n=argmax_n, ratio=a / b)
