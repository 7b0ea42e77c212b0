"""Aligned and reversed pairings of a non-increasing sequence with a weight.

For a finitely supported non-increasing sequence f = (a_i) and a weight
family w this module computes

* ``functional_A``: the aligned sum  A(f, w) = sum_i a_i * w_i,
* ``functional_B_at``: the reversed window sum  B(f, w, n) = sum_{i<=n} a_i * w_{1+n-i},
* ``functional_B``: the supremum of the window sums, and
* ``ratio``: A / B, the quantity whose boundedness over all f separates the
  weight classes identified in :mod:`seqspace.weights`.

Sequences are run-length encoded (:class:`StepSequence`), so A and a single
window sum cost O(runs) weight-window sums rather than O(support), read
under one family lock.  Each entry point reads its sequence once, through
:func:`_read`: one list of (start, end, value) runs, checked against the
family and the arithmetic, each value in the arithmetic's number type, which
the scan, A and the selection norm's suffix selector all take.  The
supremum takes one float window scan, by one
of three routes with the same bits: one gathered pass for a short support,
an FFT filter with a proven band for many runs (float mode), or the per-run
kernel over the blocks of the family's :class:`~seqspace.weights.Ledger`,
which ``ratio``'s A then reads as kept block sums.  The kernel costs
O(runs) per window for each block it scans.  In
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
from itertools import chain
from numbers import Rational
from typing import Callable, Iterable, Iterator

import numpy as np

from . import weights
from .exceptions import CapExceededError, InputError
from .weights import WeightFamily, as_index

SCAN_WORK_CAP = 2**34
_GATHER_SUPPORT = 2**9  # longest support the one gathered pass takes
_GATHER_WORK = 2**16  # and most run-window terms, which bounds its temporaries
_FFT_RUNS = 256  # fewest runs the FFT filter takes
_FFT_CAP = 2**18  # largest support the FFT filter takes
_FFT_VALUE_CAP = 2.0**900  # run values the FFT filter takes lie below this
_FFT_CANDIDATE_WORK = 2**20  # run-window terms of the FFT band's re-evaluation
EXPAND_CAP = 2**24
_UNIT = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1073  # rounding error bound of a result below the normal range

Value = float | Fraction
Runs = list[tuple[int, int, Value]]  # (start, end, value) per run, 1-based and inclusive


def _coerce_value(v) -> Value:
    """Normalize a run value to Fraction (exact input) or float."""
    if isinstance(v, float):  # the common case first: a bool is no float
        if not math.isfinite(v):
            raise InputError(f"run value {v} is not finite")
        return v
    if isinstance(v, bool):
        raise InputError("run values must be numbers, not booleans")
    if isinstance(v, Rational):
        return Fraction(v)
    raise InputError(f"run value {v!r} is not a real number")


def _float_runs(bounds: Runs) -> list[tuple[int, int, float]]:
    """Per-run (start, end, value) with each value read as a float, as ``float`` rounds it.

    A Fraction past the double range raises InputError, not OverflowError.
    """
    try:
        return [(start, end, float(value)) for start, end, value in bounds]
    except OverflowError as exc:
        raise InputError("a run value lies past the double range") from exc


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
            if not cleaned or value < cleaned[-1][1]:
                cleaned.append((length, value))
            elif value == cleaned[-1][1]:
                cleaned[-1] = (cleaned[-1][0] + length, value)
            else:
                raise InputError("run values must be non-increasing")
        while cleaned and cleaned[-1][1] == 0:
            cleaned.pop()
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

    def bounds(self) -> Runs:
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
        runs = _float_runs(self.bounds())
        return np.repeat([v for _, _, v in runs], [1 + end - start for start, end, _ in runs])

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

    Float arithmetic sums weight windows directly with compensation, every
    window of one evaluation under one family lock, and totals with
    ``math.fsum``; exact arithmetic takes differences of exact ``Fraction``
    prefixes and totals from ``Fraction(0)``.  ``windows`` maps a list of
    (lo, hi) to the list of w_lo + ... + w_hi.
    """

    exact: bool
    num: type
    prefix: Callable[[int], Value]
    windows: Callable[[list[tuple[int, int]]], list[Value]]
    total: Callable[[Iterable[Value]], Value]


def arithmetic(mode: str, fam: WeightFamily) -> Arithmetic:
    """Select float or exact arithmetic, checking that fam admits it.

    ``mode`` is ``"float"`` or ``"rational"``; exact arithmetic needs a
    rational family.  A sequence is checked against the arithmetic by its
    one reader, :func:`_read`.
    """
    if mode == "float":
        return Arithmetic(False, float, fam.prefix_sum, fam.window_sums, math.fsum)
    if mode != "rational":
        raise InputError(f"mode must be 'float' or 'rational', got {mode!r}")
    if not fam.supports_exact:
        raise InputError(f"family {fam.spec!r} does not support exact evaluation")
    prefix = fam.prefix_fraction
    return Arithmetic(
        True,
        Fraction,
        prefix,
        lambda windows: [prefix(hi) - prefix(lo - 1) for lo, hi in windows],
        lambda parts: sum(parts, Fraction(0)),
    )


def _read(f: StepSequence, fam: WeightFamily, mode: str) -> tuple[Arithmetic, Runs]:
    """The arithmetic of ``mode`` and f's runs, each value in its number type.

    The one reading of a sequence per evaluation: it lists ``f.bounds()``
    once, checks that the support, the last run's end, lies within the
    family's index cap, selects the arithmetic (:func:`arithmetic`), and for
    exact arithmetic checks that every run value is rational and that the
    support lies within ``weights.EXACT_PREFIX_CAP``.  Float arithmetic reads
    each value as its float (:func:`_float_runs`), which is what a Fraction
    times a float window computes, so every evaluation after the read runs
    on values of one type; when every value's type is exactly ``float``, the
    list of bounds is already that reading and is returned itself.
    """
    bounds = f.bounds()
    support = bounds[-1][1] if bounds else 0
    if support > fam.index_cap:
        raise CapExceededError(f"support {support} exceeds the family index cap {fam.index_cap}")
    ar = arithmetic(mode, fam)
    if not ar.exact:
        return ar, bounds if all(type(run[2]) is float for run in bounds) else _float_runs(bounds)
    if not f.all_rational:
        raise InputError("exact evaluation needs all run values rational")
    cap = weights.EXACT_PREFIX_CAP
    if support > cap:
        raise CapExceededError(f"exact evaluation capped at support {cap}, got {support}")
    return ar, bounds


def functional_A(f: StepSequence, fam: WeightFamily, mode: str = "float") -> Value:
    """Aligned sum A(f, w) = sum_i a_i w_i, evaluated run by run.

    Each run contributes value * (window sum of the weights it covers); the
    windows are summed directly rather than as prefix differences, so small
    runs deep in the sequence do not suffer cancellation.  Raises InputError
    when A lies past the double range.
    """
    return _pairings(*_read(f, fam, mode), "A")


def _pairings(ar: Arithmetic, terms: Runs, layer: str) -> Value:
    """The total of value * (w_lo + ... + w_hi) over (lo, hi, value), its windows read at once.

    A float total past the double range, a product that rounds to inf or
    finite products whose ``math.fsum`` overflows, raises InputError naming
    ``layer``.
    """
    sums = ar.windows([(lo, hi) for lo, hi, _ in terms])
    try:
        total = ar.total(value * s for (_, _, value), s in zip(terms, sums))
    except OverflowError:
        total = math.inf
    if not ar.exact and not math.isfinite(total):
        raise InputError(
            f"{layer} is not finite ({total}): its sum of run values times weight "
            "windows overflows double precision"
        )
    return total


def _B_at(ar: Arithmetic, runs: Runs, n: int) -> Value:
    terms = [(1 + n - min(end, n), 1 + n - start, value) for start, end, value in runs if start <= n]
    return _pairings(ar, terms, f"B({n})")


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
    return _B_at(*_read(f, fam, mode), n)


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
    runs: list[tuple[int, int, float]], ledger: weights.Ledger, lo: int, hi: int, top_w: float
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
    nothing.  The products with v are added in run order onto 0.0.  The
    caller holds the family lock; single weights come from the ledger's
    cached blocks where they hold them, the same bits as a term generated
    alone.
    """
    b = ledger.block

    def end(x: int) -> float:  # a kept block end forms no prefix
        j = -(-x // b)
        return ledger.end(j) if j * b <= hi else top_w

    total = 0.0
    for start, e, v in runs:
        if start > hi:
            break
        x = end(1 + min(e, hi) - start)
        if e < lo:
            length_bound = (1 + e - start) * ledger.weight(1 + lo - e)
            x = min(x, length_bound, end(1 + lo - start) - ledger.end((lo - e) // b))
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
    ``top_prefix`` with non-negative coefficients.  When U lies past the
    double range, E is inf: a scan then skips no block, and B is the
    kernel's maximum, finite or inf, since B may stay finite when U does
    not.
    """
    runs = len(values)
    tau = _gamma(3)
    rho = tau + (3 * _gamma(m) + 4 * _UNIT) * (1 + tau)
    eps_p = 2 * rho * (1 + _UNIT) + 6 * _UNIT
    try:
        total_u = math.fsum(values) * (1 + 4 * _UNIT) + 2 * runs * _ETA
    except OverflowError:  # finite run values summing past the double range
        total_u = math.inf
    top_w = top_prefix * (1 + 2 * rho) + 4 * m * _ETA
    alpha = 8 * (m + 1) * _ETA * max(1.0, values[0])
    e0 = total_u * top_w * (eps_p + _gamma(runs) * (1 + eps_p))
    return 4 * (e0 + runs * alpha * (1 + _gamma(runs)))


def _gather(runs: list[tuple[int, int, float]], P: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The kernel's run terms for the windows ``n``: row k is v_k (P(1+n-s_k) - P(n-e_k)).

    ``P`` holds the float prefixes P(0) = 0.0, ..., P(m), m the last run's
    end, and an index x <= 0 reads P(0).  While n < e_k the difference is
    P(1+n-s_k) - 0.0, the kernel's own P(1+n-s_k).  A run with s_k > n
    gives v_k * 0.0 = 0.0, a term the kernel does not add; adding it to a
    sum begun at 0.0 changes no bit, since such a sum is never -0.0.  So
    summing the rows in run order onto 0.0 gives the kernel's sums bit for
    bit.
    """
    m, count = P.size - 1, len(runs)
    padded = np.concatenate((np.zeros(m), P))  # padded[m + x] = P(max(x, 0)) for x >= -m
    starts = (m + 1 - run[0] for run in runs)
    ends = (m - run[1] for run in runs)
    rows = padded[np.fromiter(chain(starts, ends), np.intp, 2 * count)[:, None] + n]
    return _run_values(runs)[:, None] * (rows[:count] - rows[count:])


def _run_values(runs: list[tuple[int, int, float]]) -> np.ndarray:
    return np.fromiter((run[2] for run in runs), np.float64, len(runs))


def _gathered_scan(runs: list[tuple[int, int, float]], P: np.ndarray) -> np.ndarray:
    """Every window's kernel sum, n = 1..m, from one gathered pass over the prefixes P(0..m).

    numpy reduces the leading axis of the (runs, m) terms row by row, so
    each window's sum adds its run terms in run order onto 0.0, as the
    kernel does (a single window has a single run).
    """
    return np.add.reduce(_gather(runs, P, np.arange(1, P.size)), axis=0, initial=0.0)


def _fft_error_bound(a: np.ndarray, d: np.ndarray, size: int) -> float:
    """E_F with |F(n) - sum_i c a_{n+1-i} (P(i) - P(i-1))| <= E_F for n = 1..m.

    F is the FFT filter's value ``irfft(rfft(a, L) * rfft(d, L), L)`` with
    L = ``size`` = 2**t >= 2m - 1, so the circular convolution is the linear
    one at n <= m.  ``a`` holds the m floats fl(c a_i), the dense run values
    scaled by a power of two c to at most 1, and ``d`` the m floats
    fl(P(i) - P(i-1)), within rounding of the weights, none above w_1 = 1.
    Assumed: numpy's pocketfft transforms of length 2**t meet the bound that Higham
    (Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 24.2)
    proves for the radix-2 FFT, |y' - y|_2 <= kappa |y|_2 with
    kappa = t eta / (1 - t eta), eta = mu + gamma(4) (sqrt 2 + mu), for
    twiddle factors within mu = 4u (as ``_scan_error_bound`` assumes 4 ulps
    of libm's ``pow``).  With F the unnormalised DFT, |F x|_2 = sqrt(L) |x|_2
    and |x * y|_2 <= |x|_2 |y|_2 for entrywise products:

    1. The two forward transforms are F a + e_a and F d + e_d with
       |e_a|_2 <= kappa sqrt(L) |a|_2, and so for d.
    2. Their product differs from F a * F d by at most
       (2 kappa + kappa^2) L |a|_2 |d|_2, and each complex product rounds
       within sqrt(2) gamma(2) of itself (Higham, Lemma 3.5), so the
       rounded product z is within sigma L |a|_2 |d|_2 of F a * F d, with
       sigma = 2 kappa + kappa^2 + sqrt(2) gamma(2) (1 + kappa)^2 + u; the
       last u covers d's own rounding, |d_i - (P(i) - P(i-1))| <= u |d_i|,
       through Cauchy-Schwarz.
    3. The inverse transform, F^-1 = F* / L (L a power of two, so the
       scaling is exact), maps that error to sqrt(L) sigma |a|_2 |d|_2 and
       adds its own kappa |F^-1 z|_2 <= kappa sqrt(L) (1 + sigma) |a|_2 |d|_2.

    So E_F <= sqrt(L) |a|_2 |d|_2 (sigma + kappa (1 + sigma)), the 2-norm
    bounding every entry.  The norms come from two sums of squares with
    gamma(m) margins and m eta for squares below the normal range.
    Underflow in the transforms adds at most eta to each of their 3 L t
    products, amplified at most L-fold by the later stages and m-fold by
    the entrywise product: 3 L^2 t m eta, and a's entries below the normal
    range m eta more.  E_F is 4 times the sum, the factor 4 a safety margin
    that also covers the roundings in evaluating it.
    """
    m, t = a.size, size.bit_length() - 1
    eta = 4 * _UNIT + _gamma(4) * (math.sqrt(2) + 4 * _UNIT)
    kappa = t * eta / (1 - t * eta)
    sigma = 2 * kappa + kappa**2 + math.sqrt(2) * _gamma(2) * (1 + kappa) ** 2 + _UNIT
    a2, d2 = (float(np.add.reduce(x * x)) + m * _ETA for x in (a, d))
    norms = math.sqrt(a2 * d2) * (1 + 2 * _gamma(m))
    spread = math.sqrt(size) * norms * (sigma + kappa * (1 + sigma))
    return 4 * (spread + (3 * size * size * t + 1) * m * _ETA)


def _fft_top(runs: list[tuple[int, int, float]], fam: WeightFamily) -> tuple[float, int] | None:
    """The kernel's first maximum over many runs by an FFT filter; None when too many windows tie.

    ``runs`` holds (start, end, value) per run, each value a float.

    Write K(n) for the kernel's float sum and K*(n) for the same sum in real
    arithmetic on the same float prefixes P, which telescopes to
    sum_i a_{n+1-i} d_i, d_i = P(i) - P(i-1), for the dense run values a.
    The filter F convolves a scaled by c = 2**-e, e the exponent of the
    first run value (so c a_i < 1, each rounded by at most eta), with
    fl(d_i) through ``rfft``: |F(n) - c K*(n)| <= E_F
    (:func:`_fft_error_bound`).  K(n) - K*(n) is made only of the kernel's
    own roundings, steps 3-5 of :func:`_scan_error_bound` without their
    prefix errors: one subtraction and one product per run, each within u
    of itself (the product also within eta), and the run sum onto 0.0,
    within gamma(R) of the sum of its terms' magnitudes.  Together they are
    within gamma(R + 2) S + 2 R eta, S = sum_k v_k |P(a_k) - P(b_k)| <=
    sum_i a_{n+1-i} |d_i| <= v_1 D, D = sum_i |d_i| <= P(m) when P rises.
    With the factor 4 of the other bounds, c E_K = 4 (gamma(R + 2) D +
    2 R c eta), since c v_1 < 1, bounds c |K(n) - K*(n)|.  For a kernel
    maximiser n* and F's maximiser n_F,
    F(n*) >= c K*(n*) - E_F >= c K(n*) - c E_K - E_F >= c K(n_F) - c E_K - E_F
    >= F(n_F) - 2 (E_F + c E_K), so every kernel maximiser lies in the band
    of that width below F's top.  Each window in the band is re-evaluated
    with the kernel's own arithmetic: :func:`_gather`, then a ``cumsum``
    over runs, sequential in run order, plus 0.0.  The ``cumsum`` starts at
    the first term, not at 0.0 plus it; the two differ only while every
    term so far is -0.0, and the final + 0.0 turns that -0.0 into the
    kernel's 0.0.  The largest sum wins, the smallest n among ties.  Run
    values below ``_FFT_VALUE_CAP`` keep every kernel sum below 2**960, so
    none overflows and the rounding model holds.  When the band holds more
    than ``_FFT_CANDIDATE_WORK`` run-window terms, as when many windows tie,
    the caller runs the kernel.  (E of :func:`_scan_error_bound` would bound
    K - K* too, but its U V charges every run the whole W(m): on 2**17
    distinct runs its band held 360 windows.)
    """
    P = fam.prefix_array(runs[-1][1])
    n = _fft_band(runs, P)
    if n.size * len(runs) > _FFT_CANDIDATE_WORK:
        return None
    sums = np.cumsum(_gather(runs, P, n), axis=0)[-1] + 0.0
    k = int(sums.argmax())
    return float(sums[k]), int(n[k])


def _fft_band(runs: list[tuple[int, int, float]], P: np.ndarray) -> np.ndarray:
    """The windows n within 2 (E_F + c E_K) of the FFT filter's top (:func:`_fft_top`).

    The filter's arrays are freed on return, before the band is re-evaluated.
    """
    m, count = P.size - 1, len(runs)
    d = np.diff(P)
    values = _run_values(runs)
    e = math.frexp(values[0])[1]  # c = 2**-e, past the double range when v_1 is subnormal
    lengths = np.fromiter((1 + run[1] - run[0] for run in runs), np.intp, count)
    a = np.repeat(np.ldexp(values, -e), lengths)
    size = 1 << (2 * m - 2).bit_length()
    spectrum = np.fft.rfft(a, size)
    spectrum *= np.fft.rfft(d, size)
    filtered = np.fft.irfft(spectrum, size)[:m]
    total_d = float(np.add.reduce(np.abs(d))) * (1 + 2 * _gamma(m + 1)) + m * _ETA
    rounding = 4 * (_gamma(count + 2) * total_d + 2 * count * math.ldexp(_ETA, -e))
    band = 2 * (_fft_error_bound(a, d, size) + rounding)
    return np.flatnonzero(filtered >= filtered.max() - band) + 1


def _scan(ar: Arithmetic, runs: Runs, fam: WeightFamily) -> tuple[Value, int]:
    """B and its smallest attaining window from the family ledger, by one of three routes.

    ``runs`` is :func:`_read`'s run list.  Every route yields the per-run
    kernel's (B, argmax) bit for bit.

    * Short supports, both arithmetics: a support within the first ledger
      block and ``_GATHER_SUPPORT`` entries, with runs * support <=
      ``_GATHER_WORK``, takes one gathered pass over every window at once
      (:func:`_gathered_scan`), a few numpy calls in all rather than a few
      per run.  Its gather costs about 15 ns a run-window term against the
      kernel's 1-2 ns plus about 9 us a run, so it pays only on short
      supports.
    * Many runs, float mode only: :func:`_fft_top`'s FFT filter, O(m log m)
      for ``_FFT_RUNS`` runs or more over a support of at most
      ``_FFT_CAP`` with run values below ``_FFT_VALUE_CAP``, re-evaluating
      only the windows inside its proven band.  When too many remain it
      falls back to the kernel.
    * Otherwise the kernel, :func:`_scan_dense`, O(runs) per window.

    The kernel in float mode passes over a block of windows [lo, hi] when
    ``_peak_bound`` + 2E < top (never while top is still -inf), E from
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
    in the last.  Exact mode scans every block.  Each bound reads its kept
    ends and weights under one family lock.

    Overflow.  Run k adds v_k (W(1+n-s_k) - W(n-e_k)) to B(n), v_k times
    the sum of the weights in its reversed window [1+n-min(e_k, n), 1+n-s_k];
    the windows of the runs with s_k <= n tile 1..n, and v_k <= v_1, so
    B(n) <= v_1 W(n) <= v_1 W(m) <= v_1 m, every weight being at most
    w_1 = 1.  A float product or partial sum of a window adds to its terms'
    real sum at most R eps_D V of prefix error (step 3 of
    :func:`_scan_error_bound`, V within 2 rho of W(m)) and gamma(R) of
    rounding; with R <= m <= 2**28 that leaves it below 2**7 v_1 m.  So a
    float scan enters numpy's overflow state, where a window sum past the
    double range makes B inf, only when v_1 m exceeds 2**1000; an exact
    scan's values are at most 1 over a support within ``EXACT_PREFIX_CAP``.
    """
    if not runs:
        return ar.num(0), 1
    m = runs[-1][1]
    if len(runs) * m > SCAN_WORK_CAP:
        raise CapExceededError(
            f"window scan capped at {SCAN_WORK_CAP} run-window terms, "
            f"got {len(runs)} runs over support {m}"
        )
    if not ar.exact and runs[0][2] * m > 2.0**1000:
        with np.errstate(over="ignore"):
            return _routes(ar, runs, fam)
    return _routes(ar, runs, fam)


def _routes(ar: Arithmetic, runs: Runs, fam: WeightFamily) -> tuple[Value, int]:
    """:func:`_scan`'s three routes, on its checked runs."""
    m = runs[-1][1]
    block, skip = weights._ARRAY_BLOCK, None
    short = m <= min(block, _GATHER_SUPPORT) and len(runs) * m <= _GATHER_WORK
    many = len(runs) >= _FFT_RUNS and m <= _FFT_CAP and runs[0][2] < _FFT_VALUE_CAP
    if many and not (short or ar.exact) and (found := _fft_top(runs, fam)) is not None:
        return found
    floats = [(start, end, float(v / runs[0][2])) for start, end, v in runs] if ar.exact else runs
    top, first, blocks = -math.inf, 0, []
    if short:
        scans = [(1, _gathered_scan(floats, fam._prefixes(0, m)[: m + 1]))]
    else:
        if not ar.exact and m > block:
            # E is affine in V with non-negative coefficients: 2E(V) <= e0 + e1 V
            e0, e1 = (2 * _scan_error_bound(m, [v for *_, v in floats], x) for x in (0.0, 1.0))

            def skip(lo: int, hi: int) -> bool:
                with fam._lock:
                    ledger = fam._blocks()
                    top_w = ledger.prefix(hi)
                    margin = e0 + e1 * top_w
                    return _peak_bound(floats, ledger, lo, hi, top_w) + margin < top

        scans = _scan_dense(floats, lambda j: fam._prefixes(j, m), block, skip)
    for lo, scan in scans:
        k = int(scan.argmax())  # the block's first maximum
        if scan[k] > top:
            top, first = float(scan[k]), lo + k
        if ar.exact:
            blocks.append(scan)
    if not ar.exact:
        return top, first
    # B(n*) >= B(n) for every n, so scan(n*) >= top - 2E for a true maximiser n*
    band = 2 * _scan_error_bound(m, [u for *_, u in floats], fam.prefix_sum(m))
    scan = np.concatenate(blocks)
    candidates = (np.flatnonzero(scan >= top - band) + 1).tolist()
    best, neg_n = max((_B_at(ar, runs, n), -n) for n in candidates)
    return best, -neg_n


def functional_B(
    f: StepSequence, fam: WeightFamily, mode: str = "float"
) -> tuple[Value, int]:
    """Largest reversed window sum and the smallest window length attaining it.

    Scans n = 1..support; windows beyond the support only shift the support
    onto smaller weights, so they never exceed the value at n = support.
    One float scan serves both arithmetics, by one of three routes that give
    the same bits (:func:`_scan`); its O(runs * support) work is capped
    before anything is allocated.

    * A short support, of at most 512 entries and 2**16 run-window terms,
      takes one gathered pass over all windows: a few numpy calls whatever
      the run count.
    * In float mode, 256 runs or more over a support of at most 2**18 take
      an O(m log m) FFT filter with a proven error band, and only the
      windows inside the band are summed as the kernel sums them: a
      non-decreasing selection norm on 16,384 distinct entries costs one
      or two windows' sums beside three transforms.
    * Otherwise the per-run kernel reads the weight prefixes from the
      family's :class:`~seqspace.weights.Ledger`, holding only the blocks
      the windows of one block read.  Float mode skips each block of
      windows that its per-run peak bound, read from kept block ends and
      single weights, rules out, so the work is O(runs) per block plus
      O(runs) per window of the blocks scanned, and the ledger forms
      prefixes only in the blocks the scanned windows read and in the last.

    Float mode scans the run values and returns the first maximum.  B is
    linear in f, so exact mode scans the values divided exactly by the first
    one, where no float overflows, keeping the at most ``EXACT_PREFIX_CAP``
    scan values.  With E from :func:`_scan_error_bound` and P(m) the
    ledger's W(m), a true maximiser n* has scan(n*) >= B(n*) - E >=
    B(n_top) - E >= top - 2E, so only the windows in that band below the top
    are re-evaluated exactly, from the family's exact prefixes.  A float
    window sum past the double range makes B inf, whichever route scans it.
    """
    return _scan(*_read(f, fam, mode), fam)


def ratio(f: StepSequence, fam: WeightFamily, mode: str = "float") -> FunctionalReport:
    """Full report: A, B, argmax window, and the quotient A / B.

    B's scan grows the family ledger over the support first, so A's run
    windows then read its kept block sums and cached blocks, all of them
    under one family lock.  A float A past the double range raises
    InputError.
    """
    return _report(*_read(f, fam, mode), fam)


def _report(ar: Arithmetic, runs: Runs, fam: WeightFamily) -> FunctionalReport:
    """:func:`ratio` on :func:`_read`'s output; the zero sequence (B = 0) raises InputError."""
    if not runs:
        raise InputError("ratio undefined for the zero sequence (B = 0)")
    b, argmax_n = _scan(ar, runs, fam)
    a = _pairings(ar, runs, "A")
    return FunctionalReport(A=a, B=b, argmax_n=argmax_n, ratio=a / b)
