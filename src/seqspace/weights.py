"""Weight families: normalized non-increasing positive sequences.

A weight family exposes point queries ``weight_at``, compensated prefix sums
``prefix_sum`` and ``classify``, which sorts the family into one of three
branches:

* ``Summable``      - sum of all weights is finite,
* ``BoundedBelow``  - weights stay above a positive floor,
* ``CZeroNotEllOne``- weights vanish but are not summable.

The first two branches each come with an explicit constant bounding the
aligned/reversed functional ratio computed in :mod:`seqspace.functionals`;
the third branch is exactly the regime where that ratio is unbounded and the
witness construction of :mod:`seqspace.witness` applies.

A prefix sum W(n) is W(q), q the largest power of two below n, plus the
compensated sum of the 2**22-term chunks of w_{q+1}..w_n, so each value has
one canonical path.  Every W(n), and the sum of every full chunk of such a
dyadic interval (q, 2q], is memoized.  A family holds one term buffer of at
most 2**22 floats (32 MB), the span: the terms of the chunk the latest
prefix or window read ended in, when that chunk is longer than one
2**16-term piece.  A block search probing back and forth inside one interval
therefore generates each weight there about once, and indices up to the
2**28 index cap stay cheap.  ``prefix_array`` and the window scan of
:mod:`seqspace.functionals` read W(1..m) from a :class:`PrefixStream`.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exceptions import CapExceededError, InputError

DEFAULT_INDEX_CAP = 2**28  # the largest support a window scan takes
EXACT_PREFIX_CAP = 100_000

_CHUNK = 2**22
_ARRAY_BLOCK = 2**16
_SUMMABLE_PARTIAL_TERMS = 10**6


class Branch(Enum):
    SUMMABLE = "Summable"
    BOUNDED_BELOW = "BoundedBelow"
    C0_NOT_L1 = "CZeroNotEllOne"


@dataclass(frozen=True)
class Classification:
    """Branch verdict plus the ratio constant it guarantees, if any.

    ``constant`` is a safe upper bound on the aligned/reversed ratio: the
    total weight for summable families (never an estimate below the true
    sum), and first-weight-over-floor for bounded-below families.  It is
    absent on the vanishing non-summable branch, where no constant exists.
    """

    branch: Branch
    constant: float | None
    evidence: str


def as_index(i, name: str) -> int:
    """i as an int: Python and numpy integers pass; bools, floats and other types are refused."""
    if not isinstance(i, bool):
        try:
            return operator.index(i)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {i!r}")


def neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    """Add x to total; comp carries the rounding error (Neumaier's step).

    The compensated sum is ``total + comp`` once every term has been added.
    """
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


def _chunks(lo: int, hi: int):
    """The chunks (start, end) of w_lo..w_hi: ``_CHUNK`` terms each, anchored at lo.

    A window sum is the compensated sum of its chunks' ``np.sum``, whichever
    path reads them.
    """
    for start in range(lo, hi + 1, _CHUNK):
        yield start, min(start + _CHUNK - 1, hi)


class WeightFamily:
    """Base class: immutable weight sequence with internal prefix caches.

    Subclasses implement term generation and classification analytics.  All
    caches are guarded by a lock and every prefix sum is computed along a
    deterministic path (largest power-of-two checkpoint, then fixed-size
    chunks), so concurrent readers always observe identical values.  No
    weight, window or prefix read, exact or float, may pass the family's index cap.

    The chunk memo, the term buffer and the prefix stream change no float: a
    term's value does not depend on the range it is generated in, and the
    ``np.sum`` of a slice equals that of the same terms generated afresh, so
    a chunk summed from the buffer or from a streamed block equals the sum
    of its fresh terms bit for bit.
    """

    spec: str

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        self._cap = as_index(index_cap, "index cap")
        if not 1 <= self._cap <= DEFAULT_INDEX_CAP:
            raise InputError(f"index cap must lie in 1..{DEFAULT_INDEX_CAP}, got {index_cap}")
        self._lock = threading.Lock()
        self._memo: dict[int, float] = {0: 0.0}
        self._chunk_memo: dict[int, float] = {}
        # the term buffer; as the span, it holds the terms of the chunk
        # starting at w_{_span_lo}, of which the first _span_len are filled
        self._buf: np.ndarray | None = None
        self._span_lo = 0
        self._span_len = 0
        self._frac_prefix: list[Fraction] = [Fraction(0)]
        self._classification: Classification | None = None

    # -- read checks -----------------------------------------------------

    def _check_cap(self, n: int, read: str) -> None:
        if n > self._cap:
            raise CapExceededError(f"{read} index {n} exceeds the configured cap {self._cap}")

    def _range(self, lo, hi, start: str, end: str, read: str = "weight") -> tuple[int, int]:
        """lo and hi as ints with lo >= 1; a non-empty range must end within the cap."""
        lo, hi = as_index(lo, start), as_index(hi, end)
        if lo < 1:
            raise InputError(f"{start} must be >= 1, got {lo}")
        if hi >= lo:
            self._check_cap(hi, read)
        return lo, hi

    def _length(self, n, name: str) -> int:
        n = as_index(n, name)
        if n < 0:
            raise InputError(f"{name} must be non-negative, got {n}")
        return n

    # -- term generation -------------------------------------------------

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        """Weights w_lo..w_hi inclusive as a float64 array."""
        raise NotImplementedError

    def weight_at(self, i: int) -> float:
        """Point value w_i (i >= 1)."""
        i, _ = self._range(i, i, "weight index", "weight index")
        return float(self._terms(i, i)[0])

    def weights_head(self, m: int) -> np.ndarray:
        """First m weights as an array (w_1..w_m)."""
        return self.weights_slice(1, self._length(m, "length"))

    def weights_slice(self, lo: int, hi: int) -> np.ndarray:
        """Weights w_lo..w_hi inclusive (empty when hi < lo)."""
        lo, hi = self._range(lo, hi, "slice start", "slice end")
        return self._terms(lo, hi) if hi >= lo else np.empty(0)

    # -- exact (rational) side -------------------------------------------

    supports_exact = False

    def _fraction(self, i: int) -> Fraction:
        """Exact w_i, i >= 1, of a family that supports exact weights."""
        raise NotImplementedError

    def _require_exact(self) -> None:
        if not self.supports_exact:
            raise InputError(f"family {self.spec!r} has no exact rational weights")

    def weight_fraction(self, i: int) -> Fraction:
        """Exact w_i for rational families, within the index cap."""
        self._require_exact()
        i, _ = self._range(i, i, "weight index", "weight index")
        return self._fraction(i)

    def prefix_fraction(self, n: int) -> Fraction:
        """Exact W(n) for rational families, within the index cap and EXACT_PREFIX_CAP."""
        self._require_exact()
        n = self._length(n, "prefix length")
        self._check_cap(n, "prefix")
        if n > EXACT_PREFIX_CAP:
            raise CapExceededError(f"exact prefix sums capped at {EXACT_PREFIX_CAP}, got {n}")
        with self._lock:
            while len(self._frac_prefix) <= n:
                i = len(self._frac_prefix)
                self._frac_prefix.append(self._frac_prefix[-1] + self._fraction(i))
            return self._frac_prefix[n]

    # -- compensated prefix sums -----------------------------------------

    def _block_sum(self, lo: int, hi: int, span: int = 0) -> float:
        """Compensated sum of w_lo..w_hi over its ``_chunks``; the caller holds the lock.

        numpy's pairwise ``np.sum`` keeps each positive chunk's relative
        error near machine epsilon; the chunks are combined with compensation.
        """
        total = comp = 0.0
        for a, b in _chunks(lo, hi):
            total, comp = neumaier_add(total, comp, self._chunk(a, b, span))
        return total + comp

    def _chunk(self, lo: int, hi: int, span: int = 0) -> float:
        """``np.sum`` of w_lo..w_hi, one chunk; the caller holds the lock.

        ``span`` > 0 marks a chunk of a prefix's dyadic interval: a full one
        is memoized by its start, and ``span`` is the span its interval takes
        (a chunk's start fixes its interval, so a read starting where the span
        does fits in it).  A window chunk takes a span of its own length.  A
        span of at most one ``_ARRAY_BLOCK`` piece is not kept: those terms
        are generated afresh.  A longer one is anchored at lo and filled in
        pieces as far as the read needs; a read at another anchor re-anchors
        it, keeping the buffer when it holds the span.
        """
        full = span and hi - lo + 1 == _CHUNK
        if full and lo in self._chunk_memo:
            return self._chunk_memo[lo]
        size = span or hi - lo + 1
        if size <= _ARRAY_BLOCK:
            total = float(np.sum(self._terms(lo, hi)))
        else:
            if self._buf is None or self._buf.size < size:
                self._buf = None  # dropped before the next one is allocated
                self._buf, self._span_len = np.empty(size), 0
            if lo != self._span_lo:
                self._span_lo, self._span_len = lo, 0
            while self._span_len <= hi - lo:
                a = self._span_len
                b = min(a + _ARRAY_BLOCK, size)
                self._buf[a:b] = self._terms(lo + a, lo + b - 1)
                self._span_len = b
            total = float(np.sum(self._buf[: hi - lo + 1]))
        if full:
            self._chunk_memo[lo] = total
        return total

    def _prefix(self, n: int) -> float:
        # W(n) = W(q) + w_{q+1} + ... + w_n with q the largest power of two
        # below n (0 for n = 1), so every value has one canonical path; the
        # interval (q, 2q] has q terms, so its chunks need a span of no more
        hit = self._memo.get(n)
        if hit is None:
            q = 1 << ((n - 1).bit_length() - 1) if n > 1 else 0
            span = min(_CHUNK, max(q, 1))
            hit = self._memo[n] = self._prefix(q) + self._block_sum(q + 1, n, span)
        return hit

    def prefix_sum(self, n: int) -> float:
        """W(n) = w_1 + ... + w_n, with W(0) = 0.

        Relative error is a few machine epsilons: ``_CHUNK``-term chunks are
        summed pairwise and combined with Neumaier compensation.  Each value
        is memoized, as is each full chunk sum of the dyadic interval
        ``(q, 2q]`` holding n (at most 63 below 2**28); the terms of the
        chunk n ends in stay in the span (see the module docstring), so a
        later query in that chunk, a bisection probe say, generates only the
        terms it adds.  Raises CapExceededError beyond the family's index cap.
        """
        n = self._length(n, "prefix length")
        self._check_cap(n, "prefix")
        with self._lock:
            return self._prefix(n)

    def window_sum(self, lo: int, hi: int) -> float:
        """w_lo + ... + w_hi by direct summation (empty when hi < lo).

        Summing the window directly avoids the cancellation a difference of
        two large prefix sums would suffer when the window total is small.
        The window's terms are generated afresh; a chunk of more than one
        ``_ARRAY_BLOCK`` piece is filled into the span, anchored at the chunk.
        """
        lo, hi = self._range(lo, hi, "window start", "window end", "window end")
        with self._lock:
            return self._block_sum(lo, hi)

    def prefix_array(self, m: int) -> np.ndarray:
        """Array [W(0), W(1), ..., W(m)]: the prefix stream, kept whole."""
        m = self._length(m, "length")
        self._check_cap(m, "prefix")
        return PrefixStream(self, m, m).reach(m)

    # -- classification ----------------------------------------------------

    def _classify(self) -> Classification:
        raise NotImplementedError

    def classify(self) -> Classification:
        """Dichotomy branch with its explicit ratio constant when one exists."""
        with self._lock:
            if self._classification is None:
                self._classification = self._classify()
            return self._classification

    @property
    def index_cap(self) -> int:
        return self._cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


class PrefixStream:
    """W(0) and a ring of the prefixes W(1..m), streamed in aligned blocks.

    Block j, W(1 + jB), ..., W(min((j + 1)B, m)) with B = ``_ARRAY_BLOCK``,
    is the ``cumsum`` of its terms, each generated once, plus the Neumaier
    sum of the earlier blocks' ``np.sum``, written straight into the ring;
    ``reach(hi)`` streams blocks until W(hi) is in.  W(0) is ``data[0]`` and
    W(x), x >= 1, is ``data[1 + (x - 1) % cap]``.  The ring holds whole
    blocks, at least ``keep`` + B entries and at most m, so once W(hi) is in,
    every W(x) with x > hi - keep is still there: a block overwrites only
    older entries.  Past a ring that wraps, a guard repeats its first
    ``read`` entries, so a read of at most ``read`` consecutive entries is
    one slice.  Kept whole (``keep = m``), the ring is the prefix array.

    ``windows`` are ranges (lo, hi) tiling 1..m in order; the sum of each,
    bit for bit ``window_sum(lo, hi)``, is appended to ``sums`` once the
    block holding hi is in.  A chunk of a window (``_chunks``) is summed in
    place when it lies in one block, and otherwise copied into the family's
    term buffer, which the stream takes, sized by the longest such chunk:
    the family has no span from then on, and its next span read allocates a
    new buffer.
    """

    def __init__(
        self, fam: WeightFamily, m: int, keep: int, read: int = 0, windows=(), sums=None
    ) -> None:
        block = _ARRAY_BLOCK
        self.cap = min(m, -(-(keep + block) // block) * block)
        self._guard = read if self.cap < m else 0
        self.data = np.empty(1 + self.cap + self._guard)
        self.data[0] = 0.0
        self.top = 0  # the last index streamed in
        self._fam, self._m, self._sums = fam, m, sums
        self._base = self._comp = 0.0  # the blocks so far
        self._chunks = [(c, e, hi) for lo, hi in windows for c, e in _chunks(lo, hi)]
        self._i = 0  # the next chunk to sum
        self._total = self._part = 0.0  # the current window's chunks so far
        crossing = [e - c + 1 for c, e, _ in self._chunks if (c - 1) // block != (e - 1) // block]
        self._buf = None
        if crossing:
            with fam._lock:
                self._buf, fam._buf, fam._span_len = fam._buf, None, 0
            if self._buf is None or self._buf.size < max(crossing):
                self._buf = None  # dropped before the next one is allocated
                self._buf = np.empty(max(crossing))

    def reach(self, hi: int) -> np.ndarray:
        """The data array, once W(hi) is streamed in."""
        while self.top < hi:
            self._next_block()
        return self.data

    def _next_block(self) -> None:
        start = self.top + 1
        end = min(start + _ARRAY_BLOCK - 1, self._m)
        terms = self._fam._terms(start, end)
        i = (start - 1) % self.cap  # blocks start at whole blocks of the ring, so none wraps
        block = np.cumsum(terms, out=self.data[1 + i : 2 + i + end - start])
        block += self._base + self._comp
        self._base, self._comp = neumaier_add(self._base, self._comp, float(np.sum(terms)))
        if i < self._guard:  # the guard repeats ring offsets 0.._guard - 1
            j = min(self._guard, i + end - start + 1)
            self.data[1 + self.cap + i : 1 + self.cap + j] = self.data[1 + i : 1 + j]
        self.top = end
        while self._i < len(self._chunks) and self._chunks[self._i][0] <= end:
            c, e, hi = self._chunks[self._i]
            if start <= c and e <= end:
                x = np.sum(terms[c - start : e - start + 1])
            else:
                a, b = max(c, start), min(e, end)
                self._buf[a - c : b - c + 1] = terms[a - start : b - start + 1]
                if e > end:
                    break
                x = np.sum(self._buf[: e - c + 1])
            self._total, self._part = neumaier_add(self._total, self._part, float(x))
            if e == hi:
                self._sums.append(self._total + self._part)
                self._total = self._part = 0.0
            self._i += 1

    @property
    def last(self) -> float:
        """W(top), the last entry streamed in."""
        return float(self.data[1 + (self.top - 1) % self.cap])


class PowerWeights(WeightFamily):
    """w_i = i**(-alpha) for alpha > 0; summable exactly when alpha > 1."""

    def __init__(self, alpha: float, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        super().__init__(index_cap)
        if not (alpha > 0) or not math.isfinite(alpha):
            raise InputError(f"power exponent must be a positive real, got {alpha}")
        self.alpha = float(alpha)
        self.spec = f"power:{self.alpha:.17g}"

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi + 1, dtype=np.float64)
        return idx ** (-self.alpha)

    def _classify(self) -> Classification:
        if self.alpha > 1.0:
            n = _SUMMABLE_PARTIAL_TERMS
            # one chunk of fresh terms, so a verdict leaves no term buffer behind
            partial = float(np.sum(self._terms(1, n)))
            tail = n ** (1.0 - self.alpha) / (self.alpha - 1.0)
            # Nudge upward so the reported constant is a true upper bound.
            constant = (partial + tail) * (1.0 + 1e-13)
            evidence = (
                f"partial sum of {n} terms plus integral tail majorant "
                f"n**(1-a)/(a-1); rounded up"
            )
            return Classification(Branch.SUMMABLE, constant, evidence)
        evidence = (
            f"terms i**(-{self.alpha:g}) vanish; exponent <= 1 so the series diverges"
        )
        return Classification(Branch.C0_NOT_L1, None, evidence)


class HarmonicWeights(WeightFamily):
    """w_i = 1/i: the canonical vanishing, non-summable family."""

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        super().__init__(index_cap)
        self.spec = "harmonic"

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        return 1.0 / np.arange(lo, hi + 1, dtype=np.float64)

    supports_exact = True

    def _fraction(self, i: int) -> Fraction:
        return Fraction(1, i)

    def _classify(self) -> Classification:
        return Classification(
            Branch.C0_NOT_L1, None, "terms 1/i vanish; harmonic series diverges"
        )


class ConstantTailWeights(WeightFamily):
    """w_i = max(c, 1/i) for a floor c in (0, 1]; bounded below by c."""

    def __init__(self, floor: float, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        super().__init__(index_cap)
        if not (0.0 < floor <= 1.0):
            raise InputError(f"constant-tail floor must lie in (0, 1], got {floor}")
        self.floor = float(floor)
        self.spec = f"ctail:{self.floor:.17g}"

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        return np.maximum(self.floor, 1.0 / np.arange(lo, hi + 1, dtype=np.float64))

    supports_exact = True

    def _fraction(self, i: int) -> Fraction:
        return max(Fraction(self.floor), Fraction(1, i))

    def _classify(self) -> Classification:
        return Classification(
            Branch.BOUNDED_BELOW,
            1.0 / self.floor,
            f"weights never drop below the floor {self.floor:g}; constant = 1/floor",
        )


class ExplicitRationalWeights(WeightFamily):
    """Finitely listed rational weights plus a declared tail rule.

    The list covers indices 1..L.  Beyond L the tail is either ``constant``
    (w_i = w_L, keeping the family bounded below) or ``pattern``
    (w_i = w_L * L / i, a harmonic-type tail that vanishes without being
    summable).  An undeclared tail would make classification ill-posed, so
    the rule is mandatory.
    """

    def __init__(
        self,
        values: list[Fraction],
        tail: str,
        index_cap: int = DEFAULT_INDEX_CAP,
    ) -> None:
        super().__init__(index_cap)
        try:
            vals = [Fraction(v) for v in values]
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InputError(f"explicit weights must be finite rationals: {exc}") from exc
        if not vals:
            raise InputError("explicit weight list must be non-empty")
        if vals[0] != 1:
            raise InputError("weights must be normalized: w_1 = 1")
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise InputError("explicit weights must be non-increasing")
        if vals[-1] <= 0:
            raise InputError("weights must be strictly positive")
        if tail not in ("constant", "pattern"):
            raise InputError(f"tail rule must be 'constant' or 'pattern', got {tail!r}")
        self.values = vals
        self.tail = tail
        self.spec = f"explicit:[{len(vals)} weights, tail={tail}]"
        self._float_values = np.array([float(v) for v in vals])

    @classmethod
    def from_json_file(cls, path: str | Path, index_cap: int = DEFAULT_INDEX_CAP):
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read explicit weight file {path}: {exc}") from exc
        if (
            not isinstance(data, dict)
            or not isinstance(data.get("weights"), list)
            or "tail" not in data
        ):
            raise InputError(
                'explicit weight file must be {"weights": ["p/q", ...], '
                '"tail": "constant"|"pattern"}'
            )
        try:
            values = [Fraction(str(s)) for s in data["weights"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational weight in {path}: {exc}") from exc
        fam = cls(values, data["tail"], index_cap=index_cap)
        fam.spec = f"explicit:{path}"
        return fam

    @property
    def _L(self) -> int:
        return len(self.values)

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo + 1)
        L = self._L
        head_hi = min(hi, L)
        if lo <= head_hi:
            out[: head_hi - lo + 1] = self._float_values[lo - 1 : head_hi]
        if hi > L:
            tail_lo = max(lo, L + 1)
            w_L = self._float_values[-1]
            if self.tail == "constant":
                out[tail_lo - lo :] = w_L
            else:
                idx = np.arange(tail_lo, hi + 1, dtype=np.float64)
                out[tail_lo - lo :] = w_L * L / idx
        return out

    supports_exact = True

    def _fraction(self, i: int) -> Fraction:
        if i <= self._L:
            return self.values[i - 1]
        if self.tail == "constant":
            return self.values[-1]
        return self.values[-1] * self._L / i

    def _classify(self) -> Classification:
        w_L = self.values[-1]
        if self.tail == "constant":
            return Classification(
                Branch.BOUNDED_BELOW,
                float(Fraction(1) / w_L),
                f"declared constant tail keeps weights at w_L = {w_L}",
            )
        return Classification(
            Branch.C0_NOT_L1,
            None,
            f"declared pattern tail w_L*L/i = {w_L * self._L}/i vanishes, not summable",
        )


def parse_weight_spec(spec: str, index_cap: int = DEFAULT_INDEX_CAP) -> WeightFamily:
    """Build a family from its compact string form.

    Accepted forms: ``power:<alpha>``, ``harmonic``, ``ctail:<floor>``,
    ``explicit:<file.json>``.
    """
    spec = spec.strip()
    if spec == "harmonic":
        return HarmonicWeights(index_cap=index_cap)
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise InputError(f"unrecognized weight spec {spec!r}")
    if kind == "power":
        try:
            alpha = float(arg)
        except ValueError as exc:
            raise InputError(f"bad power exponent {arg!r}") from exc
        return PowerWeights(alpha, index_cap=index_cap)
    if kind == "ctail":
        try:
            floor = float(arg)
        except ValueError as exc:
            raise InputError(f"bad constant-tail floor {arg!r}") from exc
        return ConstantTailWeights(floor, index_cap=index_cap)
    if kind == "explicit":
        return ExplicitRationalWeights.from_json_file(arg, index_cap=index_cap)
    raise InputError(f"unrecognized weight spec {spec!r}")
