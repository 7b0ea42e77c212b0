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

Every float prefix sum comes from one engine, :class:`PrefixStream`:
W(1..m) in aligned 2**16-entry blocks.  W at a block end is the compensated
sum of the blocks' ``np.sum``, and inside a block W adds the block's
``cumsum`` to it, so W(n) has one value whichever reader produced it.  A
stream holds its blocks' terms raw and runs a block's ``cumsum`` only when
a read needs a prefix inside it.  ``prefix_sum`` memoizes the values it
returns and resumes one stream per family, which the witness search reads
too, raw weights included; ``prefix_array`` is a stream kept whole, and the
window scan of :mod:`seqspace.functionals` runs a stream of its own.
``window_sum`` sums a window directly, piece by piece: its part in each
aligned block, the same pieces a stream sums.  The code calls each
``np.sum`` of a float64 array as ``np.add.reduce``, the same pairwise sum
bit for bit, without ``np.sum``'s dispatch.
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
    """The pieces (start, end) of w_lo..w_hi: its parts in each aligned ``_ARRAY_BLOCK`` block.

    A window sum is the compensated sum of its pieces' ``np.sum``, whichever
    path reads them, and no piece crosses a stream block.
    """
    b = _ARRAY_BLOCK
    while lo <= hi:
        end = min(hi, (lo - 1) // b * b + b)  # the end of lo's block
        yield lo, end
        lo = end + 1


class WeightFamily:
    """Base class: immutable weight sequence with internal prefix caches.

    Subclasses implement term generation and classification analytics.  The
    caches are guarded by a lock, and every float prefix is the prefix
    stream's value, so concurrent readers always observe identical values.
    No weight, window or prefix read, exact or float, may pass the family's
    index cap.

    A term's value does not depend on the range it is generated in, and the
    ``np.sum`` of a slice equals that of the same terms generated afresh, so
    a piece summed from a stream's block equals the sum of its fresh terms
    bit for bit.
    """

    spec: str

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        self._cap = as_index(index_cap, "index cap")
        if not 1 <= self._cap <= DEFAULT_INDEX_CAP:
            raise InputError(f"index cap must lie in 1..{DEFAULT_INDEX_CAP}, got {index_cap}")
        self._lock = threading.Lock()
        self._memo: dict[int, float] = {0: 0.0}
        self._stream: PrefixStream | None = None  # the stream prefix_sum resumes
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

    def prefix_sum(self, n: int) -> float:
        """W(n) = w_1 + ... + w_n, with W(0) = 0: the prefix stream's value.

        Relative error is a few machine epsilons: the earlier blocks' pairwise
        sums are combined with Neumaier compensation, and only n's own block's
        ``cumsum``, of at most 2**16 terms, adds sequentially.  Each value is
        memoized.  A read ahead of the family's stream resumes it, so rising
        reads generate each weight once, and the blocks before n's add only
        their ``np.sum``.  A read behind the stream's three-block ring takes a
        block end's kept value, or generates n's block afresh.  Raises
        CapExceededError beyond the family's index cap.
        """
        n = self._length(n, "prefix length")
        self._check_cap(n, "prefix")
        with self._lock:
            hit = self._memo.get(n)
            if hit is None:
                hit = self._memo[n] = self._family_stream().at(n)
            return hit

    def streamed_weight(self, i: int) -> float:
        """w_i read from the stream ``prefix_sum`` resumes, streamed as far as i."""
        i, _ = self._range(i, i, "weight index", "weight index")
        with self._lock:
            stream = self._family_stream()
            stream.stream(i)
            return stream.weight(i)

    def _family_stream(self) -> PrefixStream:
        if self._stream is None:
            self._stream = PrefixStream(self, self._cap, 2 * _ARRAY_BLOCK)
        return self._stream

    def release_stream(self) -> None:
        """Drop the stream ``prefix_sum`` resumes and the blocks it holds; the memo stays."""
        with self._lock:
            self._stream = None

    def window_sum(self, lo: int, hi: int) -> float:
        """w_lo + ... + w_hi by direct summation (empty when hi < lo).

        Summing the window directly avoids the cancellation a difference of
        two large prefix sums would suffer when the window total is small.
        The window is the Neumaier sum of its pieces' ``np.sum`` (``_chunks``),
        each piece generated on its own, so at most one block of terms is held.
        """
        lo, hi = self._range(lo, hi, "window start", "window end", "window end")
        total = comp = 0.0
        for a, b in _chunks(lo, hi):
            total, comp = neumaier_add(total, comp, float(np.add.reduce(self._terms(a, b))))
        return total + comp

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
    """W(0), W at each block end and a ring of the blocks of W(1..m), streamed in aligned blocks.

    This is the one float prefix engine: ``prefix_sum``, which the float
    block search reads, ``prefix_array`` and the window scan all read a
    stream.  Block j, W(1 + jB), ..., W(min((j + 1)B, m)) with B = ``block``
    = ``_ARRAY_BLOCK``, generates its terms once.  W((j + 1)B), the end of a
    whole block, is the Neumaier sum of the ``np.sum`` of the blocks so far,
    kept for every block; inside block j, W adds the block's ``cumsum`` to
    W(jB).  ``stream(hi)`` streams blocks until W(hi) is in, writing each
    block's terms into the ring raw; a block becomes its prefixes in place,
    once, only when a read needs them: ``at(x)`` reading inside it, or
    ``reach(hi)``, which fills every block holding an x > hi - keep.  So a
    block that no reader enters costs its terms and its ``np.sum``, and no
    ``cumsum``.  W(0) is ``data[0]`` and the entry of x >= 1, W(x) or w_x,
    is ``data[1 + (x - 1) % cap]``.  The ring holds whole blocks, at least
    ``keep`` + B entries and at most m, so once ``stream(hi)`` has run, the
    block of every x > hi - keep is still there: a block overwrites only an
    older block, and the blocks that ``stream`` passes below hi - cap only
    add their ``np.sum``.  ``at`` reads a block end from the kept values, a
    block end ahead without writing the ring, and a point behind the ring
    from its block, generated afresh; ``reach`` raises if such a read left
    a block it must fill out of the ring.  ``end(x)`` and ``floor_end(x)``
    are the kept W at the first block end at or past x and at the last at
    or before it, and ``weight(i)`` reads w_i raw from the ring where it
    can; none of them fills a block.  Past a ring that wraps, a
    guard repeats its first block once it is filled, so a read of at most B
    consecutive filled entries is one slice.  Kept whole (``keep = m``), the
    ring reached to m is the prefix array.

    ``windows`` are ranges (lo, hi) tiling 1..m in order; the sum of each,
    bit for bit ``window_sum(lo, hi)``, is appended to ``sums`` once the
    block holding hi is in.  Each piece of a window (``_chunks``) lies in one
    block and is summed in place, from a slice of that block's terms.
    """

    def __init__(self, fam: WeightFamily, m: int, keep: int, windows=(), sums=None) -> None:
        self.block = b = _ARRAY_BLOCK
        self.top = self._low = 0  # the last index streamed in; the ring holds blocks low + 1..top
        self.cap = min(m, -(-(keep + b) // b) * b)
        self._guard = b if self.cap < m else 0
        self.data = np.zeros(1 + self.cap + self._guard)
        self._filled = [False] * -(-self.cap // b)  # per ring block: prefixes, not raw terms
        self._fam, self._m, self._keep, self._sums = fam, m, keep, sums
        self._base = self._comp = 0.0  # the blocks so far
        self._ends = [0.0]  # W(jB) for each block end jB streamed, and W(m)
        self._fresh: tuple[int, np.ndarray | None] = (-1, None)  # a block generated afresh
        self._chunks = [(c, e, hi) for lo, hi in windows for c, e in _chunks(lo, hi)]
        self._i = 0  # the next piece to sum
        self._total = self._part = 0.0  # the current window's pieces so far

    def stream(self, hi: int) -> None:
        """Stream blocks until W(hi) is in, filling none."""
        while self.top < hi:
            self._next_block(self.top + self.block > hi - self.cap)

    def reach(self, hi: int) -> np.ndarray:
        """The data array, once W(hi) is in and W(x) filled for every x > hi - keep."""
        self.stream(hi)
        start = max(0, hi - self._keep)
        if self._low > start:
            raise RuntimeError(
                f"prefix stream: W({start + 1}) is needed at {hi} but its block has left the ring"
            )
        b, filled = self.block, self._filled
        for j in range(start // b, (hi - 1) // b + 1):
            if not filled[j * b % self.cap // b]:  # a scan reaches keep / b blocks, most filled
                self._fill(j)
        return self.data

    def at(self, x: int) -> float:
        """W(x) for any x <= m, streaming ahead as far as x."""
        j, i = divmod(x, self.block)
        if not i:
            while len(self._ends) <= j:
                self._next_block(False)
            return self._ends[j]
        self.stream(x)
        if x > self._low:
            self._fill(j)
            return float(self.data[1 + (x - 1) % self.cap])
        if self._fresh[0] != j:
            terms = self._fam._terms(j * self.block + 1, min((j + 1) * self.block, self._m))
            self._fresh = (j, np.cumsum(terms) + self._ends[j])
        return float(self._fresh[1][i - 1])

    def end(self, x: int) -> float:
        """The kept W at the first block end at or past x <= top (W(m) in the last block)."""
        return self._ends[-(-x // self.block)]

    def floor_end(self, x: int) -> float:
        """The kept W at the last block end at or before x, 0 <= x < m and x <= top."""
        return self._ends[x // self.block]

    def weight(self, i: int) -> float:
        """w_i for 1 <= i <= top: the ring's raw term, or the term generated afresh."""
        if i > self._low and not self._filled[(i - 1) % self.cap // self.block]:
            return float(self.data[1 + (i - 1) % self.cap])
        return float(self._fam._terms(i, i)[0])

    def _fill(self, j: int) -> None:
        """Turn block j, in the ring, into its prefixes in place, unless it already is."""
        b, i = self.block, j * self.block % self.cap
        if self._filled[i // b]:
            return
        self._filled[i // b] = True
        n = min(b, self._m - j * b)
        block = np.cumsum(self.data[1 + i : 1 + i + n], out=self.data[1 + i : 1 + i + n])
        block += self._ends[j]
        if n == b:
            block[-1] = self._ends[j + 1]
        if self._guard and not i:  # the guard repeats the ring's first block
            self.data[1 + self.cap : 1 + self.cap + n] = self.data[1 : 1 + n]

    def _next_block(self, write: bool) -> None:
        start = self.top + 1
        end = min(start + self.block - 1, self._m)
        terms = self._fam._terms(start, end)
        self._base, self._comp = neumaier_add(self._base, self._comp, float(np.add.reduce(terms)))
        self._ends.append(self._base + self._comp)  # W(end) if the block is whole
        self.top = end
        if write:
            i = (start - 1) % self.cap  # blocks start at whole blocks of the ring, so none wraps
            self.data[1 + i : 2 + i + end - start] = terms
            self._filled[i // self.block] = False
            if start > self.cap:  # the block overwrites the one a ring before it
                self._low = max(self._low, start - self.cap + self.block - 1)
        else:
            self._low = end
        while self._i < len(self._chunks) and self._chunks[self._i][0] <= end:
            c, e, hi = self._chunks[self._i]
            x = np.add.reduce(terms[c - start : e - start + 1])
            self._total, self._part = neumaier_add(self._total, self._part, float(x))
            if e == hi:
                self._sums.append(self._total + self._part)
                self._total = self._part = 0.0
            self._i += 1


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
        return np.power(idx, -self.alpha, out=idx)  # in place: one array per block

    def _classify(self) -> Classification:
        if self.alpha > 1.0:
            n = _SUMMABLE_PARTIAL_TERMS
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
        idx = np.arange(lo, hi + 1, dtype=np.float64)
        return np.divide(1.0, idx, out=idx)  # in place: one array per block

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
