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

Every float prefix sum comes from one engine, the family's :class:`Ledger`:
W(1..n) in aligned 2**16-entry blocks.  The ledger grows forward only as
far as a read needs, keeping W at every block end, the compensated sum of
the blocks' ``np.sum``, and each block's ``np.sum``.  Inside a block W adds
the block's ``cumsum`` to the kept W before it, so W(n) has one value
whichever reader produced it.  A few blocks of terms, and their prefixes
once a read needs them, stay in a cache; any other block is generated
again.  ``prefix_sum``, which the witness search reads, ``window_sums``
(all of one evaluation's windows under one lock; ``window_sum`` is its
one-window case), ``prefix_array`` and the window scan of
:mod:`seqspace.functionals` all read the one ledger.  A window is summed
piece by piece: its part in each aligned block, a whole block's kept sum
or the ``np.sum`` of the piece's terms.  The code calls each ``np.sum``
of a float64 array as ``np.add.reduce``, the same pairwise sum bit for
bit, without ``np.sum``'s dispatch.
"""

from __future__ import annotations

import bisect
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
_CACHED_TERMS = 2**18  # four blocks
_SUMMABLE_PARTIAL_TERMS = 10**6
_FRACTION_LEAF = 16  # terms an exact binary-splitting leaf adds one by one


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


class WeightFamily:
    """Base class: immutable weight sequence with internal prefix caches.

    Subclasses implement term generation and classification analytics.  The
    caches are guarded by a lock, and every float prefix is the ledger's
    value, so concurrent readers always observe identical values.
    No weight, window or prefix read, exact or float, may pass the family's
    index cap.

    A term's value does not depend on the range it is generated in, and the
    ``np.sum`` of a slice equals that of the same terms generated afresh, so
    a piece summed from a cached block equals the sum of its fresh terms
    bit for bit.
    """

    spec: str

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        self._cap = as_index(index_cap, "index cap")
        if not 1 <= self._cap <= DEFAULT_INDEX_CAP:
            raise InputError(f"index cap must lie in 1..{DEFAULT_INDEX_CAP}, got {index_cap}")
        self._lock = threading.Lock()
        self._ledger: Ledger | None = None
        self._anchors: dict[int, Fraction] = {0: Fraction(0)}  # exact W(n) at each n read
        self._anchor_ends = [0]  # their n, ascending
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
        """Exact W(n) for rational families, within the index cap and EXACT_PREFIX_CAP.

        The family keeps W only at the n already read, its anchors, W(0) = 0
        first.  A new n starts from the largest anchor a <= n and adds
        w_{a+1}..w_n by binary splitting (``_fraction_sum``), so no W(i) in
        between is formed, and W(n) becomes an anchor.  The sums are exact,
        so W(n) is the same Fraction whatever was read before it, and memory
        is O(distinct reads): the numerators and denominators of the values
        read, and of one summation's partial sums.  Both caps are checked
        before any term is summed.
        """
        self._require_exact()
        n = self._length(n, "prefix length")
        self._check_cap(n, "prefix")
        if n > EXACT_PREFIX_CAP:
            raise CapExceededError(f"exact prefix sums capped at {EXACT_PREFIX_CAP}, got {n}")
        with self._lock:
            w = self._anchors.get(n)
            if w is None:
                j = bisect.bisect(self._anchor_ends, n)
                a = self._anchor_ends[j - 1]
                w = self._anchors[n] = self._anchors[a] + self._fraction_sum(a + 1, n)
                self._anchor_ends.insert(j, n)
            return w

    def _fraction_sum(self, lo: int, hi: int) -> Fraction:
        """w_lo + ... + w_hi exactly: each half summed on its own, then the two added.

        Adding halves keeps the operands of each ``Fraction`` addition of
        similar size, so the last few additions dominate the cost, where one
        term at a time would add each of k terms to a running sum nearly as
        long as the result, O(k) long additions.  At most ``_FRACTION_LEAF``
        terms add one by one.
        """
        if hi - lo < _FRACTION_LEAF:
            return sum(map(self._fraction, range(lo, hi + 1)), Fraction(0))
        mid = (lo + hi) // 2
        return self._fraction_sum(lo, mid) + self._fraction_sum(mid + 1, hi)

    # -- compensated prefix sums -----------------------------------------

    def prefix_sum(self, n: int) -> float:
        """W(n) = w_1 + ... + w_n, with W(0) = 0: the family ledger's value.

        Relative error is a few machine epsilons: the earlier blocks' pairwise
        sums are combined with Neumaier compensation, and only n's own block's
        ``cumsum``, of at most 2**16 terms, adds sequentially.  A read ahead of
        the ledger extends it, so rising reads generate each weight once, and
        the blocks before n's add only their ``np.sum``.  A block end is a
        kept value; a read inside a block takes the block's prefixes from the
        block cache, or generates the block again.  Raises CapExceededError
        beyond the family's index cap.
        """
        n = self._length(n, "prefix length")
        self._check_cap(n, "prefix")
        with self._lock:
            return self._blocks().prefix(n)

    def _blocks(self) -> Ledger:
        """The family's ledger, for the block size in force (call with the lock held)."""
        if self._ledger is None or self._ledger.block != _ARRAY_BLOCK:
            self._ledger = Ledger(self)
        return self._ledger

    def _prefixes(self, j: int) -> np.ndarray:
        """Block j's prefixes W(jB), ..., W(min((j + 1)B, cap)), read-only."""
        with self._lock:
            return self._blocks().prefixes(j)

    def window_sum(self, lo: int, hi: int) -> float:
        """w_lo + ... + w_hi by direct summation (0.0 when hi < lo), as ``window_sums`` reads it."""
        return self.window_sums([(lo, hi)])[0]

    def window_sums(self, windows) -> list[float]:
        """w_lo + ... + w_hi for each (lo, hi) in ``windows``, all read under one lock.

        Summing a window directly avoids the cancellation a difference of two
        large prefix sums would suffer when the window total is small.  A
        window is the Neumaier sum of its pieces' ``np.sum``, its parts in
        each ledger block (``Ledger.window``): a whole block's sum kept in
        the ledger, else the sum of the piece's terms, sliced from the block
        cache or generated on their own, so at most one block of terms is
        held.  Every window is checked before any is read.
        """
        windows = [self._range(a, b, "window start", "window end", "window end") for a, b in windows]
        with self._lock:
            ledger = self._blocks()
            return [ledger.window(lo, hi) for lo, hi in windows]

    def prefix_array(self, m: int) -> np.ndarray:
        """Array [W(0), W(1), ..., W(m)], joined from the ledger's block prefixes."""
        m = self._length(m, "length")
        self._check_cap(m, "prefix")
        out, b = np.zeros(m + 1), _ARRAY_BLOCK
        for j in range(-(-m // b)):
            n = min(b, m - j * b)
            out[1 + j * b : 1 + j * b + n] = self._prefixes(j)[1 : 1 + n]
        return out

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


class Ledger:
    """A family's W at every whole block's end and each block's sum, grown forward.

    This is the one float prefix engine: ``prefix_sum``, which the float
    block search reads, ``window_sum``, ``prefix_array`` and the window scan
    all read it, under the family's lock.  Block j is w_{1+jB}..w_{(j+1)B},
    B = ``block`` = ``_ARRAY_BLOCK``, cut short at the index cap.  ``sums[j]``
    is the ``np.sum`` of whole block j, and ``ends[j]`` = W(jB), the
    Neumaier sum of the sums before it; ``end(j)`` grows both, block by
    block, as far as a read needs, so each weight is generated once on the
    way.  Block j's prefixes are W(jB) and W(jB) + the block's ``cumsum``,
    with W((j + 1)B) for the last entry of a whole block, so W(n) has one
    value whichever reader produced it.  A cache keeps the terms of the
    blocks last generated, at most ``_CACHED_TERMS`` (four blocks), oldest
    out first, and each one's prefixes once a read needs them; a read of any
    other block generates its terms again.  So a block that no reader enters
    costs its terms and its ``np.sum``, and no ``cumsum``, and the ledger
    holds 16 bytes per block beside the cache.
    """

    def __init__(self, fam: WeightFamily) -> None:
        self.block = _ARRAY_BLOCK
        self._fam = fam
        self.ends = [0.0]
        self.sums: list[float] = []
        self._total = self._comp = 0.0
        self._cache: dict[int, list] = {}  # block -> [terms, prefixes or None], oldest first

    def _entry(self, j: int) -> list:
        entry = self._cache.get(j)
        if entry is None:
            b = self.block
            if len(self._cache) * b >= _CACHED_TERMS:
                del self._cache[next(iter(self._cache))]
            entry = self._cache[j] = [self._fam._terms(j * b + 1, min(j * b + b, self._fam._cap)), None]
        return entry

    def end(self, j: int) -> float:
        """W(jB), jB within the cap, once the ledger holds every block before it."""
        while len(self.ends) <= j:
            x = float(np.add.reduce(self._entry(len(self.sums))[0]))
            self.sums.append(x)
            self._total, self._comp = neumaier_add(self._total, self._comp, x)
            self.ends.append(self._total + self._comp)
        return self.ends[j]

    def prefixes(self, j: int) -> np.ndarray:
        """Block j's prefixes, W(jB) first, formed once while the block is cached."""
        entry = self._cache.get(j)
        if entry is None or entry[1] is None:
            whole = (j + 1) * self.block <= self._fam._cap
            start = self.end(j)
            if whole:
                self.end(j + 1)
            entry = self._entry(j)
            p = np.empty(entry[0].size + 1)
            p[0] = start
            np.cumsum(entry[0], out=p[1:])
            p[1:] += start
            if whole:
                p[-1] = self.ends[j + 1]
            p.flags.writeable = False
            entry[1] = p
        return entry[1]

    def piece(self, a: int, b: int) -> float:
        """The ``np.sum`` of w_a..w_b, all in one block: kept if the block is whole and in."""
        j = (a - 1) // self.block
        if b - a + 1 == self.block and j < len(self.sums):
            return self.sums[j]
        entry = self._cache.get(j)
        if entry is None:
            return float(np.add.reduce(self._fam._terms(a, b)))
        return float(np.add.reduce(entry[0][a - 1 - j * self.block : b - j * self.block]))

    def window(self, lo: int, hi: int) -> float:
        """w_lo + ... + w_hi: the Neumaier sum of its pieces, 0.0 when hi < lo.

        The pieces are the window's parts in each block, so none crosses a
        block.  The Neumaier sum of one piece, a non-negative x, is
        0.0 + x = x itself.
        """
        if lo <= hi and (lo - 1) // self.block == (hi - 1) // self.block:
            return self.piece(lo, hi)
        total = comp = 0.0
        while lo <= hi:
            end = min(hi, -(-lo // self.block) * self.block)  # the end of lo's block
            total, comp = neumaier_add(total, comp, self.piece(lo, end))
            lo = end + 1
        return total + comp

    def prefix(self, n: int) -> float:
        """W(n), n within the cap: a kept block end, else an entry of n's block prefixes."""
        j, i = divmod(n, self.block)
        return float(self.prefixes(j)[i]) if i else self.end(j)

    def weight(self, i: int) -> float:
        """w_i, i within the cap: from the cached block that holds it, else generated alone."""
        j, k = divmod(i - 1, self.block)
        entry = self._cache.get(j)
        return float(entry[0][k] if entry is not None else self._fam._terms(i, i)[0])


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
        self._floor_fraction = Fraction(self.floor)
        self.spec = f"ctail:{self.floor:.17g}"

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        return np.maximum(self.floor, 1.0 / np.arange(lo, hi + 1, dtype=np.float64))

    supports_exact = True

    def _fraction(self, i: int) -> Fraction:
        return max(self._floor_fraction, Fraction(1, i))

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
