"""Weight families: normalized non-increasing positive sequences.

A weight family exposes point queries ``weight_at``, compensated prefix sums
``prefix_sum`` (cached at power-of-two checkpoints so indices up to 2**40 stay
reachable), and ``classify``, which sorts the family into one of three
branches:

* ``Summable``      - sum of all weights is finite,
* ``BoundedBelow``  - weights stay above a positive floor,
* ``CZeroNotEllOne``- weights vanish but are not summable.

The first two branches each come with an explicit constant bounding the
aligned/reversed functional ratio computed in :mod:`seqspace.functionals`;
the third branch is exactly the regime where that ratio is unbounded and the
witness construction of :mod:`seqspace.witness` applies.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exceptions import CapExceededError, InputError

DEFAULT_INDEX_CAP = 2**40
EXACT_PREFIX_CAP = 100_000
PREFIX_ARRAY_CAP = 2**26

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

    Subclasses implement term generation and classification analytics.  All
    caches are guarded by a lock and every prefix sum is computed along a
    deterministic path (largest power-of-two checkpoint, then fixed-size
    blocks), so concurrent readers always observe identical values.
    """

    spec: str

    def __init__(self, index_cap: int = DEFAULT_INDEX_CAP) -> None:
        if index_cap < 1:
            raise InputError("index cap must be positive")
        self._cap = int(index_cap)
        self._lock = threading.Lock()
        # _pow2[k] = W(2**k); ladder grows on demand.
        self._pow2: list[float] = []
        self._memo: dict[int, float] = {0: 0.0}
        self._frac_prefix: list[Fraction] = [Fraction(0)]
        self._classification: Classification | None = None

    # -- term generation -------------------------------------------------

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        """Weights w_lo..w_hi inclusive as a float64 array."""
        raise NotImplementedError

    def weight_at(self, i: int) -> float:
        """Point value w_i (i >= 1)."""
        if i < 1:
            raise InputError(f"weight index must be >= 1, got {i}")
        return float(self._terms(i, i)[0])

    def weights_head(self, m: int) -> np.ndarray:
        """First m weights as an array (w_1..w_m)."""
        if m < 0:
            raise InputError("length must be non-negative")
        if m == 0:
            return np.empty(0)
        return self._terms(1, m)

    def weights_slice(self, lo: int, hi: int) -> np.ndarray:
        """Weights w_lo..w_hi inclusive (empty when hi < lo)."""
        if lo < 1:
            raise InputError("slice start must be >= 1")
        if hi < lo:
            return np.empty(0)
        return self._terms(lo, hi)

    # -- exact (rational) side -------------------------------------------

    @property
    def supports_exact(self) -> bool:
        return False

    def weight_fraction(self, i: int) -> Fraction:
        raise InputError(f"family {self.spec!r} has no exact rational weights")

    def prefix_fraction(self, n: int) -> Fraction:
        """Exact W(n) for rational families; capped at EXACT_PREFIX_CAP."""
        if not self.supports_exact:
            raise InputError(f"family {self.spec!r} has no exact rational weights")
        if n < 0:
            raise InputError("prefix length must be non-negative")
        if n > EXACT_PREFIX_CAP:
            raise CapExceededError(
                f"exact prefix sums capped at {EXACT_PREFIX_CAP}, got {n}"
            )
        with self._lock:
            while len(self._frac_prefix) <= n:
                i = len(self._frac_prefix)
                self._frac_prefix.append(self._frac_prefix[-1] + self.weight_fraction(i))
            return self._frac_prefix[n]

    # -- compensated prefix sums -----------------------------------------

    def _block_sum(self, lo: int, hi: int) -> float:
        """Compensated sum of w_lo..w_hi over fixed blocks anchored at lo.

        numpy's pairwise ``np.sum`` keeps each positive block's relative
        error near machine epsilon; the blocks are combined with compensation.
        """
        total = 0.0
        comp = 0.0
        start = lo
        while start <= hi:
            end = min(start + _CHUNK - 1, hi)
            total, comp = neumaier_add(total, comp, float(np.sum(self._terms(start, end))))
            start = end + 1
        return total + comp

    def _pow2_prefix(self, k: int) -> float:
        # W(2**k), built incrementally so every level has one canonical value.
        while len(self._pow2) <= k:
            j = len(self._pow2)
            if j == 0:
                self._pow2.append(self.weight_at(1))
            else:
                prev = self._pow2[j - 1]
                self._pow2.append(prev + self._block_sum(2 ** (j - 1) + 1, 2**j))
        return self._pow2[k]

    def prefix_sum(self, n: int) -> float:
        """W(n) = w_1 + ... + w_n, with W(0) = 0.

        Relative error is a few machine epsilons: blocks are summed pairwise
        and combined with Neumaier compensation.  Raises CapExceededError
        beyond the configured index cap (default 2**40).
        """
        if n < 0:
            raise InputError(f"prefix length must be non-negative, got {n}")
        if n > self._cap:
            raise CapExceededError(
                f"prefix index {n} exceeds the configured cap {self._cap}"
            )
        if n == 0:
            return 0.0
        with self._lock:
            hit = self._memo.get(n)
            if hit is not None:
                return hit
            p = 1 << (n.bit_length() - 1)
            value = self._pow2_prefix(p.bit_length() - 1)
            if n > p:
                value = value + self._block_sum(p + 1, n)
            self._memo[n] = value
            return value

    def window_sum(self, lo: int, hi: int) -> float:
        """w_lo + ... + w_hi by direct summation (empty when hi < lo).

        Summing the window directly avoids the cancellation a difference of
        two large prefix sums would suffer when the window total is small.
        """
        if lo < 1:
            raise InputError("window start must be >= 1")
        if hi < lo:
            return 0.0
        return self._block_sum(lo, hi)

    def prefix_array(self, m: int) -> np.ndarray:
        """Array [W(0), W(1), ..., W(m)] via block-compensated cumsum."""
        if m < 0:
            raise InputError("length must be non-negative")
        if m > PREFIX_ARRAY_CAP:
            raise CapExceededError(
                f"dense prefix arrays capped at {PREFIX_ARRAY_CAP}, got {m}"
            )
        out = np.empty(m + 1)
        out[0] = 0.0
        base = 0.0
        comp = 0.0
        start = 1
        while start <= m:
            end = min(start + _ARRAY_BLOCK - 1, m)
            terms = self._terms(start, end)
            np.cumsum(terms, out=out[start : end + 1])
            out[start : end + 1] += base + comp
            base, comp = neumaier_add(base, comp, float(np.sum(terms)))
            start = end + 1
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
            partial = self._block_sum(1, n)
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

    @property
    def supports_exact(self) -> bool:
        return True

    def weight_fraction(self, i: int) -> Fraction:
        if i < 1:
            raise InputError(f"weight index must be >= 1, got {i}")
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

    @property
    def supports_exact(self) -> bool:
        return True

    def weight_fraction(self, i: int) -> Fraction:
        if i < 1:
            raise InputError(f"weight index must be >= 1, got {i}")
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
        if not values:
            raise InputError("explicit weight list must be non-empty")
        vals = [Fraction(v) for v in values]
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
        if not isinstance(data, dict) or "weights" not in data or "tail" not in data:
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

    @property
    def supports_exact(self) -> bool:
        return True

    def weight_fraction(self, i: int) -> Fraction:
        if i < 1:
            raise InputError(f"weight index must be >= 1, got {i}")
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
