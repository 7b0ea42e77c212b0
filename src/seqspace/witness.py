"""Certified block witnesses driving the aligned/reversed ratio to infinity.

For a weight family that vanishes without being summable, this module finds
block lengths d_1, ..., d_r satisfying, with W the weight prefix sum and
n_k = d_1 + ... + d_k (n_0 = d_0 = 0),

  (i)   W(n_{k-1})            <=  W(d_k) / 2,
  (ii)  W(d_{k-1} + d_k) - W(d_k)  <=  2**(1-k) * W(d_{k-1}),

and builds the step sequence taking the value 1/W(d_k) on the k-th block.
These two conditions certify the bounds A >= r/2 and B <= 3, hence an
aligned/reversed ratio of at least r/6 that grows without bound in r.

The search returns the componentwise-minimal block lengths: both conditions
are monotone in d_k (W is increasing, and the window sum in (ii) slides down
a non-increasing weight), so each d_k is located by doubling then bisection.
A multiplicative slack tightens the right-hand sides during the float search
so summation error cannot admit a borderline violator; verification is an
independent recomputation from the family and the block lengths alone.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import CapExceededError, CertificationError, InputError
from .functionals import (
    StepSequence,
    Value,
    arithmetic,
    functional_A,
    functional_B,
    _value_from_string,
    _value_to_string,
)
from .weights import DEFAULT_INDEX_CAP, Branch, WeightFamily, parse_weight_spec

DEFAULT_SLACK = 1e-9
DEFAULT_TOLERANCE = 1e-9
DEFAULT_R_LIMIT = 6


@dataclass(frozen=True)
class WitnessCertificate:
    """Everything needed to re-check a witness without trusting the search.

    ``cond_i_margins[k-1]`` is W(d_k)/2 - W(n_{k-1}) and
    ``cond_ii_margins[k-1]`` is 2**(1-k) * W(d_{k-1}) - (W(d_{k-1}+d_k) - W(d_k));
    both lists must be non-negative (up to the stated tolerance) for the
    certificate to be valid.  ``tolerance`` records the relative verification
    tolerance, 0 in rational mode, where every check is exact.
    """

    family: str
    r: int
    d: tuple[int, ...]
    n: tuple[int, ...]
    block_values: tuple[Value, ...]
    A_value: Value
    B_value: Value
    ratio: Value
    argmax_n: int
    tolerance: float
    cond_i_margins: tuple[Value, ...]
    cond_ii_margins: tuple[Value, ...]
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "r": self.r,
            "d": list(self.d),
            "A": _value_to_string(self.A_value),
            "B": _value_to_string(self.B_value),
            "ratio": _value_to_string(self.ratio),
            "margins": {
                "cond_i": [_value_to_string(v) for v in self.cond_i_margins],
                "cond_ii": [_value_to_string(v) for v in self.cond_ii_margins],
            },
            "mode": self.mode,
        }


def load_certificate_json(path: str | Path) -> dict:
    """Read a certificate file, validating the fixed schema."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate {path}: {exc}") from exc
    required = {"family", "r", "d", "A", "B", "ratio", "margins", "mode"}
    if not isinstance(data, dict) or not required.issubset(data):
        missing = required - set(data) if isinstance(data, dict) else required
        raise InputError(f"certificate missing fields: {sorted(missing)}")
    if not isinstance(data["d"], list) or not all(
        isinstance(x, int) and x >= 1 for x in data["d"]
    ):
        raise InputError("certificate field 'd' must be a list of positive integers")
    if data["mode"] not in ("float", "rational"):
        raise InputError(f"certificate mode must be float|rational, got {data['mode']!r}")
    return data


def _check_preconditions(fam: WeightFamily, r: int, slack: float) -> None:
    if r < 1:
        raise InputError(f"r must be >= 1, got {r}")
    if not (0.0 <= slack <= 0.1):
        raise InputError(f"slack must lie in [0, 0.1], got {slack}")
    c = fam.classify()
    if c.branch is not Branch.C0_NOT_L1:
        raise InputError(
            f"classification precondition failed: {fam.spec} is {c.branch.value}; "
            "the block search terminates only for vanishing non-summable weights"
        )


def find_block_lengths(
    fam: WeightFamily,
    r: int,
    slack: float = DEFAULT_SLACK,
    cap: int | None = None,
    mode: str = "float",
    initial: list[int] | None = None,
) -> list[int]:
    """Componentwise-minimal block lengths satisfying conditions (i) and (ii).

    ``initial`` may carry the result of a previous, smaller-r search for the
    same family and slack; the search then only extends it.  Rational mode
    decides each condition exactly, so it ignores the slack.
    """
    _check_preconditions(fam, r, slack)
    ar = arithmetic(mode, fam)
    if ar.exact:
        slack = 0
    if cap is None:
        cap = fam.index_cap
    if cap < 1:
        raise InputError("cap must be positive")

    d = [int(x) for x in (initial or [])]
    if len(d) > r:
        raise InputError("initial block prefix longer than requested r")
    n_prev = sum(d)
    half, two = ar.num(1) / 2, ar.num(2)
    tighten = 1 - slack

    for k in range(len(d) + 1, r + 1):
        d_prev = d[-1] if d else 0
        lhs_i = ar.prefix(n_prev)
        rhs_ii = two ** (1 - k) * ar.prefix(d_prev) if d_prev else None

        def feasible(cand: int) -> bool:
            if lhs_i > half * ar.prefix(cand) * tighten:
                return False
            return rhs_ii is None or ar.window(cand + 1, cand + d_prev) <= rhs_ii * tighten

        hi = 1
        while not feasible(hi):
            hi *= 2
            if hi > cap:
                raise CapExceededError(
                    f"no feasible d_{k} within cap {cap} for {fam.spec}"
                )
        lo = hi // 2 + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        d.append(hi)
        n_prev += hi
        if n_prev > cap:
            raise CapExceededError(
                f"witness support {n_prev} exceeds cap {cap} at k = {k}"
            )
    return d


def build_witness(fam: WeightFamily, d: list[int], mode: str = "float") -> StepSequence:
    """Step sequence with value 1/W(d_k) on the k-th block of length d_k.

    Condition (i) forces W(d_k) to double block over block, so the values
    decrease strictly; if they do not, the supplied d is rejected here.
    """
    if not d:
        raise InputError("block length list must be non-empty")
    try:
        d = [operator.index(x) for x in d]
    except TypeError as exc:
        raise InputError("block lengths must be integers") from exc
    if any(x < 1 for x in d):
        raise InputError("block lengths must be positive integers")
    ar = arithmetic(mode, fam)
    values = [ar.num(1) / ar.prefix(dk) for dk in d]
    for a, b in zip(values, values[1:]):
        if b >= a:
            raise InputError(
                "block values fail to decrease; the supplied block lengths "
                "violate the doubling condition (i)"
            )
    return StepSequence(tuple((dk, v) for dk, v in zip(d, values)))


def verify_certificate(
    fam: WeightFamily,
    d: list[int],
    tolerance: float = DEFAULT_TOLERANCE,
    mode: str = "float",
) -> WitnessCertificate:
    """Recompute conditions (i)-(ii) and the bounds A >= r/2, B <= 3 from scratch.

    Raises a certification error naming the first violated inequality and the
    residual by which it fails.  In rational mode every check is exact and
    the tolerance is ignored.
    """
    if not d:
        raise InputError("block length list must be non-empty")
    if tolerance < 0:
        raise InputError("tolerance must be non-negative")
    r = len(d)
    ar = arithmetic(mode, fam)
    if ar.exact:
        tolerance = 0
    prefix = ar.prefix
    half, two = ar.num(1) / 2, ar.num(2)

    n_parts = np.cumsum([0] + list(d))
    cond_i: list[Value] = []
    cond_ii: list[Value] = []
    for k in range(1, r + 1):
        d_k = d[k - 1]
        d_km1 = d[k - 2] if k >= 2 else 0
        rhs_i = half * prefix(d_k)
        margin_i = rhs_i - prefix(int(n_parts[k - 1]))
        if margin_i < -tolerance * abs(rhs_i):
            raise CertificationError(
                f"condition (i) violated at k = {k}: "
                f"W(n_{k - 1}) exceeds W(d_{k})/2 by {-margin_i}"
            )
        cond_i.append(margin_i)

        rhs_ii = two ** (1 - k) * prefix(d_km1)
        lhs_ii = prefix(d_km1 + d_k) - prefix(d_k)
        margin_ii = rhs_ii - lhs_ii
        if margin_ii < -tolerance * max(abs(rhs_ii), abs(lhs_ii)):
            raise CertificationError(
                f"condition (ii) violated at k = {k}: window sum exceeds "
                f"2**(1-{k}) * W(d_{k - 1}) by {-margin_ii}"
            )
        cond_ii.append(margin_ii)

    f = build_witness(fam, d, mode=mode)
    a_value = functional_A(f, fam, mode=mode)
    b_value, argmax_n = functional_B(f, fam, mode=mode)

    a_bound = ar.num(r) / 2
    if a_value < a_bound - tolerance * a_bound:
        raise CertificationError(
            f"aligned bound violated: A = {a_value} < r/2 = {a_bound} "
            f"(residual {a_bound - a_value})"
        )
    b_bound = ar.num(3)
    if b_value > b_bound + tolerance * b_bound:
        raise CertificationError(
            f"reversed bound violated: B = {b_value} > 3 (residual {b_value - b_bound})"
        )

    return WitnessCertificate(
        family=fam.spec,
        r=r,
        d=tuple(int(x) for x in d),
        n=tuple(int(x) for x in n_parts[1:]),
        block_values=tuple(v for _, v in f.runs),
        A_value=a_value,
        B_value=b_value,
        ratio=a_value / b_value,
        argmax_n=argmax_n,
        tolerance=float(tolerance),
        cond_i_margins=tuple(cond_i),
        cond_ii_margins=tuple(cond_ii),
        mode=mode,
    )


def reverify_certificate_dict(
    data: dict, tolerance: float = DEFAULT_TOLERANCE, cap: int | None = None
) -> WitnessCertificate:
    """Re-derive a loaded certificate from its family spec and block lengths.

    The claimed A, B, and ratio must match the recomputation: exactly in
    rational mode, within the tolerance in float mode.
    """
    fam = parse_weight_spec(data["family"], index_cap=cap or DEFAULT_INDEX_CAP)
    mode = data["mode"]
    cert = verify_certificate(fam, data["d"], tolerance=tolerance, mode=mode)
    exact = arithmetic(mode, fam).exact
    if cert.r != data["r"]:
        raise CertificationError(
            f"certificate r = {data['r']} does not match {cert.r} block lengths"
        )
    for name, claimed_s, actual in (
        ("A", data["A"], cert.A_value),
        ("B", data["B"], cert.B_value),
        ("ratio", data["ratio"], cert.ratio),
    ):
        claimed = _value_from_string(str(claimed_s))
        if exact:
            agree = claimed == actual
        else:
            agree = math.isclose(float(claimed), float(actual), rel_tol=max(tolerance, 1e-12))
        if not agree:
            raise CertificationError(
                f"claimed {name} = {claimed_s} differs from recomputed "
                f"{_value_to_string(actual)}"
            )
    return cert


def lower_bound_S(
    fam: WeightFamily,
    r: int,
    slack: float = DEFAULT_SLACK,
    cap: int | None = None,
    mode: str = "float",
) -> tuple[float, float]:
    """Certified lower bound r/6 for the ratio supremum, plus the witness ratio.

    The first component is the bound the two certified inequalities guarantee;
    the second is the ratio actually attained by the constructed witness,
    always at least the first.
    """
    d = find_block_lengths(fam, r, slack=slack, cap=cap, mode=mode)
    cert = verify_certificate(fam, d, mode=mode)
    return (r / 6.0, float(cert.ratio))
