"""Certified block witnesses driving the aligned/reversed ratio to infinity.

For a weight family that vanishes without being summable, this module finds
block lengths d_1, ..., d_r satisfying, with W the weight prefix sum and
n_k = d_1 + ... + d_k (n_0 = d_0 = 0),

  (i)   W(n_{k-1})            <=  W(d_k) / 2,
  (ii)  W(d_{k-1} + d_k) - W(d_k)  <=  2**(1-k) * W(d_{k-1}),

and builds the step sequence taking the value 1/W(d_k) on the k-th block.
These two conditions certify the bounds A >= r/2 and B <= 3, hence an
aligned/reversed ratio of at least r/6 that grows without bound in r.

The search returns the componentwise-minimal block lengths.  Both
conditions are monotone in d_k: W is increasing, and the window sum in (ii)
slides down a non-increasing weight.  Condition (i) forces d_k > n_{k-1}, so
each d_k is located by testing a rising series of candidate ends above
n_{k-1}, then bisecting inside the first span where both conditions hold.
A float search reads the family's ``prefix_sum``, whose one forward
:class:`~seqspace.weights.Ledger` serves every block: since n_{k-1} >=
d_{k-1} + d_{k-2}, each block's reads lie ahead of the last block's, but
for (ii)'s W(d_k), d_{k-1} behind its W(d_{k-1} + d_k).  The ledger keeps W
at every block end, where the candidate ends lie, and caches the last few
blocks it generated; a bisection further behind generates its one block
again.  Before reading (ii)'s W(d_{k-1} + d_k), the float search checks
d_{k-1} times the window's least weight against (ii)'s bound, so the
ledger forms the prefixes of a block only near the boundary.  The ledger
stays with the family, so verification after a search generates only the
few blocks its reads fall inside.
The search bounds each d_k by the family's index cap less n_{k-1}, so every
support it returns fits within the cap.  A multiplicative slack tightens the
right-hand sides during the float search so summation error cannot admit a
borderline violator.  A rational search runs the same loop twice: in
floats, its right-hand sides loosened so that it never passes the exact
answer, then exactly from the float one.  Verification is an independent
recomputation from the family and the block lengths alone, within the fixed
relative tolerance ``DEFAULT_TOLERANCE`` in float mode and exactly in
rational mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from . import weights
from .exceptions import CapExceededError, CertificationError, InputError
from .functionals import (
    Arithmetic,
    StepSequence,
    Value,
    arithmetic,
    ratio,
    _value_from_string,
    _value_to_string,
)
from .weights import (
    DEFAULT_INDEX_CAP,
    Branch,
    WeightFamily,
    as_index,
    parse_weight_spec,
)

DEFAULT_SLACK = 1e-9
DEFAULT_TOLERANCE = 1e-9
_REACH_SLACK = 1e-6  # far above the error of a float sum of at most 10**5 weights


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_value(x) -> bool:
    return isinstance(x, (str, int, float)) and not isinstance(x, bool)


def _is_blocks(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) and v >= 1 for v in x)


def _is_margins(x) -> bool:
    return isinstance(x, dict) and all(
        isinstance(x.get(k), list) and all(map(_is_value, x[k])) for k in ("cond_i", "cond_ii")
    )


_VALUE = "a number or a 'p/q' string"
_CERTIFICATE_FIELDS = {
    "family": ("a weight family string", lambda x: isinstance(x, str)),
    "r": ("an integer", _is_int),
    "d": ("a list of positive integers", _is_blocks),
    "A": (_VALUE, _is_value),
    "B": (_VALUE, _is_value),
    "ratio": (_VALUE, _is_value),
    "margins": ("lists 'cond_i' and 'cond_ii' of numbers or 'p/q' strings", _is_margins),
    "mode": ("float or rational", lambda x: x in ("float", "rational")),
}


def load_certificate_json(path: str | Path) -> dict:
    """Read a certificate file, validating the fixed schema and field types."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate {path}: {exc}") from exc
    required = set(_CERTIFICATE_FIELDS)
    if not isinstance(data, dict) or not required.issubset(data):
        missing = required - set(data) if isinstance(data, dict) else required
        raise InputError(f"certificate missing fields: {sorted(missing)}")
    for name, (expected, valid) in _CERTIFICATE_FIELDS.items():
        if not valid(data[name]):
            raise InputError(f"certificate field {name!r} must be {expected}")
    return data


def _block_lengths(d) -> list[int]:
    """The block lengths d as a non-empty list of positive ints (see ``as_index``)."""
    try:
        out = [as_index(x, "block length") for x in d]
    except (InputError, TypeError):
        out = []
    if not out or min(out) < 1:
        raise InputError(
            f"block lengths must be a non-empty list of positive integers, got {d!r}"
        )
    return out


def _check_preconditions(fam: WeightFamily, r: int, slack: float) -> int:
    """r as an int once r, slack and the family's branch admit a search."""
    r = as_index(r, "r")
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
    return r


def _conditions(ar: Arithmetic, k: int, n_prev: int, d_prev: int, window):
    """Conditions (i) and (ii) for block k as (lhs, rhs) pairs, per candidate d_k.

    2**(1-k) W(d_{k-1}) and W(n_{k-1}) are read once, in that rising order.
    For each d_k the returned generator yields (W(n_{k-1}), W(d_k)/2), then
    (ii)'s window ``window(d_k + 1, d_k + d_{k-1})`` and 2**(1-k) W(d_{k-1}),
    0 and 0 when d_{k-1} = 0; a caller that stops after (i) reads nothing more.
    """
    zero = ar.num(0)
    rhs_ii = ar.num(2) ** (1 - k) * ar.prefix(d_prev) if d_prev else zero
    lhs_i = ar.prefix(n_prev)

    def pairs(d_k: int):
        yield lhs_i, ar.prefix(d_k) / 2
        yield (window(d_k + 1, d_k + d_prev) if d_prev else zero), rhs_ii

    return pairs


def _difference(ar: Arithmetic):
    """(ii)'s window as the prefix difference W(hi) - W(lo - 1), as the margins record it."""
    return lambda lo, hi: ar.prefix(hi) - ar.prefix(lo - 1)


def _screened(fam: WeightFamily, difference, d_prev: int, limit: float):
    """(ii)'s float window, or inf where d_{k-1} times its least weight rules it out.

    The float search rejects d_k = e when P(e + d_{k-1}) - P(e), in floats,
    exceeds ``limit``, the float 2**(1-k) W(d_{k-1}) (1 - slack).  The window
    holds d_{k-1} weights of at least w = w_{e+d_{k-1}}, so it is at least
    d_{k-1} w.  Stream prefixes within the 2**28 index cap are within
    rho W + 2x eta of W with rho < 1e-7 (``functionals._scan_error_bound``,
    steps 1 and 2), so the float difference is at least (1 - 2e-7) d_{k-1} w
    - 3e-7 P(e) - 2**-1040, P(e) being about W(e) >= w_1 = 1.  The screen
    tests d_{k-1} w - 1e-6 (d_{k-1} w + P(e)) > limit instead, whose
    roundings the larger constant covers, so where it holds the exact test
    rejects e too, and the ``difference`` is not read.  Else it is; P(e) is
    the value (i) read just before, and w is one weight, generated alone.
    """

    def window(lo: int, hi: int) -> float:
        least = d_prev * fam.weight_at(hi)
        if least - 1e-6 * (least + fam.prefix_sum(lo - 1)) > limit:
            return math.inf
        return difference(lo, hi)

    return window


def _first(conditions, factor, lo: int, limit: int, after) -> int | None:
    """The least d in lo..limit where each (lhs, rhs) of ``conditions(d)`` has lhs <= rhs * factor.

    Tests the candidates after(lo - 1), after of that, ..., capped at
    ``limit``, until one passes, then bisects the span since the last that
    failed; None when ``limit`` fails.  The d returned passes, and d - 1
    fails unless d = lo, so for a monotone test failing at lo - 1 it is the
    least.
    """

    def holds(d: int) -> bool:
        return all(lhs <= rhs * factor for lhs, rhs in conditions(d))

    hi = min(after(lo - 1), limit)
    while lo > limit or not holds(hi):
        if hi >= limit:
            return None
        lo, hi = hi + 1, min(after(hi), limit)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def find_block_lengths(
    fam: WeightFamily,
    r: int,
    slack: float = DEFAULT_SLACK,
    mode: str = "float",
    initial: list[int] | None = None,
) -> list[int]:
    """Componentwise-minimal block lengths satisfying conditions (i) and (ii).

    ``initial`` may carry the result of a previous, smaller-r search for the
    same family and slack; the search then only extends it.  No support n_k
    may pass the family's index cap.  One loop, ``_first``, finds each d_k
    in both arithmetics: test rising candidates above n_{k-1} until both
    conditions hold, then bisect the span since the last that failed.  A
    float search reads ``prefix_sum``, and its candidates are the family
    ledger's block ends, which the ledger keeps for verification; (ii) is
    the prefix difference W(d_{k-1} + d_k) - W(d_k) that verification
    records, and ``_screened`` reads it only where the window's least
    weight leaves (ii) in doubt.

    Rational mode decides each condition exactly, ignoring the slack, for
    d_k up to its exact reach min(cap, EXACT_PREFIX_CAP) - d_{k-1}, in two
    passes of the loop.  The float pass reads (ii) as ``window_sum``, whose
    error is relative to the window, and loosens both right-hand sides by
    ``_REACH_SLACK``.  Wherever the exact test holds, so does this one: a
    float sum of at most 10**5 normal weights, each rounded at most three
    times, is off by less than 2**-52 * (10**5 + 3) < 3e-11 relative, and
    underflowing terms only make the float (ii) hold sooner.  So its answer
    d_f, unless it is n_{k-1} + 1, fails at d_f - 1 in floats, hence
    exactly, and the exact d_k is at least d_f.  The exact pass runs the
    loop in ``Fraction`` arithmetic from d_f, at d_f, d_f + 1, d_f + 3,
    d_f + 7, ..., so exact prefixes are summed only near the answer; where
    the float pass fails at the limit, the exact test fails there too.
    """
    r = _check_preconditions(fam, r, slack)
    ar, floats = arithmetic(mode, fam), arithmetic("float", fam)
    cap, step = fam.index_cap, weights._ARRAY_BLOCK
    reach = min(cap, weights.EXACT_PREFIX_CAP)  # the exact prefixes' reach

    # None or an empty list or array is no prefix; anything else must be block lengths
    no_prefix = initial is None or (hasattr(initial, "__len__") and len(initial) == 0)
    d = [] if no_prefix else _block_lengths(initial)
    if len(d) > r:
        raise InputError("initial block prefix longer than requested r")
    n_prev = sum(d)

    def block_end(end: int) -> int:  # the float candidates: the next ledger block end
        return end // step * step + step

    try:
        for k in range(len(d) + 1, r + 1):
            d_prev = d[-1] if d else 0
            # the support n_k = n_{k-1} + d_k bounds d_k; since n_{k-1} >= d_{k-1},
            # condition (ii)'s window ends at d_{k-1} + d_k <= n_k, within the
            # cap, and the search gives up only once the limit itself is infeasible
            limit, bound = cap - n_prev, f"cap {cap}"
            if ar.exact and reach - d_prev < limit:  # (ii)'s exact reads end at d_{k-1} + d_k
                limit, bound = reach - d_prev, f"exact reach {reach}"
            layer, window, factor = "float", fam.window_sum, 1 + _REACH_SLACK
            if not ar.exact:
                window, factor = _difference(floats), 1 - slack
                if d_prev:  # most candidates fail (ii) by far: screen them
                    rhs_ii = 2.0 ** (1 - k) * fam.prefix_sum(d_prev) * factor
                    window = _screened(fam, window, d_prev, rhs_ii)
            conditions = _conditions(floats, k, n_prev, d_prev, window)
            d_k = _first(conditions, factor, n_prev + 1, limit, block_end)
            if ar.exact and d_k is not None:  # the exact d_k is at least the float one
                layer, d_f = "exact", d_k
                exact = _conditions(ar, k, n_prev, d_prev, _difference(ar))
                # the candidates d_f, d_f + 1, d_f + 3, d_f + 7, ...
                d_k = _first(exact, 1, d_f, limit, lambda e: max(e + 1, 2 * e + 1 - d_f))
            if d_k is None:
                raise CapExceededError(f"no feasible d_{k} within {bound}")
            d.append(d_k)
            n_prev += d_k
    except CapExceededError as exc:
        raise CapExceededError(
            f"{layer} block search stopped at d_{k} of {fam.spec} "
            f"after blocks {d}: {exc}"
        ) from exc
    return d


def build_witness(fam: WeightFamily, d: list[int], mode: str = "float") -> StepSequence:
    """Step sequence with value 1/W(d_k) on the k-th block of length d_k.

    Condition (i) forces W(d_k) to double block over block, so the values
    decrease strictly; if they do not, the supplied d is rejected here.
    """
    d = _block_lengths(d)
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
    fam: WeightFamily, d: list[int], mode: str = "float"
) -> WitnessCertificate:
    """Recompute conditions (i)-(ii) and the bounds A >= r/2, B <= 3 from scratch.

    Raises a certification error naming the first violated inequality and the
    residual by which it fails.  Float checks allow the relative tolerance
    ``DEFAULT_TOLERANCE``; in rational mode every check is exact.
    """
    d = _block_lengths(d)
    r = len(d)
    ar = arithmetic(mode, fam)
    tolerance = 0 if ar.exact else DEFAULT_TOLERANCE
    n_parts = [0, *accumulate(d)]
    cond_i: list[Value] = []
    cond_ii: list[Value] = []
    for k, (n_prev, d_prev, d_k) in enumerate(zip(n_parts, [0, *d], d), start=1):
        pairs = _conditions(ar, k, n_prev, d_prev, _difference(ar))(d_k)
        lhs, rhs = next(pairs)
        margin = rhs - lhs
        if margin < -tolerance * abs(rhs):
            raise CertificationError(
                f"condition (i) violated at k = {k}: "
                f"W(n_{k - 1}) exceeds W(d_{k})/2 by {-margin}"
            )
        cond_i.append(margin)
        lhs, rhs = next(pairs)
        margin = rhs - lhs
        if margin < -tolerance * max(abs(rhs), abs(lhs)):
            raise CertificationError(
                f"condition (ii) violated at k = {k}: window sum exceeds "
                f"2**(1-{k}) * W(d_{k - 1}) by {-margin}"
            )
        cond_ii.append(margin)

    f = build_witness(fam, d, mode=mode)
    rep = ratio(f, fam, mode=mode)  # A and B from the family ledger's one pass
    a_value, b_value = rep.A, rep.B

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
        d=tuple(d),
        n=tuple(n_parts[1:]),
        block_values=tuple(v for _, v in f.runs),
        A_value=a_value,
        B_value=b_value,
        ratio=rep.ratio,
        argmax_n=rep.argmax_n,
        tolerance=float(tolerance),
        cond_i_margins=tuple(cond_i),
        cond_ii_margins=tuple(cond_ii),
        mode=mode,
    )


def reverify_certificate_dict(data: dict, cap: int = DEFAULT_INDEX_CAP) -> WitnessCertificate:
    """Re-derive a loaded certificate from its family spec and block lengths.

    The claimed A, B, ratio and margins must match the recomputation:
    exactly in rational mode, within the relative ``DEFAULT_TOLERANCE`` in
    float mode, where a margin's tolerance scales with its condition's
    right-hand side.
    """
    fam = parse_weight_spec(data["family"], index_cap=cap)
    cert = verify_certificate(fam, data["d"], mode=data["mode"])
    if cert.r != data["r"]:
        raise CertificationError(
            f"certificate r = {data['r']} does not match {cert.r} block lengths"
        )
    margins = data["margins"]
    if not len(margins["cond_i"]) == len(margins["cond_ii"]) == cert.r:
        raise CertificationError(f"certificate margins do not list {cert.r} entries each")
    checks = [
        ("A", data["A"], cert.A_value, None),
        ("B", data["B"], cert.B_value, None),
        ("ratio", data["ratio"], cert.ratio, None),
    ]
    ar = arithmetic(cert.mode, fam)
    for i, (n_prev, d_prev, d_k) in enumerate(zip((0, *cert.n), (0, *cert.d), cert.d)):
        (_, rhs_i), (_, rhs_ii) = _conditions(ar, i + 1, n_prev, d_prev, _difference(ar))(d_k)
        checks += [
            (f"margins.cond_i[{i}]", margins["cond_i"][i], cert.cond_i_margins[i], rhs_i),
            (f"margins.cond_ii[{i}]", margins["cond_ii"][i], cert.cond_ii_margins[i], rhs_ii),
        ]
    for name, claimed_s, actual, rhs in checks:
        claimed = _value_from_string(str(claimed_s))
        if cert.mode == "rational":
            agree = claimed == actual
        elif rhs is None:
            agree = math.isclose(float(claimed), float(actual), rel_tol=DEFAULT_TOLERANCE)
        else:  # a margin is compared relative to its condition's right-hand side
            agree = abs(float(claimed) - float(actual)) <= DEFAULT_TOLERANCE * rhs
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
    mode: str = "float",
) -> tuple[float, float]:
    """Certified lower bound r/6 for the ratio supremum, plus the witness ratio.

    The first component is the bound the two certified inequalities guarantee;
    the second is the ratio actually attained by the constructed witness,
    always at least the first.
    """
    d = find_block_lengths(fam, r, slack=slack, mode=mode)
    cert = verify_certificate(fam, d, mode=mode)
    return (cert.r / 6.0, float(cert.ratio))
