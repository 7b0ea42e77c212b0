"""Rearranged and selection norms, defects, and inclusion gaps."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqspace import functionals, norms
from seqspace.functionals import EXPAND_CAP
from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import StepSequence, functional_B, ratio
from seqspace.norms import (
    garling_norm,
    inclusion_gap,
    lorentz_norm,
    symmetric_defect,
    witness_gap,
)
from seqspace.oracles import garling_norm_bruteforce
from seqspace.weights import (
    ConstantTailWeights,
    ExplicitRationalWeights,
    HarmonicWeights,
    PowerWeights,
    parse_weight_spec,
)
from seqspace.witness import build_witness, find_block_lengths

H = HarmonicWeights()
P12 = PowerWeights(0.5)


def test_lorentz_examples():
    res = lorentz_norm([1.0, 2.0], H, 1.0)
    assert res.value == pytest.approx(2.5, rel=1e-15)
    assert list(res.selector) == [2, 1]
    # order of the input does not matter for the value
    assert lorentz_norm([2.0, 1.0], H, 1.0).value == res.value
    # p = 2 raises entries before weighting: 4*1 + 1*(1/2)
    res2 = lorentz_norm([1.0, -2.0], H, 2.0)
    assert res2.value == pytest.approx(np.sqrt(4.5), rel=1e-15)


def test_lorentz_zero_and_selector_stability():
    res = lorentz_norm([0.0, 0.0, 0.0], H, 1.0)
    assert res.value == 0.0
    assert list(res.selector) == [1, 2, 3]
    # equal entries keep their original order in the sorting permutation
    tied = lorentz_norm([3.0, 1.0, 3.0], H, 1.0)
    assert list(tied.selector) == [1, 3, 2]


def test_garling_examples():
    res = garling_norm([1.0, 2.0], H, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-15)
    assert list(res.selector) == [2]

    res = garling_norm([2.0, 1.0], H, 1.0)
    assert res.value == pytest.approx(2.5, rel=1e-15)
    assert list(res.selector) == [1, 2]

    res = garling_norm([1.0], H, 1.0)
    assert res.value == 1.0
    assert list(res.selector) == [1]

    # interior zero is skipped by the optimal selection
    res = garling_norm([2.0, 0.0, 1.0], H, 1.0)
    assert res.value == pytest.approx(2.5, rel=1e-15)
    assert list(res.selector) == [1, 3]


def test_garling_zero_vector():
    res = garling_norm([0.0, 0.0], H, 1.0)
    assert res.value == 0.0
    assert res.selector.size == 0


def test_garling_monotone_routes_match_dp():
    fams = [H, P12, ConstantTailWeights(0.25)]
    vectors = [
        [3.0, 2.0, 2.0, 0.5],
        [0.5, 2.0, 2.0, 3.0],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 2.0],
        [4.0, 3.0, 1.0, 0.0, 0.0],
    ]
    for fam in fams:
        for vec in vectors:
            for p in (1.0, 1.5, 2.0):
                auto = garling_norm(vec, fam, p)
                forced = garling_norm(vec, fam, p, method="dp")
                assert auto.value == pytest.approx(forced.value, rel=1e-12)
                assert list(auto.selector) == list(forced.selector)


def test_garling_nondecreasing_suffix_rule():
    # best selection of (3, 4) under p = 2: both entries, 9*1 + 16*(1/2)
    res = garling_norm([3.0, 4.0], H, 2.0)
    assert res.value == pytest.approx(np.sqrt(17.0), rel=1e-15)
    assert list(res.selector) == [1, 2]


def test_selector_reproduces_value():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        b = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=m)
        p = float(rng.choice([1.0, 1.5, 2.0]))
        res = garling_norm(b, H, p)
        ranks = np.arange(1, res.selector.size + 1)
        w = np.array([H.weight_at(int(r)) for r in ranks])
        score = float(np.sum(np.abs(b)[res.selector - 1] ** p * w))
        assert score == pytest.approx(res.value**p, rel=1e-12, abs=1e-15)
        # at scale 1e-100 every score lies far below an absolute tolerance,
        # so the selector must reproduce value**p relative to it alone
        tiny = garling_norm(b * 1e-100, H, p)
        w = np.array([H.weight_at(r) for r in range(1, tiny.selector.size + 1)])
        score = float(np.sum((np.abs(b) * 1e-100)[tiny.selector - 1] ** p * w))
        assert score == pytest.approx(tiny.value**p, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [1e-100, 1e-10, 1.0, 1e100])
def test_selector_does_not_depend_on_the_scale(scale):
    # 9 + 4/2 + 6.25/3 = 13.08 beats 1 + 9/2 + 4/3 = 6.83: the selector is [2, 3, 5]
    # at every scale, where an absolute tolerance took [1, 2, 3] at 1e-10 and 1e-100
    b = np.array([1.0, 3.0, 2.0, 0.5, 2.5]) * scale
    res = garling_norm(b, H, 2.0)
    assert res.selector.tolist() == [2, 3, 5]
    assert res.value == pytest.approx(math.sqrt(9 + 4 / 2 + 6.25 / 3) * scale, rel=1e-15, abs=0.0)


def test_selector_is_canonical_against_subset_enumeration():
    """Fewest indices first, then lexicographically smallest.

    Ties are forced by drawing entries from a tiny value set; the reference
    answer enumerates every subset with left-to-right accumulation, mirrors
    the DP tolerance, and applies the same tie-break by hand.
    """
    rng = np.random.default_rng(21)
    fams = [H, ConstantTailWeights(0.75)]
    for trial in range(200):
        fam = fams[trial % 2]
        m = int(rng.integers(1, 9))
        b = rng.choice([0.0, 0.5, 1.0], size=m)
        w = [fam.weight_at(i) for i in range(1, m + 1)]
        best = []
        for t in range(m + 1):
            for subset in itertools.combinations(range(m), t):
                acc = 0.0
                for rank, idx in enumerate(subset):
                    acc += b[idx] * w[rank]
                best.append((acc, subset))
        opt = max(score for score, _ in best)
        tol = 1e-12 * opt
        ties = [s for score, s in best if score >= opt - tol]
        expected = min(ties, key=lambda s: (len(s), s))
        res = garling_norm(b, fam, 1.0, method="dp")
        assert res.value == pytest.approx(opt, rel=1e-12, abs=1e-15)
        assert tuple(res.selector - 1) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-8.0, 8.0, allow_nan=False, width=32), min_size=1, max_size=64),
    st.sampled_from([1.0, 1.5, 2.0]),
)
def test_garling_dominated_by_lorentz(values, p):
    b = np.asarray(values)
    gar = garling_norm(b, H, p).value
    lor = lorentz_norm(b, H, p).value
    assert gar <= lor * (1.0 + 1e-10) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-4.0, 4.0, allow_nan=False, width=32), min_size=1, max_size=10),
    st.sampled_from([1.0, 1.5, 2.0]),
)
def test_garling_matches_subset_oracle(values, p):
    fast = garling_norm(values, H, p).value
    brute = garling_norm_bruteforce(values, H, p)
    assert fast == pytest.approx(brute, rel=1e-12, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.01, 50.0, allow_nan=False), min_size=1, max_size=20),
    st.floats(0.01, 100.0, allow_nan=False),
    st.sampled_from([1.0, 2.0]),
)
def test_garling_homogeneous(values, scale, p):
    base = garling_norm(values, P12, p).value
    scaled = garling_norm([scale * v for v in values], P12, p).value
    assert scaled == pytest.approx(scale * base, rel=1e-9)


def test_garling_sign_invariant():
    b = [1.5, -2.0, 0.5, -0.25]
    plus = garling_norm(b, H, 1.0)
    minus = garling_norm([-x for x in b], H, 1.0)
    assert plus.value == minus.value
    assert list(plus.selector) == list(minus.selector)


def test_reversed_nonincreasing_matches_window_scan():
    """Selection norm of a reversed non-increasing vector is the reversed
    window supremum of the original, so the two code paths must agree."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        runs = int(rng.integers(1, 6))
        lengths = rng.integers(1, 5, size=runs)
        drops = np.sort(rng.uniform(0.05, 1.0, size=runs))[::-1]
        f = StepSequence(tuple((int(l), float(v)) for l, v in zip(lengths, drops)))
        b_val, _ = functional_B(f, H)
        rev = f.expand()[::-1]
        fast = garling_norm(rev, H, 1.0).value
        forced = garling_norm(rev, H, 1.0, method="dp").value
        assert fast == pytest.approx(b_val, rel=1e-12)
        assert forced <= b_val + 1e-10


def test_symmetric_defect_examples():
    one = StepSequence.from_values([1.0])
    defect, fwd, bwd = symmetric_defect(one, H, 1.0, 1)
    assert defect == 1.0
    assert fwd.value == bwd.value == 1.0

    flat = StepSequence(((2, 1.0),))
    defect, fwd, bwd = symmetric_defect(flat, H, 1.0, 2)
    assert defect == pytest.approx(1.0, rel=1e-15)
    assert fwd.value == pytest.approx(1.5, rel=1e-15)


def test_symmetric_defect_grows_along_witnesses():
    prev = 0.0
    d: list[int] = []
    for r in range(1, 6):
        d = find_block_lengths(P12, r, initial=d)
        f = build_witness(P12, d)
        defect, _, _ = symmetric_defect(f, P12, 1.0, f.support)
        assert defect > r / 6.0
        assert defect > prev
        prev = defect
    assert prev == pytest.approx(2.9402315648829638, rel=1e-12)


@pytest.mark.parametrize(
    "call, listed",
    [
        (lambda: garling_norm(np.arange(1, 2**14 + 1) / 2**14, H, 2.0), 1),
        (lambda: symmetric_defect(build_witness(H, [1, 4, 54]), H, 2.0, 40), 2),
    ],
    ids=["garling_norm-nondecreasing", "symmetric_defect"],
)
def test_each_evaluated_sequence_is_listed_once(monkeypatch, call, listed):
    # the selection norm on 16,384 distinct non-decreasing entries scans its
    # reversed runs and cuts its selector from the same list; the defect
    # reads its prefix's runs once for A, B and the backward selector
    seen = []
    bounds = StepSequence.bounds
    monkeypatch.setattr(StepSequence, "bounds", lambda self: seen.append(self) or bounds(self))
    call()
    counts = {}
    for f in seen:  # seen keeps every listed sequence alive, so ids stay distinct
        counts[id(f)] = counts.get(id(f), 0) + 1
    assert sorted(counts.values()) == [1] * listed


def test_witness_gap_examples():
    d = find_block_lengths(P12, 1)
    f = build_witness(P12, d)
    assert witness_gap(f, P12, 1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InputError):
        witness_gap(StepSequence(()), P12, 1.0)


def test_inclusion_gap_values():
    # frozen from independent functional evaluations of the same witnesses
    expected = [
        1.0,
        1.244788096726876,
        1.7678063665956587,
        2.328285706252258,
        2.9402315648829638,
    ]
    for r, want in enumerate(expected, start=1):
        got = inclusion_gap(P12, 1.0, r)
        assert got == pytest.approx(want, rel=1e-10)
        assert got >= r / 6.0


def test_inclusion_gap_rejects_wrong_branch():
    with pytest.raises(InputError):
        inclusion_gap(PowerWeights(2.0), 1.0, 2)
    with pytest.raises(InputError):
        inclusion_gap(ConstantTailWeights(0.5), 1.0, 2)


def test_input_validation():
    with pytest.raises(InputError):
        garling_norm([], H, 1.0)
    with pytest.raises(InputError):
        garling_norm([1.0], H, 0.5)
    with pytest.raises(InputError):
        garling_norm([np.inf], H, 1.0)
    for big in ([10**400, 1], [Fraction(10**400), 1]):
        for norm in (garling_norm, lorentz_norm):
            with pytest.raises(InputError, match="vector entries must be finite"):
                norm(big, H, 1.0)
    with pytest.raises(InputError):
        garling_norm([[1.0, 2.0]], H, 1.0)
    with pytest.raises(InputError):
        garling_norm([1.0], H, 1.0, method="fast")
    with pytest.raises(InputError):
        lorentz_norm([1.0], H, np.nan)
    with pytest.raises(InputError):
        symmetric_defect(StepSequence(((2, 1.0),)), H, 1.0, 3)
    with pytest.raises(InputError):
        symmetric_defect(StepSequence(((2, 1.0),)), H, 1.0, 0)


def test_dp_cap():
    bumpy = np.ones(norms.GARLING_DP_CAP + 1)
    bumpy[0] = 2.0
    bumpy[-1] = 3.0
    with pytest.raises(CapExceededError):
        garling_norm(bumpy, H, 1.0)
    # monotone vectors of the same size avoid the DP entirely
    big = np.linspace(1.0, 2.0, norms.GARLING_DP_CAP + 1)
    assert garling_norm(big, H, 1.0).value > 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.5, 1.0, 2.0]),
            st.floats(-4.0, 4.0, allow_nan=False),
        ),
        min_size=1,
        max_size=300,
    ),
    st.sampled_from([1.0, 1.5, 2.0, 3.7]),
    st.sampled_from(["harmonic", "power:0.5", "ctail:0.25", "power:1.5"]),
)
@example(  # in three-row segments, entries stale from the segment before would take index 10
    [0.18717370608519945, 1.1990489461065543, 0.5207284446962173, 0.528679458264651,
     0.5766559772957311, 0.1954313151687801, 1.4818889064763179, 1.3013448591993002,
     1.2130161812825249, 0.06809116455555086, 0.858928289277755, 1.3704071797996853,
     0.31269329980717275, 0.7713156893151016, 0.039668290939873785],
    2.0,
    "harmonic",
)
def test_dp_segments_do_not_change_the_norm(values, p, spec):
    # one-row and three-row segments recompute every segment but the first
    # from its checkpoint row; the value and selector keep their bits
    fam = parse_weight_spec(spec)
    c = np.abs(values)
    if c.any() and not (c**p).any():  # say 5e-324 and 1e-300 at p >= 1.5
        with pytest.raises(InputError, match="all underflow to 0"):
            garling_norm(values, fam, p, method="dp")
        return
    ref = garling_norm(values, fam, p, method="dp")
    row = 8 * (ref.selector.size + 1)
    for budget in (row, 3 * row):
        with mock.patch.object(norms, "_DP_ROW_BYTES", budget):
            got = garling_norm(values, fam, p, method="dp")
        assert got.value.hex() == ref.value.hex()
        assert got.selector.tolist() == ref.selector.tolist()


def test_dp_skips_a_completion_that_overflows():
    # weights that round to 1.0 and entries just below DBL_MAX: the best
    # completion of items 2..7 rounds to +inf while the optimum stays finite,
    # so the walk must not take item 1 on that completion
    u = 2.0**971  # the spacing of doubles just below DBL_MAX
    top = np.finfo(float).max
    b = [0.41 * u, 0.51 * u, 0.47 * u, 0.55 * u, 0.59 * u, 0.58 * u, top - 3 * u]
    res = garling_norm(b, PowerWeights(1e-17), 1.0)
    assert res.value == top
    assert res.selector.tolist() == [2, 3, 4, 5, 6, 7]


def _dp_peak(b, fam, p):
    tracemalloc.start()
    try:
        res = garling_norm(b, fam, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


def test_dp_memory_is_bounded_at_the_cap():
    # j* = 3,012 of 4,096: the full backward table would take 94 MiB; in
    # 1 MiB segments of 43 rows, the rows and 95 checkpoint rows of 3,013
    # entries peak at 3.6 MiB (5.0 MiB in 4 MiB segments)
    b = np.tile([1.0, 0.5], norms.GARLING_DP_CAP // 2)
    res, peak = _dp_peak(b, PowerWeights(0.5), 2.0)
    assert res.selector.size == 3012
    assert res.value == 9.583764470514158
    assert peak < 4 * 2**20


def test_dp_memory_of_a_uniform_vector_at_the_cap():
    # 4,096 seeded uniform(-3, 3) entries, the shape of the CLI's norm input:
    # j* = 1,426, and 1 MiB segments of 91 rows beside 45 checkpoint rows
    # peak at 1.9 MiB (4.5 MiB in 4 MiB segments)
    b = np.random.default_rng(1).uniform(-3.0, 3.0, norms.GARLING_DP_CAP)
    res, peak = _dp_peak(b, HarmonicWeights(), 2.0)
    assert res.selector.size == 1426
    assert res.value.hex() == "0x1.eec265b1e06e3p+2"
    assert peak < 2.5 * 2**20


def test_norm_result_serialization():
    res = garling_norm([2.0, 1.0], H, 1.0)
    data = res.to_json_dict()
    assert data == {"value": 2.5, "p": 1.0, "selector": [1, 2]}


def test_overflowing_norms_raise_instead_of_non_finite():
    # 1e308**2 overflows double precision: garling's DP saw nan, lorentz inf
    b = [1.0, 1e308, 1e308]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InputError, match="not finite"):
            garling_norm(b, P12, 2.0)
        with pytest.raises(InputError, match="not finite"):
            lorentz_norm(b, P12, 2.0)


@pytest.mark.parametrize(
    "b", [[1.0, 1e308, 1e308], [1e308, 1e308, 1.0], [1e308, 1.0, 1e308]]
)
def test_overflowing_powers_raise_without_a_runtime_warning(b):
    # non-decreasing, non-increasing and general shapes: one error, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (garling_norm, lorentz_norm):
            with pytest.raises(InputError, match="p-th powers .* not finite"):
                norm(b, P12, 2.0)


@pytest.mark.parametrize(
    "b, p", [([1e-200, 1e-200], 2.0), ([0.5], 1100.0), ([5e-324, 0.0, 1e-300], 1.5)]
)
def test_underflowing_powers_raise_without_a_runtime_warning(b, p):
    # every p-th power of a nonzero vector underflows to 0: its norm would
    # read 0, so both norms refuse it, with one error and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (garling_norm, lorentz_norm):
            with pytest.raises(InputError, match=r"p-th powers .* all underflow to 0"):
                norm(b, P12, p)


def test_partly_underflowing_powers_keep_the_rest():
    # 1e-160**2 = 1e-320 is subnormal and stays: the norm is best-effort there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (garling_norm, lorentz_norm):
            assert norm([1e-160], H, 2.0).value == pytest.approx(1e-160, rel=1e-4)
            assert norm([1.0, 1e-200], H, 2.0).value == 1.0


@pytest.mark.parametrize(
    "fam, b", [(P12, [1.0, 1e308, 1e308]), (H, [1e-300] * 5 + [1e308])]
)
def test_overflowing_weighted_sums_raise_without_a_runtime_warning(fam, b):
    # the window scan scales weight differences, never a whole prefix W(n), so
    # these finite norms come out as the DP's; a truly overflowing sum raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, dp = garling_norm(b, fam, 1.0), garling_norm(b, fam, 1.0, method="dp")
        assert got.value == dp.value
        assert got.selector.tolist() == dp.selector.tolist()
        with pytest.raises(InputError, match="weighted sum of the entries' p-th powers"):
            lorentz_norm([1e308] * 3, fam, 1.0)


def test_expand_keeps_its_cap():
    with pytest.raises(CapExceededError, match="expansion capped"):
        StepSequence(((EXPAND_CAP + 1, 1.0),)).expand()


def test_defect_and_gap_do_not_expand_the_support(monkeypatch):
    f = StepSequence(((40, 1.0), (30, 0.5)))
    monkeypatch.setattr(functionals, "EXPAND_CAP", 16)
    with pytest.raises(CapExceededError, match="expansion capped"):
        f.expand()
    defect, forward, backward = symmetric_defect(f, H, 1.5, f.support)
    assert forward.selector.size == f.support
    assert witness_gap(f, H, 1.5) == defect > 1.0


def _suffix_selector(cp: np.ndarray, t: int) -> np.ndarray:
    """Earliest indices holding the last t values of a non-decreasing cp."""
    firsts = np.searchsorted(cp, cp[-t:], side="left") + 1
    ranks = np.arange(t)
    return np.maximum.accumulate(firsts - ranks) + ranks


def test_run_native_defect_and_gap_match_the_dense_route():
    """symmetric_defect and witness_gap work on runs; the dense route expands
    the prefix, takes p-th roots and runs it through the vector norms."""
    rng = np.random.default_rng(404)
    # log-convex weights put the window supremum at a run end; the flat-then-
    # dropping explicit weights also put it inside a run
    flat = ExplicitRationalWeights([1, 1, 1, Fraction(1, 4)], "constant")
    fams = [H, P12, ConstantTailWeights(0.25), flat]
    short_prefixes = cuts_inside_a_run = 0
    for trial in range(400):
        fam = fams[trial % 4]
        p = float(rng.choice([1.0, 1.5, 2.5]))
        lengths = rng.integers(1, 9, size=int(rng.integers(1, 7)))
        values = np.unique(rng.choice([0.125, 0.3, 0.5, 1.0, 1.7, 3.0], size=lengths.size))
        f = StepSequence(tuple(zip(lengths.tolist(), values[::-1].tolist())))
        r = int(rng.integers(1, f.support + 1))
        short_prefixes += r < f.support

        defect, forward, backward = symmetric_defect(f, fam, p, r)
        vals = f.expand()[:r] ** (1.0 / p)
        dense_fwd = garling_norm(vals, fam, p)
        dense_bwd = garling_norm(vals[::-1], fam, p)
        assert forward.value == pytest.approx(dense_fwd.value, rel=1e-14)
        assert backward.value == pytest.approx(dense_bwd.value, rel=1e-14)
        assert defect == pytest.approx((dense_fwd.value / dense_bwd.value) ** p, rel=1e-14)
        assert list(forward.selector) == list(dense_fwd.selector) == list(range(1, r + 1))
        assert list(backward.selector) == list(dense_bwd.selector)
        # independent references for the reversed selector: the DP, and the
        # earliest-index rule over the dense p-th powers
        dp_bwd = garling_norm(vals[::-1], fam, p, method="dp")
        assert list(backward.selector) == list(dp_bwd.selector)
        cp = vals[::-1] ** p
        assert list(backward.selector) == list(_suffix_selector(cp, backward.selector.size))
        cuts_inside_a_run += backward.selector[0] != r + 1 - backward.selector.size

        rev = (f.expand() ** (1.0 / p))[::-1]
        gap = (lorentz_norm(rev, fam, p).value / garling_norm(rev, fam, p).value) ** p
        assert witness_gap(f, fam, p) == pytest.approx(gap, rel=1e-14)
    assert short_prefixes > 100 and cuts_inside_a_run > 5


def test_defect_and_gap_are_the_ratio_for_every_p():
    """For x = a^(1/p) both quotients are A / B of a's own runs, with no p-th
    power taken, so every exponent gives the same float."""
    rng = np.random.default_rng(909)
    fams = [H, P12, ConstantTailWeights(0.25)]
    for trial in range(150):
        fam = fams[trial % 3]
        lengths = rng.integers(1, 9, size=int(rng.integers(1, 6)))
        values = np.sort(rng.uniform(0.01, 3.0, size=lengths.size))[::-1]
        f = StepSequence(tuple(zip(lengths.tolist(), values.tolist())))
        r = int(rng.integers(1, f.support + 1))
        rep = ratio(StepSequence.from_values(f.expand()[:r]), fam)
        gaps = set()
        for p in (1.0, 1.5, 2.5):
            defect, forward, backward = symmetric_defect(f, fam, p, r)
            assert defect == rep.ratio
            assert forward.value == rep.A ** (1.0 / p)
            assert backward.value == rep.B ** (1.0 / p)
            gaps.add(witness_gap(f, fam, p))
        assert gaps == {ratio(f, fam).ratio}
