"""Rearranged and selection norms, defects, and inclusion gaps."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqspace import norms
from seqspace.functionals import EXPAND_CAP
from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import StepSequence, functional_B
from seqspace.norms import (
    garling_norm,
    inclusion_gap,
    lorentz_norm,
    symmetric_defect,
    witness_gap,
)
from seqspace.oracles import garling_norm_bruteforce
from seqspace.weights import ConstantTailWeights, HarmonicWeights, PowerWeights
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
        tol = 1e-12 * max(1.0, abs(opt))
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


def test_expansion_cap_applies_to_the_support():
    long = StepSequence(((EXPAND_CAP + 1, 1.0),))
    with pytest.raises(CapExceededError, match="expansion capped"):
        symmetric_defect(long, H, 1.0, 1)
    with pytest.raises(CapExceededError, match="expansion capped"):
        witness_gap(long, H, 1.0)
