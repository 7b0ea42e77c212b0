"""Exhaustive reference implementations and their size guards."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import StepSequence, functional_B, ratio
from seqspace.norms import garling_norm
from seqspace.oracles import (
    exhaustive_ratio,
    functional_B_bruteforce,
    garling_norm_bruteforce,
    rearrangement_check,
)
from seqspace.weights import ConstantTailWeights, HarmonicWeights, PowerWeights

H = HarmonicWeights()


def test_subset_bruteforce_examples():
    assert garling_norm_bruteforce([1.0, 1.0, 1.0], H, 1.0) == pytest.approx(
        11.0 / 6.0, rel=1e-15
    )
    assert garling_norm_bruteforce([1.0, 2.0], H, 1.0) == pytest.approx(2.0)
    assert garling_norm_bruteforce([1.0], H, 1.0) == 1.0
    assert garling_norm_bruteforce([0.0, 0.0], H, 1.0) == 0.0


def test_subset_bruteforce_limits():
    with pytest.raises(CapExceededError):
        garling_norm_bruteforce(np.ones(21), H, 1.0)
    with pytest.raises(InputError):
        garling_norm_bruteforce([1.0], H, 0.25)


@pytest.mark.parametrize(
    "b, p, message",
    [
        ([10**400, 1], 1.0, "vector entries must be finite"),
        ([float("inf"), 1], 2.0, "vector entries must be finite"),
        ([float("nan"), 1], 2.0, "vector entries must be finite"),
        ([1e308, 1e308], 2.0, "p-th powers"),
        ([1e308] * 3, 1.0, "weighted subset sum"),
    ],
    ids=["int-past-double", "inf", "nan", "powers-overflow", "sum-overflows"],
)
def test_subset_bruteforce_rejects_what_the_fast_path_rejects(b, p, message):
    # the oracle returns no inf or nan where the fast path refuses the input
    with pytest.raises(InputError):
        garling_norm(b, H, p)
    with pytest.raises(InputError, match=message):
        garling_norm_bruteforce(b, H, p)


def test_rearrangement_examples():
    ok, min_perm, max_perm = rearrangement_check([2.0, 1.0], [3.0, 1.0], 2)
    assert ok
    assert min_perm == (2, 1)
    assert max_perm == (1, 2)

    # constant second sequence: every permutation ties, lex-first wins
    ok, min_perm, max_perm = rearrangement_check([3.0, 2.0, 1.0], [1.0, 1.0, 1.0], 3)
    assert ok
    assert min_perm == (1, 2, 3)
    assert max_perm == (1, 2, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0, allow_nan=False, width=32), min_size=1, max_size=6),
    st.lists(st.floats(0.0, 10.0, allow_nan=False, width=32), min_size=1, max_size=6),
)
def test_rearrangement_never_fails_on_sorted_input(xs, ys):
    n = min(len(xs), len(ys))
    a = sorted(xs, reverse=True)[:n]
    b = sorted(ys, reverse=True)[:n]
    ok, _, _ = rearrangement_check(a, b, n)
    assert ok


def test_rearrangement_validation():
    with pytest.raises(CapExceededError):
        rearrangement_check(np.ones(9), np.ones(9), 9)
    with pytest.raises(InputError):
        rearrangement_check([1.0, 2.0], [1.0, 1.0], 2)
    with pytest.raises(InputError):
        rearrangement_check([1.0, -1.0], [1.0, 1.0], 2)
    with pytest.raises(InputError):
        rearrangement_check([1.0], [1.0, 1.0], 2)
    with pytest.raises(InputError):
        rearrangement_check([1.0], [1.0], 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rearrangement_check_rejects_non_finite_input(bad):
    with pytest.raises(InputError, match="first input must be finite"):
        rearrangement_check([bad, 1.0], [2.0, 1.0], 2)
    with pytest.raises(InputError, match="second input must be finite"):
        rearrangement_check([2.0, 1.0], [bad, 1.0], 2)


def test_window_scan_bruteforce_examples():
    f = StepSequence(((2, 1.0),))
    assert functional_B_bruteforce(f, H, 8) == (1.5, 2)
    # the maximum never moves past the support for non-increasing weights
    assert functional_B_bruteforce(f, H, 2) == functional_B_bruteforce(f, H, 8)
    assert functional_B_bruteforce(StepSequence(()), H, 1) == (0.0, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.05, 5.0, allow_nan=False), min_size=1, max_size=8),
    st.sampled_from(["harmonic", "power", "ctail"]),
)
def test_window_scan_agrees_with_fast_path(drops, which):
    fam = {
        "harmonic": H,
        "power": PowerWeights(0.5),
        "ctail": ConstantTailWeights(0.25),
    }[which]
    f = StepSequence.from_values(sorted(drops, reverse=True))
    fast_val, fast_n = functional_B(f, fam)
    brute_val, brute_n = functional_B_bruteforce(f, fam, 4 * f.support)
    assert fast_val == pytest.approx(brute_val, rel=1e-12)
    assert fast_n == brute_n


def test_window_scan_validation():
    f = StepSequence(((3, 1.0),))
    with pytest.raises(InputError):
        functional_B_bruteforce(f, H, 2)
    with pytest.raises(CapExceededError):
        functional_B_bruteforce(f, H, 10**6 + 1)


def test_exhaustive_ratio_examples():
    fam = ConstantTailWeights(0.5)
    best, arg = exhaustive_ratio(fam, 4, [1.0, 0.5, 0.25])
    assert best == pytest.approx(1.375, rel=1e-15)
    assert arg.runs == ((1, 1.0), (1, 0.5), (1, 0.25))
    # the winning tuple reproduces its ratio through the fast functionals
    assert ratio(arg, fam).ratio == pytest.approx(best, rel=1e-12)
    # and stays below the classification constant for the family
    assert best <= 2.0

    fam2 = PowerWeights(2.0)
    best2, _ = exhaustive_ratio(fam2, 4, [1.0, 0.5, 0.25])
    assert best2 == pytest.approx(1.2118055555555556, rel=1e-13)
    assert best2 <= fam2.classify().constant

    best3, arg3 = exhaustive_ratio(PowerWeights(0.5), 3, [1.0])
    assert best3 == pytest.approx(1.0)
    assert arg3.runs == ((1, 1.0),)


def test_exhaustive_ratio_grid_dedup_and_scaling():
    # duplicate grid entries collapse; scaling the grid leaves ratios alone
    base, _ = exhaustive_ratio(H, 3, [1.0, 0.5])
    doubled, _ = exhaustive_ratio(H, 3, [2.0, 1.0, 1.0, 2.0])
    assert base == pytest.approx(doubled, rel=1e-12)


def test_exhaustive_ratio_validation():
    with pytest.raises(InputError):
        exhaustive_ratio(H, 0, [1.0])
    with pytest.raises(InputError):
        exhaustive_ratio(H, 2, [])
    with pytest.raises(InputError):
        exhaustive_ratio(H, 2, [1.0, -0.5])
    with pytest.raises(InputError):
        exhaustive_ratio(H, 2, [0.0])
    with pytest.raises(InputError):
        exhaustive_ratio(H, 2, [float("inf")])
    with pytest.raises(CapExceededError):
        exhaustive_ratio(H, 12, list(np.linspace(0.1, 1.0, 30)))
