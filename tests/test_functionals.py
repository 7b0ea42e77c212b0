"""Aligned/reversed pairing functionals on run-length encoded sequences."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqspace.functionals as fx
from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import (
    StepSequence,
    functional_A,
    functional_B,
    functional_B_at,
    ratio,
)
from seqspace.weights import HarmonicWeights, PowerWeights, parse_weight_spec

H = HarmonicWeights()
P12 = PowerWeights(0.5)


# ---------------------------------------------------------------- sequences


def test_step_sequence_canonicalization():
    f = StepSequence(((2, 1.0), (3, 1.0), (1, 0.5)))
    assert f.runs == ((5, 1.0), (1, 0.5))
    assert f.support == 6
    assert not f.is_zero

    zero = StepSequence(((4, 0.0),))
    assert zero.runs == ()
    assert zero.is_zero
    assert zero.support == 0

    trailing = StepSequence(((1, 2.0), (3, 0.0)))
    assert trailing.runs == ((1, 2.0),)


def test_step_sequence_rejects_bad_runs():
    with pytest.raises(InputError):
        StepSequence(((0, 1.0),))
    with pytest.raises(InputError):
        StepSequence(((2, -1.0),))
    with pytest.raises(InputError):
        StepSequence(((1, 1.0), (1, 2.0)))  # increasing
    with pytest.raises(InputError):
        StepSequence(((1, 0.0), (1, 1.0)))  # zero before a positive value
    with pytest.raises(InputError):
        StepSequence(((1.5, 1.0),))  # non-integer length


def test_step_sequence_from_values_and_expand():
    f = StepSequence.from_values([3.0, 3.0, 1.0, 0.0])
    assert f.runs == ((2, 3.0), (1, 1.0))
    assert list(f.expand()) == [3.0, 3.0, 1.0]
    assert StepSequence.from_values([]).is_zero


def test_step_sequence_json_round_trip():
    f = StepSequence(((1, 1.0), (4, Fraction(12, 25))))
    data = f.to_json_dict()
    assert data == {"runs": [[1, "1"], [4, "12/25"]]}
    back = StepSequence.from_json_dict(data)
    assert back.runs == f.runs

    g = StepSequence(((2, 0.4377441), (1, 0.25)))
    back2 = StepSequence.from_json_dict(g.to_json_dict())
    assert back2.runs == g.runs  # float values survive 17-digit round trip

    with pytest.raises(InputError):
        StepSequence.from_json_dict({"runs": [[1, "1/0"]]})
    with pytest.raises(InputError):
        StepSequence.from_json_dict({"blocks": []})


def test_mixed_exactness_flags():
    assert StepSequence(((2, Fraction(1)),)).all_rational
    assert not StepSequence(((2, 1.0), (1, Fraction(1, 3)))).all_rational


# -------------------------------------------------------------- functionals


def test_functional_A_examples():
    assert functional_A(StepSequence(((2, 1),)), H) == pytest.approx(1.5, rel=1e-15)
    assert functional_A(StepSequence(((1, 1),)), P12) == pytest.approx(1.0)
    # direct three-term sum: 2*w1 + 1*w2 + 1*w3
    f = StepSequence(((1, 2.0), (2, 1.0)))
    assert functional_A(f, P12) == pytest.approx(2 + 2**-0.5 + 3**-0.5, rel=1e-14)


def test_functional_B_at_examples():
    f = StepSequence(((2, 1),))
    assert functional_B_at(f, H, 2) == pytest.approx(1.5, rel=1e-15)
    assert functional_B_at(f, H, 3) == pytest.approx(5 / 6, rel=1e-14)
    assert functional_B_at(StepSequence(((1, 5.0),)), P12, 1) == pytest.approx(5.0)


def test_functional_B_examples():
    value, n = functional_B(StepSequence(((2, 1),)), H)
    assert (value, n) == (pytest.approx(1.5, rel=1e-15), 2)
    value, n = functional_B(StepSequence(((1, 1),)), H)
    assert (value, n) == (pytest.approx(1.0), 1)
    value, n = functional_B(StepSequence(((1, 2.0), (1, 1.0))), P12)
    assert value == pytest.approx(1 + math.sqrt(2), rel=1e-14)
    assert n == 2


def test_ratio_examples():
    rep = ratio(StepSequence(((2, 1),)), H)
    assert rep.ratio == pytest.approx(1.0, rel=1e-14)
    assert rep.argmax_n == 2
    rep = ratio(StepSequence(((1, 1),)), P12)
    assert rep.ratio == pytest.approx(1.0)
    with pytest.raises(InputError):
        ratio(StepSequence(()), H)


def test_zero_sequence_functionals_defined():
    zero = StepSequence(())
    assert functional_A(zero, H) == 0.0
    value, n = functional_B(zero, H)
    assert value == 0.0 and n == 1


def test_rational_mode_exactness():
    f = StepSequence(((2, Fraction(1)),))
    assert functional_A(f, H, mode="rational") == Fraction(3, 2)
    assert functional_B_at(f, H, 3, mode="rational") == Fraction(5, 6)
    value, n = functional_B(f, H, mode="rational")
    assert value == Fraction(3, 2) and n == 2
    rep = ratio(f, H, mode="rational")
    assert rep.ratio == Fraction(1)

    with pytest.raises(InputError):
        functional_A(f, P12, mode="rational")  # family not rational
    with pytest.raises(InputError):
        functional_A(StepSequence(((1, 0.3),)), H, mode="rational")


def test_mode_validation():
    with pytest.raises(InputError):
        functional_A(StepSequence(((1, 1),)), H, mode="decimal")
    with pytest.raises(InputError):
        functional_B(StepSequence(((1, 1),)), H, mode="decimal")


# --------------------------------------------------- properties and oracles


def _expanded_A(values: np.ndarray, fam) -> float:
    w = np.array([fam.weight_at(i) for i in range(1, values.size + 1)])
    return float(np.dot(values, w))


def _expanded_B(values: np.ndarray, fam, n: int) -> float:
    total = 0.0
    for i in range(1, min(n, values.size) + 1):
        total += values[i - 1] * fam.weight_at(1 + n - i)
    return total


def nonincreasing_sequences(max_len=40, max_value=50.0):
    return (
        st.lists(
            st.floats(min_value=0.0, max_value=max_value, allow_nan=False),
            min_size=0,
            max_size=max_len,
        )
        .map(lambda xs: sorted(xs, reverse=True))
        .map(StepSequence.from_values)
    )


@given(f=nonincreasing_sequences())
@settings(max_examples=80, deadline=None)
def test_rle_matches_expanded_evaluation(f):
    fam = H
    dense = f.expand()
    assert functional_A(f, fam) == pytest.approx(_expanded_A(dense, fam), abs=1e-9, rel=1e-11)
    value, n = functional_B(f, fam)
    if f.is_zero:
        assert value == 0.0
    else:
        assert value == pytest.approx(
            max(_expanded_B(dense, fam, k) for k in range(1, f.support + 1)),
            rel=1e-11,
        )
        assert value == pytest.approx(_expanded_B(dense, fam, n), rel=1e-11)


@given(
    xs=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=40).map(
        lambda xs: sorted(xs, reverse=True)
    )
)
@settings(max_examples=80, deadline=None)
def test_from_values_merges_runs_and_inverts_expand(xs):
    f = StepSequence.from_values(xs)
    assert f == StepSequence(tuple((1, v) for v in xs))  # the constructor's merge
    assert StepSequence.from_values(f.expand()) == f


def test_from_values_keeps_exact_values():
    f = StepSequence.from_values([3, 3, 1, 0])
    assert f.runs == ((2, Fraction(3)), (1, Fraction(1)))
    assert all(type(v) is Fraction for _, v in f.runs)
    g = StepSequence.from_values([Fraction(1, 3), Fraction(1, 3), Fraction(1, 7)])
    assert g.runs == ((2, Fraction(1, 3)), (1, Fraction(1, 7)))
    assert g.all_rational


@pytest.mark.parametrize(
    "bad", [[[1.0, 2.0]], [[1.0, 2.0], [3.0]], np.ones((2, 2)), 5.0, [True, 0.5]]
)
def test_from_values_rejects_nested_and_boolean_input(bad):
    with pytest.raises(InputError):
        StepSequence.from_values(bad)


@given(f=nonincreasing_sequences(max_len=25), n=st.integers(min_value=1, max_value=120))
@settings(max_examples=80, deadline=None)
def test_reversed_window_never_beats_aligned(f, n):
    assert functional_B_at(f, P12, n) <= functional_A(f, P12) + 1e-9


@given(
    f=nonincreasing_sequences(max_len=25),
    lam=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_float_homogeneity(f, lam):
    scaled = f.scaled(lam)
    assert functional_A(scaled, H) == pytest.approx(lam * functional_A(f, H), rel=1e-12)
    b1, _ = functional_B(f, H)
    b2, _ = functional_B(scaled, H)
    assert b2 == pytest.approx(lam * b1, rel=1e-12)


@given(
    runs=st.lists(
        st.tuples(st.integers(1, 10), st.integers(1, 1000)), min_size=1, max_size=5
    ),
    lam=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
@settings(max_examples=40, deadline=None)
def test_exact_homogeneity(runs, lam):
    values = sorted({Fraction(v, 1000) for _, v in runs}, reverse=True)
    f = StepSequence(tuple((length, v) for (length, _), v in zip(runs, values)))
    scaled = f.scaled(lam)
    assert functional_A(scaled, H, mode="rational") == lam * functional_A(
        f, H, mode="rational"
    )
    assert (
        functional_B(scaled, H, mode="rational")[0]
        == lam * functional_B(f, H, mode="rational")[0]
    )


def test_scan_argmax_prefers_smallest_window():
    # with harmonic weights and f = (1, 1/2), windows 1 and 2 tie exactly:
    # B(1) = 1 and B(2) = 1*w2 + (1/2)*w1 = 1; the smaller window wins
    f = StepSequence(((1, 1.0), (1, 0.5)))
    value, n = functional_B(f, H)
    assert value == pytest.approx(1.0)
    assert n == 1
    flat = StepSequence(((5, 1.0),))
    ct = parse_weight_spec("ctail:1.0")
    assert functional_B(flat, ct) == (pytest.approx(5.0), 5)


def test_chunked_scan_agrees_with_dense(monkeypatch):
    rng = np.random.default_rng(3)
    for _ in range(60):
        k = rng.integers(1, 5)
        lengths = [int(x) for x in rng.integers(1, 60, size=k)]
        values = sorted((float(v) for v in rng.uniform(0.1, 4.0, size=k)), reverse=True)
        f = StepSequence(tuple(zip(lengths, values)))
        dense = functional_B(f, P12)
        monkeypatch.setattr(fx, "DENSE_SCAN_CAP", 0)
        monkeypatch.setattr(fx, "_SCAN_BLOCK", 13)
        chunked = functional_B(f, P12)
        monkeypatch.undo()
        assert chunked[1] == dense[1]
        assert chunked[0] == pytest.approx(dense[0], rel=1e-11)


def test_support_cap_errors():
    fam = PowerWeights(0.5, index_cap=100)
    f = StepSequence(((101, 1.0),))
    with pytest.raises(CapExceededError):
        functional_A(f, fam)
    with pytest.raises(CapExceededError):
        functional_B(f, fam)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_run_values_rejected(bad):
    with pytest.raises(InputError, match="not finite"):
        StepSequence(((2, bad), (1, 0.5)))
    with pytest.raises(InputError, match="not finite"):
        StepSequence.from_values([1.0, bad])
    with pytest.raises(InputError, match="not finite"):
        StepSequence.from_json_dict({"runs": [[1, repr(bad)]]})
    with pytest.raises(InputError, match="not finite"):
        StepSequence(((1, 1.0),)).scaled(bad)


def test_scaling_into_overflow_rejected():
    with pytest.raises(InputError, match="not finite"):
        StepSequence(((1, 1e308),)).scaled(10.0)
