"""Aligned/reversed pairing functionals on run-length encoded sequences."""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqspace.functionals as fx
from seqspace import weights
from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import (
    StepSequence,
    functional_A,
    functional_B,
    functional_B_at,
    ratio,
)
from seqspace.norms import symmetric_defect, witness_gap
from seqspace.oracles import functional_B_bruteforce
from seqspace.weights import (
    ExplicitRationalWeights,
    HarmonicWeights,
    PowerWeights,
    parse_weight_spec,
)
from seqspace.witness import build_witness
from test_weights import _reference_prefix

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


def _two_pass_runs(runs):
    """Canonical runs by merging first and checking the order after: the runs, or None to reject."""
    cleaned = []
    for length, value in runs:
        if length < 1 or value < 0:
            return None
        if cleaned and cleaned[-1][1] == value:
            cleaned[-1] = (cleaned[-1][0] + length, value)
        else:
            cleaned.append((length, value))
    while cleaned and cleaned[-1][1] == 0:
        cleaned.pop()
    if any(b >= a for (_, a), (_, b) in zip(cleaned, cleaned[1:])):
        return None
    return tuple(cleaned)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, Fraction(1, 2), Fraction(3)]),
                st.integers(-1, 3),
                st.floats(-1.0, 4.0, allow_nan=False),
            ),
        ),
        max_size=8,
    )
)
@example([(1, 2.0), (1, 2.0), (2, 1.0), (1, 0.0), (1, 0.0)])
@example([(1, 1.0), (1, 0.0), (1, 1.0)])  # a zero before a positive value
@example([(1, 1.0), (2, 1), (1, Fraction(1))])  # equal values of three types merge
def test_one_pass_runs_match_the_two_pass_reference(runs):
    # merged neighbours never tie, so the one pass rejects a rise where the
    # reference's order check, run after merging and popping zeros, rejects it
    expected = _two_pass_runs(runs)
    if expected is None:
        with pytest.raises(InputError):
            StepSequence(tuple(runs))
    else:
        got = StepSequence(tuple(runs)).runs
        assert got == expected
        assert [type(v) for _, v in got] == [type(fx._coerce_value(v)) for _, v in expected]


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


EXACT_FAMILIES = [
    H,
    parse_weight_spec("ctail:0.25"),
    # flat, then dropping: the supremum can fall strictly inside a run
    ExplicitRationalWeights([Fraction(1), Fraction(1), Fraction(1, 4)], "pattern"),
]


@given(
    fam=st.sampled_from(EXACT_FAMILIES),
    runs=st.lists(
        st.tuples(
            st.integers(1, 20),
            st.fractions(min_value=Fraction(1, 1000), max_value=50, max_denominator=1000),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(fam=H, runs=[(1, Fraction(1)), (1, Fraction(1, 2))])  # B(1) = B(2) = 1
@example(fam=EXACT_FAMILIES[2], runs=[(1, Fraction(1)), (3, Fraction(1, 2))])  # at n = 2
@settings(max_examples=40, deadline=None)
def test_exact_scan_matches_the_per_window_loop(fam, runs):
    # the exact scan shares the float kernel; the reference evaluates B(n)
    # afresh for every n = 1..support and keeps the first strict maximum
    values = sorted({v for _, v in runs}, reverse=True)
    f = StepSequence(tuple((length, v) for (length, _), v in zip(runs, values)))
    best, best_n = functional_B(f, fam, mode="rational")
    windows = [functional_B_at(f, fam, n, mode="rational") for n in range(1, f.support + 1)]
    assert type(best) is Fraction and best == max(windows)
    assert best_n == windows.index(best) + 1


@given(
    fam=st.sampled_from(EXACT_FAMILIES),
    runs=st.lists(
        st.tuples(
            st.integers(1, 20),
            st.fractions(min_value=Fraction(1, 1000), max_value=50, max_denominator=1000),
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_exact_window_sum_matches_a_dense_fraction_sum(fam, runs, data):
    # functional_B_at shares its run evaluator with the exact B candidates;
    # the reference expands the sequence and sums a_i * w_{1+n-i} term by term
    values = sorted({v for _, v in runs}, reverse=True)
    f = StepSequence(tuple((length, v) for (length, _), v in zip(runs, values)))
    dense = [v for length, v in f.runs for _ in range(length)]
    n = data.draw(st.integers(1, f.support + 5))
    want = sum(
        (a * fam.weight_fraction(1 + n - i) for i, a in enumerate(dense[:n], start=1)),
        Fraction(0),
    )
    got = functional_B_at(f, fam, n, mode="rational")
    assert type(got) is Fraction and got == want


@st.composite
def wide_exact_sequences(draw):
    # run values far apart in scale (their ratios underflow a float) and
    # neighbours 1e-30 apart relative, which no float can tell apart
    scale = st.sampled_from([Fraction(1, 10**400), Fraction(1), Fraction(10**400)])
    base = st.fractions(min_value=Fraction(1, 1000), max_value=50, max_denominator=1000)
    values = set()
    for _ in range(draw(st.integers(1, 5))):
        v = draw(base) * draw(scale)
        values.add(v)
        if draw(st.booleans()):
            values.add(v * (1 - Fraction(1, 10**30)))
    lengths = draw(st.lists(st.integers(1, 20), min_size=len(values), max_size=len(values)))
    return StepSequence(tuple(zip(lengths, sorted(values, reverse=True))))


def _float_scan_and_bound(f, fam):
    # the float pre-scan of the exact B: run values over the first, as functional_B runs it
    bounds = f.bounds()
    first = bounds[0][2]
    runs = [(start, end, float(v / first)) for start, end, v in bounds]
    blocks = fx._scan_dense(runs, lambda j: fam._prefixes(j, f.support), weights._ARRAY_BLOCK)
    scan = np.concatenate([block for _, block in blocks])
    bound = fx._scan_error_bound(f.support, [u for _, _, u in runs], fam.prefix_sum(f.support))
    return first, scan, bound


def _assert_exact_B_and_a_loose_bound(f, fam):
    windows = [functional_B_at(f, fam, n, mode="rational") for n in range(1, f.support + 1)]
    best, best_n = functional_B(f, fam, mode="rational")
    assert type(best) is Fraction and best == max(windows)
    assert best_n == windows.index(best) + 1
    # the a priori bound holds with its safety factor of 4 to spare
    first, scan, bound = _float_scan_and_bound(f, fam)
    error = max(abs(Fraction(s) - b / first) for s, b in zip(scan.tolist(), windows))
    assert error < Fraction(bound) / 4


@given(fam=st.sampled_from(EXACT_FAMILIES), f=wide_exact_sequences())
@example(fam=H, f=StepSequence(((3, Fraction(10**400)), (2, Fraction(1, 10**400)))))
@example(fam=EXACT_FAMILIES[2], f=StepSequence(((1, Fraction(1)), (3, 1 - Fraction(1, 10**30)))))
# exact ties that rounding breaks the wrong way: B(4) = B(13) and B(6) = B(8),
# yet the float scan puts the later window ahead
@example(fam=EXACT_FAMILIES[1], f=StepSequence(((4, Fraction(12)), (6, Fraction(5)), (3, Fraction(3)))))
@example(
    fam=EXACT_FAMILIES[1],
    f=StepSequence(((3, Fraction(8, 5)), (3, Fraction(5, 4)), (2, Fraction(5, 6)))),
)
@settings(max_examples=60, deadline=None)
def test_filtered_exact_scan_matches_the_per_window_loop(fam, f):
    _assert_exact_B_and_a_loose_bound(f, fam)


def test_near_flat_scan_reevaluates_every_window():
    # B(n) = 10 + (n - 10) / 10**20 for n = 10..5010: 5,001 windows the float
    # scan cannot order, all of them candidates; the last one is the maximum
    fam = ExplicitRationalWeights([Fraction(1)], "constant")
    f = StepSequence(((10, Fraction(1)), (5000, Fraction(1, 10**20))))
    assert functional_B(f, fam, mode="rational") == (10 + Fraction(5000, 10**20), 5010)
    first, scan, bound = _float_scan_and_bound(f, fam)
    assert np.count_nonzero(scan >= scan.max() - 2 * bound) == 5001
    _assert_exact_B_and_a_loose_bound(f, fam)


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


def test_float_plateau_keeps_one_candidate_per_block():
    # every window n >= 10 rounds to exactly 10.0: the float scan returns the
    # first and must not hold the other 2**20 windows as candidates
    fam = ExplicitRationalWeights([Fraction(1)], "constant")
    f = StepSequence(((10, 1.0), (2**20, 1e-30)))
    tracemalloc.start()
    try:
        assert functional_B(f, fam) == (10.0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # a few cached blocks and one block of temporaries


def _reader(ref, block: int):
    # block j's prefixes sliced from a whole reference array
    return lambda j: ref[j * block : j * block + block + 1]


def _full_scan(f, fam):
    # the max and first argmax of every window sum, read from the reference
    # prefix array in one block, so no block is passed over
    runs = [(start, end, float(v)) for start, end, v in f.bounds()]
    m = f.support
    ref = _reference_prefix(fam, m, weights._ARRAY_BLOCK)
    ((_, scan),) = fx._scan_dense(runs, _reader(ref, m), m)
    k = int(np.argmax(scan))
    return float(scan[k]), k + 1


@pytest.mark.parametrize("block", [1, 2, 13])
def test_scan_does_not_depend_on_its_block_size(monkeypatch, block):
    # every window adds the same run terms in the same order whatever the
    # blocking, and the first block maximum wins ties across blocks: at each
    # block size float B is the first maximum of the whole prefix array's
    # scan, and exact B does not move
    cases = [
        # B(1) = B(2) = 1 exactly; block size 1 puts them in different blocks
        (StepSequence(((1, 1.0), (1, 0.5))), H, "float"),
        (StepSequence(((1, Fraction(1)), (1, Fraction(1, 2)))), H, "rational"),
    ]
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        lengths = [int(x) for x in rng.integers(1, 40, size=k)]
        values = sorted({int(x) for x in rng.integers(1, 1000, size=k)}, reverse=True)
        runs = list(zip(lengths, values))
        cases.append((StepSequence(tuple((n, v / 7.0) for n, v in runs)), P12, "float"))
        for fam in EXACT_FAMILIES:
            cases.append((StepSequence(tuple((n, Fraction(v, 7)) for n, v in runs)), fam, "rational"))
    expected = [functional_B(f, fam, mode=mode) for f, fam, mode in cases]
    monkeypatch.setattr(weights, "_ARRAY_BLOCK", block)
    for (f, fam, mode), want in zip(cases, expected):
        if mode == "float":
            want = _full_scan(f, fam)
        got = functional_B(f, fam, mode=mode)
        assert got == want and type(got[0]) is type(want[0]), (f, fam, mode)
    assert functional_B(*cases[0][:2]) == (1.0, 1) and expected[1][1] == 1


STREAM_FAMILIES = [
    PowerWeights(0.5),
    HarmonicWeights(),
    parse_weight_spec("ctail:0.25"),
    ExplicitRationalWeights([Fraction(1), Fraction(3, 4), Fraction(1, 2)], "pattern"),
]


@st.composite
def float_step_sequences(draw):
    # up to 40 runs, some of them long, so the last run may start early (a
    # witness's shape, where the scan drops most prefixes) or late
    k = draw(st.integers(1, 40))
    lengths = draw(st.lists(st.integers(1, 25) | st.integers(100, 600), min_size=k, max_size=k))
    values = draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k, unique=True))
    return StepSequence(tuple(zip(lengths, sorted(values, reverse=True))))


@given(
    fam=st.sampled_from(STREAM_FAMILIES),
    f=float_step_sequences(),
    block=st.sampled_from([1, 2, 13, 2**5]),
)
@example(fam=STREAM_FAMILIES[0], f=StepSequence(((3, 2.0), (40, 1.0), (2000, 0.5))), block=13)
@example(fam=STREAM_FAMILIES[1], f=StepSequence(tuple((7, 1.0 / i) for i in range(1, 41))), block=2)
# a short last run that starts late: its windows read W from W(0) on
@example(fam=STREAM_FAMILIES[2], f=StepSequence(((600, 2.0), (600, 1.0), (1, 0.5))), block=13)
@settings(max_examples=60, deadline=None)
def test_scan_slices_are_the_reference_slices(fam, f, block):
    # a scanned block reads two slices of W per run from the ledger's
    # blocks, each a view of one block's prefixes or of two joined; the
    # blocks joined equal the scan of the whole reference array, bit for bit
    runs = [(start, end, float(v)) for start, end, v in f.bounds()]
    m = f.support
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        ref = _reference_prefix(fam, m, block)
        ((_, want),) = fx._scan_dense(runs, _reader(ref, m), m)
        got = list(fx._scan_dense(runs, lambda j: fam._prefixes(j, m), block))
        assert fam.prefix_sum(m) == ref[-1]
    assert [lo for lo, _ in got] == list(range(1, m + 1, block))
    assert np.concatenate([scan for _, scan in got]).tobytes() == want.tobytes()


@given(
    fam=st.sampled_from(STREAM_FAMILIES),
    f=float_step_sequences(),
    block=st.sampled_from([2**3, 2**5]),
)
@settings(max_examples=60, deadline=None)
def test_one_pass_A_is_the_run_window_sum(fam, f, block):
    # small blocks put run windows inside one ledger block, across two
    # blocks and across several; ratio's A, read after B's scan grew the
    # ledger, is math.fsum of the run values times window_sum, bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        rep = ratio(f, fam)
        want = math.fsum(float(v) * fam.window_sum(s, e) for s, e, v in f.bounds())
        assert rep.A == want == functional_A(f, fam)
        assert (rep.B, rep.argmax_n) == functional_B(f, fam)


def test_one_pass_A_of_the_r6_witness():
    # the real block size: the last run's window spans all 168 blocks, whose
    # sums ratio's A reads from the ledger; A from fresh terms has its bits
    fam = PowerWeights(0.5)
    f = StepSequence(tuple((d, 1.0 / fam.prefix_sum(d)) for d in (1, 4, 31, 630, 42423, 10916370)))
    assert ratio(f, fam).A == functional_A(f, PowerWeights(0.5))


# ------------------------------------------------------- pruned window scan


def _count_scanned_blocks(monkeypatch):
    # wraps _scan_dense: one entry per scan, the number of blocks it yielded
    counts = []
    scan_dense = fx._scan_dense

    def counting(*args):
        blocks = 0
        for block in scan_dense(*args):
            blocks += 1
            yield block
        counts.append(blocks)

    monkeypatch.setattr(fx, "_scan_dense", counting)
    return counts


@st.composite
def raw_step_sequences(draw):
    # raw run values from subnormal up to 1e300, so the first is rarely 1
    k = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, 25) | st.integers(100, 300), min_size=k, max_size=k))
    value = st.floats(2.0**-1074, 1e300) | st.floats(0.5, 2.0)
    values = draw(st.lists(value, min_size=k, max_size=k, unique=True))
    return StepSequence(tuple(zip(lengths, sorted(values, reverse=True))))


FLAT = ExplicitRationalWeights([Fraction(1), Fraction(1, 2)], "constant")


@given(
    fam=st.sampled_from([*STREAM_FAMILIES, FLAT]),
    f=raw_step_sequences(),
    block=st.sampled_from([1, 2, 13, 2**16]),
)
# B(1) = B(4) = 1 exactly: block [3, 4]'s bound equals top, so it is scanned
# and window 1 stays the first maximum
@example(fam=FLAT, f=StepSequence(((1, 1.0), (3, 0.25))), block=2)
@settings(max_examples=60, deadline=None)
def test_pruned_scan_matches_the_full_scan(fam, f, block):
    # B and its first argmax equal the unpruned scan's bit for bit, and the
    # dense oracle agrees on the value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        want = _full_scan(f, fam)
        assert functional_B(f, fam) == want
        rep = ratio(f, fam)
        assert (rep.B, rep.argmax_n) == want
    value, n = functional_B_bruteforce(f, fam, f.support)
    assert want[0] == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert functional_B_at(f, fam, n) == pytest.approx(want[0], rel=1e-12, abs=1e-300)


def test_pruned_scan_past_an_overflowing_block(monkeypatch):
    # B(2) overflows to inf in the first block, and so does the margin 2E
    f = StepSequence(((2, 1.5e308), (30, 1e-300)))
    monkeypatch.setattr(weights, "_ARRAY_BLOCK", 2)
    with np.errstate(over="ignore"):
        assert functional_B(f, H) == _full_scan(f, H) == (math.inf, 2)


@pytest.mark.parametrize(
    "f",
    [StepSequence(((1, 1.5e308), (1, 1.4e308))), StepSequence(((70000, 1.5e308), (1, 1.4e308)))],
    ids=["fsum-overflows", "product-overflows"],
)
def test_overflowing_A_is_an_input_error(f):
    # finite products whose math.fsum overflows, or a product that is itself
    # inf: A lies past the double range, reported as such, never a bare
    # OverflowError
    message = r"^A is not finite \(inf\): .* overflows double precision$"
    with np.errstate(over="ignore"):
        with pytest.raises(InputError, match=message):
            functional_A(f, P12)
        with pytest.raises(InputError, match=message):
            ratio(f, P12)
        with pytest.raises(InputError, match=r"^B\(2\) is not finite"):
            functional_B_at(f, P12, 2)


@pytest.mark.parametrize(
    "f",
    [StepSequence(((1, 1.5e308), (1, 1.4e308))), StepSequence(((70000, 1.5e308), (1, 1.4e308)))],
    ids=["fsum-overflows", "product-overflows"],
)
def test_overflowing_window_sums_warn_nothing(f):
    # under the suite's filter every RuntimeWarning is an error: B's window
    # sum past the double range is inf, its documented value, and ratio and
    # the norms built on it raise A's InputError, not numpy's overflow warning
    assert functional_B(f, P12) == (math.inf, 2)
    message = r"^A is not finite \(inf\): "
    with pytest.raises(InputError, match=message):
        ratio(f, P12)
    with pytest.raises(InputError, match=message):
        witness_gap(f, P12, 2.0)
    with pytest.raises(InputError, match=message):
        symmetric_defect(f, P12, 2.0, f.support)


HUGE = StepSequence(((1, Fraction(10**400)), (2, Fraction(1))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: functional_A(HUGE, H),
        lambda: functional_B_at(HUGE, H, 2),
        lambda: functional_B(HUGE, H),
        lambda: ratio(HUGE, H),
        lambda: witness_gap(HUGE, H, 2.0),
        lambda: symmetric_defect(HUGE, H, 2.0, 3),
        lambda: HUGE.expand(),
    ],
    ids=[
        "functional_A",
        "functional_B_at",
        "functional_B",
        "ratio",
        "witness_gap",
        "symmetric_defect",
        "expand",
    ],
)
def test_a_fraction_past_the_double_range_is_an_input_error(call):
    # each float reading of the run value 10**400 raises InputError, as A's
    # does, never a bare OverflowError
    with pytest.raises(InputError, match="^a run value lies past the double range$"):
        call()


def test_exact_B_of_a_fraction_past_the_double_range():
    # B(1) = 10**400 w_1 beats B(2) = 10**400 / 2 + 1 and B(3)
    assert functional_B(HUGE, H, "rational") == (Fraction(10**400), 1)


def test_scan_past_an_overflowing_run_value_sum():
    # the run values sum past the double range, so the skip margin 2E is inf
    # and no block is passed over: B is the kernel's maximum, inf here ...
    f = StepSequence(((70000, 1.5e308), (1, 1.4e308)))
    with np.errstate(over="ignore"):
        assert functional_B(f, P12) == _full_scan(f, P12) == (math.inf, 2)
    # ... and finite here, where 200 leading runs near 1e306 sum past it
    g = StepSequence(tuple((1, 1e306 * (1 - i * 1e-6)) for i in range(200)) + ((70000, 1.0),))
    b, n = functional_B(g, H)
    assert (b, n) == _full_scan(g, H)
    assert math.isfinite(b) and n == 200


def test_scan_enters_the_overflow_state_only_past_its_threshold(monkeypatch):
    # every window sum is at most v_1 m, and the scan's floats stay below
    # 2**7 v_1 m: just below v_1 m = 2**1000 the scan runs outside numpy's
    # overflow state and, under the suite's filter, warns nothing; four
    # times the values cross the threshold, enter it, and scale B exactly;
    # an exact scan, on values divided by the first, never enters it
    v = math.nextafter(2.0**998, 0.0)
    f = StepSequence(((1, v), (1, v / 2), (2, 1.0)))
    assert v * f.support < 2.0**1000 < 4 * v * f.support
    errstate, entered = np.errstate, []
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    b, n = functional_B(f, H)
    assert (b, n) == _full_scan(f, H)
    assert ratio(f, H).B == b
    assert entered == []
    assert functional_B(f.scaled(4), H) == (4 * b, n)
    assert entered == [{"over": "ignore"}]
    assert functional_B(HUGE, H, "rational") == (Fraction(10**400), 1)
    assert entered == [{"over": "ignore"}]


def test_float_read_keeps_a_run_list_of_floats(monkeypatch):
    # values of type float are read as they stand: no copy through
    # _float_runs; a Fraction or an np.float64 value is read as its float
    floats = StepSequence(((2, 1.5), (3, 0.25)))
    mixed = StepSequence(((2, Fraction(3, 2)), (3, np.float64(0.25))))
    want = [(1, 2, 1.5), (3, 5, 0.25)]
    assert [type(v) for *_, v in fx._read(mixed, H, "float")[1]] == [float, float]
    assert fx._read(mixed, H, "float")[1] == want
    want_ratio = ratio(mixed, H)
    with monkeypatch.context() as mp:
        mp.setattr(fx, "_float_runs", lambda bounds: pytest.fail("float values copied"))
        assert fx._read(floats, H, "float")[1] == want
        assert ratio(floats, H) == want_ratio
        with pytest.raises(pytest.fail.Exception, match="copied"):
            fx._read(mixed, H, "float")


@pytest.mark.parametrize(
    "fam, d, scanned, blocks",
    [
        (PowerWeights(0.5), [1, 4, 31, 630, 42423, 10916370], 1, 168),
        (HarmonicWeights(), [1, 4, 54, 6306, 72168326], 1, 1102),
        (PowerWeights(0.8), [1, 4, 26, 286, 4774, 107094, 2876170, 174074409], 3, 2702),
    ],
)
def test_witness_scans_only_the_blocks_near_its_top(monkeypatch, fam, d, scanned, blocks):
    # B is attained at n = 5; the run peaks bound every later block below it,
    # and the scan holds only the few blocks its scanned windows read (26.4
    # MiB at r = 8 when it kept prefixes from the last run's start on)
    counts = _count_scanned_blocks(monkeypatch)
    tracemalloc.start()
    try:
        f = build_witness(fam, d)
        assert functional_B(f, fam)[1] == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert -(-f.support // weights._ARRAY_BLOCK) == blocks
    assert counts == [scanned]
    assert peak < 8 * 2**20


def test_a_short_last_run_peaks_below_8_mib():
    # the last run starts at 2**22 + 1, so the last windows read W from W(0)
    # on: the scan reads its blocks from the ledger, where a prefix ring from
    # the last run's start on held the whole prefix array (33.5 MiB)
    f = StepSequence(((2**22, 1.0), (1, 0.5)))
    fam = PowerWeights(0.5)
    tracemalloc.start()
    try:
        got = functional_B(f, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (fam.prefix_sum(2**22), 2**22)
    assert peak < 8 * 2**20


def test_peak_bound_takes_each_run_at_its_end_inside_the_block(monkeypatch):
    # B(n) = 1/n + 0.295 (H(n) - 1) for 2 <= n <= 14 dips below B(1) = 1 and
    # passes it only at n = 14, the second run's end: with one-entry blocks,
    # whose kept ends are exact, the bound must read that run at 14 in window
    # 14; read at 13 it would fall below top
    f = StepSequence(((1, 1.0), (13, 0.295)))
    monkeypatch.setattr(weights, "_ARRAY_BLOCK", 1)
    want = _full_scan(f, H)
    assert want[1] == 14 and functional_B_at(f, H, 13) < 1.0
    counts = _count_scanned_blocks(monkeypatch)
    assert functional_B(f, H) == want
    assert counts == [2]  # windows 1 and 14 of fourteen


def test_peak_bound_takes_an_ended_run_at_the_block_start(monkeypatch):
    # B(n) = 1/n + 0.292619 H(n-1) passes B(1) = 1 only at n = 14, the last
    # window, by less than 1/14 - 1/15: in block [14, 14] the first run,
    # ended at 1, must be bounded by its weight at 14 - 1 + 1 = 14; bounded
    # one weight further on, the block would fall below top
    f = StepSequence(((1, 1.0), (13, 0.292619)))
    monkeypatch.setattr(weights, "_ARRAY_BLOCK", 1)
    want = _full_scan(f, H)
    assert want[1] == 14 and want[0] - 1.0 < 1 / 14 - 1 / 15
    counts = _count_scanned_blocks(monkeypatch)
    assert functional_B(f, H) == want
    assert counts == [2]  # windows 1 and 14 of fourteen


def test_peak_bound_takes_a_long_ended_run_by_its_kept_ends(monkeypatch):
    # B(n) = W(n) rises to its maximum at n = 4,096, the first run's end.
    # Past it, bounding that run by its whole peak W(4,096) or by its length
    # times w_{lo-e+1} keeps every block's bound above top; its c(lo) =
    # W(lo) - W(lo - e), read from kept block ends, rules out every block
    # after the one past the top: 257 of 512 blocks are scanned, where the
    # two other forms alone scan all 512
    f = StepSequence(((2**12, 1.0), (2**12, 0.5)))
    fam = PowerWeights(0.5)
    monkeypatch.setattr(weights, "_ARRAY_BLOCK", 2**4)
    want = _full_scan(f, fam)
    assert want[1] == 2**12
    counts = _count_scanned_blocks(monkeypatch)
    assert functional_B(f, fam) == want
    assert counts == [257]


# ---------------------------------------------------------- the scan's routes


def _kernel_scan(f, fam):
    # every window sum from the per-run kernel over the family ledger's
    # blocks, none passed over: the reference every route must reproduce
    runs = [(start, end, float(v)) for start, end, v in f.bounds()]
    blocks = fx._scan_dense(runs, lambda j: fam._prefixes(j, f.support), weights._ARRAY_BLOCK)
    return runs, np.concatenate([scan for _, scan in blocks])


def _first_max(scan):
    k = int(np.argmax(scan))
    return float(scan[k]).hex(), k + 1


@st.composite
def many_run_sequences(draw, max_runs=60, max_length=30):
    # at least 9 runs, so a pairwise sum over runs would differ from the
    # kernel's run order; raw values within 2**30 of a top from 1e-300 to
    # 1e300, or near the top of the double range, whose window sums
    # overflow to inf, and some subnormal ones
    k = draw(st.integers(9, max_runs))
    lengths = draw(st.lists(st.integers(1, max_length), min_size=k, max_size=k))
    top = draw(st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1.0, 1e300, 1.7e308]))
    value = st.floats(top * 2.0**-30, top) | st.floats(2.0**-1074, 2.0**-1022)
    values = draw(st.lists(value, min_size=k, max_size=k, unique=True))
    return StepSequence(tuple(zip(lengths, sorted(values, reverse=True))))


@given(fam=st.sampled_from([*STREAM_FAMILIES, FLAT]), f=many_run_sequences(max_length=8))
@settings(max_examples=80, deadline=None)
def test_gathered_scan_is_the_kernel_scan(fam, f):
    # a support of at most 480 entries: the one gathered pass gives the
    # kernel's scan byte for byte, and B its maximum
    with np.errstate(over="ignore"):
        runs, want = _kernel_scan(f, fam)
        assert f.support <= fx._GATHER_SUPPORT and len(runs) * f.support <= fx._GATHER_WORK
        got = fx._gathered_scan(runs, fam._prefixes(0, f.support)[: f.support + 1])
        assert got.tobytes() == want.tobytes()
        value, n = functional_B(f, fam)
    assert (value.hex(), n) == _first_max(want)


@given(fam=st.sampled_from([*STREAM_FAMILIES, FLAT]), f=many_run_sequences(max_runs=300, max_length=400))
# every value subnormal: the filter's scale 2**1073 lies past the double range
@example(fam=STREAM_FAMILIES[1], f=StepSequence(tuple((1, (300 - i) * 2.0**-1074) for i in range(300))))
@settings(max_examples=60, deadline=None)
def test_fft_route_finds_the_kernel_maximum(fam, f):
    # the FFT filter, called on every run count from 9 up: B has the
    # kernel's bytes and argmax its first maximum; with the run threshold
    # lowered, functional_B takes the route too wherever the gathered pass
    # does not apply
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
        runs, want = _kernel_scan(f, fam)
        if runs[0][2] < fx._FFT_VALUE_CAP:
            got = fx._fft_top(runs, fam)
            assert got is None or (got[0].hex(), got[1]) == _first_max(want)
        mp.setattr(fx, "_FFT_RUNS", 9)
        value, n = functional_B(f, fam)
    assert (value.hex(), n) == _first_max(want)


@pytest.mark.parametrize("fam", STREAM_FAMILIES)
def test_fft_error_bound_holds_with_its_margin(fam):
    # the filter against the exact convolution of its own float inputs, on
    # 400 runs: the a priori bound, with its safety factor of 4, holds with
    # that factor to spare
    rng = np.random.default_rng(7)
    m = 1200
    values = np.sort(rng.uniform(1e-3, 1.0, 400))[::-1]
    a = np.repeat(values, np.diff(np.r_[0, np.sort(rng.choice(np.arange(1, m), 399, replace=False)), m]))
    d = np.diff(fam.prefix_array(m))
    size = 1 << (2 * m - 2).bit_length()
    filtered = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(d, size), size)[:m]
    bound = fx._fft_error_bound(a, d, size)
    for n in range(1, m + 1, 37):
        exact = sum(Fraction(x) * Fraction(y) for x, y in zip(a[n - 1 :: -1].tolist(), d[:n].tolist()))
        assert abs(Fraction(filtered[n - 1]) - exact) < Fraction(bound) / 4


def test_exact_mode_never_takes_the_fft_route(monkeypatch):
    # 300 runs over a support of 600: past the gathered pass, inside the FFT
    # filter's reach, and exact B still comes from the kernel and its band
    monkeypatch.setattr(fx, "_FFT_RUNS", 1)
    monkeypatch.setattr(fx, "_fft_top", lambda *a: pytest.fail("exact B took the FFT route"))
    fam = parse_weight_spec("ctail:0.25")
    f = StepSequence(tuple((2, Fraction(1000 - i, 7)) for i in range(300)))
    assert f.support > fx._GATHER_SUPPORT
    best, n = functional_B(f, fam, mode="rational")
    windows = [functional_B_at(f, fam, k, mode="rational") for k in range(1, f.support + 1)]
    assert type(best) is Fraction and best == max(windows) and n == windows.index(best) + 1


# halving values on FLAT: B(n) = 2**(1-n) + (1 - 2**(1-n)) = 1 for every n,
# and every kernel sum rounds to 1.0, so all 60 windows tie
HALVING = StepSequence(tuple((1, 2.0**-i) for i in range(60)))


def test_fft_route_returns_the_first_of_tied_windows():
    # the filter's own maximum lies at a later window (47 on numpy 2.4), so
    # only the band's re-evaluation finds window 1
    runs, want = _kernel_scan(HALVING, FLAT)
    assert set(want.tolist()) == {1.0}
    assert fx._fft_top(runs, FLAT) == (1.0, 1)


def test_fft_route_falls_back_when_too_many_windows_tie(monkeypatch):
    # with room for fewer re-evaluations than the band holds, the filter
    # gives up and the kernel's first maximum stands
    runs, _ = _kernel_scan(HALVING, FLAT)
    monkeypatch.setattr(fx, "_FFT_CANDIDATE_WORK", 100)
    assert fx._fft_top(runs, FLAT) is None
    monkeypatch.setattr(fx, "_GATHER_WORK", 0)
    monkeypatch.setattr(fx, "_FFT_RUNS", 9)
    counts = _count_scanned_blocks(monkeypatch)
    assert functional_B(HALVING, FLAT) == (1.0, 1)
    assert counts == [1]  # the kernel ran


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_fft_band_of_a_distinct_monotone_vector_is_narrow(monkeypatch, seed, p):
    # 16,384 distinct non-decreasing entries drawn as bench vectors draws
    # its up_distinct input, the selection norm's many-run case: the band
    # holds at most two windows, and B is the kernel's
    rng = np.random.default_rng(seed)
    up = np.sort(rng.uniform(0.001, 1.0, size=2**14))
    g = StepSequence.from_values((up**p)[::-1])
    sizes = []
    gather = fx._gather
    monkeypatch.setattr(fx, "_gather", lambda runs, P, n: sizes.append(n.size) or gather(runs, P, n))
    got = functional_B(g, H)
    assert len(g.runs) == 2**14 and len(sizes) == 1 and sizes[0] <= 2
    runs, want = _kernel_scan(g, H)
    assert (got[0].hex(), got[1]) == _first_max(want)


def test_scan_caps_trip_before_allocating(monkeypatch):
    fam = PowerWeights(0.5)
    monkeypatch.setattr(fam, "_terms", lambda *a: pytest.fail("weights generated"))
    with pytest.raises(CapExceededError, match="support 268435457 exceeds the family index cap"):
        functional_B(StepSequence(((weights.DEFAULT_INDEX_CAP + 1, 1.0),)), fam)
    # 65 runs over a support of 2**28: 65 * 2**28 run-window terms > 2**34
    lengths = [2**22] * 63 + [2**22 - 1, 1]
    f = StepSequence(tuple((n, 1.0 / (i + 1)) for i, n in enumerate(lengths)))
    assert len(f.runs) == 65 and f.support == weights.DEFAULT_INDEX_CAP
    with pytest.raises(CapExceededError, match="65 runs over support 268435456"):
        functional_B(f, fam)


def test_support_cap_errors():
    fam = PowerWeights(0.5, index_cap=100)
    f = StepSequence(((101, 1.0),))
    with pytest.raises(CapExceededError):
        functional_A(f, fam)
    with pytest.raises(CapExceededError):
        functional_B(f, fam)


ENTRY_POINTS = {
    "functional_A": functional_A,
    "functional_B_at": lambda f, fam, mode: functional_B_at(f, fam, 1, mode),
    "functional_B": functional_B,
    "ratio": ratio,
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
@pytest.mark.parametrize(
    "f, fam, mode, error, message",
    [
        (
            StepSequence(((101, 1.0),)),
            PowerWeights(0.5, index_cap=100),
            "float",
            CapExceededError,
            "support 101 exceeds the family index cap 100",
        ),
        (
            StepSequence(((2, Fraction(1)),)),
            P12,
            "rational",
            InputError,
            "family 'power:0.5' does not support exact evaluation",
        ),
        (
            StepSequence(((2, 1.0), (1, Fraction(1, 3)))),
            H,
            "rational",
            InputError,
            "exact evaluation needs all run values rational",
        ),
        (
            StepSequence(((weights.EXACT_PREFIX_CAP + 1, Fraction(1)),)),
            H,
            "rational",
            CapExceededError,
            f"exact evaluation capped at support {weights.EXACT_PREFIX_CAP}, "
            f"got {weights.EXACT_PREFIX_CAP + 1}",
        ),
    ],
    ids=["index-cap", "power-family", "float-values", "exact-cap"],
)
def test_every_entry_point_reads_through_the_same_checks(call, f, fam, mode, error, message):
    # each public functional reads its sequence through the same checks
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(f, fam, mode)


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


def test_values_past_the_interpreter_digit_limit_are_input_errors():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(InputError, match="640-digit limit"):
            StepSequence(((1, Fraction(1, 10**700)),)).to_json_dict()
        with pytest.raises(InputError, match="640-digit limit"):
            StepSequence.from_json_dict({"runs": [[1, "1/" + "7" * 700]]})
        with pytest.raises(InputError, match="bad run value"):
            StepSequence.from_json_dict({"runs": [[1, "1/x" + "7" * 700]]})
    finally:
        sys.set_int_max_str_digits(saved)


def test_scaling_into_overflow_rejected():
    with pytest.raises(InputError, match="not finite"):
        StepSequence(((1, 1e308),)).scaled(10.0)
