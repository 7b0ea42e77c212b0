"""Block-length search, witness construction, and certificate verification."""

from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqspace import weights, witness
from seqspace.exceptions import CapExceededError, CertificationError, InputError
from seqspace.functionals import StepSequence, functional_A, functional_B, functional_B_at
from seqspace.norms import inclusion_gap, symmetric_defect
from seqspace.weights import (
    ExplicitRationalWeights,
    HarmonicWeights,
    PowerWeights,
    parse_weight_spec,
)
from seqspace.witness import (
    DEFAULT_TOLERANCE,
    build_witness,
    find_block_lengths,
    load_certificate_json,
    lower_bound_S,
    reverify_certificate_dict,
    verify_certificate,
)

P12 = PowerWeights(0.5)
H = HarmonicWeights()


def _conditions_hold(fam, d: list[int], slack: float) -> bool:
    """Direct re-statement of the two inequalities, no search machinery."""
    n_prev = 0
    for k, d_k in enumerate(d, start=1):
        W_dk = math.fsum(float(fam.weight_at(i)) for i in range(1, d_k + 1))
        W_np = math.fsum(float(fam.weight_at(i)) for i in range(1, n_prev + 1))
        if W_np > 0.5 * W_dk * (1 - slack):
            return False
        d_prev = d[k - 2] if k >= 2 else 0
        window = math.fsum(
            float(fam.weight_at(i)) for i in range(d_k + 1, d_k + d_prev + 1)
        )
        W_dprev = math.fsum(float(fam.weight_at(i)) for i in range(1, d_prev + 1))
        if window > 2.0 ** (1 - k) * W_dprev * (1 - slack):
            return False
        n_prev += d_k
    return True


def test_search_examples():
    assert find_block_lengths(P12, 1) == [1]
    assert find_block_lengths(P12, 2, slack=0.0) == [1, 3]
    with pytest.raises(InputError):
        find_block_lengths(PowerWeights(2.0), 2)
    with pytest.raises(InputError):
        find_block_lengths(parse_weight_spec("ctail:0.5"), 2)


def test_default_slack_rejects_exact_boundary():
    # at d_2 = 3 condition (ii) holds with equality (w_4 = W(1)/2 exactly),
    # so any positive slack pushes the minimum to 4
    assert find_block_lengths(P12, 2) == [1, 4]
    assert _conditions_hold(P12, [1, 3], slack=0.0)
    assert not _conditions_hold(P12, [1, 3], slack=1e-9)


def test_search_minimality_against_direct_scan():
    for fam, r in [(P12, 3), (H, 3)]:
        d = find_block_lengths(fam, r, slack=0.0)
        for k in range(1, r + 1):
            prefix = d[: k - 1]
            # the found d_k works, d_k - 1 does not
            assert _conditions_hold(fam, prefix + [d[k - 1]], 0.0)
            if d[k - 1] > 1:
                assert not _conditions_hold(fam, prefix + [d[k - 1] - 1], 0.0)


def test_monotone_feasibility():
    d = find_block_lengths(P12, 3, slack=0.0)
    for bump in (1, 2, 7, 40):
        assert _conditions_hold(P12, d[:-1] + [d[-1] + bump], 0.0)


def test_incremental_prefix_reuse():
    d3 = find_block_lengths(P12, 3)
    d5 = find_block_lengths(P12, 5, initial=d3)
    assert d5[:3] == d3
    assert d5 == find_block_lengths(P12, 5)
    with pytest.raises(InputError):
        find_block_lengths(P12, 2, initial=[1, 4, 31])
    # None, an empty list and an empty array are all no prefix
    for empty in (None, [], np.array([], dtype=np.int64)):
        assert find_block_lengths(P12, 3, initial=empty) == d3


def test_search_cap_and_slack_validation():
    with pytest.raises(CapExceededError):
        find_block_lengths(PowerWeights(0.5, index_cap=10_000), 6)
    with pytest.raises(InputError):
        find_block_lengths(P12, 2, slack=0.5)
    with pytest.raises(InputError):
        find_block_lengths(P12, 0)


def test_search_probes_stay_within_the_cap():
    # d_4 = 6306 fits under cap 8200, but condition (ii)'s window at the
    # first candidate end, the ledger block end 65536, would pass it: the
    # candidate stops at cap - n_3 = 8141 instead, and every weight read
    # checks the cap
    assert find_block_lengths(HarmonicWeights(index_cap=8200), 4) == [1, 4, 54, 6306]
    # the limit cap - n_3 is probed itself: a support of exactly the cap is
    # found, one past it is not
    assert find_block_lengths(HarmonicWeights(index_cap=6365), 4) == [1, 4, 54, 6306]
    with pytest.raises(CapExceededError, match="no feasible d_4 within cap 6364"):
        find_block_lengths(HarmonicWeights(index_cap=6364), 4)
    with pytest.raises(CapExceededError, match="no feasible d_4 within cap 6359"):
        find_block_lengths(HarmonicWeights(index_cap=6359), 4)
    # no d_2 fits beside d_1 = 1 under cap 1: the search stops without a probe
    with pytest.raises(CapExceededError, match="no feasible d_2 within cap 1"):
        find_block_lengths(HarmonicWeights(index_cap=1), 2)


def test_rational_search_checks_its_exact_reach_in_floats():
    # exact reads reach d_4 <= cap - d_3; the float pass finds d_4 = 6306,
    # where the exact conditions hold (cap 6365: the support n_4 = 6365
    # fits), and under a lower cap it finds no d_4 at all, so no exact
    # prefix of d_4 is read
    assert find_block_lengths(HarmonicWeights(index_cap=6365), 4, mode="rational") == [1, 4, 54, 6306]
    with pytest.raises(CapExceededError, match="no feasible d_4 within cap 6360$"):
        find_block_lengths(HarmonicWeights(index_cap=6360), 4, mode="rational")
    with pytest.raises(
        CapExceededError,
        match=r"^float block search stopped at d_4 of harmonic after blocks \[1, 4, 54\]: no feasible d_4 within cap 6359$",
    ):
        find_block_lengths(HarmonicWeights(index_cap=6359), 4, mode="rational")


def test_rational_search_runs_to_its_exact_reach(monkeypatch):
    # with 7000 exact prefixes, d_4 = 6306 and its reads (up to W(6360)) fit:
    # the float pass probes the reach 7000 - d_3 = 6946, not the block end 65536
    monkeypatch.setattr(weights, "EXACT_PREFIX_CAP", 7000)
    assert find_block_lengths(HarmonicWeights(), 4, mode="rational") == [1, 4, 54, 6306]
    # a float pass loosened enough to stop below the reach 6359 - d_3 = 6305,
    # where the exact conditions still fail: the exact pass stops at that reach
    monkeypatch.setattr(weights, "EXACT_PREFIX_CAP", 6359)
    monkeypatch.setattr(witness, "_REACH_SLACK", 0.1)
    with pytest.raises(CapExceededError, match="no feasible d_4 within exact reach 6359$"):
        find_block_lengths(HarmonicWeights(), 4, mode="rational")


@pytest.mark.parametrize(
    "use",
    [
        lambda d: build_witness(P12, d),
        lambda d: verify_certificate(P12, d),
        lambda d: find_block_lengths(P12, 3, initial=d),
    ],
    ids=["build_witness", "verify_certificate", "find_block_lengths"],
)
def test_block_lengths_are_positive_integers(use):
    # one check runs before any prefix read: no float is truncated, no bool
    # counts as a length, and numpy integers pass
    for d in ([1.5], ["2"], [1, 4, 31.0], [True, 4], [0, 4]):
        with pytest.raises(InputError, match="block lengths must be a non-empty list"):
            use(d)
    assert use([np.int64(1), np.int64(4)]) == use([1, 4])
    assert use(np.array([1, 4])) == use([1, 4])
    for bad in (np.array([1.5]), np.array([0, 4])):
        with pytest.raises(InputError, match="block lengths must be a non-empty list"):
            use(bad)


_STEPS = StepSequence(((3, 1.0), (2, 0.5)))
# every integer argument, checked by one rule: r, a window or prefix length,
# a run length and the index cap
INTEGER_ARGUMENTS = {
    "find_block_lengths": lambda x: find_block_lengths(P12, x),
    "lower_bound_S": lambda x: lower_bound_S(P12, x),
    "inclusion_gap": lambda x: inclusion_gap(P12, 1.0, x),
    "functional_B_at": lambda x: functional_B_at(_STEPS, P12, x),
    "symmetric_defect": lambda x: symmetric_defect(_STEPS, P12, 1.0, x)[0],
    "prefix_sum": lambda x: P12.prefix_sum(x),
    "run_length": lambda x: StepSequence(((x, 1.0),)).runs,
    "index_cap": lambda x: PowerWeights(0.5, index_cap=x).index_cap,
}


@pytest.mark.parametrize("bad", [2.0, 2.5, True, np.float64(2.0), np.bool_(True)])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_refuse_floats_and_bools(call, bad):
    with pytest.raises(InputError, match="must be an integer, got"):
        call(bad)


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_take_numpy_integers(call):
    got, want = call(np.int64(2)), call(2)
    assert got == want and type(got) is type(want)


def test_build_witness_examples():
    assert build_witness(P12, [1]).runs == ((1, 1.0),)
    f = build_witness(P12, [1, 3])
    assert f.runs[0] == (1, 1.0)
    assert f.runs[1][0] == 3
    assert f.runs[1][1] == pytest.approx(1 / (1 + 2**-0.5 + 3**-0.5), rel=1e-14)
    g = build_witness(H, [1, 4], mode="rational")
    assert g.runs == ((1, Fraction(1)), (4, Fraction(12, 25)))


def test_build_witness_rejects_bad_blocks():
    with pytest.raises(InputError):
        build_witness(P12, [])
    with pytest.raises(InputError):
        build_witness(P12, [2, 2])  # equal prefix sums, values do not decrease
    with pytest.raises(InputError):
        build_witness(P12, [1, -1])
    with pytest.raises(InputError):
        build_witness(P12, [1, 1.5])


def test_rational_build_witness_stays_within_the_cap():
    # the exact prefix W(54) is past cap 10, as the float one already was
    with pytest.raises(CapExceededError, match="^prefix index 54 exceeds the configured cap 10$"):
        build_witness(HarmonicWeights(index_cap=10), [1, 4, 54], mode="rational")


def test_block_values_strictly_decrease():
    d = find_block_lengths(P12, 5)
    f = build_witness(P12, d)
    values = [v for _, v in f.runs]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_verify_certificate_examples():
    cert = verify_certificate(P12, [1])
    assert cert.A_value == pytest.approx(1.0)
    assert cert.B_value == pytest.approx(1.0)
    assert cert.r == 1

    cert = verify_certificate(P12, [1, 3])
    # A = 1 + (W(4) - W(1)) / W(3), a two-block hand computation
    w3 = 1 + 2**-0.5 + 3**-0.5
    w4 = w3 + 0.5
    assert cert.A_value == pytest.approx(1 + (w4 - 1) / w3, rel=1e-13)
    assert cert.A_value >= 1.0
    assert cert.B_value == pytest.approx(1.5, rel=1e-13)
    assert cert.argmax_n == 4
    assert cert.n == (1, 4)
    assert min(cert.cond_i_margins) >= 0
    assert min(cert.cond_ii_margins) >= -1e-12


def test_verify_certificate_rejects_bad_blocks():
    with pytest.raises(CertificationError, match="condition \\(i\\)"):
        verify_certificate(P12, [1, 1])
    # [1, 3, 100, 420] satisfies the doubling condition everywhere, but at
    # k = 4 the window W(520) - W(420) ~ 4.6 exceeds 2**-3 * W(100) ~ 2.3
    with pytest.raises(CertificationError, match="condition \\(ii\\)"):
        verify_certificate(P12, [1, 3, 100, 420])
    with pytest.raises(InputError):
        verify_certificate(P12, [])


def test_verified_bounds_hold_for_all_r():
    for r in range(1, 6):
        cert = verify_certificate(P12, find_block_lengths(P12, r))
        assert cert.A_value >= r / 2 - 1e-9
        assert cert.B_value <= 3 + 1e-9
        assert cert.ratio >= r / 6


def test_certificate_matches_functionals():
    d = find_block_lengths(P12, 4)
    cert = verify_certificate(P12, d)
    f = build_witness(P12, d)
    assert cert.A_value == pytest.approx(functional_A(f, P12), rel=1e-14)
    b, n = functional_B(f, P12)
    assert cert.B_value == pytest.approx(b, rel=1e-14)
    assert cert.argmax_n == n


def test_rational_certificate_exact_values():
    d = find_block_lengths(H, 2, mode="rational")
    assert d == [1, 4]
    cert = verify_certificate(H, d, mode="rational")
    # hand computation: a = (1, 12/25 x4); A = 1 + (12/25)(H(5) - 1) = 202/125,
    # B attained at n = 5: 1/5 + (12/25) H(4) = 6/5
    assert cert.A_value == Fraction(202, 125)
    assert cert.B_value == Fraction(6, 5)
    assert cert.ratio == Fraction(101, 75)
    assert cert.argmax_n == 5
    assert cert.mode == "rational"


def test_certificate_json_round_trip(tmp_path):
    cert = verify_certificate(H, [1, 4], mode="rational")
    data = cert.to_json_dict()
    assert set(data) == {"family", "r", "d", "A", "B", "ratio", "margins", "mode"}
    assert data["A"] == "202/125"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    loaded = load_certificate_json(path)
    re_cert = reverify_certificate_dict(loaded)
    assert re_cert.to_json_dict() == data


def test_reverify_detects_tampering(tmp_path):
    cert = verify_certificate(H, [1, 4], mode="rational")
    data = cert.to_json_dict()
    data["A"] = "203/125"
    with pytest.raises(CertificationError, match="claimed A"):
        reverify_certificate_dict(data)

    good = verify_certificate(P12, [1, 3]).to_json_dict()
    good["ratio"] = "1.25"
    with pytest.raises(CertificationError, match="claimed ratio"):
        reverify_certificate_dict(good)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"family": "harmonic", "r": 1}))
    with pytest.raises(InputError, match="missing fields"):
        load_certificate_json(path)


def test_reverify_checks_every_margin():
    data = verify_certificate(H, [1, 4, 54], mode="rational").to_json_dict()
    data["margins"]["cond_i"][2] = "999"
    with pytest.raises(CertificationError, match=r"claimed margins\.cond_i\[2\] = 999"):
        reverify_certificate_dict(data)

    good = verify_certificate(P12, [1, 4, 31]).to_json_dict()
    assert good["margins"]["cond_ii"][0] == "0"  # matched although its scale is 0
    assert reverify_certificate_dict(good).to_json_dict() == good
    # float margins agree to the tolerance times their condition's right-hand side
    W = P12.prefix_sum
    for name, i, rhs in (("cond_i", 1, W(4) / 2), ("cond_ii", 2, W(4) / 4)):
        for factor, agrees in ((0.5, True), (2.0, False)):
            data = json.loads(json.dumps(good))
            shifted = float(good["margins"][name][i]) + factor * DEFAULT_TOLERANCE * rhs
            data["margins"][name][i] = repr(shifted)
            if agrees:
                assert reverify_certificate_dict(data).to_json_dict() == good
            else:
                with pytest.raises(CertificationError, match=rf"margins\.{name}\[{i}\]"):
                    reverify_certificate_dict(data)

    data = json.loads(json.dumps(good))
    data["margins"]["cond_ii"].pop()
    with pytest.raises(CertificationError, match="margins do not list 3 entries each"):
        reverify_certificate_dict(data)


def test_reverify_passes_its_cap_to_the_family():
    data = verify_certificate(H, [1, 4]).to_json_dict()
    with pytest.raises(InputError, match="index cap must lie in"):
        reverify_certificate_dict(data, cap=0)
    with pytest.raises(CapExceededError):
        reverify_certificate_dict(data, cap=4)
    assert reverify_certificate_dict(data, cap=5).to_json_dict() == data


@pytest.mark.parametrize(
    "field, value",
    [
        ("family", 5),
        ("d", [True, 4, 31]),
        ("d", "1,4,31"),
        ("r", "3"),
        ("r", 3.0),
        ("A", True),
        ("ratio", None),
        ("margins", "x"),
        ("margins", {"cond_i": ["0.5", "0.1", "0.01"]}),
        ("margins", {"cond_i": ["0.5", "0.1", "0.01"], "cond_ii": ["0", [1], "0.1"]}),
        ("mode", "interval"),
    ],
)
def test_load_certificate_rejects_bad_field_types(tmp_path, field, value):
    data = verify_certificate(P12, [1, 4, 31]).to_json_dict()
    data[field] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match=f"certificate field '{field}' must be"):
        load_certificate_json(path)


def test_lower_bound_examples():
    certified, exact = lower_bound_S(P12, 1)
    assert certified == pytest.approx(1 / 6)
    assert exact == pytest.approx(1.0)
    certified, _ = lower_bound_S(PowerWeights(0.5, index_cap=2**26), 6)
    assert certified == pytest.approx(1.0)
    certified, exact = lower_bound_S(H, 2)
    assert certified == pytest.approx(1 / 3)
    assert exact >= 1 / 3


def test_lower_bound_growth():
    ratios = [lower_bound_S(P12, r)[1] for r in range(1, 6)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(v >= r / 6 for r, v in enumerate(ratios, start=1))
    h_ratios = [lower_bound_S(H, r)[1] for r in range(1, 4)]
    assert all(b >= a for a, b in zip(h_ratios, h_ratios[1:]))
    assert all(v >= r / 6 for r, v in enumerate(h_ratios, start=1))


# Full certificates: the rational ones must not move by a single digit, and
# the float ones move only with the float prefix rule.
GOLDEN_CERTIFICATES = {
    ("power:0.5", 5, "float"): {
        "family": "power:0.5",
        "r": 5,
        "d": [1, 4, 31, 630, 42423],
        "A": "4.255143094616745",
        "B": "1.4472135954999579",
        "ratio": "2.940231564882966",
        "margins": {
            "cond_i": [
                "0.5",
                "0.3922285251880866",
                "1.6506970934148675",
                "13.756796529947716",
                "155.066511430746",
            ],
            "cond_ii": [
                "0",
                "0.052786404500042128",
                "0.0047304752534984562",
                "0.00082554574515114609",
                "1.695076743946089e-05",
            ],
        },
        "mode": "float",
    },
    ("harmonic", 3, "rational"): {
        "family": "harmonic",
        "r": 3,
        "d": [1, 4, 54],
        "A": "3946448016091471690587932337/1847465790656211350947016375",
        "B": "6/5",
        "ratio": "1315482672030490563529310779/738986316262484540378806550",
        "margins": {
            "cond_i": ["1/2", "1/24", "479812184179176959849/109499572483358550292800"],
            "cond_ii": ["0/1", "3/10", "1527403/3394160"],
        },
        "mode": "rational",
    },
    ("explicit:explicit3.json", 4, "float"): {
        "family": "explicit:explicit3.json",
        "r": 4,
        "d": [1, 3, 26, 1187],
        "A": "2.7685571897735581",
        "B": "1.375",
        "ratio": "2.0134961380171332",
        "margins": {
            "cond_i": [
                "0.5",
                "0.125",
                "0.015814787161282595",
                "0.00013522638782870189",
            ],
            "cond_ii": [
                "0",
                "0.125",
                "0.40164887794198112",
                "0.6277159647824071",
            ],
        },
        "mode": "float",
    },
    ("explicit:explicit3.json", 3, "rational"): {
        "family": "explicit:explicit3.json",
        "r": 3,
        "d": [1, 3, 26],
        "A": "4128050916103/1822427898686",
        "B": "11/8",
        "ratio": "16512203664412/10023353442773",
        "margins": {
            "cond_i": ["1/2", "1/8", "188168867/11898286400"],
            "cond_ii": ["0/1", "1/8", "11741/29232"],
        },
        "mode": "rational",
    },
}


@pytest.mark.parametrize("spec, r, mode", sorted(GOLDEN_CERTIFICATES))
def test_certificate_golden(spec, r, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "explicit3.json").write_text(
        json.dumps({"weights": ["1", "3/4", "1/2"], "tail": "pattern"})
    )
    fam = parse_weight_spec(spec)
    d = find_block_lengths(fam, r, mode=mode)
    cert = verify_certificate(fam, d, mode=mode)
    data = cert.to_json_dict()
    assert data == GOLDEN_CERTIFICATES[spec, r, mode]
    # exact checks run with no tolerance at all
    assert cert.tolerance == (0.0 if mode == "rational" else DEFAULT_TOLERANCE)
    assert reverify_certificate_dict(data).to_json_dict() == data


def _count_terms(fam) -> list[int]:
    generate, count = fam._terms, [0]

    def counted(lo, hi):
        count[0] += hi - lo + 1
        return generate(lo, hi)

    fam._terms = counted
    return count


def test_search_generates_each_weight_about_once():
    # one forward ledger serves every probe: the bisection for d_6 reads
    # inside one or two blocks, held in the family's block cache or
    # generated again, so no probe sums its prefix from w_1 again (78.1M
    # terms for a 10.96M support when each probe did)
    fam = PowerWeights(0.5)
    count = _count_terms(fam)
    assert find_block_lengths(fam, 6) == [1, 4, 31, 630, 42423, 10916370]
    assert count[0] <= 26_000_000


def test_search_streams_once_to_its_last_read():
    # one forward ledger serves every block: the r = 6 search reads nothing
    # past d_6 + d_5 but the ledger block holding it, and generates each
    # block once, since its reads behind the ledger's top fall in blocks its
    # cache still holds; the rest are the screen's single weights (one block
    # was generated twice when a three-block ring held the stream's terms)
    fam = PowerWeights(0.5)
    count = _count_terms(fam)
    d = find_block_lengths(fam, 6)
    assert d == [1, 4, 31, 630, 42423, 10916370]
    assert count[0] <= d[5] + d[4] + weights._ARRAY_BLOCK


def _first_blocks(fam, r: int, slack: float, m: int) -> list[int]:
    # each d_k is the first index where both conditions hold, read from one
    # whole prefix array, with the search's float operations
    P = fam.prefix_array(m)
    factor = 1 - slack
    d, n_prev = [], 0
    for k in range(1, r + 1):
        d_prev = d[-1] if d else 0
        x = np.arange(1, m - d_prev + 1)
        ok = (P[n_prev] <= P[x] / 2 * factor) & (
            P[x + d_prev] - P[x] <= 2.0 ** (1 - k) * P[d_prev] * factor
        )
        assert ok.any()
        d.append(int(np.argmax(ok)) + 1)
        n_prev += d[-1]
    return d


PATTERN_TAILS = {
    "3/4,1/2": [Fraction(1), Fraction(3, 4), Fraction(1, 2)],
    "1,1,1/2": [Fraction(1), Fraction(1), Fraction(1), Fraction(1, 2)],
    "1/2": [Fraction(1), Fraction(1, 2)],
    "1/2..1/5,1/7": [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)],
}


SEARCH_FAMILIES = {  # spec, r and the reference's prefix length
    **{tail: (values, 4, 20_000) for tail, values in PATTERN_TAILS.items()},
    "power:0.5": (0.5, 5, 45_000),
    "power:0.7": (0.7, 6, 45_000),
}


@pytest.mark.parametrize("slack", [0.0, 1e-9])
@pytest.mark.parametrize("spec, r, m", SEARCH_FAMILIES.values(), ids=SEARCH_FAMILIES.keys())
def test_search_finds_the_first_blocks(spec, r, m, slack):
    # ledger blocks of d_k and d_k - 1 entries put each answer on a block end
    # and just past one, where the search's candidate ends and the bisection
    # inside a block meet; blocks of 2 and 7 leave (ii)'s W(d_k) many blocks
    # behind the ledger's top (d_{k-1} reaches 1396 for power:0.7 and 42423
    # for power:0.5), at a kept block end or in a block generated again; the
    # search must find the reference's blocks

    def family():
        return PowerWeights(spec) if isinstance(spec, float) else ExplicitRationalWeights(spec, "pattern")

    blocks = {None, 2, 7}
    blocks.update(b for dk in _first_blocks(family(), r, slack, m) for b in (dk, dk - 1) if b >= 2)
    on_end = past_end = False
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(weights, "_ARRAY_BLOCK", block)
            want = _first_blocks(family(), r, slack, m)
            assert find_block_lengths(family(), r, slack=slack) == want, block
        block = block or weights._ARRAY_BLOCK
        on_end |= any(dk % block == 0 for dk in want)
        past_end |= any(dk % block == 1 and dk > 1 for dk in want)
    assert on_end and past_end


@st.composite
def flat_weights(draw):
    # explicit weights with flat stretches (levels from 1/2 to 1, each held
    # for up to three indices), to be given a pattern tail
    level = st.fractions(Fraction(1, 2), 1, max_denominator=16)
    levels = draw(st.lists(level, min_size=1, max_size=3))
    values = [Fraction(1)]
    for level in sorted(set(levels), reverse=True):
        values += [level] * draw(st.integers(1, 3))
    return values


@st.composite
def screened_families(draw):
    # a vanishing power, harmonic, or flat explicit weights with a pattern tail
    kind = draw(st.sampled_from(["power", "harmonic", "flat"]))
    if kind == "power":
        alpha = draw(st.floats(0.5, 0.95))
        return f"power:{alpha}", lambda: PowerWeights(alpha)
    if kind == "harmonic":
        return "harmonic", HarmonicWeights
    values = draw(flat_weights())
    return f"flat:{values}", lambda: ExplicitRationalWeights(values, "pattern")


# w_3 = 1/2 + 2**-53 exceeds (ii)'s bound W(1)/2 at d_2 = 2, but W(3) rounds
# to 2.5, so the float search, like the reference, takes d_2 = 2: the
# screen's error term must keep it from rejecting that candidate
BOUNDARY = [Fraction(1), Fraction(1), Fraction(1, 2) + Fraction(1, 2**53)]


BOUNDARY_FAMILY = ("boundary", lambda: ExplicitRationalWeights(BOUNDARY, "pattern"))


@given(
    family=screened_families(),
    slack=st.sampled_from([0.0, 1e-9]),
    block=st.sampled_from([7, 64, 2**16]),
)
@example(family=BOUNDARY_FAMILY, slack=0.0, block=2**16)
@example(family=BOUNDARY_FAMILY, slack=0.0, block=7)
@settings(max_examples=30, deadline=None)
def test_screened_search_finds_the_first_blocks(family, slack, block):
    # the search reads (ii)'s prefixes only where d_{k-1} times the window's
    # least weight, less its error bound, leaves (ii) in doubt; it must find
    # the blocks of the whole-array reference, which reads every candidate
    _, make = family
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        assert find_block_lengths(make(), 4, slack=slack) == _first_blocks(make(), 4, slack, 30_000)


def _exact_first_blocks(values: list[Fraction], r: int) -> list[int]:
    # each d_k is the first index where both conditions hold in Fractions,
    # read from one exact prefix list of the weights with their pattern tail
    # w_i = w_L * L / i, grown as far as the reads go
    L, W = len(values), [Fraction(0)]

    def prefix(n: int) -> Fraction:
        while len(W) <= n:
            i = len(W)
            W.append(W[-1] + (values[i - 1] if i <= L else values[-1] * L / i))
        return W[n]

    d, n_prev = [], 0
    for k in range(1, r + 1):
        d_prev = d[-1] if d else 0
        x = 1
        while not (
            prefix(n_prev) <= prefix(x) / 2
            and prefix(x + d_prev) - prefix(x) <= Fraction(2) ** (1 - k) * prefix(d_prev)
        ):
            x += 1
        d.append(x)
        n_prev += x
    return d


@given(values=flat_weights(), block=st.sampled_from([7, 64, 2**16]))
@example(values=BOUNDARY, block=2**16)
@example(values=BOUNDARY, block=7)
@settings(max_examples=25, deadline=None)
def test_rational_search_finds_the_exact_first_blocks(values, block):
    # the float pass, loosened, lands at or below each exact d_k (BOUNDARY:
    # at d_2 = 2, where w_3 = 1/2 + 2**-53 breaks (ii) exactly), and the
    # exact pass climbs from there to the exact reference's blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        fam = ExplicitRationalWeights(values, "pattern")
        assert find_block_lengths(fam, 4, mode="rational") == _exact_first_blocks(values, 4)


# w_2..w_3001 = 1/2 + 10**-8 pass (ii)'s bound W(1)/2 = 1/2 in floats
# loosened by 1e-6, so the float pass lands at d_2 = 3, while the exact d_2
# is 3001, where the window first reaches the pattern tail
FLAT_STRETCH = [Fraction(1)] + [Fraction(1, 2) + Fraction(1, 10**8)] * 3000


def test_exact_pass_doubles_from_the_float_answer():
    # the exact pass tests d_2 = 3, 4, 6, 10, ..., 4098, then bisects: a few
    # dozen exact prefixes, not one for every index from 3 to 3001
    fam = ExplicitRationalWeights(FLAT_STRETCH, "pattern")
    assert find_block_lengths(fam, 2, mode="rational") == [1, 3001]
    assert len(fam._anchors) <= 64
    # harmonic's exact reads lie at the answers and their windows, none past
    # the support n_4 = 6,365 (W(8,246) when the exact search bisected from
    # n_3 + 1), and with no d_5 within the exact reach the float pass stops
    # before any exact prefix of d_5 is summed
    fam = HarmonicWeights()
    d = find_block_lengths(fam, 4, mode="rational")
    verify_certificate(fam, d, mode="rational")
    assert max(fam._anchors) == 6365
    with pytest.raises(CapExceededError, match="^float block search stopped at d_5"):
        find_block_lengths(fam, 5, mode="rational", initial=d)
    assert max(fam._anchors) == 6365


def test_search_and_verification_fill_a_few_stream_blocks(monkeypatch):
    # ledger blocks become prefixes only where a read needs them: the r = 6
    # search and verification cumsum a few blocks of 2**16, against 335
    # blocks when every block passed became prefixes
    cumsum, entries = np.cumsum, [0]

    def counted(a, *args, **kwargs):
        entries[0] += np.size(a)
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    fam = PowerWeights(0.5)
    d = find_block_lengths(fam, 6)
    assert verify_certificate(fam, d).d == (1, 4, 31, 630, 42423, 10916370)
    assert entries[0] <= 8 * 2**16


def test_verification_holds_one_term_buffer():
    # the search leaves a few cached blocks behind; verification reads kept
    # block ends and sums, and the few blocks its margins and scanned
    # windows read, so no buffer, prefix array or window of fresh terms
    # sits beside it
    fam = PowerWeights(0.5)
    tracemalloc.start()
    try:
        d = find_block_lengths(fam, 6)
        tracemalloc.reset_peak()
        verify_certificate(fam, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**22 + 4 * 2**20


def test_fresh_verification_peaks_below_8_mib():
    # a fresh r = 6 verification grows the family ledger over its support of
    # 10,959,459 weights once, in 2**16-entry blocks: its margins, A and B
    # then read kept block ends and sums and a few blocks generated again, so
    # only a few blocks are held (36.7 MB when A's 2**22-term chunks that
    # crossed blocks were copied into a buffer, and 21,969,512 terms when A
    # and B streamed the support again after the margins)
    fam = PowerWeights(0.5)
    count = _count_terms(fam)
    tracemalloc.start()
    try:
        verify_certificate(fam, [1, 4, 31, 630, 42423, 10916370])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert count[0] <= 10_959_459 + 16 * 2**16


def test_rational_certificate_peaks_below_4_mib():
    # the exact search and verification read 10 distinct prefixes up to
    # W(6,365), W(0) = 0 included (48 up to W(8,246) when the exact search
    # bisected from n_3 + 1); a list of every W(i) up to W(8,246), each with
    # numerator and denominator of about 3,500 digits, peaked at 15.5 MiB
    fam = HarmonicWeights()
    tracemalloc.start()
    try:
        d = find_block_lengths(fam, 4, mode="rational")
        cert = verify_certificate(fam, d, mode="rational")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.d == (1, 4, 54, 6306)
    assert peak < 4 * 2**20
    assert len(fam._anchors) <= 12


def test_verification_generates_each_weight_about_once():
    # the search's ledger already covers the support of 10,959,459 weights:
    # verification generates only the few blocks its margins, block values
    # and scanned windows read inside (10,959,464 terms when it streamed the
    # support again, 24.57M when A and B each did)
    fam = PowerWeights(0.5)
    d = find_block_lengths(fam, 6)
    count = _count_terms(fam)
    cert = verify_certificate(fam, d)
    assert cert.n[-1] == 10_959_459
    assert count[0] <= 16 * 2**16
