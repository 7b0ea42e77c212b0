"""Block-length search, witness construction, and certificate verification."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from seqspace.exceptions import CapExceededError, CertificationError, InputError
from seqspace.functionals import StepSequence, functional_A, functional_B
from seqspace.weights import HarmonicWeights, PowerWeights, parse_weight_spec
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


def test_search_cap_and_slack_validation():
    with pytest.raises(CapExceededError):
        find_block_lengths(P12, 6, cap=10_000)
    with pytest.raises(InputError):
        find_block_lengths(P12, 2, slack=0.5)
    with pytest.raises(InputError):
        find_block_lengths(P12, 0)


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


def test_lower_bound_examples():
    certified, exact = lower_bound_S(P12, 1)
    assert certified == pytest.approx(1 / 6)
    assert exact == pytest.approx(1.0)
    certified, _ = lower_bound_S(P12, 6, cap=2**26)
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


# Full certificates as printed before the float and exact arithmetic were
# merged into one path; the outputs must not move by a single digit.
GOLDEN_CERTIFICATES = {
    ("power:0.5", 5, "float"): {
        "family": "power:0.5",
        "r": 5,
        "d": [1, 4, 31, 630, 42423],
        "A": "4.2551430946167406",
        "B": "1.4472135954999579",
        "ratio": "2.9402315648829629",
        "margins": {
            "cond_i": [
                "0.5",
                "0.3922285251880866",
                "1.6506970934148675",
                "13.756796529947739",
                "155.06651143074663",
            ],
            "cond_ii": [
                "0",
                "0.052786404500042128",
                "0.0047304752534966799",
                "0.00082554574513693524",
                "1.695076766994319e-05",
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
                "0.015814787161283927",
                "0.00013522638782159646",
            ],
            "cond_ii": [
                "0",
                "0.125",
                "0.40164887794198112",
                "0.62771596478240921",
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
