"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest

from seqspace import weights
from seqspace.cli import main
from seqspace.norms import garling_norm
from seqspace.weights import parse_weight_spec


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, err = run(capsys, ["classify", "-w", "power:0.5"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["family"] == "power:0.5"
    assert report["branch"] == "CZeroNotEllOne"
    assert report["constant"] is None

    code, out, _ = run(capsys, ["classify", "-w", "ctail:0.5"])
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "BoundedBelow"
    assert report["constant"] == "2"

    code, out, _ = run(capsys, ["classify", "-w", "power:2"])
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "Summable"
    assert float(report["constant"]) == pytest.approx(1.6449, rel=1e-3)


def test_classify_csv(capsys):
    code, out, err = run(capsys, ["classify", "-w", "harmonic", "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "branch", "constant", "evidence"]
    assert rows[1][0] == "harmonic"
    assert rows[1][1] == "CZeroNotEllOne"
    assert rows[1][2] == ""


def test_witness_build_golden(capsys):
    code, out, err = run(capsys, ["witness", "-w", "power:0.5", "-r", "2", "--slack", "0"])
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert set(cert) == {"family", "r", "d", "A", "B", "ratio", "margins", "mode"}
    assert cert["family"] == "power:0.5"
    assert cert["r"] == 2
    assert cert["d"] == [1, 3]
    assert cert["A"] == "1.7811296124312483"
    assert cert["B"] == "1.5"
    assert cert["ratio"] == "1.1874197416208323"
    # k = 1 has no window to check (trivial zero); k = 2 sits exactly on
    # the boundary at slack 0
    assert cert["margins"]["cond_ii"] == ["0", "0"]
    assert cert["mode"] == "float"


def test_witness_default_slack_moves_off_boundary(capsys):
    # with the default margin the equality case at d_2 = 3 is rejected
    code, out, _ = run(capsys, ["witness", "-w", "power:0.5", "-r", "2"])
    assert code == 0
    assert json.loads(out)["d"] == [1, 4]


def test_witness_verify_only_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, ["witness", "-w", "harmonic", "-r", "2", "--mode", "rational"])
    assert code == 0
    cert = json.loads(out)
    assert cert["d"] == [1, 4]
    assert cert["A"] == "202/125"
    assert cert["ratio"] == "101/75"
    assert cert["mode"] == "rational"

    path = tmp_path / "cert.json"
    path.write_text(out)
    code, re_out, err = run(capsys, ["witness", "--verify-only", str(path)])
    assert code == 0 and err == ""
    assert re_out == out


def test_witness_verify_only_rejects_tampering(tmp_path, capsys):
    code, out, _ = run(capsys, ["witness", "-w", "harmonic", "-r", "2", "--mode", "rational"])
    assert code == 0
    cert = json.loads(out)
    cert["A"] = "203/125"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, ["witness", "--verify-only", str(path)])
    assert code == 3
    assert "certification failure" in err


def test_witness_requires_feasible_family(capsys):
    code, _, err = run(capsys, ["witness", "-w", "power:2", "-r", "2"])
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, ["witness", "-w", "ctail:0.5", "-r", "2"])
    assert code == 2


def test_witness_requires_r(capsys):
    code, _, err = run(capsys, ["witness", "-w", "harmonic"])
    assert code == 2
    assert "-r" in err


def test_scan_golden(capsys):
    code, out, err = run(capsys, ["scan", "-w", "power:0.5", "--slack", "0", "-r", "3"])
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "r",
        "d_r",
        "A",
        "B",
        "ratio",
        "certified",
        "symmetric_defect",
        "inclusion_gap",
    ]
    assert len(rows) == 4
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert rows[1][1] == "1"
    assert rows[2][1] == "3"
    for row in rows[1:]:
        r = int(row[0])
        assert float(row[4]) >= float(row[5])  # ratio >= certified r/6
        assert float(row[5]) == pytest.approx(r / 6.0, rel=1e-12)
        assert float(row[6]) >= r / 6.0
        assert float(row[7]) >= r / 6.0
    assert rows[2][3] == "1.5"  # B at r = 2 with the boundary blocks


def test_scan_rejects_wrong_branch_and_limits(capsys):
    code, _, err = run(capsys, ["scan", "-w", "ctail:0.5"])
    assert code == 2

    code, _, err = run(capsys, ["scan", "-w", "power:0.5", "-r", "0"])
    assert code == 2
    assert "rmax" in err

    # r has no limit of its own: the scan runs until the index cap stops the search
    code, out, err = run(capsys, ["scan", "-w", "power:0.5", "-r", "7", "--cap", "100000"])
    assert code == 4
    assert [row[1] for row in csv.reader(io.StringIO(out))] == [
        "d_r", "1", "4", "31", "630", "42423"
    ]
    assert err == (
        "resource cap exceeded: float block search stopped at d_6 of power:0.5 "
        "after blocks [1, 4, 31, 630, 42423]: no feasible d_6 within cap 100000\n"
    )

    code, _, err = run(capsys, ["scan", "-w", "power:0.5", "--output", "json"])
    assert code == 2


def write_vector(tmp_path, payload) -> str:
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_norm_report(tmp_path, capsys):
    vec = write_vector(tmp_path, [2.0, 1.0])
    code, out, err = run(capsys, ["norm", "-w", "harmonic", vec])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["garling"]["value"] == "2.5"
    assert report["garling"]["selector"] == [1, 2]
    assert report["lorentz"]["value"] == "2.5"
    assert "oracle" not in report


def test_norm_oracle_cross_check(tmp_path, capsys):
    vec = write_vector(tmp_path, ["1/2", "2", 0.25])
    code, out, _ = run(capsys, ["norm", "-w", "harmonic", vec, "--oracle"])
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["garling"] == report["garling"]["value"]

    big = write_vector(tmp_path, [1.0] * 21)
    code, _, err = run(capsys, ["norm", "-w", "harmonic", big, "--oracle"])
    assert code == 4
    assert "resource cap" in err


def test_norm_input_errors(tmp_path, capsys):
    vec = write_vector(tmp_path, [1.0])
    code, _, _ = run(capsys, ["norm", "-w", "harmonic", vec, "--mode", "rational"])
    assert code == 2

    code, _, _ = run(capsys, ["norm", "-w", "harmonic", str(tmp_path / "missing.json")])
    assert code == 2

    code, _, _ = run(capsys, ["norm", "-w", "harmonic", write_vector(tmp_path, {})])
    assert code == 2

    code, _, _ = run(capsys, ["norm", "-w", "harmonic", write_vector(tmp_path, ["x"])])
    assert code == 2

    code, _, _ = run(capsys, ["norm", "-w", "harmonic", write_vector(tmp_path, [True])])
    assert code == 2

    code, _, _ = run(capsys, ["norm", "-w", "harmonic", write_vector(tmp_path, ["1/0"])])
    assert code == 2

    code, _, _ = run(capsys, ["norm", vec])
    assert code == 2  # family flag missing

    # entries past the double range, as an integer or a 'p/q' string
    for big in ([10**400, 1], ["1" + "0" * 400 + "/1", 1]):
        code, out, err = run(capsys, ["norm", "-w", "harmonic", write_vector(tmp_path, big)])
        assert (code, out, err) == (2, "", "error: vector entries must be finite\n")


def test_cap_flag_and_env(tmp_path, capsys, monkeypatch):
    # d_5 = 42423 lies past cap 1000
    code, _, err = run(capsys, ["witness", "-w", "power:0.5", "-r", "5", "--cap", "1000"])
    assert code == 4
    assert "resource cap" in err

    code, out, _ = run(capsys, ["witness", "-w", "power:0.5", "-r", "2", "--cap", str(2**20)])
    assert code == 0

    # --cap is the only cap setter: SEQSPACE_CAP is not read
    monkeypatch.setenv("SEQSPACE_CAP", "abc")
    code, _, err = run(capsys, ["witness", "-w", "harmonic", "-r", "1"])
    assert (code, err) == (0, "")


def test_cap_past_the_scan_support_exits_2(capsys):
    # no witness, scan or norm can use a support past 2**28, so no cap may exceed it
    message = "error: index cap must lie in 1..268435456, got 268435457\n"
    code, out, err = run(capsys, ["witness", "-w", "harmonic", "-r", "1", "--cap", "268435457"])
    assert (code, out, err) == (2, "", message)
    code, out, err = run(capsys, ["scan", "-w", "harmonic", "-r", "1", "--cap", "268435457"])
    assert (code, out, err) == (2, "", message)


def test_rational_reverify_names_the_read_past_the_cap(tmp_path, capsys):
    # the exact prefix W(d_3) = W(54) is the first read past cap 10
    code, out, _ = run(capsys, ["witness", "-w", "harmonic", "-r", "3", "--mode", "rational"])
    assert code == 0
    cert = tmp_path / "h3.json"
    cert.write_text(out)
    code, out, err = run(capsys, ["witness", "--verify-only", str(cert), "--cap", "10"])
    assert (code, out) == (4, "")
    assert err == "resource cap exceeded: prefix index 54 exceeds the configured cap 10\n"


@pytest.mark.parametrize(
    "family, r, blocks",
    [
        ("harmonic", 6, "[1, 4, 54, 6306, 72168326]"),
        ("power:0.5", 7, "[1, 4, 31, 630, 42423, 10916370]"),
    ],
)
def test_hopeless_search_stops_at_the_index_cap(capsys, family, r, blocks):
    # the next block lies past 2**28, so the search exits 4 after O(2**28) summed terms
    code, out, err = run(capsys, ["witness", "-w", family, "-r", str(r)])
    assert code == 4 and out == ""
    assert err == (
        f"resource cap exceeded: float block search stopped at d_{r} of {family} "
        f"after blocks {blocks}: no feasible d_{r} within cap 268435456\n"
    )


@pytest.mark.parametrize(
    "argv, blocks",
    [
        (["-w", "power:0.5", "-r", "4", "--cap", "665"], "[1, 4, 31]"),
        (["-w", "harmonic", "-r", "4", "--cap", "6364"], "[1, 4, 54]"),
    ],
)
def test_support_past_the_cap_stops_the_search(capsys, argv, blocks):
    # d_4 would take the support one entry past the cap: the search bounds
    # d_4 by the cap less n_3 and names the blocks it found
    code, out, err = run(capsys, ["witness", *argv])
    assert (code, out) == (4, "")
    assert err == (
        f"resource cap exceeded: float block search stopped at d_4 of {argv[1]} "
        f"after blocks {blocks}: no feasible d_4 within cap {argv[-1]}\n"
    )


def _certificate_file(tmp_path, capsys, edit):
    code, out, _ = run(capsys, ["witness", "-w", "power:0.5", "-r", "3"])
    assert code == 0
    cert = json.loads(out)
    edit(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    return str(path)


@pytest.mark.parametrize(
    "field, value",
    [("family", 5), ("d", [True, 4, 31]), ("r", "3"), ("margins", "x")],
)
def test_verify_only_rejects_bad_field_types(tmp_path, capsys, field, value):
    path = _certificate_file(tmp_path, capsys, lambda cert: cert.update({field: value}))
    code, out, err = run(capsys, ["witness", "--verify-only", path])
    assert code == 2 and out == ""
    assert err.startswith(f"error: certificate field '{field}' must be")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("-r", "9"), ("-w", "harmonic"), ("--mode", "rational"), ("--mode", "float"),
        ("--slack", "0.05"),
    ],
)
def test_verify_only_rejects_search_flags(tmp_path, capsys, flag, value):
    # the certificate fixes the family, mode and blocks, so these flags cannot act
    path = _certificate_file(tmp_path, capsys, lambda cert: None)
    code, out, err = run(capsys, ["witness", "--verify-only", path, flag, value])
    assert (code, out, err) == (2, "", f"error: {flag} does not act with --verify-only\n")
    # the index cap bounds the re-derivation, so it stays
    code, out, err = run(capsys, ["witness", "--verify-only", path, "--cap", "100"])
    assert code == 0 and err == ""


def test_verify_only_checks_the_claimed_margins(tmp_path, capsys):
    def edit(cert):
        cert["margins"]["cond_i"][2] = "999"

    path = _certificate_file(tmp_path, capsys, edit)
    code, out, err = run(capsys, ["witness", "--verify-only", path])
    assert code == 3 and out == ""
    assert err.startswith("certification failure: claimed margins.cond_i[2] = 999 differs")


def test_explicit_weights_must_be_a_list(tmp_path, capsys):
    (tmp_path / "w.json").write_text(json.dumps({"weights": 5, "tail": "pattern"}))
    code, out, err = run(capsys, ["classify", "-w", f"explicit:{tmp_path / 'w.json'}"])
    assert code == 2 and out == ""
    assert err.startswith("error: explicit weight file must be")


def test_bad_family_specs(capsys):
    for spec in ["power:-1", "bogus", "ctail:0", "ctail:2", "power:"]:
        code, _, err = run(capsys, ["classify", "-w", spec])
        assert code == 2, spec
        assert "error:" in err

    code, _, _ = run(capsys, ["classify"])
    assert code == 2


def test_argparse_exits_are_returned(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["norm", "-w", "harmonic"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "classify" in out and "witness" in out


def test_slack_validation(capsys):
    code, _, err = run(capsys, ["witness", "-w", "harmonic", "-r", "1", "--slack", "0.5"])
    assert code == 2
    assert "slack" in err



@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_norm_rejects_overflowing_vector(tmp_path, capsys):
    vec = write_vector(tmp_path, [1, 1e308, 1e308])
    code, out, err = run(capsys, ["norm", "-w", "power:0.5", vec, "-p", "2"])
    assert code == 2 and out == ""
    assert "not finite" in err


def test_norm_rejects_underflowing_vector(tmp_path, capsys):
    # every square underflows to 0: the selection norm read 0 with no selector
    vec = write_vector(tmp_path, [1e-200, 1e-200])
    code, out, err = run(capsys, ["norm", "-w", "harmonic", vec, "-p", "2"])
    assert code == 2 and out == ""
    assert "all underflow to 0" in err


# Each flag below used to be accepted by the subcommand without acting there.
REMOVED_FLAGS = [
    ("classify", "--cap 100"),
    ("classify", "--mode float"),
    ("classify", "--slack 0"),
    ("classify", "--oracle"),
    ("witness", "--output json"),
    ("witness", "--oracle"),
    ("norm", "--mode float"),
    ("norm", "--slack 0"),
    ("norm", "--output json"),
    ("scan", "--output csv"),
    ("scan", "--oracle"),
    ("scan", "-p 2"),
]
BASE_ARGV = {
    "classify": ["-w", "harmonic"],
    "witness": ["-w", "harmonic", "-r", "1"],
    "norm": ["-w", "harmonic", "vec.json"],
    "scan": ["-w", "harmonic", "-r", "1"],
}


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flags_exit_2(command, flag, capsys):
    code, out, err = run(capsys, [command, *BASE_ARGV[command], *flag.split()])
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_each_subcommand_keeps_its_flags(tmp_path, capsys):
    vec = write_vector(tmp_path, [2.0, 1.0])
    for argv in (
        ["classify", "--output", "csv"],
        ["witness", "-r", "2", "--cap", "100", "--mode", "rational", "--slack", "0"],
        ["norm", vec, "--cap", "100", "-p", "1", "--oracle"],
        ["scan", "-r", "2", "--cap", "100", "--mode", "float", "--slack", "0"],
    ):
        code, out, err = run(capsys, [argv[0], "-w", "harmonic", *argv[1:]])
        assert code == 0 and err == "", argv
        assert out


# Full stdout of these scans.  The defect and gap of a witness are both its
# certified ratio A / B, so those columns repeat the ratio column.
SCAN_GOLDEN = {
    ("power:0.5", "5"): (
        "r,d_r,A,B,ratio,certified,symmetric_defect,inclusion_gap\r\n"
        "1,1,1,1,1,0.16666666666666666,1,1\r\n"
        "2,4,1.8014742570996516,1.4472135954999579,1.2447880967268761,"
        "0.33333333333333331,1.2447880967268761,1.2447880967268761\r\n"
        "3,31,2.5583934079486199,1.4472135954999579,1.7678063665956587,"
        "0.5,1.7678063665956587,1.7678063665956587\r\n"
        "4,630,3.3695267282964898,1.4472135954999579,2.3282857062522586,"
        "0.66666666666666663,2.3282857062522586,2.3282857062522586\r\n"
        "5,42423,4.255143094616745,1.4472135954999579,2.940231564882966,"
        "0.83333333333333337,2.940231564882966,2.940231564882966\r\n"
    ),
    ("harmonic", "4"): (
        "r,d_r,A,B,ratio,certified,symmetric_defect,inclusion_gap\r\n"
        "1,1,1,1,1,0.16666666666666666,1,1\r\n"
        "2,4,1.6160000000000001,1.2000000000000002,1.3466666666666665,"
        "0.33333333333333331,1.3466666666666665,1.3466666666666665\r\n"
        "3,54,2.1361413218318441,1.2000000000000002,1.7801177681932032,"
        "0.5,1.7801177681932032,1.7801177681932032\r\n"
        "4,6306,2.6371474906836427,1.2000000000000002,2.1976229089030355,"
        "0.66666666666666663,2.1976229089030355,2.1976229089030355\r\n"
    ),
}


def test_witness_harmonic_r5_golden(capsys):
    # support 72,174,691: the only tier-1 check of a scan past 2**26 entries
    code, out, err = run(capsys, ["witness", "-w", "harmonic", "-r", "5"])
    assert code == 0 and err == ""
    assert json.loads(out)["d"] == [1, 4, 54, 6306, 72168326]
    assert out == (
        '{\n  "family": "harmonic",\n  "r": 5,\n'
        '  "d": [\n    1,\n    4,\n    54,\n    6306,\n    72168326\n  ],\n'
        '  "A": "3.1371522146682409",\n  "B": "1.2000000000000002",\n'
        '  "ratio": "2.6142935122235338",\n  "margins": {\n    "cond_i": [\n'
        '      "0.5",\n      "0.041666666666666519",\n'
        '      "0.0043818635388004346",\n      "7.2149953123989974e-05",\n'
        '      "1.2256361259233017e-08"\n    ],\n    "cond_ii": [\n'
        '      "0",\n      "0.29999999999999982",\n      "0.45000913333490389",\n'
        '      "0.56340265616672414",\n      "0.58282211179446408"\n    ]\n  },\n'
        '  "mode": "float"\n}\n'
    )


@pytest.mark.parametrize(
    "family, r, cap",
    [("power:0.5", 4, "1000"), ("power:0.5", 4, "969"), ("harmonic", 4, "6400")],
)
def test_certificate_under_a_cap_that_holds_its_support(capsys, family, r, cap):
    # the supports, 666 and 6,365, fit under the cap although the doubling
    # probe past d_4 does not: the capped certificate is the uncapped one
    code, uncapped, _ = run(capsys, ["witness", "-w", family, "-r", str(r)])
    assert code == 0
    code, out, err = run(capsys, ["witness", "-w", family, "-r", str(r), "--cap", cap])
    assert (code, out, err) == (0, uncapped, "")
    assert json.loads(out)["d"] == ([1, 4, 31, 630] if family == "power:0.5" else [1, 4, 54, 6306])


WITNESS_R6_GOLDEN = (
    '{\n  "family": "power:0.5",\n  "r": 6,\n'
    '  "d": [\n    1,\n    4,\n    31,\n    630,\n    42423,\n    10916370\n  ],\n'
    '  "A": "5.1944953025599077",\n  "B": "1.4472135954999579",\n'
    '  "ratio": "3.5893079768680618",\n  "margins": {\n    "cond_i": [\n'
    '      "0.5",\n      "0.3922285251880866",\n      "1.6506970934148675",\n'
    '      "13.756796529947716",\n      "155.066511430746",\n'
    '      "2889.5630816122325"\n    ],\n    "cond_ii": [\n'
    '      "0",\n      "0.052786404500042128",\n      "0.0047304752534984562",\n'
    '      "0.00082554574515114609",\n      "1.695076743946089e-05",\n'
    '      "1.2746309430156089e-07"\n    ]\n  },\n'
    '  "mode": "float"\n}\n'
)


def test_witness_power_r6_golden(tmp_path, capsys):
    # d_6 = 10,916,370: the search's ledger serves the margins' prefixes, and
    # --verify-only grows a fresh ledger over the support once
    code, out, err = run(capsys, ["witness", "-w", "power:0.5", "-r", "6"])
    assert (code, out, err) == (0, WITNESS_R6_GOLDEN, "")
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    assert run(capsys, ["witness", "--verify-only", str(cert)]) == (0, WITNESS_R6_GOLDEN, "")


def test_witness_rational_past_the_digit_limit_golden(tmp_path, capsys, monkeypatch):
    # exact A and the margins run to 8,000+ digits, past the interpreter's
    # default 4,300-digit integer/string limit, which the CLI lifts per call
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.json").write_text(
        json.dumps({"weights": ["1", "1/2", "1/3", "1/4", "1/5", "1/7"], "tail": "pattern"})
    )
    limit = sys.get_int_max_str_digits()
    argv = ["witness", "-w", "explicit:F.json", "-r", "4", "--mode", "rational"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert cert["d"] == [1, 4, 79, 18607]
    assert cert["B"] == "6/5"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "46ce1cb00a8f2ffcacd426804ff302a6baab58506e4751cd79a19c8faa3cfc74"
    )
    (tmp_path / "cert.json").write_text(out)
    code, again, err = run(capsys, ["witness", "--verify-only", "cert.json"])
    assert code == 0 and err == "" and again == out
    assert sys.get_int_max_str_digits() == limit


def test_exact_search_cap_names_where_it_stopped(capsys, monkeypatch):
    # the one exact-prefix cap also sets the search's exact reach, so the
    # float pass stops at it before any exact prefix past the cap is read
    monkeypatch.setattr(weights, "EXACT_PREFIX_CAP", 2000)
    code, out, err = run(capsys, ["witness", "-w", "harmonic", "-r", "4", "--mode", "rational"])
    assert code == 4 and out == ""
    assert err == (
        "resource cap exceeded: float block search stopped at d_4 of harmonic "
        "after blocks [1, 4, 54]: no feasible d_4 within exact reach 2000\n"
    )


def test_hopeless_rational_search_stops_before_the_exact_prefixes(capsys):
    # d_5 of harmonic lies past the 10**5 exact prefixes: the float pass up to
    # the largest d_5 they reach shows it, so the search exits 4 without
    # summing any exact prefix for d_5 (filling them to 65,536 took about 5 s
    # and 829 MB of RSS)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, ["witness", "-w", "harmonic", "-r", "5", "--mode", "rational"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "")
    assert err == (
        "resource cap exceeded: float block search stopped at d_5 of harmonic after blocks "
        "[1, 4, 54, 6306]: no feasible d_5 within exact reach 100000\n"
    )
    assert peak < 64 * 2**20 and elapsed < 5.0


@pytest.mark.parametrize("family, r", sorted(SCAN_GOLDEN))
def test_scan_full_output_golden(capsys, family, r):
    code, out, err = run(capsys, ["scan", "-w", family, "-r", r])
    assert code == 0 and err == ""
    assert out == SCAN_GOLDEN[family, r]


def test_rational_scan_defect_is_the_rounded_exact_ratio(capsys):
    code, out, err = run(capsys, ["scan", "-w", "harmonic", "-r", "4", "--mode", "rational"])
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[1][4] == "101/75"  # the ratio column stays exact
    for row in rows:
        assert row[6] == row[7] == format(float(Fraction(row[4])), ".17g")
    # the exact ratio rounded once; the float scan prints 2.1976229089030355
    assert rows[3][6] == "2.1976229089030341"


def test_norm_non_decreasing_golden(tmp_path, capsys):
    vec = write_vector(tmp_path, [0.0, 0.5, 0.9, 0.9, 0.9, 1.0, 1.0, 1.1])
    code, out, err = run(capsys, ["norm", "-w", "harmonic", vec, "-p", "1.5"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["garling"] == {
        "value": "1.695436176355529",
        "p": "1.5",
        "selector": [3, 4, 5, 6, 7, 8],
    }
    assert report["lorentz"] == {
        "value": "1.873344507348232",
        "p": "1.5",
        "selector": [8, 6, 7, 3, 4, 5, 2, 1],
    }


def test_norm_cap_error_names_the_weight_read(tmp_path, capsys):
    # the rearranged norm reads w_1..w_2 past cap 1
    vec = write_vector(tmp_path, [2.0, 1.0])
    code, out, err = run(capsys, ["norm", "-w", "harmonic", "--cap", "1", vec])
    assert (code, out) == (4, "")
    assert err == "resource cap exceeded: weight index 2 exceeds the configured cap 1\n"


def test_norm_overflow_is_one_error_line(tmp_path, capsys):
    vec = write_vector(tmp_path, [1, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["norm", "-w", "power:0.5", vec, "-p", "2"])
    assert code == 2 and out == ""
    assert err == (
        "error: the entries' p-th powers (p = 2.0) are not finite: "
        "they overflow double precision\n"
    )


@pytest.mark.parametrize(
    "family, vector", [("power:0.5", [1, 1e308, 1e308]), ("harmonic", [1e-300] * 5 + [1e308])]
)
def test_norm_finite_weighted_sums_match_the_dp(tmp_path, capsys, family, vector):
    # the p-th powers and the norm are finite, so no step of the scan may overflow
    vec = write_vector(tmp_path, vector)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["norm", "-w", family, vec, "-p", "1"])
        dp = garling_norm(vector, parse_weight_spec(family), 1.0, method="dp")
    assert code == 0 and err == ""
    garling = json.loads(out)["garling"]
    assert float(garling["value"]) == dp.value
    assert garling["selector"] == dp.selector.tolist()


@pytest.mark.parametrize(
    "family, vector",
    [
        ("power:0.5", [1e308, 1e308, 1e308]),
        ("harmonic", [1e308, 1e308, 1e308]),
        ("harmonic", [1e307, 1e308, 1e308, 1e308]),
    ],
)
def test_norm_weighted_sum_overflow_is_one_error_line(tmp_path, capsys, family, vector):
    vec = write_vector(tmp_path, vector)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["norm", "-w", family, vec, "-p", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: norm is not finite") and err.count("\n") == 1
    assert "a weighted sum of the entries' p-th powers overflows double precision" in err


@pytest.mark.parametrize(
    "argv", [["-w", "ctail:0.5", "-r", "2"], ["-w", "power:0.5", "--slack", "0.5"]]
)
def test_scan_checks_preconditions_before_the_header(capsys, argv):
    code, out, err = run(capsys, ["scan", *argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
