"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import csv
import io
import json
import warnings

import pytest

from seqspace.cli import main


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

    code, _, err = run(capsys, ["scan", "-w", "power:0.5", "-r", "7"])
    assert code == 2
    assert "rmax" in err

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


def test_cap_flag_and_env(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, ["witness", "-w", "power:0.5", "-r", "4", "--cap", "1000"])
    assert code == 4
    assert "resource cap" in err

    monkeypatch.setenv("SEQSPACE_CAP", "1000")
    code, _, err = run(capsys, ["witness", "-w", "power:0.5", "-r", "4"])
    assert code == 4

    # an explicit flag wins over the environment
    code, out, _ = run(capsys, ["witness", "-w", "power:0.5", "-r", "2", "--cap", str(2**20)])
    assert code == 0

    monkeypatch.setenv("SEQSPACE_CAP", "abc")
    code, _, err = run(capsys, ["classify", "-w", "harmonic"])
    assert code == 2
    assert "SEQSPACE_CAP" in err

    monkeypatch.setenv("SEQSPACE_CAP", "-3")
    code, _, err = run(capsys, ["classify", "-w", "harmonic"])
    assert code == 2


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


# Each flag below used to be accepted by the subcommand without acting there.
REMOVED_FLAGS = [
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
        ["classify", "--cap", "100", "--output", "csv"],
        ["witness", "-r", "2", "--cap", "100", "--mode", "rational", "--slack", "0"],
        ["norm", vec, "--cap", "100", "-p", "1", "--oracle"],
        ["scan", "-r", "2", "--cap", "100", "-p", "1", "--mode", "float", "--slack", "0"],
    ):
        code, out, err = run(capsys, [argv[0], "-w", "harmonic", *argv[1:]])
        assert code == 0 and err == "", argv
        assert out


# Full stdout of these scans, pinned before the norm layer worked on runs.
SCAN_GOLDEN = {
    ("power:0.5", "1", "5"): (
        "r,d_r,A,B,ratio,certified,symmetric_defect,inclusion_gap\r\n"
        "1,1,1,1,1,0.16666666666666666,1,1\r\n"
        "2,4,1.8014742570996516,1.4472135954999579,1.2447880967268761,"
        "0.33333333333333331,1.2447880967268761,1.2447880967268761\r\n"
        "3,31,2.5583934079486199,1.4472135954999579,1.7678063665956587,"
        "0.5,1.7678063665956587,1.7678063665956587\r\n"
        "4,630,3.3695267282964889,1.4472135954999579,2.3282857062522577,"
        "0.66666666666666663,2.3282857062522582,2.3282857062522582\r\n"
        "5,42423,4.2551430946167406,1.4472135954999579,2.9402315648829629,"
        "0.83333333333333337,2.9402315648829638,2.9402315648829638\r\n"
    ),
    ("harmonic", "2.5", "4"): (
        "r,d_r,A,B,ratio,certified,symmetric_defect,inclusion_gap\r\n"
        "1,1,1,1,1,0.16666666666666666,1,1\r\n"
        "2,4,1.6160000000000001,1.2000000000000002,1.3466666666666665,"
        "0.33333333333333331,1.3466666666666658,1.3466666666666658\r\n"
        "3,54,2.1361413218318441,1.2000000000000002,1.7801177681932032,"
        "0.5,1.7801177681932023,1.7801177681932023\r\n"
        "4,6306,2.637147490683641,1.2000000000000002,2.1976229089030337,"
        "0.66666666666666663,2.1976229089030337,2.1976229089030337\r\n"
    ),
}


@pytest.mark.parametrize("family, p, r", sorted(SCAN_GOLDEN))
def test_scan_full_output_golden(capsys, family, p, r):
    code, out, err = run(capsys, ["scan", "-w", family, "-p", p, "-r", r])
    assert code == 0 and err == ""
    assert out == SCAN_GOLDEN[family, p, r]


def test_norm_non_decreasing_golden(tmp_path, capsys):
    vec = write_vector(tmp_path, [0.0, 0.5, 0.9, 0.9, 0.9, 1.0, 1.0, 1.1])
    code, out, err = run(capsys, ["norm", "-w", "harmonic", vec, "-p", "1.5"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["garling"] == {
        "value": "1.6954361763555292",
        "p": "1.5",
        "selector": [3, 4, 5, 6, 7, 8],
    }
    assert report["lorentz"] == {
        "value": "1.873344507348232",
        "p": "1.5",
        "selector": [8, 6, 7, 3, 4, 5, 2, 1],
    }


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
    "argv", [["-w", "ctail:0.5", "-r", "2"], ["-w", "power:0.5", "--slack", "0.5"]]
)
def test_scan_checks_preconditions_before_the_header(capsys, argv):
    code, out, err = run(capsys, ["scan", *argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
