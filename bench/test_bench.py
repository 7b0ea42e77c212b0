"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH, METRIC_NAME, ROOT, SRC, Ledger
from tracing import Span, Tracer, covered_ns, layer_summary, self_times_ns

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from run import per_layer_unit  # noqa: E402


def test_covered_ns_merges_overlaps_and_gaps():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (20, 25)]) == 15
    assert covered_ns([(0, 10), (5, 15), (15, 18)]) == 18
    assert covered_ns([(5, 8), (0, 10)]) == 10


def test_self_time_subtracts_children_once():
    spans = [
        Span("witness.find_block_lengths", 0, 100, -1, 0),
        Span("weights.prefix_sum", 10, 40, 0, 0),
        Span("weights.window_sum", 30, 60, 0, 0),  # overlaps its sibling
        Span("weights.weights_slice", 15, 20, 1, 0),
        Span("norms.garling_norm", 200, 260, -1, 1),
        Span("functionals.functional_B", 190, 270, 4, 1),  # clipped to parent
    ]
    assert self_times_ns(spans) == [50, 25, 30, 5, 0, 80]
    summary = layer_summary(spans, ("weights", "witness", "norms", "oracles"))
    assert summary["witness"] == (50e-9, 1)
    assert summary["weights"] == (60e-9, 3)
    assert summary["norms"] == (0.0, 1)
    assert summary["oracles"] == (0.0, 0)


def test_tracer_records_parents_and_operation_ids():
    tracer = Tracer()
    inner = tracer.wrap("weights.prefix_sum", lambda n: n)
    outer = tracer.wrap("witness.find_block_lengths", lambda: inner(1) + inner(2))
    for _ in range(2):
        with tracer.operation("op.search"):
            outer()
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names[:4] == [
        ("op.search", -1, 0),
        ("witness.find_block_lengths", 0, 0),
        ("weights.prefix_sum", 1, 0),
        ("weights.prefix_sum", 1, 0),
    ]
    assert names[4] == ("op.search", -1, 1)
    assert all(t >= 0 for t in self_times_ns(tracer.spans))


def test_benchmark_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names), [n for n in names if not METRIC_NAME.fullmatch(n)]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for m in spec["per_layer"]:
        assert per_layer_unit(m["name"]) == m["unit"], m["name"]
    assert not any(METRIC_NAME.fullmatch(bad) for bad in ("", "_x", "a b", "a/b", "x" * 65))


def _canned_scan() -> str:
    header = ",".join(workloads.SCAN_COLUMNS)
    rows = [
        "1,1,1,1,1,0.16666666666666666,1,1",
        "2,4,1.8014742570996516,1.4472135954999579,1.2447880967268761,0.33333333333333331,"
        "1.2447880967268761,1.2447880967268761",
    ]
    return "\n".join([header, *rows]) + "\n"


def test_scan_check_accepts_agreeing_columns_and_rejects_a_drift():
    golden = workloads.GOLDEN_POWER_D
    assert workloads.check_scan(_canned_scan(), 2, golden) == []
    drifted = _canned_scan().replace("1.2447880967268761\n", "1.2447880967300000\n")
    assert workloads.check_scan(drifted, 2, golden)
    assert workloads.check_scan(_canned_scan(), 3, golden)
    assert workloads.check_scan(_canned_scan(), 2, (1, 5))


def test_wrong_golden_output_raises_fail_frac(tmp_path):
    """A real CLI certificate checked against a deliberately wrong golden d."""
    good = workloads.CertifyCommand("witness_s", ["witness", "-w", "power:0.5", "-r", "3"], 3, (1, 4, 31), "float")
    wrong = workloads.CertifyCommand("witness_s", good.argv, 3, (1, 4, 30), "float")
    for command, expected_failed in ((good, 0), (wrong, 1)):
        ledger = Ledger()
        certify = workloads.Certify(tmp_path, 0, ledger)
        certify.commands = (command,)
        run = certify.run_command(0)
        assert run.returncode == 0
        assert ledger.attempted == 1 and ledger.failed == expected_failed
        assert (ledger.fail_frac > 0) == bool(expected_failed)


def test_certificate_check_bounds():
    cert = {"r": 2, "mode": "float", "d": [1, 4], "A": "1.8", "B": "1.5"}
    assert workloads.check_certificate(json.dumps(cert), 2, (1, 4), "float") == []
    assert workloads.check_certificate(json.dumps(dict(cert, B="3.5")), 2, (1, 4), "float")
    assert workloads.check_certificate(json.dumps(dict(cert, A="0.9")), 2, (1, 4), "float")
    assert workloads.check_certificate("not json", 2, (1, 4), "float")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_vector_inputs_follow_the_seed():
    a, b = workloads.make_vectors(3), workloads.make_vectors(3)
    assert a["steps"] == b["steps"]
    assert all((x == y).all() for x, y in zip(a["dp"], b["dp"]))
    assert all(s.support <= 200 for s in a["steps"])
    mono = a["monotone"]
    assert (mono["up_distinct"][1:] > mono["up_distinct"][:-1]).all()
    assert len(set(mono["up_few_runs"])) == workloads.FEW_RUNS
