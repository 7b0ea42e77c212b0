"""The two workloads: what each runs, what it checks, and how it replays.

* ``certify`` -- fresh-process CLI runs (cold caches, as a CLI user pays
  them): ``witness -r 6``, ``--verify-only`` on that certificate,
  ``witness -r 5``, the rational harmonic ``r = 4`` witness, and ``scan -r 5``
  (the scan path and its column-agreement check, at a size that keeps the
  round short).
* ``vectors`` -- an in-process library loop over seeded inputs (ratios of
  small step sequences, selection-norm DP vectors, small vectors, monotone
  vectors) plus CLI ``norm`` calls at the 4096-entry DP cap.

``scan -r 6`` (about 25 s, one call) is not a workload: one sample per run
spread by more than its 25% bound on this shared host.  Its dominant layers
(``symmetric_defect``, ``witness_gap``, ``from_values`` at r = 6) are
measured by the traced run's fixed probes.

Every operation's output is checked; a failed or wrong operation is recorded
in the ledger, never raised.  Certify runs fixed commands, so the seed only
drives the generated inputs of ``vectors``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from common import Ledger, run_cli

from seqspace import (
    StepSequence,
    garling_norm,
    lorentz_norm,
    parse_weight_spec,
    ratio,
    symmetric_defect,
    witness_gap,
)
from seqspace.cli import SCAN_COLUMNS
from seqspace.oracles import garling_norm_bruteforce
from seqspace.witness import (
    build_witness,
    find_block_lengths,
    load_certificate_json,
    reverify_certificate_dict,
    verify_certificate,
)

POWER = "power:0.5"
GOLDEN_POWER_D = (1, 4, 31, 630, 42423, 10916370)
GOLDEN_HARMONIC_RATIONAL_D = (1, 4, 54, 6306)
SCAN_R = 5
SCAN_AGREE_REL = 1e-12
CERT_FILE = "cert_r6.json"

# vectors: sizes per round
STEP_SEQUENCES = 10_000
RATIO_FAMILIES = ("ctail:0.25", "power:1.5")
DP_SIZES = {256: 4, 1024: 4, 4096: 4}
SMALL_VECTORS = 1000
MONOTONE_M = 2**14
FEW_RUNS = 16
CLI_VECTORS = 3
CLI_P = 2.0
BRUTE_SUBSAMPLE = 20
DP_CHECK_PREFIX = 1024


@dataclass(frozen=True)
class Op:
    """One replayed library call; ``command`` indexes the CLI command it mirrors."""

    label: str
    command: int | None
    fn: Callable[[], object]


def _value(s: str):
    return Fraction(s) if "/" in s else float(s)


def check_certificate(text: str, r: int, golden_d, mode: str) -> list[str]:
    """Certificate JSON with the golden blocks, A >= r/2, B <= 3, A/B > r/6."""
    try:
        cert = json.loads(text)
        d, A, B = list(cert["d"]), _value(cert["A"]), _value(cert["B"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    problems = []
    if d != list(golden_d):
        problems.append(f"d = {d}, expected {list(golden_d)}")
    if cert.get("r") != r or cert.get("mode") != mode:
        problems.append(f"r/mode = {cert.get('r')}/{cert.get('mode')}, expected {r}/{mode}")
    if not A >= Fraction(r, 2):
        problems.append(f"A = {A} < r/2")
    if not B <= 3:
        problems.append(f"B = {B} > 3")
    if not (B > 0 and A / B > Fraction(r, 6)):
        problems.append(f"A/B does not exceed r/6 (A = {A}, B = {B})")
    return problems


def check_scan(text: str, rmax: int, golden_d) -> list[str]:
    """One row per r: golden d_r, bounds, and three agreeing columns above r/6."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SCAN_COLUMNS:
        return [f"scan header {rows[:1]} differs from {SCAN_COLUMNS}"]
    if len(rows) != rmax + 1:
        return [f"scan printed {len(rows) - 1} rows, expected {rmax}"]
    problems = []
    for r, row in enumerate(rows[1:], start=1):
        try:
            rec = dict(zip(SCAN_COLUMNS, row))
            d_r, A, B = int(rec["d_r"]), float(rec["A"]), float(rec["B"])
            cols = [float(rec[c]) for c in ("ratio", "symmetric_defect", "inclusion_gap")]
        except (ValueError, KeyError) as exc:
            problems.append(f"row {r} unreadable: {exc!r}")
            continue
        if int(rec["r"]) != r or d_r != golden_d[r - 1]:
            problems.append(f"row {r}: r/d_r = {rec['r']}/{d_r}, expected {r}/{golden_d[r - 1]}")
        if not (A >= r / 2 and B <= 3):
            problems.append(f"row {r}: A = {A}, B = {B} break A >= r/2, B <= 3")
        if not all(math.isclose(c, cols[0], rel_tol=SCAN_AGREE_REL) for c in cols):
            problems.append(f"row {r}: ratio/defect/gap disagree: {cols}")
        if not all(c > r / 6 for c in cols):
            problems.append(f"row {r}: a column is not above r/6: {cols}")
    return problems


def check_cli(run, check: Callable[[str], list[str]]) -> list[str]:
    if run.returncode != 0:
        return [f"{' '.join(run.argv)} exited {run.returncode}: {run.stderr.strip()[-300:]}"]
    return check(run.stdout)


# -- certify -------------------------------------------------------------

@dataclass(frozen=True)
class CertifyCommand:
    metric: str
    argv: list[str]
    r: int
    golden: tuple[int, ...]
    mode: str

    def check(self, out: str) -> list[str]:
        if self.argv[0] == "scan":
            return check_scan(out, self.r, self.golden)
        return check_certificate(out, self.r, self.golden, self.mode)


CERTIFY_COMMANDS = (
    CertifyCommand("witness_s", ["witness", "-w", POWER, "-r", "6"], 6, GOLDEN_POWER_D, "float"),
    CertifyCommand("verify_s", ["witness", "--verify-only", CERT_FILE], 6, GOLDEN_POWER_D, "float"),
    CertifyCommand("witness_r5_s", ["witness", "-w", POWER, "-r", "5"], 5, GOLDEN_POWER_D[:5], "float"),
    CertifyCommand(
        "witness_rational_s",
        ["witness", "-w", "harmonic", "-r", "4", "--mode", "rational"],
        4,
        GOLDEN_HARMONIC_RATIONAL_D,
        "rational",
    ),
    CertifyCommand("scan_r5_s", ["scan", "-w", POWER, "-r", str(SCAN_R)], SCAN_R, GOLDEN_POWER_D, "float"),
)


class Workload:
    """Set-up (families and inputs) happens in the constructor."""

    name: str
    headline: str  # the samples behind cli_s
    families: tuple[str, ...]

    def __init__(self, workdir: Path, seed: int, ledger: Ledger) -> None:
        self.workdir, self.ledger = workdir, ledger
        self.fams = [parse_weight_spec(s) for s in self.families]

    def warm_up(self) -> None:
        """Untimed pass before the timed rounds."""


class Certify(Workload):
    name = "certify"
    headline = "witness_s"
    families = (POWER, "harmonic")
    commands = CERTIFY_COMMANDS

    def run_command(self, i: int):
        cmd = self.commands[i]
        run = run_cli(cmd.argv, self.workdir)
        ok = self.ledger.record(check_cli(run, cmd.check))
        if ok and i == 0:
            (self.workdir / CERT_FILE).write_text(run.stdout)
        return run

    def round(self, samples: dict[str, list[float]]) -> None:
        total = 0.0
        for i, cmd in enumerate(self.commands):
            wall = self.run_command(i).wall_s
            samples.setdefault(cmd.metric, []).append(wall)
            total += wall
        samples.setdefault("round_s", []).append(total)

    def replay(self) -> Iterator[Op]:
        """The library calls each command makes."""
        for i, cmd in enumerate(self.commands):
            if cmd.argv[0] == "scan":
                yield from scan_ops(cmd.r, i)
                continue
            if cmd.metric == "verify_s":
                path = self.workdir / CERT_FILE
                yield Op(cmd.metric, i, lambda: reverify_certificate_dict(load_certificate_json(path)))
                continue

            def witness_command(cmd=cmd):
                fam = parse_weight_spec(cmd.argv[2])
                d = find_block_lengths(fam, cmd.r, mode=cmd.mode)
                return json.dumps(verify_certificate(fam, d, mode=cmd.mode).to_json_dict(), indent=2)

            yield Op(cmd.metric, i, witness_command)


def scan_ops(rmax: int, command: int) -> Iterator[Op]:
    """The library calls `scan -w power:0.5 -r rmax` makes, in its order (p = 1)."""
    st: dict = {"d": []}

    def family():
        st["fam"] = parse_weight_spec(POWER)

    yield Op("scan.family", command, family)
    for r in range(1, rmax + 1):

        def search(r=r):
            st["d"] = find_block_lengths(st["fam"], r, initial=st["d"])

        def verify():
            verify_certificate(st["fam"], st["d"])
            st["f"] = build_witness(st["fam"], st["d"])

        yield Op(f"scan.r{r}.search", command, search)
        yield Op(f"scan.r{r}.verify", command, verify)
        yield Op(
            f"scan.r{r}.symmetric_defect",
            command,
            lambda: symmetric_defect(st["f"], st["fam"], 1.0, st["f"].support),
        )
        yield Op(f"scan.r{r}.witness_gap", command, lambda: witness_gap(st["f"], st["fam"], 1.0))


# -- vectors -------------------------------------------------------------

def random_step_sequence(rng, max_runs: int = 8, max_run_len: int = 25) -> StepSequence:
    """Support <= max_runs * max_run_len = 200, distinct decreasing values."""
    t = int(rng.integers(1, max_runs + 1))
    values = np.unique(rng.uniform(0.05, 3.0, size=t))[::-1]
    lengths = rng.integers(1, max_run_len + 1, size=values.size)
    return StepSequence(tuple((int(n), float(v)) for n, v in zip(lengths, values)))


def distinct_sorted(rng, m: int) -> np.ndarray:
    while True:
        v = np.sort(rng.uniform(0.001, 1.0, size=m))
        if np.all(np.diff(v) > 0):
            return v


def make_vectors(seed: int) -> dict:
    """All seeded inputs of the vectors workload."""
    rng = np.random.default_rng(seed)
    small = []
    for _ in range(SMALL_VECTORS):
        m = int(rng.integers(1, 65))
        b = rng.uniform(-5.0, 5.0, size=m)
        b[rng.uniform(size=m) < 0.2] = 0.0
        small.append((b, (1.0, 1.5, 2.0)[len(small) % 3]))
    up = distinct_sorted(rng, MONOTONE_M)
    few = np.repeat(distinct_sorted(rng, FEW_RUNS), MONOTONE_M // FEW_RUNS)
    return {
        "steps": [random_step_sequence(rng) for _ in range(STEP_SEQUENCES)],
        "dp": [rng.uniform(-3.0, 3.0, size=m) for m, n in DP_SIZES.items() for _ in range(n)],
        "small": small,
        # Non-decreasing with all-distinct entries costs O(runs * m) in the
        # run-length B scan; the few-run input of the same length does not.
        "monotone": {
            "down": distinct_sorted(rng, MONOTONE_M)[::-1].copy(),
            "up_distinct": up,
            "up_few_runs": few,
        },
        "cli": [rng.uniform(-3.0, 3.0, size=4096) for _ in range(CLI_VECTORS)],
    }


def write_cli_vectors(inputs: dict, workdir: Path) -> list[Path]:
    paths = []
    for i, b in enumerate(inputs["cli"]):
        path = workdir / f"norm_{i}.json"
        path.write_text(json.dumps([float(x) for x in b]))
        paths.append(path)
    return paths


def norm_pair(b, fam, p):
    return garling_norm(b, fam, p), lorentz_norm(b, fam, p)


def check_norm_pair(result) -> list[str]:
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    gar, lor = result
    if not (math.isfinite(gar.value) and math.isfinite(lor.value)):
        return [f"non-finite norms {gar.value}, {lor.value}"]
    if gar.value > lor.value * (1.0 + 1e-10) + 1e-12:
        return [f"garling {gar.value} exceeds lorentz {lor.value}"]
    return []


def _timed(items, fn) -> tuple[float, list]:
    """Seconds spent on fn over items; an exception becomes the item's result."""
    out = []
    start = time.perf_counter()
    for item in items:
        try:
            out.append(fn(item))
        except Exception as exc:  # counted as a failed operation by the caller
            out.append(exc)
    return time.perf_counter() - start, out


class Vectors(Workload):
    name = "vectors"
    headline = "norm_cli_s"
    families = RATIO_FAMILIES + ("harmonic",)

    def __init__(self, workdir: Path, seed: int, ledger: Ledger) -> None:
        super().__init__(workdir, seed, ledger)
        self.inputs = make_vectors(seed)
        self.cli_paths = write_cli_vectors(self.inputs, workdir)
        self.commands = tuple(["norm", "-w", "harmonic", p.name, "-p", str(CLI_P)] for p in self.cli_paths)
        self.ratio_fams, self.harmonic = self.fams[:-1], self.fams[-1]
        self.constants = [fam.classify().constant for fam in self.ratio_fams]
        self.reference: list[float] = []

    def run_ratios(self):
        steps = self.inputs["steps"]
        seconds, results = 0.0, []
        for fam in self.ratio_fams:
            t, out = _timed(steps, lambda f, fam=fam: ratio(f, fam))
            seconds += t
            results.append(out)
        return seconds, results

    def check_ratios(self, results) -> None:
        for const, out in zip(self.constants, results):
            for rep in out:
                if isinstance(rep, Exception):
                    self.ledger.record([f"ratio raised {rep!r}"])
                elif not (math.isfinite(rep.ratio) and rep.ratio <= const + 1e-9):
                    self.ledger.record([f"ratio {rep.ratio} above the constant {const}"])
                else:
                    self.ledger.record([])

    def norm_sets(self) -> dict:
        """Per kind of norm input: the inputs and the call made on each."""
        h = self.harmonic
        return {
            "dp": (self.inputs["dp"], lambda b: norm_pair(b, h, CLI_P)),
            "small": (self.inputs["small"], lambda bp: norm_pair(bp[0], h, bp[1])),
            "monotone": (list(self.inputs["monotone"].values()), lambda b: norm_pair(b, h, 1.0)),
        }

    def run_norms(self, kind: str):
        return _timed(*self.norm_sets()[kind])

    def warm_up(self) -> None:
        """Untimed pass over every input, plus the oracle and DP cross-checks."""
        self.check_ratios(self.run_ratios()[1])
        for kind in ("dp", "small", "monotone"):
            for res in self.run_norms(kind)[1]:
                self.ledger.record(check_norm_pair(res))
        self.reference = [norm_pair(b, self.harmonic, CLI_P)[0].value for b in self.inputs["cli"]]
        h = self.harmonic
        for b, p in [bp for bp in self.inputs["small"] if bp[0].size <= 16][:BRUTE_SUBSAMPLE]:
            fast, brute = garling_norm(b, h, p).value, garling_norm_bruteforce(b, h, p)
            self.ledger.record(
                [] if math.isclose(fast, brute, rel_tol=1e-12, abs_tol=1e-15)
                else [f"DP {fast} differs from enumeration {brute} (m = {b.size})"]
            )
        for name, b in self.inputs["monotone"].items():
            head = b[:DP_CHECK_PREFIX]
            auto, dp = garling_norm(head, h, 1.0).value, garling_norm(head, h, 1.0, method="dp").value
            self.ledger.record(
                [] if math.isclose(auto, dp, rel_tol=1e-12)
                else [f"{name}: monotone rule {auto} differs from DP {dp}"]
            )

    def check_cli_norm(self, i: int, out: str) -> list[str]:
        try:
            rep = json.loads(out)
            gar, lor = float(rep["garling"]["value"]), float(rep["lorentz"]["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable norm report: {exc!r}"]
        problems = []
        if gar > lor * (1.0 + 1e-10) + 1e-12:
            problems.append(f"CLI garling {gar} exceeds lorentz {lor}")
        if not math.isclose(gar, self.reference[i], rel_tol=1e-12):
            problems.append(f"CLI garling {gar} differs from the library's {self.reference[i]}")
        return problems

    def run_command(self, i: int):
        run = run_cli(self.commands[i], self.workdir)
        self.ledger.record(check_cli(run, lambda out: self.check_cli_norm(i, out)))
        return run

    def round(self, samples: dict[str, list[float]]) -> None:
        t_ratio, results = self.run_ratios()
        self.check_ratios(results)
        total = t_ratio
        samples.setdefault("ratios_per_s", []).append(len(RATIO_FAMILIES) * STEP_SEQUENCES / t_ratio)
        for kind, metric in (
            ("dp", "dp_vectors_per_s"),
            ("small", "small_vectors_per_s"),
            ("monotone", "monotone_vectors_per_s"),
        ):
            t, out = self.run_norms(kind)
            for res in out:
                self.ledger.record(check_norm_pair(res))
            samples.setdefault(metric, []).append(len(out) / t)
            total += t
        for i in range(len(self.commands)):
            wall = self.run_command(i).wall_s
            samples.setdefault("norm_cli_s", []).append(wall)
            total += wall
        samples.setdefault("round_s", []).append(total)

    def replay(self) -> Iterator[Op]:
        for fam in self.ratio_fams:
            for j, f in enumerate(self.inputs["steps"]):
                yield Op(f"ratio.{fam.spec}.{j}", None, lambda f=f, fam=fam: ratio(f, fam))
        for kind, (items, fn) in self.norm_sets().items():
            for j, item in enumerate(items):
                yield Op(f"{kind}.{j}", None, lambda item=item, fn=fn: fn(item))
        for i, path in enumerate(self.cli_paths):

            def norm_command(path=path):
                fam = parse_weight_spec("harmonic")
                b = [float(x) for x in json.loads(path.read_text())]
                gar, lor = norm_pair(b, fam, CLI_P)
                return json.dumps({"garling": gar.to_json_dict(), "lorentz": lor.to_json_dict()})

            yield Op(f"norm_cli.{i}", i, norm_command)

    def run_counts(self) -> dict[str, int]:
        """Runs of each monotone input, the quantity the monotone-up scan pays for."""
        return {k: int(np.count_nonzero(np.diff(b)) + 1) for k, b in self.inputs["monotone"].items()}


WORKLOADS = {w.name: w for w in (Certify, Vectors)}
