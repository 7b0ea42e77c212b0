"""Shared plumbing: checkout paths, child environment, CLI runs, statistics."""

from __future__ import annotations

import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CLI_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    """Environment for every child: this checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("SEQSPACE_CAP", None)
    return env


@dataclass
class CliRun:
    argv: list[str]
    wall_s: float
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], cwd: Path) -> CliRun:
    """One `python3 -m seqspace.cli ...` child, timed from spawn to exit."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seqspace.cli", *argv],
            cwd=cwd,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        return CliRun(argv, time.perf_counter() - start, -1, "", f"timed out after {CLI_TIMEOUT_S} s")
    return CliRun(argv, time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)


def run_python(args: list[str], cwd: Path) -> float:
    """Wall seconds of a fresh interpreter run with the given arguments."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=child_env(),
        check=True,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and of every child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class ReferenceKernel:
    """A fixed Python + numpy loop that gauges the shared host's current speed.

    It is the benchmark's own code, so no change to seqspace moves it.  A
    run's medians are multiplied by NOMINAL_S over the kernel's median time
    in the same run, which cancels host-wide slowdowns that last a whole run.
    """

    NOMINAL_S = 0.04

    def __init__(self) -> None:
        import numpy

        self._terms = numpy.arange(1, 2**17 + 1, dtype=numpy.float64)

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i
        for _ in range(16):
            float((self._terms**-0.5).sum())
        return time.perf_counter() - start


TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for q in TAIL_LEVELS:
        if n * (1.0 - q) >= 10:
            ordered = sorted(values)
            return q, ordered[min(n - 1, int(q * n))]
    return None


def describe(values: list[float], unit: str) -> str:
    """'median <v> <unit> (n=<n>[, p<q> <v>])' for the report lines."""
    text = f"median {statistics.median(values):.6g} {unit} (n={len(values)}"
    t = tail(values)
    if t is not None:
        text += f", p{round(t[0] * 100)} {t[1]:.6g} {unit}"
    else:
        text += ", too few samples for a tail percentile"
    return text + ")"


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems[:3])
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "seed": seed,
    }
