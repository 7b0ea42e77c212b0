"""seqspace benchmark: one workload per run, checked, with its metrics.

    python3 bench/run.py --workload certify|vectors --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the sources in the checkout that holds this
file (``src/``), in CLI children and in-process.  Load is one closed-loop
client: operations run back to back, at most one CLI child at a time, every
child with OMP/OPENBLAS/MKL threads pinned to 1.

``--trace 0`` repeats rounds of the workload's operations until
``--seconds`` is spent, sets the workload up after every round (at least
nine times in all) and prints the end-to-end metrics (medians over the run):

* ``setup_s``: a fresh interpreter importing seqspace, building the
  workload's families and generating/writing its inputs;
* ``cli_s``: wall time of the workload's headline CLI call -- ``witness -w
  power:0.5 -r 6`` (certify), ``norm -w harmonic`` on a 4096-entry vector
  with ``-p 2`` (vectors);
* ``round_s``: one round of all of the workload's timed operations;
* ``peak_rss_mb``: largest max-RSS of the benchmark and its children.

The three times are host-speed normalised: each raw median is multiplied
by ``ReferenceKernel.NOMINAL_S`` over the median time of a fixed reference
kernel sampled before the first round and after every round of the same
run.  On a shared host whose speed drifts by up to 1.5x for minutes at a
time, paired comparisons showed it cutting the run-to-run spread (quartile
distance over median) of vectors from 0.14-0.21 to 0.05-0.08.  It works
when rounds are short next to the host's swings: a single 25 s ``scan -r 6``
call was left at 0.16-0.28, which is why it is not a workload.  The raw
medians are printed too.

Lines before the last one report every per-operation metric (``witness_s``,
``verify_s``, ``witness_r5_s``, ``witness_rational_s``, ``scan_r5_s``,
``norm_cli_s``, ``ratios_per_s``, ``dp_vectors_per_s``,
``small_vectors_per_s``, ``monotone_vectors_per_s``) with its median, tail
percentile and sample count, plus ``fail_frac`` and the environment.

``--trace 1`` prints the per-layer metrics instead (see ``layers.py``).
Each run writes its full result, with the environment block, to
``bench/_out/``; a traced run also writes its spans there.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed or wrong operation makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH,
    METRIC_NAME,
    SRC,
    THREAD_VARS,
    Ledger,
    ReferenceKernel,
    describe,
    environment,
    peak_rss_mb,
    run_python,
)

# Before numpy is imported: the in-process work uses one BLAS thread too.
os.environ.update({var: "1" for var in THREAD_VARS})

SETUP_REPEATS = 9
KERNEL_REPEATS = 5
OUT_DIR = BENCH / "_out"
WORK_DIR = BENCH / "_work"

END_TO_END_UNITS = {"setup_s": "s", "cli_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
RATE_METRICS = ("ratios_per_s", "dp_vectors_per_s", "small_vectors_per_s", "monotone_vectors_per_s")


def per_layer_unit(name: str) -> str:
    if name.startswith(("witness.probes", "witness.window_probes", "calls.", "trace.spans")):
        return "count"
    for suffix in ("_ns", "_us", "_ms", "_s"):
        if name.rsplit(".", 1)[0].endswith(suffix) or name.endswith(suffix):
            return suffix[1:]
    raise ValueError(f"no unit for {name}")


def setup_once(workload_name: str, seed: int, workdir: Path) -> float:
    """Wall time of one fresh-interpreter set-up of the workload."""
    script = str(BENCH / "prepare.py")
    return run_python([script, workload_name, str(seed), str(workdir)], workdir)


def measure(workload, seconds: float, setup, kernel: ReferenceKernel) -> dict[str, list[float]]:
    """Closed-loop rounds until the next one would overrun ``seconds``.

    KERNEL_REPEATS reference-kernel samples precede the first round and
    follow each round, and one set-up sample follows each round (topped up
    to SETUP_REPEATS at the end), so ``setup_s`` and the host speed sample
    the whole run rather than one moment of it.
    """
    samples: dict[str, list[float]] = {"setup_s": [], "kernel_s": []}
    samples["kernel_s"] += [kernel.seconds() for _ in range(KERNEL_REPEATS)]
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        workload.round(samples)
        samples["kernel_s"] += [kernel.seconds() for _ in range(KERNEL_REPEATS)]
        samples["setup_s"].append(setup())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(setup())
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "seqspace" / "__init__.py").is_file():
        print(f"error: no seqspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload_cls, workdir: Path) -> int:
    ledger = Ledger()
    env = environment(args.seed)
    report: list[str] = []
    result: dict = {"workload": args.workload, "trace": args.trace, "environment": env}

    if args.trace:
        import layers
        import workloads

        workload = workload_cls(workdir, args.seed, ledger)
        workload.warm_up()
        metrics, spans, facts = layers.traced_run(workload, [workloads])
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
        result["facts"] = facts
        report.append(
            f"traced replay {facts['replay_traced_s']:.4f} s, untraced {facts['replay_untraced_s']:.4f} s, "
            f"{len(spans)} spans"
        )
        from tracing import write_spans

        write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", spans)
    else:
        def setup() -> float:
            return setup_once(args.workload, args.seed, workdir)

        setup()  # writes the inputs the first round reads; timed below
        workload = workload_cls(workdir, args.seed, ledger)
        workload.warm_up()
        kernel = ReferenceKernel()
        samples = measure(workload, args.seconds, setup, kernel)
        speed = ReferenceKernel.NOMINAL_S / statistics.median(samples["kernel_s"])
        for name, values in samples.items():
            unit = "1/s" if name in RATE_METRICS else "s"
            report.append(f"{name}: {describe(values, unit)}")
        report.append(
            f"host speed: setup_s, cli_s and round_s are raw medians x {speed:.4f} "
            f"(= {ReferenceKernel.NOMINAL_S} s / median reference kernel time)"
        )
        if hasattr(workload, "run_counts"):
            report.append(f"monotone input runs: {workload.run_counts()}")
        result["samples"] = samples
        values = {
            "setup_s": statistics.median(samples["setup_s"]) * speed,
            "cli_s": statistics.median(samples[workload.headline]) * speed,
            "round_s": statistics.median(samples["round_s"]) * speed,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    bad = [k for k in metrics if not METRIC_NAME.fullmatch(k)]
    if bad:
        raise ValueError(f"invalid metric names {bad}")
    report.append(f"fail_frac: {ledger.fail_frac:.6g} ({ledger.failed} of {ledger.attempted} operations)")
    report.extend(f"failure: {m}" for m in ledger.messages)
    report.append(f"environment: {json.dumps(env)}")
    for name, m in metrics.items():
        report.append(f"{name} = {m['value']:.6g} {m['unit']}")

    final = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    result.update(final, fail_frac=ledger.fail_frac, report=report)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print("\n".join(report))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
