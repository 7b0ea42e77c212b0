"""Traced run: per-layer metrics for seqspace's modules.

The layers are the package's modules: ``weights``, ``functionals``,
``witness``, ``norms``, ``oracles`` and ``cli``.  A traced run

1. runs the workload's CLI commands once each (wall time, checked),
2. replays the same library calls in-process without tracing (timed per
   call), then again with a span around every public call of ``weights``,
   ``functionals``, ``witness`` and ``norms``; ``self_s.<layer>`` and
   ``calls.<layer>`` sum the spans' self times and count them,
3. runs the fixed layer probes below on inputs that do not depend on the
   seed.  ``oracles`` and
   ``cli`` are measured only here: the oracle stays outside every timed
   region, and the CLI's cost is its start-up and per-command overhead.

``cli.overhead_s`` is the median over the workload's commands of CLI wall
time minus the untraced replay of that command's calls; ``trace.overhead_s``
is the traced replay minus the untraced one.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from common import BENCH, run_python
from tracing import Tracer, layer_summary

from seqspace import functionals, norms, weights, witness
from seqspace import (
    HarmonicWeights,
    PowerWeights,
    StepSequence,
    WeightFamily,
    find_block_lengths,
    functional_A,
    functional_B,
    garling_norm,
    lorentz_norm,
    parse_weight_spec,
    ratio,
    symmetric_defect,
    verify_certificate,
    witness_gap,
)
from seqspace.oracles import garling_norm_bruteforce
from seqspace.witness import build_witness, reverify_certificate_dict
from workloads import GOLDEN_POWER_D, random_step_sequence

SPAN_LAYERS = ("weights", "functionals", "witness", "norms")
TRACED_FUNCTIONS = {
    weights: ("parse_weight_spec",),
    functionals: ("functional_A", "functional_B", "functional_B_at", "ratio"),
    witness: (
        "find_block_lengths",
        "build_witness",
        "verify_certificate",
        "reverify_certificate_dict",
        "load_certificate_json",
    ),
    norms: ("garling_norm", "lorentz_norm", "symmetric_defect", "witness_gap", "inclusion_gap"),
}
TRACED_METHODS = {
    WeightFamily: (
        "weights",
        ("prefix_sum", "window_sum", "prefix_array", "prefix_fraction", "weights_slice", "weights_head", "classify"),
    ),
    StepSequence: ("functionals", ("expand", "from_values")),
}

PROBE_SEED = 20170511
K_MAX = 6
DP_SIZES = (256, 1024, 4096)
MONO_M = 2**14


def instrument(tracer: Tracer, extra_modules) -> list:
    """Wrap the traced callables wherever they are bound; returns an undo list."""
    undo = []
    wrapped = {}
    for module, names in TRACED_FUNCTIONS.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name)
            wrapped[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    modules = [m for k, m in sys.modules.items() if k == "seqspace" or k.startswith("seqspace.")]
    for module in modules + list(extra_modules):
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                undo.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
    for cls, (layer, names) in TRACED_METHODS.items():
        for name in names:
            raw = cls.__dict__[name]
            undo.append((cls, name, raw))
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(f"{layer}.{name}", raw.__func__)))
            else:
                setattr(cls, name, tracer.wrap(f"{layer}.{name}", raw))
    return undo


def uninstrument(undo: list) -> None:
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)


def _secs(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _median_secs(fn, reps: int) -> float:
    return statistics.median(_secs(fn) for _ in range(reps))


def _per_call(fn, items) -> float:
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / len(items)


def probes() -> dict[str, float]:
    """Fixed-input layer timings and the witness search's probe counts."""
    out: dict[str, float] = {}
    rng = np.random.default_rng(PROBE_SEED)

    # weights: term generation, cold ladder, off-ladder query, memo hit
    fam = PowerWeights(0.5)
    out["weights.terms_ns"] = _median_secs(lambda: fam.weights_slice(1, 2**24), 3) / 2**24 * 1e9
    out["weights.ladder_cold_s"] = _secs(lambda: fam.prefix_sum(2**27))
    out["weights.offladder_s"] = _secs(lambda: fam.prefix_sum(2**27 - 12345))
    out["weights.prefix_warm_us"] = _per_call(lambda n: fam.prefix_sum(n), [2**27] * 10_000) * 1e6

    # witness: incremental search k = 1..6 on a fresh family, counting the
    # prefix_sum / window_sum calls through wrapped bound methods
    fam = PowerWeights(0.5)
    counts = {"prefix": 0, "window": 0}
    prefix, window = fam.prefix_sum, fam.window_sum

    def counted_prefix(n):
        counts["prefix"] += 1
        return prefix(n)

    def counted_window(lo, hi):
        counts["window"] += 1
        return window(lo, hi)

    fam.prefix_sum, fam.window_sum = counted_prefix, counted_window
    d: list[int] = []
    for k in range(1, K_MAX + 1):
        counts.update(prefix=0, window=0)
        start = time.perf_counter()
        d = find_block_lengths(fam, k, initial=d)
        out[f"witness.search_s.k{k}"] = time.perf_counter() - start
        out[f"witness.probes.k{k}"] = counts["prefix"]
        out[f"witness.window_probes.k{k}"] = counts["window"]
    del fam.prefix_sum, fam.window_sum
    if tuple(d) != GOLDEN_POWER_D:
        raise RuntimeError(f"probe search found d = {d}, expected {list(GOLDEN_POWER_D)}")
    out["witness.build_s"] = _median_secs(lambda: build_witness(fam, d), 5)
    f = build_witness(fam, d)
    out["weights.prefix_array_s"] = _median_secs(lambda: fam.prefix_array(f.support), 3)
    out["functionals.A_s"] = _median_secs(lambda: functional_A(f, fam), 3)
    out["functionals.B_s"] = _median_secs(lambda: functional_B(f, fam), 3)
    out["witness.verify_s"] = _secs(lambda: verify_certificate(fam, d))
    cert = verify_certificate(fam, d).to_json_dict()
    out["witness.reverify_s"] = _secs(lambda: reverify_certificate_dict(cert))
    out["functionals.expand_s"] = _median_secs(f.expand, 3)
    dense = f.expand()[: 2**20]
    out["functionals.from_values_ns"] = _secs(lambda: StepSequence.from_values(dense)) / dense.size * 1e9
    del dense
    out["norms.symmetric_defect_s"] = _secs(lambda: symmetric_defect(f, fam, 1.0, f.support))
    out["norms.witness_gap_s"] = _secs(lambda: witness_gap(f, fam, 1.0))
    del f

    # rational path: exact prefixes, search, B scan (harmonic, r = 4)
    out["weights.prefix_fraction_s"] = _secs(lambda: HarmonicWeights().prefix_fraction(6306))
    h = HarmonicWeights()
    out["witness.search_rational_s"] = _secs(lambda: find_block_lengths(h, 4, mode="rational"))
    fr = build_witness(h, find_block_lengths(h, 4, mode="rational"), mode="rational")
    out["functionals.B_rational_s"] = _secs(lambda: functional_B(fr, h, mode="rational"))

    # small windows and ratios, as the vectors workload uses them
    ctail, p15 = parse_weight_spec("ctail:0.25"), parse_weight_spec("power:1.5")
    windows = [(lo, lo + int(w)) for lo, w in zip(rng.integers(1, 10**6, 2000), rng.integers(0, 200, 2000))]
    out["weights.window_us"] = _per_call(lambda lw: ctail.window_sum(*lw), windows) * 1e6
    steps = [random_step_sequence(rng) for _ in range(1000)]
    out["functionals.ratio_us"] = (
        (_per_call(lambda s: ratio(s, ctail), steps) + _per_call(lambda s: ratio(s, p15), steps)) / 2 * 1e6
    )

    # norms: DP, monotone rules, rearranged norm
    hw = HarmonicWeights()
    for m in DP_SIZES:
        vecs = [rng.uniform(-3.0, 3.0, m) for _ in range(3)]
        out[f"norms.dp_ms.m{m}"] = statistics.median(_secs(lambda b=b: garling_norm(b, hw, 2.0)) for b in vecs) * 1e3
    up = np.sort(rng.uniform(0.001, 1.0, MONO_M))
    few = np.repeat(np.sort(rng.uniform(0.001, 1.0, 16)), MONO_M // 16)
    out[f"norms.monotone_up_ms.m{MONO_M}"] = _median_secs(lambda: garling_norm(up, hw, 1.0), 3) * 1e3
    out[f"norms.monotone_up_few_runs_ms.m{MONO_M}"] = _median_secs(lambda: garling_norm(few, hw, 1.0), 3) * 1e3
    out[f"norms.monotone_down_ms.m{MONO_M}"] = _median_secs(lambda: garling_norm(up[::-1], hw, 1.0), 3) * 1e3
    small = [rng.uniform(-5.0, 5.0, 64) for _ in range(200)]
    out["norms.lorentz_ms.m64"] = _per_call(lambda b: lorentz_norm(b, hw, 1.5), small) * 1e3

    # oracles: the brute-force reference, outside every timed region
    brute = [rng.uniform(-3.0, 3.0, 16) for _ in range(5)]
    out["oracles.garling_bruteforce_ms.m16"] = (
        statistics.median(_secs(lambda b=b: garling_norm_bruteforce(b, hw, 1.5)) for b in brute) * 1e3
    )

    # cli: a fresh interpreter importing the CLI module
    out["cli.startup_s"] = statistics.median(
        run_python(["-c", "import seqspace.cli"], BENCH) for _ in range(5)
    )
    return out


def replay(workload, tracer: Tracer | None) -> tuple[list[float], float]:
    """Run the workload's replay ops; per-command seconds and the total."""
    per_command = [0.0] * len(workload.commands)
    total = 0.0
    for op in workload.replay():
        start = time.perf_counter()
        if tracer is None:
            op.fn()
        else:
            with tracer.operation(f"op.{op.label}"):
                op.fn()
        seconds = time.perf_counter() - start
        total += seconds
        if op.command is not None:
            per_command[op.command] += seconds
    return per_command, total


def traced_run(workload, extra_modules) -> tuple[dict[str, float], list, dict]:
    """Per-layer metrics, the spans, and a few facts for the report."""
    walls = [workload.run_command(i).wall_s for i in range(len(workload.commands))]
    untraced_cmd, untraced_total = replay(workload, None)

    tracer = Tracer()
    undo = instrument(tracer, extra_modules)
    try:
        _, traced_total = replay(workload, tracer)
    finally:
        uninstrument(undo)
    spans = tracer.spans

    metrics = probes()
    overheads = [wall - lib for wall, lib in zip(walls, untraced_cmd)]
    metrics["cli.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_s"] = traced_total - untraced_total
    metrics["trace.spans"] = len(spans)
    for layer, (self_s, calls) in layer_summary(spans, SPAN_LAYERS).items():
        metrics[f"self_s.{layer}"] = self_s
        metrics[f"calls.{layer}"] = calls
    facts = {
        "cli_walls_s": walls,
        "replay_per_command_s": untraced_cmd,
        "replay_untraced_s": untraced_total,
        "replay_traced_s": traced_total,
    }
    return metrics, spans, facts
