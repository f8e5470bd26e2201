"""Set up, time, check and report one workload run.

The untraced run measures the end-to-end metrics: the workload is built
``setups`` times (the median build time is ``setup_s``; the last build is
kept), then the timed phase runs once with the program unmodified.  Both
host times are scaled to a nominal host speed measured alongside them
(:mod:`calibrate`), so that the host's drift does not move them.  The
traced run (``trace=True``) repeats one untraced pass for reference, then
builds and drives a second copy with every layer boundary wrapped
(:mod:`layers`), and reports the per-layer metrics, the tracing overhead,
and whether tracing moved any simulated number (it must not).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import cachesim
import calibrate
import layers
import serving
import spans

#: The benchmark's definition: workloads, metric names and units.
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
with open(SPEC_PATH) as _handle:
    SPEC = json.load(_handle)

#: End-to-end metrics (untraced run) and per-layer metrics (traced run), name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    module: object
    config: object
    tiny: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cachesim-mixed", cachesim, cachesim.CONFIG, cachesim.TINY),
        Workload("serve-read", serving, serving.SERVE_READ, serving.tiny(serving.SERVE_READ)),
        Workload("shard-rw", serving, serving.SHARD_RW, serving.tiny(serving.SHARD_RW)),
    )
}


@dataclass
class Result:
    metrics: dict
    units: dict
    attempted: int
    failed: int
    correct: bool
    lines: list = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build(workload: Workload, cfg, inputs, calibrator=None):
    """Build once: returns (system, host seconds, seconds on the nominal host).

    With a ``calibrator`` the build is bracketed by two reference slices
    and its time is scaled by their mean speed; without one the nominal
    time is ``None``.
    """
    gc.collect()
    before = calibrator.unit_s() if calibrator is not None else None
    start = perf_counter()
    system = workload.module.build(cfg, inputs)
    took = perf_counter() - start
    if calibrator is None:
        return system, took, None
    unit_s = (before + calibrator.unit_s()) / 2
    return system, took, took * calibrate.NOMINAL_UNIT_S / unit_s


def _drive(workload: Workload, system, inputs, extra_patches=None, calibrator=None):
    """The timed phase: returns (outcome, host seconds, call counts).

    Host seconds exclude the calibrator's reference slices; the
    calibrator, when given, also holds the phase's nominal-host time.
    """
    counts: dict = {}
    with spans.Patches() as patches:
        for owner, attr, name in workload.module.counted():
            patches.replace(owner, attr, lambda fn, name=name: spans.count_calls(counts, name, fn))
        if extra_patches is not None:
            extra_patches(patches)
        gc.collect()
        gc.freeze()
        try:
            if calibrator is not None:
                calibrator.start()
            start = perf_counter()
            outcome = workload.module.drive(
                system, inputs, calibrator.tick if calibrator is not None else None
            )
            if calibrator is not None:
                calibrator.stop()
            host_s = perf_counter() - start
            if calibrator is not None:
                host_s -= calibrator.reference_s
        finally:
            gc.unfreeze()
    return outcome, host_s, counts


def _exercise_lines(report) -> list:
    return [f"exercised: {'ok  ' if held else 'FAIL'} {text}" for text, held in report.exercised]


def _verdict(report, extra_problems=()) -> tuple[bool, list]:
    problems = list(report.problems) + list(extra_problems)
    problems += [f"layer check failed: {text}" for text, held in report.exercised if not held]
    return not problems, [f"check failed: {p}" for p in problems]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    tiny: bool = False,
    setups: int = 3,
    span_dir: str | None = None,
) -> Result:
    workload = WORKLOADS[name]
    cfg = workload.tiny if tiny else workload.config
    module = workload.module
    inputs = module.make_inputs(cfg, seed, seconds)

    calibrator = None if trace else calibrate.Calibrator()
    setup_times, nominal_setups = [], []
    system = None
    for _ in range(setups if not trace else 1):
        system = None
        system, took, nominal = _build(workload, cfg, inputs, calibrator)
        setup_times.append(took)
        nominal_setups.append(nominal)
    outcome, host_s, counts = _drive(workload, system, inputs, calibrator=calibrator)
    report = module.evaluate(cfg, system, inputs, outcome, counts)
    lines = list(report.lines)
    lines.append(
        f"setup: {len(setup_times)} builds, " + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
    )
    lines.append(
        f"timed phase: {report.attempted} ops attempted, {report.completed} completed correctly, "
        f"{report.refused} refused (shed), {report.failed} failed, {host_s:.3f} host s"
    )
    if not trace:
        lines.append(
            f"calibration: host at {calibrator.speed:.3f}x nominal speed over the timed phase, "
            f"{calibrator.reference_s:.3f} s of reference slices excluded; "
            f"{report.completed / host_s:.1f} ops/s on the raw clock, "
            f"{report.completed / calibrator.nominal_s:.1f} on the nominal host; "
            "setup on the nominal host: " + ", ".join(f"{t:.3f}" for t in nominal_setups) + " s"
        )
        lines += _exercise_lines(report)
        correct, problem_lines = _verdict(report)
        metrics = {
            "setup_s": statistics.median(nominal_setups),
            "host_ops_per_s": report.completed / calibrator.nominal_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": report.completed / report.attempted,
            **report.sim,
        }
        return Result(metrics, END_TO_END, report.attempted, report.failed,
                      correct, lines + problem_lines)

    # Traced run: a fresh copy, built and driven with every boundary wrapped.
    untraced_sim = report.sim
    system = outcome = report = None
    setup_rec, run_rec = spans.SpanRecorder(), spans.SpanRecorder()
    with spans.Patches() as patches:
        spans.install(setup_rec, patches, layers.setup_table())
        system, _, _ = _build(workload, cfg, inputs)
    outcome, traced_s, counts = _drive(
        workload, system, inputs,
        extra_patches=lambda patches: spans.install(run_rec, patches, layers.run_table()),
    )
    report = module.evaluate(cfg, system, inputs, outcome, counts)
    drift = [
        f"tracing moved {key}: {untraced_sim[key]!r} untraced vs {value!r} traced"
        for key, value in report.sim.items()
        if untraced_sim.get(key) != value
    ]
    metrics = layers.per_layer(setup_rec, run_rec, report.layer, report.attempted)
    metrics = {key: metrics.get(key, 0.0) for key in PER_LAYER}
    lines += _exercise_lines(report)
    lines.append(
        f"sim_* identical traced vs untraced: {not drift} "
        + ", ".join(f"{k}={v!r}" for k, v in report.sim.items())
    )
    lines.append(
        f"tracing overhead: timed phase {traced_s:.3f} s traced vs {host_s:.3f} s untraced, "
        f"+{traced_s - host_s:.3f} s (+{(traced_s / host_s - 1) * 100:.0f}%), "
        f"{len(run_rec)} spans"
    )
    if span_dir is not None:
        run_rec.write(os.path.join(span_dir, f"spans-{name}-seed{seed}-run.npz"))
        setup_rec.write(os.path.join(span_dir, f"spans-{name}-seed{seed}-setup.npz"))
        lines.append(f"spans written to {span_dir}")
    correct, problem_lines = _verdict(report, drift)
    return Result(metrics, PER_LAYER, report.attempted, report.failed,
                  correct, lines + problem_lines)
