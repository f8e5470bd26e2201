"""Scenario cells: a validated :class:`ScenarioSpec` run slice by slice.

A spec splits into *cells* — one per offered load for the open-loop
runners (``serve``, ``shard``), one per client stack for ``chaos``
(``baseline`` then ``resilient``), and a single cell for
``concurrency``.  Every cell builds its own substrate from the spec's
fields, so cells share no state and fan over the orchestrator's process
pool; merging them in plan order gives rows that are byte-identical for
any ``--jobs`` value.

The spec's ``runner`` picks the cell body and the column set:

``serve``
    One offered load on a :class:`~repro.serve.DbmsServer`: the
    saturation curve (throughput, latency percentiles, shedding) plus the
    lookup-throughput and batching columns that the fifo-vs-batch
    admission race compares.
``shard``
    One offered load on a key-range fleet (:func:`~repro.shard.build_fleet`),
    with fleet-wide conservation checked mid-run (requests genuinely in
    flight) and again at drain.
``chaos``
    One client stack on a :class:`~repro.serve.ChaosRunner` driving the
    spec's fault storm, crash and recovery included.
``concurrency``
    A :class:`~repro.serve.ChaosRunner` under a clean schedule with
    history recording on; the history must pass the Wing–Gong checker,
    and a rejected one is archived as a replayable JSON artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from ..bench.results import FigureResult
from ..dbms.engine import MiniDbms
from ..faults import ChaosSchedule
from ..serve import (
    BreakerConfig,
    BrownoutConfig,
    ChaosRunner,
    ClientRetryPolicy,
    DbmsServer,
    OpenLoopLoadGenerator,
)
from ..shard import BoundaryPlanner, build_fleet
from ..verify.linearizability import check_linearizable
from ..workloads import KeyDistribution, KeyWorkload, OpMix, sample_ops
from .spec import ScenarioSpec

__all__ = ["ARTIFACT_DIR", "key_distribution", "new_result", "plan_cells", "run_cell"]

#: Where a concurrency cell archives a rejected history for replay.
ARTIFACT_DIR = "test-artifacts/linearizability"

#: Boundary plans for ``placement = "optimized"`` come from this many
#: sampled ops, drawn with this seed.
PLAN_SAMPLE_COUNT = 4096
PLAN_SEED = 3


# -- helpers shared by the cell bodies ---------------------------------------


def _mix(spec: ScenarioSpec) -> OpMix:
    return OpMix(lookup=spec.lookup, scan=spec.scan, insert=spec.insert,
                 scan_span=spec.scan_span)


def _mix_label(spec: ScenarioSpec) -> str:
    return f"mix {spec.lookup:g}/{spec.scan:g}/{spec.insert:g} lookup/scan/insert"


def _skew_label(spec: ScenarioSpec) -> str:
    if spec.distribution == "uniform":
        return "uniform"
    return f"zipf:{spec.zipf_theta:g}"


def _us(ms: Optional[float]) -> Optional[float]:
    return None if ms is None else ms * 1e3


def _ms(us: float, digits: int = 2) -> float:
    return round(us / 1e3, digits)


def key_distribution(spec: ScenarioSpec, n: int) -> Optional[KeyDistribution]:
    """The spec's key popularity over ``n`` universe positions.

    ``None`` is the generators' fast uniform path; a Zipf spec gets its
    exact ``zipf_theta``.
    """
    if spec.distribution == "uniform":
        return None
    return KeyDistribution.zipf(n, theta=spec.zipf_theta)


def _lookup_rate(stats, now_us: float) -> float:
    """Completed lookups per simulated second, to 0.1 ops/s."""
    elapsed_s = now_us / 1e6
    count = stats.latency_histogram("lookup").count
    return round(count / elapsed_s if elapsed_s > 0 else 0.0, 1)


def _check_report(report: dict, label: str) -> None:
    assert report["conserved"], f"conservation identity violated ({label})"
    assert report["lost_inserts"] == 0, f"acknowledged inserts lost ({label})"


def _chaos_runner(spec: ScenarioSpec, schedule: ChaosSchedule, **extra) -> ChaosRunner:
    return ChaosRunner(
        schedule,
        num_rows=spec.num_rows,
        num_disks=spec.num_disks,
        page_size=spec.page_size,
        sessions=spec.sessions,
        ops_per_session=spec.ops_per_session,
        think_time_us=spec.think_time_ms * 1e3,
        mix=_mix(spec),
        max_concurrency=spec.max_concurrency,
        queue_depth=spec.queue_depth,
        pool_frames=spec.pool_frames,
        deadline_us=_us(spec.deadline_ms),
        seed=spec.seed,
        **extra,
    )


# -- the cell bodies -------------------------------------------------------------


def _serve_cell(spec: ScenarioSpec, rate: int) -> dict:
    db = MiniDbms(num_rows=spec.num_rows, num_disks=spec.num_disks,
                  page_size=spec.page_size, seed=spec.seed, mature=False)
    server = DbmsServer(
        db,
        max_concurrency=spec.max_concurrency,
        queue_depth=spec.queue_depth,
        pool_frames=spec.pool_frames,
        deadline_us=_us(spec.deadline_ms),
        admission_mode=spec.admission,
        batch_max=spec.batch_max,
        batch_window_us=spec.batch_window_ms * 1e3,
        concurrency=spec.concurrency,
        seed=spec.seed,
    )
    stats = OpenLoopLoadGenerator(
        server, rate_ops_s=rate, duration_s=spec.duration_s, mix=_mix(spec),
        seed=spec.seed,
        distribution=key_distribution(spec, server.workload_keys.size),
        burstiness=spec.burstiness,
    ).run()
    assert stats.conserved(), "conservation identity violated at end of run"
    percentiles = stats.percentiles_us()
    wait = stats.queue_wait_histogram()
    return dict(
        offered_ops_s=rate,
        issued=stats.issued,
        completed=stats.completed,
        shed=stats.shed,
        timeouts=stats.timeouts,
        throughput_ops_s=round(stats.throughput_ops_s(server.env.now), 1),
        p50_ms=_ms(percentiles["p50"]),
        p95_ms=_ms(percentiles["p95"]),
        p99_ms=_ms(percentiles["p99"]),
        p999_ms=_ms(percentiles["p999"]),
        queue_p99_ms=_ms(wait.quantile(0.99)) if wait is not None else 0.0,
        mean_disk_util=round(server.mean_utilization(), 3),
        lookup_throughput_ops_s=_lookup_rate(stats, server.env.now),
        lookups_completed=stats.latency_histogram("lookup").count,
        batches=stats.batches,
        mean_batch_size=(
            round(stats.batched_ops / stats.batches, 1) if stats.batches else 0.0
        ),
        prefetch_waves=int(server.reader.prefetch_waves),
    )


def _shard_cell(spec: ScenarioSpec, rate: int) -> dict:
    mix = _mix(spec)
    universe = KeyWorkload(spec.num_rows, seed=7)
    distribution = key_distribution(spec, universe.keys.size)
    planner = BoundaryPlanner(universe.keys, spec.shard_count)
    if spec.placement == "optimized":
        plan = planner.optimized(sample_ops(
            universe.keys.size, mix, distribution=distribution,
            count=PLAN_SAMPLE_COUNT, seed=PLAN_SEED,
        ))
    else:
        plan = planner.equal_width()
    router = build_fleet(
        spec.num_rows,
        plan,
        # The spec's num_disks is the fleet total; the validator makes it
        # divide evenly over the shards.
        num_disks=spec.num_disks // spec.shard_count,
        page_size=spec.page_size,
        max_concurrency=spec.max_concurrency,
        queue_depth=spec.queue_depth,
        pool_frames=spec.pool_frames,
        admission_mode=spec.admission,
        batch_max=spec.batch_max,
        batch_window_us=spec.batch_window_ms * 1e3,
        deadline_us=_us(spec.deadline_ms),
        seed=spec.seed,
    )
    OpenLoopLoadGenerator(
        router, rate_ops_s=rate, duration_s=spec.duration_s, mix=mix,
        seed=spec.seed, distribution=distribution, burstiness=spec.burstiness,
    ).start()
    # Freeze the clock mid-traffic: conservation must hold with requests
    # genuinely in flight, not just after the drain.
    router.run(until=spec.duration_s * 1e6 / 2)
    router.check_conservation()
    probe_in_flight = router.fleet_stats().in_flight.value
    router.run()
    router.check_conservation()
    stats = router.stats
    percentiles = stats.percentiles_us("lookup")
    return dict(
        shard_count=spec.shard_count,
        placement=spec.placement,
        offered_ops_s=rate,
        issued=stats.issued,
        completed=stats.completed,
        shed=stats.shed,
        failed=stats.failed,
        timeouts=stats.timeouts,
        lookup_tput_ops_s=_lookup_rate(stats, router.env.now),
        p50_ms=_ms(percentiles["p50"]),
        p99_ms=_ms(percentiles["p99"]),
        scan_fragments=router.scan_fragments,
        cross_shard_scans=router.cross_shard_scans,
        single_shard_scans=router.single_shard_scans,
        fragment_timeouts=router.fragment_timeouts,
        rr_inserts=router.rr_inserts,
        probe_in_flight=probe_in_flight,
    )


def _chaos_cell(spec: ScenarioSpec, mode: str) -> dict:
    resilient = mode == "resilient"
    runner = _chaos_runner(
        spec,
        ChaosSchedule.parse(spec.chaos, seed=spec.chaos_seed),
        retry=(
            ClientRetryPolicy(backoff_base_us=1_000.0, backoff_cap_us=20_000.0)
            if resilient else None
        ),
        breaker=BreakerConfig() if resilient else None,
        brownout=BrownoutConfig(p99_slo_us=15_000.0) if resilient else None,
        concurrency=spec.concurrency,
    )
    report = runner.run()
    _check_report(report, f"{mode} run")
    return dict(
        mode=mode,
        client_ops=report["client_ops"],
        ok_ops=report["ok_ops"],
        gave_up=report["gave_up"],
        retries=report["client_retries"],
        fast_fails=report["breaker_fast_fails"],
        breaker_trips=sum(1 for __, __, to in report["breaker_transitions"] if to == "open"),
        brownout_level=report["brownout_max_level"],
        shed=report["shed"],
        failed=report["failed"],
        timeouts=report["timeouts"],
        crashes=report["crashes"],
        lost_inserts=report["lost_inserts"],
        goodput_ops_s=report["goodput_ops_s"],
        p99_ms=report["p99_ms"],
        conserved=int(report["conserved"]),
    )


def _concurrency_cell(spec: ScenarioSpec, mode: str) -> dict:
    label = f"{mode}, seed {spec.seed}"
    # The chaos here is the concurrency itself: a clean schedule.
    runner = _chaos_runner(
        spec, ChaosSchedule.parse("", seed=spec.seed),
        concurrency=mode, record_history=True,
    )
    report = runner.run()
    _check_report(report, label)
    history = runner.history.history()
    verdict = check_linearizable(history)
    if not verdict.ok:
        path = history.write(
            Path(ARTIFACT_DIR) / f"concurrency-{mode}-seed{spec.seed}.json"
        )
        raise AssertionError(
            f"non-linearizable history ({label}): {verdict.reason}; "
            f"replayable artifact: {path}"
        )
    latch = report["latch"]
    latency = report["snapshot"]["latency_us"]
    return dict(
        mode=mode,
        seed=spec.seed,
        ok_ops=report["ok_ops"],
        failed=report["failed"],
        p99_lookup_ms=_ms(latency["lookup"]["p99"], 3),
        p99_all_ms=_ms(latency["all"]["p99"], 3),
        goodput_ops_s=report["goodput_ops_s"],
        write_waits=latch.get("write_waits", 0),
        validation_failures=latch.get("validation_failures", 0),
        read_restarts=latch.get("read_restarts", 0),
        write_restarts=latch.get("write_restarts", 0),
        pessimistic_writes=latch.get("pessimistic_writes", 0),
        history_ops=len(history.ops),
        pending_ops=len(history.pending),
        states_explored=verdict.states_explored,
        linearizable=int(verdict.ok),
    )


# -- notes: one line per spec, rendered under its table --------------------------


def _knobs(spec: ScenarioSpec) -> list[str]:
    """Open-loop axes off their defaults, as note fragments."""
    knobs = []
    if spec.burstiness != 1.0:
        knobs.append(f"burstiness {spec.burstiness:g}")
    if spec.admission != "fifo":
        knobs.append(f"admission {spec.admission} (max {spec.batch_max}, "
                     f"window {spec.batch_window_ms * 1e3:g}us)")
    return knobs


def _serve_notes(spec: ScenarioSpec) -> list[str]:
    notes = [
        f"{spec.num_disks}-disk array, {spec.max_concurrency} tokens, queue bound "
        f"{spec.queue_depth}, pool {spec.pool_frames} frames, {_mix_label(spec)} "
        f"over {spec.num_rows} rows for {spec.duration_s:g}s per cell"
    ]
    knobs = _knobs(spec)
    if spec.distribution != "uniform":
        knobs.insert(0, f"{_skew_label(spec)} key popularity")
    if spec.concurrency != "none":
        knobs.append(f"{spec.concurrency} concurrency control")
    if knobs:
        notes.append("; ".join(knobs))
    return notes


def _shard_notes(spec: ScenarioSpec) -> list[str]:
    notes = [
        f"per-shard hardware: {spec.num_disks // spec.shard_count} disks, "
        f"{spec.max_concurrency} tokens, queue bound {spec.queue_depth}, pool "
        f"{spec.pool_frames} frames; {_skew_label(spec)} key popularity, "
        f"{_mix_label(spec)} over {spec.num_rows} rows for {spec.duration_s:g}s "
        f"per cell; boundary plans from a {PLAN_SAMPLE_COUNT}-op sample "
        f"(seed {PLAN_SEED})"
    ]
    knobs = _knobs(spec)
    if knobs:
        notes.append("; ".join(knobs))
    return notes


def _chaos_notes(spec: ScenarioSpec) -> list[str]:
    schedule = ChaosSchedule.parse(spec.chaos, seed=spec.chaos_seed)
    return [
        f"schedule: {schedule.describe()}",
        f"{spec.sessions} closed-loop sessions x {spec.ops_per_session} ops, "
        f"{spec.num_disks}-disk mirrored array over {spec.num_rows} rows, "
        f"deadline {spec.deadline_ms:g}ms, {_mix_label(spec)}",
    ]


def _concurrency_notes(spec: ScenarioSpec) -> list[str]:
    return [
        f"{spec.sessions} closed-loop sessions x {spec.ops_per_session} ops over "
        f"{spec.num_rows} rows on {spec.page_size}B pages (split-heavy), "
        f"{_mix_label(spec)}; page mode: optimistic reads + latch-crabbing "
        "writes; coarse mode: one tree-wide latch"
    ]


class _Runner(NamedTuple):
    description: str
    columns: tuple
    cells: Callable[[ScenarioSpec], list]  # the cell axis values, in row order
    body: Callable[[ScenarioSpec, Any], dict]
    notes: Callable[[ScenarioSpec], list[str]]


_RUNNERS = {
    "serve": _Runner(
        "open-loop serving: throughput, latency percentiles and shedding vs offered load",
        (
            "offered_ops_s", "issued", "completed", "shed", "timeouts",
            "throughput_ops_s", "p50_ms", "p95_ms", "p99_ms", "p999_ms",
            "queue_p99_ms", "mean_disk_util", "lookup_throughput_ops_s",
            "lookups_completed", "batches", "mean_batch_size", "prefetch_waves",
        ),
        lambda spec: list(spec.offered_loads),
        _serve_cell,
        _serve_notes,
    ),
    "shard": _Runner(
        "key-range-sharded serving: fleet throughput and scan fan-out per "
        "shard count, boundary placement and offered load",
        (
            "shard_count", "placement", "offered_ops_s", "issued", "completed",
            "shed", "failed", "timeouts", "lookup_tput_ops_s", "p50_ms",
            "p99_ms", "scan_fragments", "cross_shard_scans",
            "single_shard_scans", "fragment_timeouts", "rr_inserts",
            "probe_in_flight",
        ),
        lambda spec: list(spec.offered_loads),
        _shard_cell,
        _shard_notes,
    ),
    "chaos": _Runner(
        "closed-loop serving through a fault storm and a mid-run crash: "
        "bare clients vs retry + breaker + brownout",
        (
            "mode", "client_ops", "ok_ops", "gave_up", "retries", "fast_fails",
            "breaker_trips", "brownout_level", "shed", "failed", "timeouts",
            "crashes", "lost_inserts", "goodput_ops_s", "p99_ms", "conserved",
        ),
        lambda spec: ["baseline", "resilient"],
        _chaos_cell,
        _chaos_notes,
    ),
    "concurrency": _Runner(
        "contended closed-loop serving: coarse tree latch vs page-level "
        "optimistic reads + latch crabbing (every history checked linearizable)",
        (
            "mode", "seed", "ok_ops", "failed", "p99_lookup_ms", "p99_all_ms",
            "goodput_ops_s", "write_waits", "validation_failures",
            "read_restarts", "write_restarts", "pessimistic_writes",
            "history_ops", "pending_ops", "states_explored", "linearizable",
        ),
        lambda spec: [spec.concurrency],
        _concurrency_cell,
        _concurrency_notes,
    ),
}


def plan_cells(spec: ScenarioSpec) -> list[tuple[ScenarioSpec, Any]]:
    """A validated spec's cells, as picklable ``(spec, axis value)`` tasks.

    Cell order is row order: offered loads as listed, ``baseline`` before
    ``resilient``.
    """
    return [(spec, value) for value in _RUNNERS[spec.runner].cells(spec)]


def run_cell(task: tuple[ScenarioSpec, Any]) -> dict:
    """Worker entry point: one cell in, its one result row out."""
    spec, value = task
    return _RUNNERS[spec.runner].body(spec, value)


def new_result(spec: ScenarioSpec) -> FigureResult:
    """The spec's empty result table: runner columns and the spec's notes."""
    runner = _RUNNERS[spec.runner]
    return FigureResult(
        spec.name, runner.description, list(runner.columns), notes=runner.notes(spec)
    )
