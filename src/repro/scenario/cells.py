"""Scenario cells: a validated :class:`ScenarioSpec` run slice by slice.

A spec splits into *cells* — one per offered load on the open loop, one
per client stack on the closed loop (``baseline``, then ``resilient``
when the spec has a chaos clause).  Every cell builds its own substrate
from the spec's fields, so cells share no state and fan over the
orchestrator's process pool; merging them in plan order gives rows that
are byte-identical for any ``--jobs`` value.

The spec's ``runner`` picks the load model, and with it the cell body,
the column set and the notes:

``open``
    One offered load on a fleet of ``shard_count`` servers.  A fleet of
    one is a bare :class:`~repro.serve.DbmsServer` (no router hop); a
    larger one is a key-range fleet (:func:`~repro.shard.build_fleet`).
    Conservation is checked mid-run, with requests genuinely in flight,
    and again at drain.  Client-facing columns (throughput, latency
    percentiles, shedding) come from the frontend's own stats; substrate
    columns (queue wait, disk utilization, batching) cover every server.
``closed``
    One client stack on a :class:`~repro.serve.ChaosRunner` driving the
    spec's chaos schedule (a clean one when ``chaos`` is empty), crash and
    recovery included.  Every cell records its history, which must pass
    the Wing–Gong checker; a rejected one is archived as a replayable
    JSON artifact.
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
from ..shard import BoundaryPlanner, ShardRouter, build_fleet
from ..verify.linearizability import check_linearizable
from ..workloads import KeyDistribution, KeyWorkload, OpMix, sample_ops
from .spec import ScenarioSpec

__all__ = ["ARTIFACT_DIR", "key_distribution", "new_result", "plan_cells", "run_cell"]

#: Where a closed cell archives a rejected history for replay.
ARTIFACT_DIR = "test-artifacts/linearizability"

#: Boundary plans for ``placement = "optimized"`` come from this many
#: sampled ops, drawn with this seed.
PLAN_SAMPLE_COUNT = 4096
PLAN_SEED = 3

#: The router's scatter–gather counters; a fleet of one has no router, so
#: they read 0 there.
ROUTER_COUNTERS = (
    "scan_fragments", "cross_shard_scans", "single_shard_scans",
    "fragment_timeouts", "rr_inserts",
)


# -- helpers shared by the cell bodies ---------------------------------------


def _mix(spec: ScenarioSpec) -> OpMix:
    return OpMix(lookup=spec.lookup, scan=spec.scan, insert=spec.insert,
                 scan_span=spec.scan_span)


def _mix_label(spec: ScenarioSpec) -> str:
    return f"mix {spec.lookup:g}/{spec.scan:g}/{spec.insert:g} lookup/scan/insert"


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


def _fleet(spec: ScenarioSpec, distribution: Optional[KeyDistribution]):
    """The open loop's frontend and the servers behind it.

    One shard is a bare server; more are a router over key-range shards
    whose boundaries are planned on the spec's own key universe.
    """
    if spec.shard_count == 1:
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
        return server, [server]
    universe = KeyWorkload(spec.num_rows, seed=spec.seed)
    planner = BoundaryPlanner(universe.keys, spec.shard_count)
    if spec.placement == "optimized":
        plan = planner.optimized(sample_ops(
            universe.keys.size, _mix(spec), distribution=distribution,
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
        db_seed=spec.seed,
        max_concurrency=spec.max_concurrency,
        queue_depth=spec.queue_depth,
        pool_frames=spec.pool_frames,
        admission_mode=spec.admission,
        batch_max=spec.batch_max,
        batch_window_us=spec.batch_window_ms * 1e3,
        deadline_us=_us(spec.deadline_ms),
        seed=spec.seed,
    )
    return router, router.shards


def _check_conservation(frontend, servers) -> None:
    for stats in (frontend.stats, *(server.stats for server in servers)):
        assert stats.conserved(), "conservation identity violated"


# -- the cell bodies -------------------------------------------------------------


def _open_cell(spec: ScenarioSpec, rate: int) -> dict:
    distribution = key_distribution(spec, spec.num_rows)
    frontend, servers = _fleet(spec, distribution)
    OpenLoopLoadGenerator(
        frontend, rate_ops_s=rate, duration_s=spec.duration_s, mix=_mix(spec),
        seed=spec.seed, distribution=distribution, burstiness=spec.burstiness,
    ).start()
    # Freeze the clock mid-traffic: conservation must hold with requests
    # genuinely in flight, not just after the drain.  A run up to a time
    # schedules no event, so the frozen run's values are the drained one's.
    frontend.run(until=spec.duration_s * 1e6 / 2)
    _check_conservation(frontend, servers)
    probe_in_flight = frontend.stats.in_flight.value
    frontend.run()
    _check_conservation(frontend, servers)

    now = frontend.env.now
    stats = frontend.stats
    substrate = servers[0].stats.merge(*(server.stats for server in servers[1:]))
    percentiles = stats.percentiles_us()
    lookups = stats.latency_histogram("lookup").count
    wait = substrate.queue_wait_histogram()
    util = [u for server in servers for u in server.utilization()]
    router = frontend if isinstance(frontend, ShardRouter) else None
    return dict(
        shard_count=spec.shard_count,
        placement=spec.placement,
        offered_ops_s=rate,
        issued=stats.issued,
        completed=stats.completed,
        shed=stats.shed,
        failed=stats.failed,
        timeouts=stats.timeouts,
        throughput_ops_s=round(stats.throughput_ops_s(now), 1),
        p50_ms=_ms(percentiles["p50"]),
        p95_ms=_ms(percentiles["p95"]),
        p99_ms=_ms(percentiles["p99"]),
        p999_ms=_ms(percentiles["p999"]),
        queue_p99_ms=_ms(wait.quantile(0.99)) if wait is not None else 0.0,
        mean_disk_util=round(sum(util) / len(util), 3),
        lookup_throughput_ops_s=round(lookups / (now / 1e6) if now > 0 else 0.0, 1),
        lookups_completed=lookups,
        batches=substrate.batches,
        mean_batch_size=(
            round(substrate.batched_ops / substrate.batches, 1)
            if substrate.batches else 0.0
        ),
        prefetch_waves=sum(int(server.reader.prefetch_waves) for server in servers),
        **{name: getattr(router, name) if router else 0 for name in ROUTER_COUNTERS},
        probe_in_flight=probe_in_flight,
    )


def _closed_cell(spec: ScenarioSpec, clients: str) -> dict:
    resilient = clients == "resilient"
    runner = ChaosRunner(
        ChaosSchedule.parse(spec.chaos, seed=spec.chaos_seed),
        num_rows=spec.num_rows,
        num_disks=spec.num_disks,
        page_size=spec.page_size,
        sessions=spec.sessions,
        ops_per_session=spec.ops_per_session,
        think_time_us=spec.think_time_ms * 1e3,
        mix=_mix(spec),
        retry=(
            ClientRetryPolicy(backoff_base_us=1_000.0, backoff_cap_us=20_000.0)
            if resilient else None
        ),
        breaker=BreakerConfig() if resilient else None,
        brownout=BrownoutConfig(p99_slo_us=15_000.0) if resilient else None,
        max_concurrency=spec.max_concurrency,
        queue_depth=spec.queue_depth,
        pool_frames=spec.pool_frames,
        deadline_us=_us(spec.deadline_ms),
        seed=spec.seed,
        concurrency=spec.concurrency,
        record_history=True,
    )
    report = runner.run()
    label = f"{clients} clients, {spec.concurrency} concurrency, seed {spec.seed}"
    assert report["conserved"], f"conservation identity violated ({label})"
    assert report["lost_inserts"] == 0, f"acknowledged inserts lost ({label})"
    history = runner.history.history()
    verdict = check_linearizable(history)
    if not verdict.ok:
        path = history.write(
            Path(ARTIFACT_DIR) / f"{spec.concurrency}-{clients}-seed{spec.seed}.json"
        )
        raise AssertionError(
            f"non-linearizable history ({label}): {verdict.reason}; "
            f"replayable artifact: {path}"
        )
    latch = report["latch"]
    return dict(
        clients=clients,
        concurrency=spec.concurrency,
        seed=spec.seed,
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
        p99_lookup_ms=_ms(report["snapshot"]["latency_us"]["lookup"]["p99"], 3),
        conserved=int(report["conserved"]),
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


def _open_notes(spec: ScenarioSpec) -> list[str]:
    if spec.shard_count == 1:
        fleet = "one server"
    elif spec.placement == "optimized":
        fleet = (
            f"{spec.shard_count} key-range shards (boundaries optimized on a "
            f"{PLAN_SAMPLE_COUNT}-op sample, seed {PLAN_SEED}), per shard"
        )
    else:
        fleet = f"{spec.shard_count} key-range shards (equal-width boundaries), per shard"
    notes = [
        f"{fleet}: {spec.num_disks // spec.shard_count} disks, "
        f"{spec.max_concurrency} tokens, queue bound {spec.queue_depth}, pool "
        f"{spec.pool_frames} frames; {_mix_label(spec)} over {spec.num_rows} "
        f"rows for {spec.duration_s:g}s per cell"
    ]
    knobs = []
    if spec.distribution != "uniform":
        knobs.append(f"zipf:{spec.zipf_theta:g} key popularity")
    if spec.burstiness != 1.0:
        knobs.append(f"burstiness {spec.burstiness:g}")
    if spec.admission != "fifo":
        knobs.append(f"admission {spec.admission} (max {spec.batch_max}, "
                     f"window {spec.batch_window_ms * 1e3:g}us)")
    if spec.concurrency != "none":
        knobs.append(f"{spec.concurrency} concurrency control")
    if knobs:
        notes.append("; ".join(knobs))
    return notes


def _closed_notes(spec: ScenarioSpec) -> list[str]:
    notes = []
    if spec.chaos:
        schedule = ChaosSchedule.parse(spec.chaos, seed=spec.chaos_seed)
        notes.append(f"schedule: {schedule.describe()}")
    deadline = "no deadline" if spec.deadline_ms is None else f"deadline {spec.deadline_ms:g}ms"
    latches = (
        "no latches" if spec.concurrency == "none"
        else f"{spec.concurrency} concurrency control"
    )
    notes.append(
        f"{spec.sessions} closed-loop sessions x {spec.ops_per_session} ops, "
        f"{spec.num_disks}-disk mirrored array over {spec.num_rows} rows on "
        f"{spec.page_size}B pages, {deadline}, {_mix_label(spec)}; "
        f"{latches}; every history checked linearizable"
    )
    return notes


class _Runner(NamedTuple):
    description: str
    columns: tuple
    cells: Callable[[ScenarioSpec], list]  # the cell axis values, in row order
    body: Callable[[ScenarioSpec, Any], dict]
    notes: Callable[[ScenarioSpec], list[str]]


_RUNNERS = {
    "open": _Runner(
        "open-loop serving on a fleet of shard_count servers: throughput, "
        "latency percentiles, shedding and scan fan-out vs offered load",
        (
            "shard_count", "placement", "offered_ops_s", "issued", "completed",
            "shed", "failed", "timeouts", "throughput_ops_s", "p50_ms",
            "p95_ms", "p99_ms", "p999_ms", "queue_p99_ms", "mean_disk_util",
            "lookup_throughput_ops_s", "lookups_completed", "batches",
            "mean_batch_size", "prefetch_waves", *ROUTER_COUNTERS,
            "probe_in_flight",
        ),
        lambda spec: list(spec.offered_loads),
        _open_cell,
        _open_notes,
    ),
    "closed": _Runner(
        "closed-loop serving through the chaos schedule, crash and recovery "
        "included: bare clients (and retry + breaker + brownout under a "
        "storm), every history checked linearizable",
        (
            "clients", "concurrency", "seed", "client_ops", "ok_ops", "gave_up",
            "retries", "fast_fails", "breaker_trips", "brownout_level", "shed",
            "failed", "timeouts", "crashes", "lost_inserts", "goodput_ops_s",
            "p99_ms", "p99_lookup_ms", "conserved", "write_waits",
            "validation_failures", "read_restarts", "write_restarts",
            "pessimistic_writes", "history_ops", "pending_ops",
            "states_explored", "linearizable",
        ),
        lambda spec: ["baseline", "resilient"] if spec.chaos else ["baseline"],
        _closed_cell,
        _closed_notes,
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
