"""serve-read and shard-rw: open-loop serving in simulated time.

Both workloads pre-generate, from the seed, a list of ascending
offered-rate *phases*: each phase is a Poisson arrival schedule with an
exact op mix.  One generator process on the simulation's own clock
submits every op at its due time, then waits for the phase to drain
before the next phase starts.  Because the generator is an event on the
same clock, each request is issued exactly when it was due: the
generator's lateness is zero by construction, and the harness prints the
measured value to show it.

Latencies are exact order statistics over ``finished_at - issued_at`` of
every request.  The latency limit is p99 <= ``LIMIT_MS`` over all
completed ops of a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

import benchstats
from report import Report

#: The p99 latency limit, over all completed ops of a phase.
LIMIT_MS = 150.0

KINDS = ("lookup", "scan", "insert")


@dataclass(frozen=True)
class Config:
    name: str
    rows: int
    #: Offered rates (ops/s, ascending); one phase each.
    rates: tuple
    #: Share of the generated ops given to each phase (same order as rates).
    phase_shares: tuple
    #: Index into ``rates`` of the reference (below-knee) phase.
    reference: int
    #: lookup, scan, insert shares.
    mix: tuple
    scan_span: int
    #: "uniform" or "zipf" key popularity.
    distribution: str
    zipf_theta: float = 1.05
    page_size: int = 16 * 1024
    disks: int = 8
    pool_frames: int = 64
    tokens: int = 16
    queue_depth: int = 48
    shards: int = 1
    #: Ops generated per requested second of timed phase (host calibration).
    ops_per_second: int = 4000
    min_samples: int = 1000
    #: The database (and shard plan) are fixed; only the op stream and the
    #: arrival schedule come from ``--seed``.
    data_seed: int = 7
    plan_seed: int = 3


SERVE_READ = Config(
    name="serve-read",
    rows=200_000,
    # A warm-up phase, the reference, then 50 ops/s steps through the knee
    # (where admission starts to shed) so capacity resolves to about 10%.
    rates=(200, 400, 450, 500, 550, 600, 650, 700, 800),
    phase_shares=(0.1, 0.3, 0.08, 0.08, 0.08, 0.08, 0.08, 0.08, 0.12),
    reference=1,
    mix=(0.8, 0.2, 0.0),
    scan_span=64,
    distribution="uniform",
)

SHARD_RW = Config(
    name="shard-rw",
    rows=100_000,
    rates=(150, 300, 350, 400, 450, 600),
    # The reference sits at the lowest rate: at 300 ops/s queueing behind the
    # hot shard already makes the tails swing by 10% from seed to seed.  The
    # 50 ops/s steps through the knee (where the p99 passes the limit) let
    # capacity resolve to about 15% (300 to 400 ops/s on seeds 1 to 10).
    phase_shares=(0.44, 0.07, 0.07, 0.07, 0.07, 0.28),
    reference=0,
    mix=(0.6, 0.2, 0.2),
    scan_span=2000,
    distribution="zipf",
    page_size=4096,
    disks=2,
    shards=4,
    ops_per_second=1900,
)


def tiny(cfg: Config) -> Config:
    """A seconds-long variant of ``cfg`` for tests."""
    return replace(
        cfg,
        rows=max(4000, cfg.rows // 50),
        scan_span=min(cfg.scan_span, 200),
        ops_per_second=300,
        min_samples=50,
    )


@dataclass
class Phase:
    gaps_us: list
    ops: list


@dataclass
class Inputs:
    phases: list
    #: Keyed inserts, in issue order (all phases).
    insert_keys: np.ndarray
    #: The stored key universe the ops were drawn from.
    keys: np.ndarray
    plan_sample: object = None


def _universe(cfg: Config) -> np.ndarray:
    from repro.workloads.generator import KeyWorkload

    # The same universe MiniDbms(seed=data_seed) stores.
    return KeyWorkload(cfg.rows, seed=cfg.data_seed).keys.astype(np.int64)


def _position_weights(cfg: Config, n: int) -> Optional[np.ndarray]:
    if cfg.distribution == "uniform":
        return None
    from repro.workloads.ops import KeyDistribution

    return KeyDistribution.zipf(n, theta=cfg.zipf_theta, seed=0).position_weights()


def make_inputs(cfg: Config, seed: int, seconds: float) -> Inputs:
    keys = _universe(cfg)
    n = keys.size
    weights = _position_weights(cfg, n)
    rng = np.random.default_rng(seed)
    lookup_share, scan_share, insert_share = cfg.mix
    total = int(round(seconds * cfg.ops_per_second))
    ref_share = cfg.phase_shares[cfg.reference]
    needed = min(share for share in (lookup_share, scan_share) if share > 0)
    total = max(total, math.ceil(cfg.min_samples / (needed * ref_share)))
    sizes = [int(round(total * share)) for share in cfg.phase_shares]
    n_inserts = sum(int(round(size * insert_share)) for size in sizes)
    # Distinct insert positions; stored keys are >= 2 apart so key + 1 is free.
    insert_pos = (
        rng.choice(n, n_inserts, replace=False, p=weights) if n_inserts else np.empty(0, int)
    )
    insert_keys = keys[insert_pos] + 1
    next_insert = 0
    phases = []
    for rate, size in zip(cfg.rates, sizes):
        counts = [int(round(size * share)) for share in cfg.mix]
        counts[0] = size - counts[1] - counts[2]
        kinds = np.repeat(np.arange(3), counts)
        rng.shuffle(kinds)
        if weights is None:
            positions = rng.integers(0, n, size)
        else:
            positions = rng.choice(n, size, p=weights)
        gaps = rng.exponential(1e6 / rate, size)
        ops = []
        for kind, pos in zip(kinds.tolist(), positions.tolist()):
            if kind == 0:
                ops.append(("lookup", int(keys[pos])))
            elif kind == 1:
                start = min(pos, n - cfg.scan_span)
                ops.append(("scan", int(keys[start]), int(keys[start + cfg.scan_span - 1])))
            else:
                ops.append(("insert", int(insert_keys[next_insert])))
                next_insert += 1
        phases.append(Phase(gaps_us=gaps.tolist(), ops=ops))
    sample = None
    if cfg.shards > 1:
        from repro.workloads import OpMix, sample_ops

        mix = OpMix(
            lookup=lookup_share, scan=scan_share, insert=insert_share, scan_span=cfg.scan_span
        )
        sample = sample_ops(n, mix, distribution=cfg.distribution, count=4096, seed=cfg.plan_seed)
    return Inputs(phases=phases, insert_keys=insert_keys, keys=keys, plan_sample=sample)


@dataclass
class System:
    #: What clients submit to: a DbmsServer, or a ShardRouter.
    frontend: object
    #: The DbmsServers (one, or one per shard).
    servers: list
    router: object = None


def build(cfg: Config, inputs: Inputs) -> System:
    if cfg.shards == 1:
        from repro.dbms import MiniDbms
        from repro.serve import DbmsServer

        db = MiniDbms(
            cfg.rows, num_disks=cfg.disks, page_size=cfg.page_size, seed=cfg.data_seed, mature=False
        )
        server = DbmsServer(
            db,
            max_concurrency=cfg.tokens,
            queue_depth=cfg.queue_depth,
            pool_frames=cfg.pool_frames,
        )
        system = System(frontend=server, servers=[server])
    else:
        from repro.shard import BoundaryPlanner, build_fleet

        plan = BoundaryPlanner(inputs.keys, cfg.shards).optimized(inputs.plan_sample)
        router = build_fleet(
            cfg.rows,
            plan,
            num_disks=cfg.disks,
            page_size=cfg.page_size,
            db_seed=cfg.data_seed,
            max_concurrency=cfg.tokens,
            queue_depth=cfg.queue_depth,
            pool_frames=cfg.pool_frames,
        )
        system = System(frontend=router, servers=list(router.shards), router=router)
    for server in system.servers:
        # Scan planning's leaf map is built once here, so the timed phase
        # only rebuilds it when inserts split leaves.
        server.db.cached_leaf_map()
    return system


@dataclass
class Outcome:
    #: Per phase: (start time, [requests in issue order]).
    phases: list = field(default_factory=list)
    lateness_us: float = 0.0


def _open_loop(env, frontend, phases, outcome: Outcome, tick):
    lateness = 0.0
    for index, phase in enumerate(phases):
        start = env.now
        due = start
        requests = []
        done = []
        for gap, op in zip(phase.gaps_us, phase.ops):
            # The kernel computes a timeout's firing time as now + delay, the
            # same sum as ``due``, so any nonzero lateness is a real delay.
            due += gap
            yield env.timeout(gap)
            tick()
            request = frontend.make_request(op, session=f"p{index}")
            done.append(frontend.submit(request))
            requests.append(request)
            lateness = max(lateness, request.issued_at - due)
        outcome.phases.append((start, requests))
        # Drain the phase.  Not env.all_of(done): AllOf re-scans all of its
        # events for every one already processed at construction, which is
        # quadratic in the phase length and would dominate host time.
        for event in done:
            if not event.processed:
                yield event
                tick()
    outcome.lateness_us = lateness


def _no_tick() -> None:
    pass


def drive(system: System, inputs: Inputs, tick=None) -> Outcome:
    """Run every phase; ``tick`` (host-speed calibration) is called between ops."""
    env = system.frontend.env
    outcome = Outcome()
    env.process(_open_loop(env, system.frontend, inputs.phases, outcome, tick or _no_tick))
    env.run()
    return outcome


def counted() -> list:
    from repro.dbms import MiniDbms

    return [(MiniDbms, "leaf_key_map", "dbms.leaf_map_rebuilds")]


def _fragment_outcomes(system: System) -> dict:
    """Router request id -> outcomes of its scan fragments on the shards."""
    fragments: dict[int, list] = {}
    for server in system.servers:
        for request in server.requests:
            # Fragment sessions read "<session>@r<router rid>.f<index>".
            head, sep, tail = request.session.rpartition("@r")
            if sep and ".f" in tail:
                fragments.setdefault(int(tail.split(".f")[0]), []).append(request.outcome)
    return fragments


def _classify(system: System, request, fragments: dict) -> str:
    """"ok", "refused" (shed by admission) or "failed"."""
    if request.outcome == "ok" and not request.timed_out:
        return "ok"
    if request.outcome == "shed":
        return "refused"
    if request.outcome == "failed" and system.router is not None and request.kind == "scan":
        # A cross-shard scan fails when a fragment is shed at its shard:
        # that is admission refusing overload, not an error.
        outcomes = fragments.get(request.rid, [])
        if outcomes and all(o in ("ok", "shed") for o in outcomes):
            return "refused"
    return "failed"


def _expected_rows(cfg: Config, inputs: Inputs, op) -> tuple[int, int]:
    """Inclusive (low, high) bounds on a correct answer's row count."""
    kind = op[0]
    if kind == "lookup":
        return 1, 1  # every looked-up key is stored and never deleted
    if kind == "insert":
        return 1, 1
    lo, hi = op[1], op[2]
    keys = inputs.keys
    stored = int(np.searchsorted(keys, hi, side="right") - np.searchsorted(keys, lo, side="left"))
    inserts = inputs.insert_keys
    added = int(np.count_nonzero((inserts >= lo) & (inserts <= hi))) if inserts.size else 0
    # A scan sees every stored key, plus whichever concurrent inserts in its
    # range had landed when it read the leaves.
    return stored, stored + added


def evaluate(cfg: Config, system: System, inputs: Inputs, outcome: Outcome, counts: dict) -> Report:
    from repro.btree.base import IndexCorruptionError
    from repro.scrub import scrub_tree

    problems: list[str] = []

    def note(message: str) -> None:
        if len(problems) < 8:
            problems.append(message)

    fragments = _fragment_outcomes(system) if system.router is not None else {}
    phase_rows = []
    ref_latency: dict[str, list] = {kind: [] for kind in KINDS}
    overload_good = 0
    attempted = completed = refused = failed = 0
    for index, (start, requests) in enumerate(outcome.phases):
        ok_latency = []
        p_refused = p_failed = 0
        for request in requests:
            attempted += 1
            verdict = _classify(system, request, fragments)
            if verdict == "refused":
                p_refused += 1
                continue
            if verdict == "failed":
                p_failed += 1
                note(f"request {request.rid} {request.op}: {request.outcome} {request.error!r}")
                continue
            low, high = _expected_rows(cfg, inputs, request.op)
            if not low <= request.rows <= high:
                note(f"{request.op}: {request.rows} rows, expected {low}..{high}")
                p_failed += 1
                continue
            latency_ms = request.latency_us / 1e3
            ok_latency.append(latency_ms)
            if index == cfg.reference:
                ref_latency[request.kind].append(latency_ms)
            if index == len(outcome.phases) - 1 and latency_ms <= LIMIT_MS:
                overload_good += 1
        ok_latency.sort()
        p99 = benchstats.exact_percentile(ok_latency, 99.0) if ok_latency else float("inf")
        phase_rows.append(
            {
                "rate": cfg.rates[index],
                "p99_ms": p99,
                "refused": p_refused,
                "failed": p_failed,
                "completed": len(ok_latency),
                "issued": len(requests),
                "window_s": (requests[-1].issued_at - start) / 1e6,
            }
        )
        completed += len(ok_latency)
        refused += p_refused
        failed += p_failed
    reference = phase_rows[cfg.reference]
    if reference["refused"] or reference["failed"]:
        # Below the knee nothing may be lost: failed_share must be 0 here.
        note(
            f"reference phase at {reference['rate']} ops/s refused {reference['refused']} "
            f"and failed {reference['failed']} ops; it must lose none"
        )
    # Program-level invariants.
    if system.router is not None:
        try:
            system.router.check_conservation()
        except AssertionError as exc:
            note(f"conservation: {exc}")
    elif not system.frontend.stats.conserved():
        note("conservation: server identity violated")
    acked = [
        r.op[1]
        for _, requests in outcome.phases
        for r in requests
        if r.kind == "insert" and r.outcome == "ok"
    ]
    for key in acked:
        if _owner(system, key).db.index.search(key) is None:
            note(f"acknowledged insert of key {key} not found after drain")
    if cfg.mix[2] > 0:
        for i, server in enumerate(system.servers):
            try:
                scrub_tree(server.db.index)
            except IndexCorruptionError as exc:
                note(f"shard {i} scrub: {exc}")
    elif any(s.db.index.num_entries != s.db.stored_keys.size for s in system.servers):
        note("entry count changed on a read-only workload")

    ref = {kind: sorted(values) for kind, values in ref_latency.items()}
    for kind in ("lookup", "scan"):
        if len(ref[kind]) < cfg.min_samples:
            note(f"reference phase has {len(ref[kind])} {kind} samples, need {cfg.min_samples}")
    overload = phase_rows[-1]
    sim = {
        "sim_lookup_mean_ms": float(np.mean(ref["lookup"])),
        "sim_lookup_tail_ms": benchstats.tail_mean(ref["lookup"]),
        "sim_scan_tail_ms": benchstats.tail_mean(ref["scan"]),
        "sim_capacity_ops_s": benchstats.capacity(phase_rows, LIMIT_MS),
        "sim_goodput_ops_s": overload_good / overload["window_s"],
    }
    layer = _layer_counters(cfg, system, outcome, attempted, counts)
    lines = [
        f"data: {cfg.rows} rows over {cfg.shards} shard(s); per shard {cfg.disks} disks, "
        f"{cfg.pool_frames}-frame pool of {cfg.page_size // 1024} KB pages "
        f"({cfg.pool_frames * cfg.page_size / 2**20:.1f} MB) against "
        f"{sum(s.db.store.num_pages for s in system.servers)} stored pages; "
        "no MemorySystem (mem bypassed)",
        f"loop: open, Poisson arrivals on the simulated clock; generator lateness "
        f"{outcome.lateness_us:.3g} us (zero by construction); "
        f"latency limit p99 <= {LIMIT_MS:g} ms "
        f"over completed ops; {cfg.tokens} tokens, queue {cfg.queue_depth}, fifo, concurrency none",
    ]
    for row in phase_rows:
        lines.append(
            f"phase {row['rate']} ops/s: issued {row['issued']} completed {row['completed']} "
            f"refused {row['refused']} failed {row['failed']} p99 {row['p99_ms']:.2f} ms"
            f"{'  <- reference' if row['rate'] == cfg.rates[cfg.reference] else ''}"
        )
    for kind, values in ref.items():
        if values:
            s = benchstats.summarize(values)
            lines.append(
                f"reference {kind}: n={s['n']} mean={s['mean']:.2f} p50={s['p50']:.2f} "
                f"p99={s['p99']:.2f} tail99={s['tail99']:.2f} ms "
                f"(highest reportable percentile p{s['top_percentile']})"
            )
    exercised = _exercised(cfg, system, inputs, layer, counts)
    return Report(
        attempted=attempted,
        completed=completed,
        refused=refused,
        failed=failed,
        sim=sim,
        layer=layer,
        problems=problems,
        exercised=exercised,
        lines=lines,
    )


def _layer_counters(cfg: Config, system: System, outcome: Outcome, ops: int, counts: dict) -> dict:
    servers = system.servers
    readers = [s.reader for s in servers]
    hits = sum(r.demand_hits for r in readers)
    demands = sum(r.demand_hits + r.demand_reads + r.demand_covered for r in readers)
    elapsed = system.frontend.env.now - outcome.phases[0][0]
    busy = [d.busy_time_us for s in servers for d in s.disks.disks]
    ref_requests = outcome.phases[cfg.reference][1]
    # Admission queueing is negligible below the knee, so its p99 is taken
    # over the overload phase, where tokens run out.
    overload_start = outcome.phases[-1][0]
    waits = sorted(
        r.queue_wait_us / 1e3
        for s in servers
        for r in s.requests
        if r.admitted_at >= 0 and r.issued_at >= overload_start
    )
    scans = sum(1 for _, reqs in outcome.phases for r in reqs if r.kind == "scan")
    layer = {
        "storage.pool_hit_ratio": hits / demands if demands else 0.0,
        "storage.disk_reads_per_op": sum(s.disks.total_reads for s in servers) / ops,
        "storage.disk_writes_per_op": sum(s.disks.total_writes for s in servers) / ops,
        "storage.disk_util": sum(busy) / (len(busy) * elapsed) if elapsed > 0 else 0.0,
        "dbms.leaf_map_rebuilds": counts.get("dbms.leaf_map_rebuilds", 0),
        "serve.admission_wait_p99_ms": benchstats.exact_percentile(waits, 99.0) if waits else 0.0,
        "core.pages_per_lookup": float(
            np.mean(
                [
                    len(_owner(system, r.op[1]).db.index.page_path(r.op[1]))
                    for r in ref_requests[:2000]
                    if r.kind == "lookup"
                ]
            )
        ),
        "shard.fragments_per_scan": 0.0,
        "shard.cross_shard_share": 0.0,
    }
    if system.router is not None and scans:
        layer["shard.fragments_per_scan"] = system.router.scan_fragments / scans
        layer["shard.cross_shard_share"] = system.router.cross_shard_scans / scans
    return layer


def _owner(system: System, key: int):
    if system.router is None:
        return system.frontend
    return system.servers[system.router.plan.shard_for_key(key)]


def _exercised(cfg: Config, system: System, inputs: Inputs, layer: dict, counts: dict) -> list:
    inserts = int(inputs.insert_keys.size)
    checks = [
        ("des/storage/serve exercised: disk reads > 0", layer["storage.disk_reads_per_op"] > 0),
        (
            "mem bypassed: no MemorySystem attached to any serving tree",
            all(s.db.env.mem is None for s in system.servers),
        ),
    ]
    if cfg.shards > 1:
        checks += [
            (
                "shard scatter-gather exercised: cross_shard_share "
                f"{layer['shard.cross_shard_share']:.4f} > 0",
                layer["shard.cross_shard_share"] > 0,
            ),
            (f"leaf-map rebuilds exercised: {counts.get('dbms.leaf_map_rebuilds', 0)} > 0",
             counts.get("dbms.leaf_map_rebuilds", 0) > 0),
            (f"inserts exercised: {inserts} > 0", inserts > 0),
        ]
    else:
        checks += [
            (f"read-only: {inserts} inserts issued", inserts == 0),
            (f"leaf-map rebuild bypassed: {counts.get('dbms.leaf_map_rebuilds', 0)} rebuilds",
             counts.get("dbms.leaf_map_rebuilds", 0) == 0),
        ]
    return checks
