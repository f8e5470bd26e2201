"""Cross-commit golden fixture for the serving timeline.

``tests/data/serve_golden.json`` pins the exact simulated behaviour of a
few tiny serving cells that the benchmark's steady workloads never run:
each latch protocol (``concurrency`` none, page and coarse),
``admission_mode="batch"``, a 2-shard fleet with cross-shard scans, a
client deadline on a server (fifo and batch admission) and on a fleet's
router, and a WAL crash plus recovery under chaos.  Each cell records
digests of

* every request's ``(rid, kind, outcome, issued_at, finished_at, rows)``,
* every metrics-registry snapshot the cell owns, and
* the DES event counter ``env._next_id`` (events scheduled so far),

so a refactor of the kernel, the storage counters or the served traversal
that moves one event, one counter or one float fails here by name.

Regenerate only when a behaviour change is intended, from the repository
root::

    PYTHONPATH=src python -m tests.test_serve_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dbms.engine import MiniDbms
from repro.faults.schedule import ChaosSchedule
from repro.serve import DbmsServer, OpenLoopLoadGenerator
from repro.serve.resilience import ChaosRunner, ClientRetryPolicy
from repro.shard import BoundaryPlanner, build_fleet
from repro.workloads import KeyWorkload, OpMix

FIXTURE = Path(__file__).parent / "data" / "serve_golden.json"

MIX = OpMix(lookup=0.6, scan=0.2, insert=0.2)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def request_rows(requests) -> list:
    return [
        [r.rid, r.kind, r.outcome, r.issued_at, r.finished_at, int(r.rows)]
        for r in requests
    ]


def fingerprint(requests, registries: dict, next_id: int) -> dict:
    outcomes: dict[str, int] = {}
    for r in requests:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    return {
        "requests": len(requests),
        "outcomes": dict(sorted(outcomes.items())),
        "requests_sha256": digest(request_rows(requests)),
        "metrics_sha256": digest(
            {name: registry.snapshot() for name, registry in registries.items()}
        ),
        "next_id": next_id,
    }


def served_server(concurrency="none", admission_mode="fifo", deadline_us=None):
    db = MiniDbms(num_rows=2_000, num_disks=2, page_size=1024, seed=3, mature=False)
    server = DbmsServer(
        db, max_concurrency=6, queue_depth=24, pool_frames=24,
        page_process_us=60.0, seed=3, concurrency=concurrency, deadline_us=deadline_us,
        admission_mode=admission_mode, batch_window_us=500.0, batch_max=4,
    )
    load = OpenLoopLoadGenerator(server, rate_ops_s=600, duration_s=0.25, mix=MIX, seed=4)
    return server, load


def served_cell(concurrency: str = "none", admission_mode: str = "fifo") -> dict:
    server, load = served_server(concurrency, admission_mode)
    load.run()
    return fingerprint(server.requests, {"server": server.obs.metrics}, server.env._next_id)


def deadline_fingerprint(front, load, registries: dict, mid_run_us: float) -> dict:
    """Fingerprint a deadlined run twice: frozen at ``mid_run_us``, then drained.

    A client timeout shows as the ``"timeout"`` outcome only while the
    server still works on the op, so the mid-run snapshot is what pins it;
    which requests timed out at all is pinned by rid.
    """
    load.start()
    front.env.run(until=mid_run_us)
    mid_run = fingerprint(front.requests, registries, front.env._next_id)
    front.env.run()
    cell = fingerprint(front.requests, registries, front.env._next_id)
    cell["mid_run"] = mid_run
    cell["timed_out_sha256"] = digest([r.rid for r in front.requests if r.timed_out])
    return cell


def served_deadline_cell() -> dict:
    cells = {}
    for admission_mode in ("fifo", "batch"):
        server, load = served_server(admission_mode=admission_mode, deadline_us=20_000.0)
        cell = deadline_fingerprint(
            server, load, {"server": server.obs.metrics}, mid_run_us=150_000.0
        )
        assert cell["mid_run"]["outcomes"].get("timeout", 0) > 0
        cells[admission_mode] = cell
    return cells


def fleet_router(deadline_us=None):
    universe = KeyWorkload(1_200, seed=7)
    plan = BoundaryPlanner(universe.keys, 2).equal_width()
    router = build_fleet(
        1_200, plan, num_disks=2, page_size=1024, pool_frames=24, deadline_us=deadline_us,
    )
    keys = universe.keys
    for a, b in ((5, 900), (100, 1_100), (700, 760)):  # two cross-shard scans
        router.submit(router.make_request(("scan", int(keys[a]), int(keys[b]))))
    load = OpenLoopLoadGenerator(router, rate_ops_s=2_000, duration_s=0.06, mix=MIX, seed=6)
    registries = {"router": router.stats.metrics}
    for i, shard in enumerate(router.shards):
        registries[f"shard{i}"] = shard.obs.metrics
    return router, load, registries


def fleet_cell() -> dict:
    router, load, registries = fleet_router()
    load.run()
    return fingerprint(router.requests, registries, router.env._next_id)


def fleet_deadline_cell() -> dict:
    router, load, registries = fleet_router(deadline_us=20_000.0)
    cell = deadline_fingerprint(router, load, registries, mid_run_us=40_000.0)
    assert router.fragment_timeouts > 0 and router.stats.timeouts > 0
    return cell


def crash_cell() -> dict:
    runner = ChaosRunner(
        ChaosSchedule.parse("crash wal=6", seed=5),
        num_rows=600, num_disks=2, page_size=1024, sessions=4,
        ops_per_session=12, mix=OpMix(lookup=0.4, scan=0.1, insert=0.5),
        retry=ClientRetryPolicy(max_attempts=3), seed=5,
    )
    report = runner.run()
    assert report["crashes"] == 1 and report["lost_inserts"] == 0
    server = runner.server
    registries = {"server": server.obs.metrics, "wal": runner.db.wal.obs.metrics}
    cell = fingerprint(server.requests, registries, server.env._next_id)
    cell["report_sha256"] = digest(report)
    return cell


CELLS = {
    "none": lambda: served_cell("none"),
    "page": lambda: served_cell("page"),
    "coarse": lambda: served_cell("coarse"),
    "batch": lambda: served_cell("none", admission_mode="batch"),
    "fleet-2shard": fleet_cell,
    "fleet-deadline": fleet_deadline_cell,
    "serve-deadline": served_deadline_cell,
    "wal-crash": crash_cell,
}


def load_fixture() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)["cells"]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_serving_timeline_matches_golden(name):
    assert CELLS[name]() == load_fixture()[name]


def write_fixture() -> None:
    cells = {name: CELLS[name]() for name in sorted(CELLS)}
    with open(FIXTURE, "w") as handle:
        json.dump({"cells": cells}, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_serve_golden --write")
    write_fixture()
