"""Tests for the shard router: routing, scatter–gather, conservation."""

import numpy as np
import pytest

from repro.core import optimize_disk_first
from repro.dbms.engine import MiniDbms
from repro.des import WaitTimeout
from repro.serve import DbmsServer, OpenLoopLoadGenerator
from repro.shard import BoundaryPlanner, ShardRouter, build_fleet
from repro.workloads import KeyWorkload, OpMix

NUM_ROWS = 1_200


def make_fleet(shard_count=4, num_rows=NUM_ROWS, placement="equal_width", **kwargs):
    universe = KeyWorkload(num_rows, seed=7)
    planner = BoundaryPlanner(universe.keys, shard_count)
    if placement == "equal_width":
        plan = planner.equal_width()
    else:
        from repro.workloads import sample_ops

        sample = sample_ops(universe.keys.size, OpMix(), distribution="zipf", seed=3)
        plan = planner.optimized(sample)
    kwargs.setdefault("num_disks", 4)
    router = build_fleet(num_rows, plan, **kwargs)
    return router, plan, universe


def test_a_fleet_runs_one_layout_search():
    """Every shard's index has the same page shape, so one search serves all."""
    optimize_disk_first.cache_clear()
    router, __, __ = make_fleet(shard_count=4)
    assert len(router.shards) == 4
    assert optimize_disk_first.cache_info().misses == 1
    widths = {id(shard.db.index.layout.widths) for shard in router.shards}
    assert len(widths) == 1


def unsharded_server(num_rows=NUM_ROWS):
    db = MiniDbms(num_rows=num_rows, num_disks=4, page_size=4096, seed=7, mature=False)
    return DbmsServer(db, seed=0)


def run_ops(target, ops):
    """Submit ops against a router or server, drain, return the requests."""
    requests = [target.make_request(op) for op in ops]
    for request in requests:
        target.submit(request)
    target.run()
    return requests


# -- construction and the sliced databases ----------------------------------


def test_fleet_reassembles_the_full_key_universe():
    router, plan, universe = make_fleet()
    assert np.array_equal(router.workload_keys, universe.keys)
    for shard, (lo, hi) in zip(router.shards, plan.key_ranges()):
        keys = shard.db.stored_keys
        assert keys.size > 0
        if lo is not None:
            assert keys[0] >= lo
        if hi is not None:
            assert keys[-1] < hi


def test_sliced_database_rejects_mature_and_empty_ranges():
    with pytest.raises(ValueError, match="mature"):
        MiniDbms(num_rows=200, mature=True, key_range=(None, 100))
    with pytest.raises(ValueError, match="no stored keys"):
        MiniDbms(num_rows=200, mature=False, key_range=(0, 5))


def test_shard_rows_match_the_unsharded_database():
    # Row payloads are a pure function of the key, so a shard stores
    # byte-identical rows to the unsharded database for its key range.
    whole = MiniDbms(num_rows=300, num_disks=4, page_size=4096, seed=7, mature=False)
    universe = KeyWorkload(300, seed=7)
    cut = int(universe.keys[150])
    part = MiniDbms(
        num_rows=300, num_disks=4, page_size=4096, seed=7, mature=False,
        key_range=(cut, None),
    )
    whole_rows = {k1: (k1, k2, k3) for __, k1, k2, k3 in whole.table.rows()}
    part_rows = list(part.table.rows())
    assert part_rows  # the slice is non-empty
    for __, k1, k2, k3 in part_rows:
        assert (k1, k2, k3) == whole_rows[k1]
        assert k1 >= cut


def test_router_validates_its_shards():
    router, plan, __ = make_fleet(shard_count=4)
    with pytest.raises(ValueError, match="4 shards"):
        ShardRouter(router.shards[:2], plan, router.env)
    foreign = unsharded_server()
    two = BoundaryPlanner(KeyWorkload(NUM_ROWS, seed=7).keys, 1).equal_width()
    with pytest.raises(ValueError, match="not bound"):
        ShardRouter([foreign], two, router.env)


def test_shard_attached_server_cannot_rebuild_substrate():
    router, __, __ = make_fleet(shard_count=2)
    with pytest.raises(RuntimeError, match="shares the fleet's DES clock"):
        router.shards[0].rebuild_substrate()


# -- point routing ----------------------------------------------------------


def test_lookups_route_to_the_owning_shard():
    router, plan, universe = make_fleet()
    probe_keys = [int(universe.keys[i]) for i in (0, 211, 600, 977, -1)]
    requests = run_ops(router, [("lookup", key) for key in probe_keys])
    for request, key in zip(requests, probe_keys):
        # Only the owning shard stores the key: a hit proves the route.
        assert request.outcome == "ok" and request.rows == 1, (key, request)
    for shard_id, shard in enumerate(router.shards):
        expected = sum(1 for key in probe_keys if plan.shard_for_key(key) == shard_id)
        assert shard.stats.issued == expected
    router.check_conservation()


def test_missing_key_lookup_completes_with_zero_rows():
    router, __, universe = make_fleet()
    absent = int(universe.keys[0]) - 1
    (request,) = run_ops(router, [("lookup", absent)])
    assert request.outcome == "ok" and request.rows == 0


def test_keyless_inserts_round_robin_and_stay_in_range():
    router, plan, __ = make_fleet(shard_count=4)
    requests = run_ops(router, [("insert", None)] * 8)
    assert router.rr_inserts == 8
    for request in requests:
        assert request.outcome == "ok"
        assert request.op[1] is not None  # materialized key propagated back
    for shard_id, shard in enumerate(router.shards):
        assert shard.stats.issued == 2  # 8 inserts round-robin over 4 shards
        lo, hi = plan.key_ranges()[shard_id]
        for key in shard.fresh_keys.minted:
            assert plan.shard_for_key(key) == shard_id
            assert (lo is None or key >= lo) and (hi is None or key < hi)


def test_routed_inserts_never_land_on_the_wrong_shard():
    # The regression the range allocator exists for: run a whole mixed
    # workload, then audit every minted key against the plan.
    router, plan, __ = make_fleet(shard_count=4, placement="optimized")
    generator = OpenLoopLoadGenerator(
        router, rate_ops_s=600, duration_s=0.4,
        mix=OpMix(lookup=0.2, scan=0.1, insert=0.7), seed=5,
    )
    generator.run()
    router.check_conservation()
    minted_total = 0
    for shard_id, shard in enumerate(router.shards):
        for key in shard.fresh_keys.minted:
            assert plan.shard_for_key(key) == shard_id, (key, shard_id)
        minted_total += len(shard.fresh_keys.minted)
    assert minted_total > 0


# -- scatter–gather ---------------------------------------------------------


def test_single_shard_scan_takes_the_fast_path():
    router, plan, universe = make_fleet()
    lo, hi = plan.cut_positions[0], plan.cut_positions[1]
    start = int(universe.keys[lo + 2])
    end = int(universe.keys[hi - 2])  # strictly inside shard 1
    (request,) = run_ops(router, [("scan", start, end)])
    assert request.outcome == "ok"
    assert router.scan_fragments == 1
    assert router.single_shard_scans == 1
    assert router.cross_shard_scans == 0


def test_scan_straddling_three_boundaries_fragments_once_per_shard():
    router, plan, universe = make_fleet(shard_count=4)
    start = int(universe.keys[5])
    end = int(universe.keys[-5])  # covers all four shards
    (request,) = run_ops(router, [("scan", start, end)])
    assert request.outcome == "ok"
    assert router.scan_fragments == 4
    assert router.cross_shard_scans == 1 and router.single_shard_scans == 0
    # Every shard executed exactly its fragment.
    assert [shard.stats.issued for shard in router.shards] == [1, 1, 1, 1]
    router.check_conservation()


def test_cross_shard_scan_counts_match_the_unsharded_scan():
    universe = KeyWorkload(NUM_ROWS, seed=7)
    spans = [
        (int(universe.keys[5]), int(universe.keys[400])),    # 2 shards
        (int(universe.keys[5]), int(universe.keys[-5])),     # 4 shards
        (int(universe.keys[700]), int(universe.keys[750])),  # in-shard
    ]
    ops = [("scan", a, b) for a, b in spans]
    router, __, __ = make_fleet(shard_count=4, page_size=4096)
    sharded = run_ops(router, ops)
    plain = run_ops(unsharded_server(), ops)
    for fleet_req, plain_req in zip(sharded, plain):
        assert fleet_req.outcome == plain_req.outcome == "ok"
        # The ordered merge reassembles exactly the rows one server returns.
        assert fleet_req.rows == plain_req.rows > 0


def test_fragment_timeout_propagates_the_residual_deadline():
    # Routing burns route_cpu_us and each extra fragment fan_out_us, so a
    # fragment dispatched at elapsed e gets budget D - e and every
    # fragment's timeout lands at exactly issue + D.
    router, __, universe = make_fleet(
        shard_count=4, deadline_us=300.0, route_cpu_us=20.0, fan_out_us=25.0
    )
    start, end = int(universe.keys[5]), int(universe.keys[-5])
    (request,) = run_ops(router, [("scan", start, end)])
    assert request.outcome == "failed"
    assert request.finished_at - request.issued_at == pytest.approx(300.0)
    assert router.fragment_timeouts == 4  # no fragment finishes in 300 us
    # The abandoned fragments still completed server-side on their shards.
    assert sum(shard.stats.completed for shard in router.shards) == 4
    router.check_conservation()
    assert router.stats.failed == 1 and router.stats.in_flight.value == 0


def test_forwarded_lookup_times_out_at_the_residual_deadline():
    router, __, universe = make_fleet(shard_count=2, deadline_us=100.0)
    (request,) = run_ops(router, [("lookup", int(universe.keys[10]))])
    assert request.outcome == "failed"
    assert request.finished_at - request.issued_at == pytest.approx(100.0)
    assert isinstance(request.error, WaitTimeout)
    assert router.fragment_timeouts == 1
    router.check_conservation()
    assert router.stats.failed == 1 and router.stats.in_flight.value == 0


def test_partial_fragment_failure_fails_the_scan_but_keeps_accounting():
    # Saturate one shard's admission queue so its fragment sheds while the
    # others complete: the scan fails, nothing is lost or double-counted.
    router, plan, universe = make_fleet(
        shard_count=2, max_concurrency=1, queue_depth=1
    )
    hot = [
        ("lookup", int(universe.keys[5])),
        ("lookup", int(universe.keys[6])),
        ("lookup", int(universe.keys[7])),
        ("lookup", int(universe.keys[8])),
    ]  # all land on shard 0: fill its token + queue, force sheds
    scan = ("scan", int(universe.keys[5]), int(universe.keys[-5]))
    requests = run_ops(router, hot + [scan])
    scan_req = requests[-1]
    sheds = sum(1 for r in requests if r.outcome == "shed")
    assert sheds > 0  # the overload really happened
    # Mirrored shard errors are stored without a traceback (no
    # request -> error -> traceback -> frame -> request cycle).
    for request in requests:
        if request.outcome in ("shed", "failed"):
            assert request.error.__traceback__ is None
    if scan_req.outcome == "failed":
        assert router.fragment_failures > 0
    router.check_conservation()
    fleet = router.fleet_stats()
    assert fleet.conserved() and fleet.in_flight.value == 0


# -- a worker is a process of its own only when a deadline can abandon it ----


@pytest.mark.parametrize(
    "op, processes",
    [
        (lambda keys, cuts: ("lookup", int(keys[600])), 1),
        (lambda keys, cuts: ("insert", None), 1),
        (lambda keys, cuts: ("scan", int(keys[cuts[0] + 2]), int(keys[cuts[1] - 2])), 1),
        (lambda keys, cuts: ("scan", int(keys[5]), int(keys[400])), 1 + 2),
        (lambda keys, cuts: ("scan", int(keys[5]), int(keys[-5])), 1 + 4),
    ],
    ids=["lookup", "insert", "scan-1-fragment", "scan-2-fragments", "scan-4-fragments"],
)
def test_undeadlined_router_starts_one_process_per_op_and_one_per_fragment(op, processes):
    router, plan, universe = make_fleet(shard_count=4)
    started = []
    router.env.observer = lambda kind, event: (
        started.append(event) if kind == "process" else None
    )
    (request,) = run_ops(router, [op(universe.keys, plan.cut_positions)])
    assert request.outcome == "ok"
    ios = sum(s.disks.total_reads + s.disks.total_writes for s in router.shards)
    assert ios > 0  # the op really went to disk
    spindles = sum(disk.spindle is not None for s in router.shards for disk in s.disks.disks)
    # The router client, with route, forward and the shard's client and
    # execute inline; one gather per fragment of a scattered scan; one
    # spindle per disk that served a command.
    assert len(started) == processes + spindles
    router.check_conservation()


def test_shard_shed_through_an_undeadlined_router_settles_shed():
    router, __, universe = make_fleet(shard_count=2, max_concurrency=1, queue_depth=0)
    # Both lookups land on shard 0, which holds one token and no queue.
    requests = run_ops(router, [("lookup", int(universe.keys[i])) for i in (5, 6)])
    assert [r.outcome for r in requests] == ["ok", "shed"]
    shard = router.shards[0]
    assert shard.stats.shed == 1 and shard.admission.shed == 1
    assert router.stats.shed == 1
    router.check_conservation()
    assert router.fleet_stats().in_flight.value == 0


# -- fleet-wide accounting and determinism ----------------------------------


def test_fleet_conservation_holds_mid_run_with_requests_in_flight():
    router, __, __ = make_fleet(shard_count=4)
    generator = OpenLoopLoadGenerator(
        router, rate_ops_s=1500, duration_s=0.4, mix=OpMix(), seed=5,
    )
    generator.start()
    router.run(until=200_000.0)  # freeze mid-traffic
    router.check_conservation()
    assert router.fleet_stats().in_flight.value > 0
    router.run()  # drain
    router.check_conservation()
    fleet = router.fleet_stats()
    assert fleet.in_flight.value == 0
    assert fleet.issued == router.stats.issued + sum(
        s.stats.issued for s in router.shards
    )


def test_batch_admission_mode_passes_through_to_shards():
    router, __, __ = make_fleet(shard_count=2, admission_mode="batch")
    generator = OpenLoopLoadGenerator(
        router, rate_ops_s=1200, duration_s=0.3,
        mix=OpMix(lookup=1.0, scan=0.0, insert=0.0), seed=5,
    )
    generator.run()
    router.check_conservation()
    assert sum(shard.stats.batches for shard in router.shards) > 0
    assert sum(shard.stats.batched_ops for shard in router.shards) > 0


def test_same_seed_fleets_are_byte_identical():
    def one_run():
        router, __, __ = make_fleet(shard_count=4, placement="optimized")
        generator = OpenLoopLoadGenerator(
            router, rate_ops_s=900, duration_s=0.3, mix=OpMix(), seed=5,
            distribution="zipf",
        )
        generator.run()
        return (
            router.fleet_stats().snapshot(),
            router.scan_fragments,
            router.cross_shard_scans,
            [shard.fresh_keys.minted for shard in router.shards],
        )

    assert one_run() == one_run()
