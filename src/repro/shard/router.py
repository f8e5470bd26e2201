"""Key-range-sharded serving: a router over N independent shard servers.

:class:`ShardRouter` stands in front of N :class:`~repro.serve.DbmsServer`
instances, each owning its own slice of the key universe (a
``key_range``-sliced :class:`~repro.dbms.MiniDbms`), its own buffer pool,
disk array, page reader and admission controller — but all bound to ONE
shared DES :class:`~repro.des.Environment`, so fleet-wide execution stays
a deterministic function of the seed and scatter–gather fragments
genuinely interleave on one clock.

Routing semantics:

* **point lookups** and keyed inserts go to the shard owning the key
  (``plan.shard_for_key``), after ``route_cpu_us`` of router CPU;
* **keyless inserts** round-robin across shards; each shard's
  :class:`~repro.workloads.ops.RangeFreshKeys` allocator mints a key
  provably inside that shard's range;
* **range scans** split into per-shard fragments
  (``plan.fragments``).  A single-fragment scan takes the fast path —
  routed like a lookup, no scatter state.  A cross-shard scan scatters:
  fragments dispatch in shard order, ``fan_out_us`` apart, each with the
  *residual* client deadline (total deadline minus time already burned on
  routing and earlier dispatches), and the gather merges per-fragment row
  counts in shard order.

The router runs the same client/worker accounting protocol as a single
server — its requests end through the same
:meth:`~repro.serve.ServedRequest.settle`, run their workers through the
same :func:`~repro.serve.server.run_within` (inline unless a deadline can
abandon them; a scattered scan's fragments each get a gather process,
since they run in parallel) and time out through the same
:func:`~repro.serve.server.abandon` — and its own
:class:`~repro.serve.ServerStats` satisfies the conservation identity
``issued == completed + shed + failed + in_flight`` at every instant —
and every shard's stats plane does too, so the
fleet-wide aggregate (:meth:`ShardRouter.fleet_stats`, a
:meth:`~repro.serve.ServerStats.merge` across router and shards) is
conserved by construction.  :meth:`check_conservation` asserts all of it
at once, mid-run or at drain.

Deadlines are owned by the router: shard servers are always built with
``deadline_us=None``, so a fragment abandoned by the router (residual
deadline expired) still runs to completion on its shard and lands in the
shard's ``completed`` — exactly the client-abandonment semantics of the
single-server ``timeout`` outcome, lifted one level.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dbms.engine import MiniDbms
from ..des import Environment, WaitTimeout
from ..obs import MetricsRegistry, bind_counters
from ..serve.server import DbmsServer, ServedRequest, abandon, remaining, run_within
from ..serve.stats import ServerStats
from ..workloads.ops import RangeFreshKeys
from .planner import ShardPlan

__all__ = ["ShardRouter", "build_fleet"]


class ShardRouter:
    """Routes client operations across key-range shards on one DES clock."""

    def __init__(
        self,
        shards,
        plan: ShardPlan,
        env: Environment,
        deadline_us: Optional[float] = None,
        route_cpu_us: float = 20.0,
        fan_out_us: float = 25.0,
    ) -> None:
        if len(shards) != plan.shard_count:
            raise ValueError(
                f"plan places {plan.shard_count} shards, got {len(shards)} servers"
            )
        for i, shard in enumerate(shards):
            if shard.env is not env:
                raise ValueError(f"shard {i} is not bound to the fleet environment")
            if shard.deadline_us is not None:
                raise ValueError(
                    f"shard {i} has its own deadline; deadlines are router-owned"
                )
        if route_cpu_us < 0 or fan_out_us < 0:
            raise ValueError("route_cpu_us and fan_out_us must be >= 0")
        self.shards = list(shards)
        self.plan = plan
        self.env = env
        self.deadline_us = deadline_us
        self.route_cpu_us = route_cpu_us
        self.fan_out_us = fan_out_us
        #: Router-plane accounting, independent of every shard's.
        self.stats = ServerStats(MetricsRegistry())
        bind_counters(
            self, self.stats.metrics, "router.",
            (
                "scan_fragments", "single_shard_scans", "cross_shard_scans",
                "fragment_timeouts", "fragment_failures", "rr_inserts",
            ),
        )
        self._next_rid = 0
        self.requests: list[ServedRequest] = []
        #: The full key universe, reassembled from the shards' slices — what
        #: fleet-level load generators draw from.
        self.workload_keys = np.concatenate(
            [shard.db.stored_keys for shard in self.shards]
        )

    # -- request construction / submission (the DbmsServer protocol) ---------

    def make_request(self, op: tuple, session: str = "client") -> ServedRequest:
        request = ServedRequest(rid=self._next_rid, session=session, op=op)
        self._next_rid += 1
        return request

    def submit(self, request: ServedRequest):
        """Issue a request; returns the client-side process event.

        Same contract as :meth:`~repro.serve.DbmsServer.submit`: the event
        fires when the *client* is done — completion, shed, failure, or
        router deadline expiry.  The router worker keeps running past a
        client timeout and lands the op in a terminal outcome, so the
        router's conservation identity holds at drain.
        """
        request.issued_at = self.env.now
        self.stats.issue()
        self.requests.append(request)
        return self.env.process(self._client(request))

    def _client(self, request: ServedRequest):
        detail = f"routed request {request.rid}"
        if not (yield from run_within(self.env, self._route(request), self.deadline_us, detail)):
            abandon(request, self.stats)
        return request

    def _route(self, request: ServedRequest):
        """Router worker: burn routing CPU, then dispatch by op kind."""
        yield self.env.timeout(self.route_cpu_us)
        kind = request.op[0]
        if kind == "lookup":
            target = self.plan.shard_for_key(request.op[1])
            yield from self._forward(request, target)
        elif kind == "insert":
            if request.op[1] is None:
                target = self.rr_inserts % len(self.shards)
                self.rr_inserts += 1
            else:
                target = self.plan.shard_for_key(request.op[1])
            yield from self._forward(request, target)
        elif kind == "scan":
            yield from self._scatter_gather(request)
        else:
            error = ValueError(f"unknown op kind {kind!r}")
            request.settle(self.stats, self.env.now, "failed", error)
        return request

    def _forward(self, request: ServedRequest, target: int):
        """Single-shard path: forward the op, mirror the shard's outcome.

        The shard does its own full accounting (issue, admission, terminal
        outcome); the router runs the shard-side *client* through
        :func:`~repro.serve.server.run_within` — inline, or as a process
        bounded by the residual deadline — and mirrors the outcome into
        its own plane.  An abandoned forward (residual expired) leaves the
        shard still working; the router op fails at the deadline and the
        shard op completes on its own clock.
        """
        shard = self.shards[target]
        sub = shard.make_request(request.op, session=f"{request.session}@r{request.rid}")
        work = shard.issue(sub)
        residual = remaining(self.env, request, self.deadline_us)
        detail = f"forward {request.rid} to shard {target}"
        if not (yield from run_within(self.env, work, residual, detail)):
            self.fragment_timeouts += 1
            error = WaitTimeout(residual, f"shard {target} missed the residual deadline")
            request.settle(self.stats, self.env.now, "failed", error)
            return request
        request.op = sub.op  # materialized insert keys propagate back
        # A shard owns no deadline, so its client returns only once the
        # sub-request has settled: its outcome is terminal.
        request.settle(self.stats, self.env.now, sub.outcome, sub.error, sub.rows)
        return request

    def _scatter_gather(self, request: ServedRequest):
        """Cross-shard scan: scatter per-shard fragments, gather in order."""
        start_key, end_key = request.op[1], request.op[2]
        fragments = self.plan.fragments(start_key, end_key)
        self.scan_fragments += len(fragments)
        if len(fragments) == 1:
            # Fast path: the scan lives entirely on one shard — no scatter
            # state, no fan-out cost, just a routed forward.
            self.single_shard_scans += 1
            yield from self._forward(request, fragments[0][0])
            return request
        self.cross_shard_scans += 1
        results: dict[int, int] = {}
        outcomes: dict[int, str] = {}
        waiters = []
        for index, (shard_id, frag_start, frag_end) in enumerate(fragments):
            if index > 0:
                # Fan-out is sequential router work: each extra fragment
                # costs dispatch time, which (with route_cpu_us) is what
                # makes residual deadlines genuinely shrink per fragment.
                yield self.env.timeout(self.fan_out_us)
            shard = self.shards[shard_id]
            sub = shard.make_request(
                ("scan", frag_start, frag_end),
                session=f"{request.session}@r{request.rid}.f{index}",
            )
            # Fragments run in parallel, so each gets a gather process.
            waiters.append(
                self.env.process(
                    self._gather_fragment(
                        request, shard_id, sub, shard.issue(sub), results, outcomes
                    )
                )
            )
        yield self.env.all_of(waiters)
        # Ordered merge: per-fragment row counts combine in shard order, so
        # the merged result is deterministic and reassembles the key order
        # a single-shard scan would have produced.
        rows = sum(results[shard_id] for shard_id in sorted(results))
        failed = [shard_id for shard_id in sorted(outcomes) if outcomes[shard_id] != "ok"]
        # A partial failure fails the op, but the fragments that did complete
        # stay in request.rows and in their shards' stats (nothing is lost or
        # double-counted in the conservation planes).
        if not failed:
            request.settle(self.stats, self.env.now, "ok", rows=rows)
        elif any(outcomes[s] == "timeout" for s in failed):
            error = WaitTimeout(
                self.deadline_us, f"scan fragments on shards {failed} did not complete in time"
            )
            request.settle(self.stats, self.env.now, "failed", error, rows)
        else:
            error = RuntimeError(f"scan fragments on shards {failed} failed")
            request.settle(self.stats, self.env.now, "failed", error, rows)
        return request

    def _gather_fragment(self, request, shard_id, sub, work, results, outcomes):
        """Run one fragment's shard client ``work`` under the residual deadline."""
        residual = remaining(self.env, request, self.deadline_us)
        detail = f"fragment of request {request.rid} on shard {shard_id}"
        if not (yield from run_within(self.env, work, residual, detail)):
            # Abandon the fragment: the shard still finishes it server-side
            # (and counts it completed); the gather records a timeout.
            self.fragment_timeouts += 1
            outcomes[shard_id] = "timeout"
            results[shard_id] = 0
            return
        if sub.outcome == "ok":
            outcomes[shard_id] = "ok"
            results[shard_id] = sub.rows
        else:
            self.fragment_failures += 1
            outcomes[shard_id] = sub.outcome
            results[shard_id] = 0

    # -- fleet-wide accounting ----------------------------------------------

    def fleet_stats(self) -> ServerStats:
        """Aggregate stats: router plane + every shard plane, merged."""
        return self.stats.merge(*[shard.stats for shard in self.shards])

    def check_conservation(self) -> None:
        """Assert every plane's conservation identity, and the merged one."""
        assert self.stats.conserved(), "router conservation identity violated"
        for i, shard in enumerate(self.shards):
            assert shard.stats.conserved(), f"shard {i} conservation identity violated"
        assert self.fleet_stats().conserved(), "fleet conservation identity violated"

    def run(self, until=None):
        """Advance the shared fleet clock (thin wrapper over ``env.run``)."""
        return self.env.run(until=until)


def build_fleet(
    num_rows: int,
    plan: ShardPlan,
    num_disks: int = 8,
    page_size: int = 4096,
    db_seed: int = 7,
    max_concurrency: int = 16,
    queue_depth: int = 48,
    pool_frames: int = 64,
    page_process_us: float = 150.0,
    admission_mode: str = "fifo",
    batch_window_us: float = 2_000.0,
    batch_max: int = 16,
    deadline_us: Optional[float] = None,
    route_cpu_us: float = 20.0,
    fan_out_us: float = 25.0,
    seed: int = 0,
) -> ShardRouter:
    """Stand up a complete fleet: one environment, N shards, one router.

    Every shard gets the *same* per-shard hardware (disk count, pool
    frames, admission tokens), so comparing fleets of different sizes
    measures scaling, not provisioning.  Each shard's database stores only
    its key-range slice (row payloads identical to the unsharded
    database's), bulkloads its index from it, and mints insert keys
    through a range-constrained allocator.
    """
    env = Environment()
    shards = []
    for shard_id, (lo, hi) in enumerate(plan.key_ranges()):
        db = MiniDbms(
            num_rows=num_rows,
            num_disks=num_disks,
            page_size=page_size,
            seed=db_seed,
            mature=False,
            key_range=(lo, hi),
        )
        fresh = RangeFreshKeys(db.stored_keys, lo, hi)
        shards.append(
            DbmsServer(
                db,
                max_concurrency=max_concurrency,
                queue_depth=queue_depth,
                pool_frames=pool_frames,
                page_process_us=page_process_us,
                deadline_us=None,
                admission_mode=admission_mode,
                batch_window_us=batch_window_us,
                batch_max=batch_max,
                seed=seed + shard_id,
                env=env,
                fresh_keys=fresh,
            )
        )
    return ShardRouter(
        shards,
        plan,
        env,
        deadline_us=deadline_us,
        route_cpu_us=route_cpu_us,
        fan_out_us=fan_out_us,
    )
