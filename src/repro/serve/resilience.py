"""Client-side resilience and chaos harness for the serving layer.

This module is what turns the fair-weather :class:`~repro.serve.DbmsServer`
into a system that survives production weather.  Four pieces, all seeded
and DES-deterministic:

* :class:`ClientRetryPolicy` — per-session retries of failed / shed /
  timed-out operations, with exponential backoff, seeded jitter and a
  retry *budget* so a dying backend cannot be retried into the ground.
* :class:`CircuitBreaker` — one per server, shared by its sessions.  A
  sliding window of outcomes trips it open on a failure-rate breach (or a
  server crash); while open every op fast-fails client-side without
  touching the server; after a cooldown it half-opens, probes, and closes
  on consecutive successes.  State transitions are recorded in
  :class:`~repro.serve.stats.ServerStats`.
* :class:`BrownoutController` — the SLO monitor driving a four-rung
  degradation ladder over the server's knobs.  It samples windows of
  outcomes (via the stats listener hook) on a fixed interval; a p99 or
  failure-rate breach steps the ladder down, sustained health steps it
  back up:

      level 1: shrink scan prefetch depth + cap outstanding prefetches
      level 2: truncate scans to ``max_scan_pages`` (partial results)
      level 3: reject background inserts at submission
      level 4: shrink the admission token pool

* :class:`ChaosRunner` — the crash-under-load harness: closed-loop
  sessions with all of the above run against a server wired to a
  :class:`~repro.faults.ChaosSchedule`.  A :class:`SimulatedCrash` firing
  mid-traffic propagates out of the simulation; the runner drains every
  in-flight request as failed (conservation-safe), runs WAL recovery,
  rebuilds the serving substrate on a monotonic clock, and resumes the
  remaining workload.  Afterwards it verifies that no client-acknowledged
  insert was lost and that the recovered tree passes the scrubber.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..btree.base import IndexCorruptionError
from ..dbms.engine import MiniDbms
from ..des import AllOf
from ..faults.errors import SimulatedCrash
from ..faults.schedule import ChaosSchedule
from ..scrub import scrub_tree
from ..verify.linearizability import HistoryRecorder
from ..storage.prefetch import BackoffPolicy, RetryPolicy
from ..workloads.ops import MixedOpStream, OpMix
from .server import DbmsServer
from .stats import ServerStats

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "BrownoutConfig",
    "BrownoutController",
    "ChaosRunner",
    "CircuitBreaker",
    "ClientRetryPolicy",
]


# -- client retry policy ------------------------------------------------------


@dataclass(frozen=True)
class ClientRetryPolicy(BackoffPolicy):
    """Session-level retries of failed/shed/timed-out operations.

    Distinct from the storage layer's :class:`~repro.storage.prefetch.RetryPolicy`
    (which retries individual page reads): this one re-submits whole
    operations, with the same backoff rule but a longer default base and
    cap.  ``retry_budget`` bounds the *total* retries one session may spend
    across its lifetime — a blunt token bucket that stops retry storms
    against a dying backend.
    """

    backoff_base_us: float = 2_000.0
    backoff_cap_us: float = 100_000.0
    retry_budget: Optional[int] = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")


# -- circuit breaker ----------------------------------------------------------


class BreakerState:
    """The three breaker states and their metric gauge codes."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"
    CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """When the breaker trips, how long it sheds, and how it re-closes."""

    window: int = 16
    min_samples: int = 8
    failure_threshold: float = 0.5
    cooldown_us: float = 20_000.0
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must be in [1, window]")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(f"failure_threshold must be in (0, 1], got {self.failure_threshold}")
        if self.cooldown_us <= 0:
            raise ValueError(f"cooldown_us must be positive, got {self.cooldown_us}")
        if self.half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, got {self.half_open_probes}")


class CircuitBreaker:
    """Per-server failure-rate breaker: closed -> open -> half-open -> closed.

    ``clock`` is a zero-argument callable returning the current time — pass
    ``lambda: server.env.now`` so the breaker follows the DES clock even
    across a crash-rebuild (the rebuilt clock is monotonic).  All
    transitions are appended to :attr:`transitions` as
    ``(time_us, from_state, to_state)`` and mirrored into ``stats``.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock: Callable[[], float] = None,
        stats: Optional[ServerStats] = None,
    ) -> None:
        if clock is None:
            raise ValueError("CircuitBreaker needs a clock callable (e.g. lambda: env.now)")
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self.stats = stats
        self.state = BreakerState.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        self._open_until = 0.0
        self._probe_successes = 0
        self.transitions: list[tuple[float, str, str]] = []

    def _transition(self, to: str) -> None:
        self.transitions.append((self._clock(), self.state, to))
        self.state = to
        if self.stats is not None:
            self.stats.breaker_transitions += 1
            self.stats.breaker_state.set(BreakerState.CODES[to])

    # -- the client-facing gate -------------------------------------------

    def allow(self) -> bool:
        """May the client issue an op right now?

        While open: false until the cooldown expires, at which point the
        breaker half-opens and lets probes through.
        """
        if self.state == BreakerState.OPEN:
            if self._clock() < self._open_until:
                return False
            self._probe_successes = 0
            self._transition(BreakerState.HALF_OPEN)
        return True

    def record_success(self) -> None:
        self._outcomes.append(True)
        if self.state == BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.config.half_open_probes:
                self._outcomes.clear()
                self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._outcomes.append(False)
        if self.state == BreakerState.HALF_OPEN:
            self.trip()  # a failed probe re-opens for a fresh cooldown
            return
        if self.state != BreakerState.CLOSED:
            return
        if len(self._outcomes) < self.config.min_samples:
            return
        failures = sum(1 for ok in self._outcomes if not ok)
        if failures / len(self._outcomes) >= self.config.failure_threshold:
            self.trip()

    def trip(self) -> None:
        """Force the breaker open (failure-rate breach, or a server crash)."""
        self._open_until = self._clock() + self.config.cooldown_us
        if self.state != BreakerState.OPEN:
            self._transition(BreakerState.OPEN)

    def retry_after_us(self) -> float:
        """How long until the breaker could admit an op again.

        Retry-after hint for clients: backing off at least this long keeps
        a retry from being burned on a guaranteed fast-fail.
        """
        if self.state != BreakerState.OPEN:
            return 0.0
        return max(0.0, self._open_until - self._clock())


# -- brownout / graceful degradation ------------------------------------------


@dataclass(frozen=True)
class BrownoutConfig:
    """SLO thresholds and ladder knobs for the brownout controller."""

    interval_us: float = 25_000.0
    p99_slo_us: float = 40_000.0
    failure_rate_slo: float = 0.15
    min_window: int = 6
    recover_intervals: int = 2
    degraded_prefetch_depth: int = 1
    prefetch_cap: int = 2
    max_scan_pages: int = 4
    token_shrink: float = 0.5

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError(f"interval_us must be positive, got {self.interval_us}")
        if self.p99_slo_us <= 0:
            raise ValueError(f"p99_slo_us must be positive, got {self.p99_slo_us}")
        if not 0.0 < self.failure_rate_slo <= 1.0:
            raise ValueError(f"failure_rate_slo must be in (0, 1], got {self.failure_rate_slo}")
        if self.min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {self.min_window}")
        if self.recover_intervals < 1:
            raise ValueError(f"recover_intervals must be >= 1, got {self.recover_intervals}")
        if not 0.0 < self.token_shrink <= 1.0:
            raise ValueError(f"token_shrink must be in (0, 1], got {self.token_shrink}")


class BrownoutController:
    """Steps the server's degradation ladder on SLO breaches.

    Registers as a :class:`ServerStats` outcome listener and evaluates a
    window every ``interval_us``: a breach (window p99 over the SLO, or
    failure rate over its threshold) steps the ladder **down** one rung; a
    ``recover_intervals``-long streak of healthy windows steps back **up**.
    Knob changes are idempotent re-applications of the current level, so
    :meth:`attach` after a crash-rebuild restores the degraded state on the
    fresh substrate.
    """

    LADDER_DEPTH = 4

    def __init__(self, server: DbmsServer, config: Optional[BrownoutConfig] = None) -> None:
        self.server = server
        self.config = config if config is not None else BrownoutConfig()
        self.level = 0
        self.max_level = 0
        #: Every ladder move: ``(time_us, new_level)``.
        self.history: list[tuple[float, int]] = []
        self._window_latencies: list[float] = []
        self._window_failures = 0
        self._healthy_streak = 0
        self._stopped = False
        server.stats.listeners.append(self._observe)

    # -- sampling ----------------------------------------------------------

    def _observe(self, kind: str, latency_us: Optional[float], ok: bool) -> None:
        if ok:
            self._window_latencies.append(latency_us)
        else:
            self._window_failures += 1

    def attach(self):
        """Spawn the evaluation ticker on the server's (current) env.

        Call once per substrate — again after a crash-rebuild.  Re-applies
        the current ladder level to the fresh substrate first.
        """
        self._stopped = False
        self._apply()
        return self.server.env.process(self._ticker())

    def stop(self) -> None:
        """Let the ticker exit at its next tick so the simulation can drain."""
        self._stopped = True

    def _ticker(self):
        env = self.server.env
        while not self._stopped:
            yield env.timeout(self.config.interval_us)
            if self._stopped:
                return
            self.evaluate_window()

    # -- the ladder --------------------------------------------------------

    def evaluate_window(self) -> None:
        """Score the window since the last tick and move the ladder."""
        latencies = self._window_latencies
        failures = self._window_failures
        self._window_latencies = []
        self._window_failures = 0
        total = len(latencies) + failures
        breach = False
        if total >= self.config.min_window:
            failure_rate = failures / total
            p99 = 0.0
            if latencies:
                ordered = sorted(latencies)
                rank = max(int(len(ordered) * 0.99 + 0.999999) - 1, 0)
                p99 = ordered[min(rank, len(ordered) - 1)]
            breach = failure_rate > self.config.failure_rate_slo or p99 > self.config.p99_slo_us
        if breach:
            self._healthy_streak = 0
            if self.level < self.LADDER_DEPTH:
                self._set_level(self.level + 1)
            return
        self._healthy_streak += 1
        if self.level > 0 and self._healthy_streak >= self.config.recover_intervals:
            self._healthy_streak = 0
            self._set_level(self.level - 1)

    def _set_level(self, level: int) -> None:
        down = level > self.level
        self.level = level
        self.max_level = max(self.max_level, level)
        self.history.append((self.server.env.now, level))
        stats = self.server.stats
        if down:
            stats.brownout_steps_down += 1
        else:
            stats.brownout_steps_up += 1
        stats.brownout_level.set(level)
        self._apply()

    def _apply(self) -> None:
        """Project the current level onto the server's knobs (idempotent)."""
        server = self.server
        config = self.config
        if self.level >= 1:
            server.scan_prefetch_depth = min(
                config.degraded_prefetch_depth, server.base_scan_prefetch_depth
            )
            server.reader.max_outstanding_prefetches = config.prefetch_cap
        else:
            server.scan_prefetch_depth = server.base_scan_prefetch_depth
            server.reader.max_outstanding_prefetches = None
        server.max_scan_pages = config.max_scan_pages if self.level >= 2 else None
        server.reject_inserts = self.level >= 3
        base = server.admission.base_concurrency
        target = max(1, int(base * config.token_shrink)) if self.level >= 4 else base
        if server.admission.max_concurrency != target:
            server.admission.resize(target)


# -- the chaos harness --------------------------------------------------------


@dataclass
class SessionState:
    """One closed-loop chaos session's workload and client-side ledger."""

    ops: list
    index: int = 0
    ok: int = 0
    gave_up: int = 0
    retries: int = 0
    fast_fails: int = 0

    @property
    def done(self) -> bool:
        return self.index >= len(self.ops)


#: The chaos substrate's storage-level read retries: dead and limping
#: spindles are survivable because reads retry across mirror replicas with
#: a per-attempt deadline.
STORAGE_POLICY = RetryPolicy(max_attempts=3, timeout_us=40_000.0)

#: WAL commits between checkpoints on the chaos substrate.
CHECKPOINT_INTERVAL = 4


class ChaosRunner:
    """Closed-loop serving under a chaos schedule, surviving a mid-run crash.

    Builds a WAL-backed :class:`MiniDbms` plus a :class:`DbmsServer` wired
    to the schedule's fault plan (mirrored striping, storage-level read
    retries), then runs ``sessions`` closed-loop clients with the
    configured client-side resilience.  When the schedule's crash point
    fires, the runner handles the whole crash-recover-resume life cycle
    and keeps going until every session finishes its workload.

    Everything is a pure function of the constructor arguments: two runs
    with the same arguments produce byte-identical :meth:`run` reports.
    """

    def __init__(
        self,
        schedule: ChaosSchedule,
        num_rows: int = 4_000,
        num_disks: int = 4,
        page_size: int = 4096,
        sessions: int = 6,
        ops_per_session: int = 30,
        think_time_us: float = 1_500.0,
        mix: Optional[OpMix] = None,
        retry: Optional[ClientRetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        brownout: Optional[BrownoutConfig] = None,
        max_concurrency: int = 8,
        queue_depth: int = 32,
        pool_frames: int = 48,
        deadline_us: Optional[float] = None,
        seed: int = 11,
        concurrency: str = "none",
        record_history: bool = False,
    ) -> None:
        self.schedule = schedule
        self.plan = schedule.to_fault_plan()
        self.mix = mix if mix is not None else OpMix()
        self.retry = retry
        self.think_time_us = think_time_us
        self.seed = seed
        self.db = MiniDbms(
            num_rows=num_rows, num_disks=num_disks, page_size=page_size,
            seed=seed, mature=False,
        )
        self.db.enable_wal(self.plan, checkpoint_interval=CHECKPOINT_INTERVAL)
        self.server = DbmsServer(
            self.db,
            max_concurrency=max_concurrency,
            queue_depth=queue_depth,
            pool_frames=pool_frames,
            deadline_us=deadline_us,
            policy=STORAGE_POLICY,
            fault_plan=self.plan,
            mirrored=num_disks >= 2,
            seed=seed,
            concurrency=concurrency,
        )
        #: Linearizability history (``record_history=True``): the clock
        #: chases the live environment, so the recorder spans crash
        #: rebuilds; ops killed by the crash stay pending, which is the
        #: checker's ambiguous-effect completion rule.
        self.history: Optional[HistoryRecorder] = None
        if record_history:
            self.history = HistoryRecorder(clock=lambda: self.server.env.now)
            # The workload's keys are sorted: one int64 copy serves the
            # recorder, every history snapshot and the checker's model.
            self.history.initial_keys = self.db._workload.keys.astype(np.int64)
            self.server.attach_history(self.history)
        self.breaker = (
            CircuitBreaker(breaker, clock=lambda: self.server.env.now, stats=self.server.stats)
            if breaker is not None
            else None
        )
        self.brownout = BrownoutController(self.server, brownout) if brownout is not None else None
        # Materialize each session's op list up front: the *remaining*
        # workload must survive a crash, so it cannot live inside a killed
        # generator.
        self.states = []
        for sid in range(sessions):
            stream = MixedOpStream(
                self.db._workload.keys, self.mix, seed=(seed << 8) + sid
            )
            self.states.append(
                SessionState(ops=[stream.next_op() for __ in range(ops_per_session)])
            )
        self.committed_keys: list[int] = []
        self.crash_log: list[dict] = []

    # -- one client session ------------------------------------------------

    def _should_retry(self, state: SessionState, attempt: int) -> bool:
        policy = self.retry
        if policy is None:
            return False
        if attempt + 1 >= policy.max_attempts:
            return False
        if policy.retry_budget is not None and state.retries >= policy.retry_budget:
            return False
        return True

    def _session(self, sid: int):
        server = self.server
        env = server.env
        state = self.states[sid]
        rng = random.Random((self.seed << 16) ^ (sid * 0x9E3779B1) ^ 0xC7A05)
        name = f"chaos-{sid}"
        while not state.done:
            op = state.ops[state.index]
            if self.think_time_us:
                yield env.timeout(rng.expovariate(1.0) * self.think_time_us)
            attempt = 0
            while True:
                if self.breaker is not None and not self.breaker.allow():
                    server.stats.breaker_fast_fails += 1
                    state.fast_fails += 1
                    ok = False
                else:
                    request = server.make_request(op, session=name)
                    yield server.submit(request)
                    ok = request.outcome == "ok"
                    if self.breaker is not None:
                        if ok:
                            self.breaker.record_success()
                        else:
                            self.breaker.record_failure()
                    if ok and request.kind == "insert":
                        # The server acknowledged the insert: its WAL commit
                        # is durable and must survive any later crash.
                        self.committed_keys.append(request.op[1])
                if ok:
                    state.ok += 1
                    break
                if not self._should_retry(state, attempt):
                    state.gave_up += 1
                    break
                attempt += 1
                state.retries += 1
                server.stats.client_retries += 1
                delay = self.retry.backoff_delay_us(attempt, rng)
                if self.breaker is not None:
                    # Honor the breaker's retry-after hint: an attempt spent
                    # on a guaranteed fast-fail is an attempt wasted.
                    delay = max(delay, self.breaker.retry_after_us())
                yield env.timeout(delay)
            state.index += 1

    # -- crash life cycle --------------------------------------------------

    def _handle_crash(self, crash: SimulatedCrash) -> None:
        server = self.server
        crash_time = server.env.now
        drained = server.fail_unfinished(crash)
        server.stats.crashes += 1
        if self.breaker is not None:
            # Clients observe the connection die: protect the recovering
            # server from an immediate thundering herd.
            self.breaker.trip()
        recovery = self.db.crash_and_recover()
        # Logging resumes under the stripped plan: the armed crash point
        # fired; read faults (limps, dead disks, error rates) stay live.
        self.db.enable_wal(
            self.plan.without_crash_points(), checkpoint_interval=CHECKPOINT_INTERVAL
        )
        # The rebuilt substrate resumes after the simulated recovery
        # downtime, on a monotonic clock.
        server.rebuild_substrate(resume_at=crash_time + recovery.recovery_us)
        server.stats.recoveries += 1
        # Scrub the recovered tree before resuming traffic — every
        # recovery, not just in tests.  A violation is a durability bug
        # (recovery produced a broken tree) and gets its own counter, but
        # the run continues so the report still lands.
        scrub_ok = True
        server.stats.scrubs += 1
        try:
            scrub_tree(self.db.index)
        except IndexCorruptionError:
            scrub_ok = False
            server.stats.scrub_violations += 1
        self.crash_log.append(
            {
                "at_us": round(crash_time, 3),
                "point": crash.point,
                "drained_in_flight": drained,
                "records_replayed": recovery.records_replayed,
                "committed_txns": len(recovery.committed_txns),
                "discarded_txns": len(recovery.discarded_txns),
                "pages_restored": recovery.pages_restored,
                "recovery_us": round(recovery.recovery_us, 3),
                "scrub_ok": scrub_ok,
            }
        )

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        """Run every session to completion (through any crash); report."""
        while True:
            try:
                events = [
                    self.server.env.process(self._session(sid))
                    for sid, state in enumerate(self.states)
                    if not state.done
                ]
                if self.brownout is not None:
                    self.brownout.attach()
                if events:
                    self.server.env.run(until=AllOf(self.server.env, events))
                if self.brownout is not None:
                    self.brownout.stop()
                self.server.env.run()  # drain abandoned/straggler workers
                break
            except SimulatedCrash as crash:
                self._handle_crash(crash)
        return self._report()

    def _report(self) -> dict:
        stats = self.server.stats
        elapsed_us = self.server.env.now
        ok_ops = sum(state.ok for state in self.states)
        lost = [key for key in self.committed_keys if self.db.lookup(key) is None]
        scrub = scrub_tree(self.db.index)
        return {
            "schedule": self.schedule.describe(),
            "sessions": len(self.states),
            "client_ops": sum(len(state.ops) for state in self.states),
            "ok_ops": ok_ops,
            "gave_up": sum(state.gave_up for state in self.states),
            "client_retries": sum(state.retries for state in self.states),
            "breaker_fast_fails": sum(state.fast_fails for state in self.states),
            "breaker_transitions": [
                [round(at, 3), frm, to] for at, frm, to in (
                    self.breaker.transitions if self.breaker is not None else []
                )
            ],
            "brownout_max_level": self.brownout.max_level if self.brownout is not None else 0,
            "brownout_steps": len(self.brownout.history) if self.brownout is not None else 0,
            "issued": stats.issued,
            "completed": stats.completed,
            "failed": stats.failed,
            "shed": stats.shed,
            "timeouts": stats.timeouts,
            "in_flight": stats.in_flight.value,
            "conserved": stats.conserved(),
            "crashes": stats.crashes,
            "crash_log": self.crash_log,
            "committed_inserts": len(self.committed_keys),
            "lost_inserts": len(lost),
            "scrub_entries": scrub.entries,
            "scrubs": stats.scrubs,
            "scrub_violations": stats.scrub_violations,
            "latch": self.server.latch_counters(),
            "elapsed_us": round(elapsed_us, 3),
            "goodput_ops_s": round(ok_ops / (elapsed_us / 1e6), 3) if elapsed_us > 0 else 0.0,
            "p99_ms": round(stats.percentiles_us()["p99"] / 1e3, 3),
            "snapshot": stats.snapshot(),
        }
