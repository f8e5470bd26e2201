"""Page-level concurrency control for the disk-first fpB+-Tree.

Served tree ops (:meth:`~repro.dbms.engine.MiniDbms.serve_lookup`,
``serve_scan``, ``serve_insert`` and the level-wise lookup batch) share one
root-to-leaf descent, :func:`~repro.btree.batch.descend`.  What makes that
descent safe against a concurrent split is a **latch protocol** object,
chosen per server by its ``concurrency`` mode:

* :class:`NullProtocol` (``"none"``) takes no latches.  Tree mutations are
  atomic between DES yields, so routing from a page read after its wait is
  fresh; only a leaf reached after the leaf-map stamp
  :meth:`MiniDbms.leaf_map_epoch` — ``(index, index.page_splits)``, moved
  by a split or a recovery's index swap — moved may hold stale content,
  and callers re-resolve it atomically.
* :class:`PageProtocol` (``"page"``) is the classic optimistic lock
  coupling / seqlock protocol (FB+-tree, arXiv:2503.23397) over
  :class:`PageLatchManager`'s per-page **version latches** — integers that
  are *even while the page is free* and *odd while a writer holds it*.
  Readers snapshot versions, do their (yield-spanning) work and
  *validate*; a failed validation restarts the descent, and after
  ``retry_budget`` restarts the op escalates to pessimistic latch coupling
  (write latches taken root-to-leaf, ancestors released as soon as the
  child cannot split), which always makes progress.  Writers latch only
  the leaf on the optimistic path, and every page a split touches is
  either latched or version-bumped through
  :meth:`PageLatchManager.structural`, so concurrent readers notice.
* :class:`GlobalProtocol` (``"coarse"``) holds :data:`GLOBAL_LATCH` around
  the whole null traversal — the baseline the contended-serve benchmark
  compares against.

All latch waits are FIFO and purely DES-event-driven, so two same-seed runs
are byte-identical.  If the event queue drains while waiters are still
parked (a latch leak), the manager's deadlock watchdog — registered on
:attr:`Environment.drain_checks` — raises :class:`LatchDeadlockError`
naming every held latch, its holder, and the parked waiters, instead of
letting the simulation end in a silent hang.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

from ..des import Environment, Event, SimulationError

__all__ = [
    "CONCURRENCY_MODES",
    "GLOBAL_LATCH",
    "GlobalProtocol",
    "LatchChain",
    "LatchDeadlockError",
    "NullProtocol",
    "PageLatchManager",
    "PageProtocol",
    "make_protocol",
    "page_safe",
]

#: Pseudo page id of the tree-wide latch :class:`GlobalProtocol` holds (real
#: page ids are dense non-negative integers, so -1 can never collide).
GLOBAL_LATCH = -1

#: Default version wrap: even, and large enough that the ABA window (a
#: version re-reaching its old value while a reader is stalled) needs two
#: billion writes inside one traversal — unreachable in any simulated run.
DEFAULT_VERSION_WRAP = 1 << 32


class LatchDeadlockError(SimulationError):
    """The DES queue drained while latch waiters were still parked.

    Raised by the deadlock watchdog (:meth:`PageLatchManager.attach_watchdog`)
    instead of letting ``env.run()`` return with processes silently stuck.
    The message names each held latch with its holder and each parked
    waiter, which is the information needed to find the leaked release.
    """

    def __init__(self, held: dict, parked: list) -> None:
        held_desc = (
            ", ".join(f"page {pid} held by {holder!r}" for pid, holder in sorted(held.items()))
            or "none"
        )
        parked_desc = ", ".join(
            f"page {pid} <- {kind} waiter {owner!r}" for pid, owner, kind in parked
        )
        super().__init__(
            "event queue drained with latch waiters parked: "
            f"held latches: [{held_desc}]; parked waiters: [{parked_desc}]"
        )
        self.held = held
        self.parked = parked


class _Latch:
    """One page's version latch: seqlock counter plus a FIFO wait queue."""

    __slots__ = ("version", "holder", "waiters")

    def __init__(self) -> None:
        self.version = 0
        self.holder: Optional[str] = None
        self.waiters: deque[tuple[Event, Optional[str], str]] = deque()


class PageLatchManager:
    """Per-page version latches over one DES environment.

    ``wrap`` bounds the version counter (must be even so wraparound
    preserves the free/held parity); tests shrink it to exercise the
    wraparound path.  The manager is bound to one environment — a crash
    rebuild creates a fresh manager, and releases issued by torn-down
    generators against the old one are inert by construction (they only
    touch the dead manager's state and schedule on the dead queue).
    """

    def __init__(
        self,
        env: Environment,
        store=None,
        wrap: int = DEFAULT_VERSION_WRAP,
    ) -> None:
        if wrap < 4 or wrap % 2:
            raise ValueError(f"wrap must be an even integer >= 4, got {wrap}")
        self.env = env
        self.store = store
        self.wrap = wrap
        self._latches: dict[int, _Latch] = {}
        # Counters are only ever incremented from live traversal bodies
        # (never from ``finally`` release paths), so generator teardown
        # after a crash cannot perturb them.
        self.optimistic_reads = 0
        self.read_waits = 0
        self.write_acquires = 0
        self.write_waits = 0
        self.validation_failures = 0

    def _latch(self, pid: int) -> _Latch:
        latch = self._latches.get(pid)
        if latch is None:
            latch = self._latches[pid] = _Latch()
        return latch

    # -- optimistic read protocol ------------------------------------------

    def read_begin(self, pid: int, owner: Optional[str] = None):
        """Process generator: wait out any writer, return the even version."""
        latch = self._latch(pid)
        self.optimistic_reads += 1
        while latch.version & 1:
            event = Event(self.env)
            latch.waiters.append((event, owner, "read"))
            self.read_waits += 1
            yield event
        return latch.version

    def version(self, pid: int) -> int:
        """The page's current version (odd while write-held)."""
        return self._latch(pid).version

    def validate(self, pid: int, expected: int) -> bool:
        """True iff the page is unlocked and unchanged since ``expected``."""
        if self._latch(pid).version == expected:
            return True
        self.validation_failures += 1
        return False

    # -- write latching ----------------------------------------------------

    def write_acquire(self, pid: int, owner: Optional[str] = None):
        """Process generator: FIFO write latch; returns the pre-lock version."""
        latch = self._latch(pid)
        self.write_acquires += 1
        if latch.version & 1:
            event = Event(self.env)
            latch.waiters.append((event, owner, "write"))
            self.write_waits += 1
            yield event
            # Direct hand-off: the releaser re-locked the latch on our
            # behalf (no barging), so the version is already odd.
            latch.holder = owner
            return (latch.version - 1) % self.wrap
        pre = latch.version
        latch.version = (latch.version + 1) % self.wrap
        latch.holder = owner
        return pre

    def write_release(self, pid: int, owner: Optional[str] = None) -> None:
        """Release a write latch, bumping the version and waking waiters.

        Parked readers ahead of the next writer are all resumed (they
        re-check and re-park if a writer was granted in the same release);
        the first parked writer gets the latch handed off directly, which
        keeps the queue FIFO.  Intentionally counter-free: this runs from
        ``finally`` blocks during generator teardown after a crash, and
        must not perturb deterministic statistics.
        """
        latch = self._latch(pid)
        if not latch.version & 1:
            raise SimulationError(f"write_release of unheld latch on page {pid} by {owner!r}")
        latch.version = (latch.version + 1) % self.wrap
        latch.holder = None
        while latch.waiters:
            event, w_owner, kind = latch.waiters.popleft()
            if kind == "read":
                event.succeed()
                continue
            # Hand the latch to the next writer before any new arrival can
            # barge: lock now, let the waiter's generator adopt it on resume.
            latch.version = (latch.version + 1) % self.wrap
            latch.holder = w_owner
            event.succeed(True)
            break

    def locked(self, pid: int) -> bool:
        return bool(self._latch(pid).version & 1)

    def bump(self, pid: int) -> None:
        """Advance a page's version by a full cycle without latching it.

        Used for pages a structural change mutates *without* holding their
        latch (freshly allocated split siblings, a rewired neighbor's
        back-pointer, a new root): +2 preserves the free/held parity while
        invalidating every optimistic snapshot of the page.
        """
        latch = self._latch(pid)
        latch.version = (latch.version + 2) % self.wrap

    @contextmanager
    def structural(self, held: Iterator[int] = ()) -> Iterator[None]:
        """Bump the version of every page the enclosed mutation touches.

        Chains onto the store's ``write_observer`` (preserving WAL logging)
        to record the write set, then bumps each mutated or allocated page
        that is not in ``held`` — held pages get their bump from
        :meth:`write_release`.  This is what makes mutations performed by
        the underlying (atomic) tree code visible to optimistic readers.
        """
        if self.store is None:
            raise SimulationError("structural() needs the manager bound to a page store")
        mutated: dict[int, None] = {}
        previous = self.store.write_observer

        def observe(event: str, page_id: int) -> None:
            if previous is not None:
                previous(event, page_id)
            if event in ("alloc", "dirty"):
                mutated[page_id] = None

        self.store.write_observer = observe
        try:
            yield
        finally:
            self.store.write_observer = previous
            held_set = set(held)
            for pid in mutated:
                if pid not in held_set:
                    self.bump(pid)

    # -- watchdog ----------------------------------------------------------

    def held_latches(self) -> dict[int, Optional[str]]:
        """Currently write-held latches: page id -> holder label."""
        return {
            pid: latch.holder for pid, latch in self._latches.items() if latch.version & 1
        }

    def parked_waiters(self) -> list[tuple[int, Optional[str], str]]:
        """Parked waiters as (page id, owner, "read" | "write") triples."""
        return [
            (pid, owner, kind)
            for pid, latch in self._latches.items()
            for __, owner, kind in latch.waiters
        ]

    def attach_watchdog(self, env: Optional[Environment] = None) -> None:
        """Register the deadlock check on the environment's drain hooks."""
        (env if env is not None else self.env).drain_checks.append(self._drain_check)

    def _drain_check(self) -> None:
        parked = self.parked_waiters()
        if parked:
            raise LatchDeadlockError(self.held_latches(), parked)

    def counters(self) -> dict[str, int]:
        """Deterministic counter snapshot (merged across rebuilds upstream)."""
        return {
            "optimistic_reads": self.optimistic_reads,
            "read_waits": self.read_waits,
            "write_acquires": self.write_acquires,
            "write_waits": self.write_waits,
            "validation_failures": self.validation_failures,
        }


def page_safe(tree, page) -> bool:
    """True if one more entry cannot page-split this page.

    Mirrors ``DiskFirstFpTree._insert_entry``: below this threshold a full
    page reorganizes in place (touching only itself); at or above it, an
    insert may split — so a crabbing writer must keep the parent latched.
    """
    layout = tree.layout
    return page.total < layout.page_fanout - layout.max_leaf_nodes


# -- latch protocols -------------------------------------------------------------


class NullProtocol:
    """No latches: served ops interleave only at DES yields (``"none"``).

    Every hook here is the null behaviour the latched protocols override.
    A null descent never fails validation, so it never restarts or
    escalates; its one rule is the topology-epoch check on leaves
    (``trusts_routes = False``, see :func:`~repro.btree.batch.descend`).
    """

    #: Optimistic descent passes before an op escalates.
    retry_budget = 1
    #: False: a leaf is trusted only if ``leaf_map_epoch()`` did not move
    #: during the descent; otherwise its keys are re-resolved atomically.
    trusts_routes = False
    #: True: :meth:`begin` is this null one, so it never waits and its token
    #: is None; :func:`~repro.btree.batch.descend` skips the call.  Worked
    #: out per class in :meth:`__init_subclass__`, never declared by hand.
    latch_free_begin = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.latch_free_begin = cls.begin is NullProtocol.begin

    def __init__(self) -> None:
        # Traversal outcome counters, bumped by the serving ops on live
        # paths only (see PageLatchManager).
        self.read_restarts = 0
        self.write_restarts = 0
        self.scan_restarts = 0
        self.pessimistic_reads = 0
        self.pessimistic_writes = 0

    def counters(self) -> dict[str, int]:
        return {
            "read_restarts": self.read_restarts,
            "write_restarts": self.write_restarts,
            "scan_restarts": self.scan_restarts,
            "pessimistic_reads": self.pessimistic_reads,
            "pessimistic_writes": self.pessimistic_writes,
        }

    def guarded(self, body, owner):
        """The process generator that runs one whole op (or batch) under the
        protocol; with no latches to take, that is ``body`` itself."""
        return body

    def begin(self, pid: int, owner):
        """Process generator: a token to validate ``pid`` against later."""
        return None
        yield  # unreachable: makes this a generator, like the latched begins

    def validate(self, pid: int, token) -> bool:
        """True iff what was read from ``pid`` since ``begin`` can be trusted."""
        return True

    def lock_leaf(self, tree, pid: int, token, owner):
        """Process generator, writes only: may the insert go into this leaf?

        True: apply in place, then :meth:`unlatch` it; False: restart the
        descent; None: escalate straight away.
        """
        return True
        yield  # unreachable: makes this a generator

    def unlatch(self, pids, owner) -> None:
        """Release write latches taken by :meth:`lock_leaf` or an escalation."""

    def structural(self, held):
        """Context around a tree mutation; latched protocols bump versions."""
        return nullcontext()


class PageProtocol(NullProtocol):
    """Optimistic version-latch reads and leaf-latched writes (``"page"``).

    ``retry_budget`` optimistic passes, then :meth:`escalate` — the one
    descent besides :func:`~repro.btree.batch.descend`, which latches
    root-to-leaf and so always makes progress.
    """

    trusts_routes = True

    def __init__(self, latches: PageLatchManager, retry_budget: int = 8) -> None:
        if retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1, got {retry_budget}")
        super().__init__()
        self.latches = latches
        self.retry_budget = retry_budget

    def begin(self, pid: int, owner):
        return (yield from self.latches.read_begin(pid, owner))

    def validate(self, pid: int, token) -> bool:
        return self.latches.validate(pid, token)

    def lock_leaf(self, tree, pid: int, token, owner):
        pre = yield from self.latches.write_acquire(pid, owner)
        if pre == token and page_safe(tree, tree.store.page(pid)):
            return True
        self.latches.write_release(pid, owner)
        # A changed version means the routed position may be stale
        # (restart); an unsafe leaf's split would touch unlatched ancestors
        # (escalate to crabbing, which latches the unsafe suffix).
        return False if pre != token else None

    def unlatch(self, pids, owner) -> None:
        for pid in reversed(pids):
            self.latches.write_release(pid, owner)

    def structural(self, held):
        return self.latches.structural(held=held)

    def escalate(
        self, db, reader, key: int, owner, page_process_us: float,
        for_insert: bool = False, visit_leaf: bool = True,
    ):
        """Process generator: write-latched descent (latch coupling / crabbing).

        Returns ``(leaf_pid, held, path)``: the leaf page id, the latches
        still held (the unsafe suffix for inserts; just the leaf for
        reads), and the full pid path for split propagation.  Latches are
        acquired strictly root-to-leaf, which is what keeps writers and
        pessimistic readers deadlock-free against each other.  With
        ``visit_leaf=False`` the leaf is latched but not read (a scan reads
        it in its span walk).
        """
        tree = db.index
        latches = self.latches
        env = reader.env
        pool = reader.pool
        while True:
            root = tree.root_pid
            yield from latches.write_acquire(root, owner)
            if root == tree.root_pid:
                break
            # A root split slipped in before our latch landed: chase it.
            latches.write_release(root, owner)
        held = [root]
        path = [root]
        pid = root
        try:
            while True:
                if not visit_leaf and tree.store.page(pid).level == 0:
                    return pid, held, path
                yield from reader.demand(pid)
                pin = pool.pin(pid, owner)
                try:
                    yield env.timeout(page_process_us)
                finally:
                    pool.unpin(pid, pin, owner)
                if tree.store.page(pid).level == 0:
                    return pid, held, path
                child = tree.child_pid(pid, key)
                yield from latches.write_acquire(child, owner)
                path.append(child)
                if not for_insert or page_safe(tree, tree.store.page(child)):
                    # The child cannot split (or we only need read
                    # isolation): ancestors are released, crab-style.
                    for ancestor in held:
                        latches.write_release(ancestor, owner)
                    held = [child]
                else:
                    held.append(child)
                pid = child
        except BaseException:
            self.unlatch(held, owner)
            raise


class LatchChain(NullProtocol):
    """A pessimistic scan's span walk: leaves write-latched in key order.

    Each leaf is latched before it is read and stays latched (appended to
    ``held``) until the caller unlatches the lot — a range lock over the
    counted span.
    """

    trusts_routes = True

    def __init__(self, latches: PageLatchManager, held: list) -> None:
        super().__init__()
        self.latches = latches
        self.held = held

    def begin(self, pid: int, owner):
        yield from self.latches.write_acquire(pid, owner)
        self.held.append(pid)


class GlobalProtocol(NullProtocol):
    """The null traversal under one tree-wide latch (``"coarse"``)."""


    def __init__(self, latches: PageLatchManager) -> None:
        super().__init__()
        self.latches = latches

    def guarded(self, body, owner):
        # The only place GLOBAL_LATCH is taken.
        yield from self.latches.write_acquire(GLOBAL_LATCH, owner)
        try:
            return (yield from body)
        finally:
            self.latches.write_release(GLOBAL_LATCH, owner)


#: The served ``concurrency`` modes.
CONCURRENCY_MODES = ("none", "page", "coarse")


def make_protocol(
    mode: str, latches: Optional[PageLatchManager] = None, retry_budget: int = 8
) -> NullProtocol:
    """The latch protocol for a ``concurrency`` mode (latched modes need ``latches``)."""
    if mode == "none":
        return NullProtocol()
    if mode == "page":
        return PageProtocol(latches, retry_budget)
    if mode == "coarse":
        return GlobalProtocol(latches)
    raise ValueError(
        f"unknown concurrency mode {mode!r}; pick one of {', '.join(CONCURRENCY_MODES)}"
    )
