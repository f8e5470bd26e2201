"""Linearizability checking for concurrent lookup/scan/insert histories.

A :class:`HistoryRecorder` logs *invocation* and *response* events on the
DES clock as the serving layer executes operations; the resulting
:class:`History` is a set of intervals ``[invoked_at, responded_at]`` per
operation.  :func:`check_linearizable` then searches for a **linearization**:
a total order of the completed operations that (a) respects the real-time
partial order — if op *a* responded before op *b* was invoked, *a* must
come first — and (b) is a legal sequential execution of a key-multiset map
model.  If one exists the history is linearizable (Herlihy & Wing 1990).

The checker is a Wing–Gong style depth-first search with two prunings that
make it practical for the histories the serving tests generate:

* **Memoization on the linearized set** (Lowe's partial-order reduction):
  the sequential model's state is a pure function of *which* inserts have
  been applied, so two search paths that linearized the same set of ops
  are equivalent — the second is cut off.
* **Greedy absorption of pure operations**: lookups and scans do not change
  the model state, so if an eligible completed lookup/scan's result matches
  the current state it can be linearized immediately without branching.
  (Placing a pure op as early as legal only relaxes later real-time
  constraints, so this never loses a linearization.)

Pending operations — invoked but never responded, e.g. killed by a crash —
are handled per the classical completion rule: a pending *insert* may or
may not have taken effect, so the search may optionally linearize it at any
legal point (its result is unconstrained); pending *reads* are dropped.

The sequential model matches the serving workload: a multiset of integer
keys, ``insert`` adds a key (duplicates allowed), ``lookup`` returns
whether the key is present, ``scan`` returns the number of entries in an
inclusive key range.  Scans recorded with ``result=None`` (truncated by a
brownout, so partial by design) are treated as unconstrained.

Histories serialize to JSON (:meth:`History.write`) so a failing interleaving
found by hypothesis or CI can be archived and re-checked as an artifact.

A history's initial keys can be millions of entries, so they are held as
given rather than copied: the serving runner passes its workload's keys as
one sorted int64 array, which the recorder, the history and the model
share, and the model bisects it with ``searchsorted``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "CheckResult",
    "History",
    "HistoryRecorder",
    "Op",
    "check_linearizable",
]

#: Operation kinds the model understands.
KINDS = ("lookup", "scan", "insert")


@dataclass
class Op:
    """One operation's interval in a concurrent history.

    ``responded_at is None`` means the operation is *pending*: it was
    invoked but the history ended (crash, timeout) before a response.
    ``result`` is kind-specific: lookup -> bool (key present), scan -> int
    (entries in range) or None (truncated/unconstrained), insert -> ignored
    (the acknowledgement itself is the effect).
    """

    op_id: int
    session: str
    kind: str
    args: tuple
    invoked_at: float
    responded_at: Optional[float] = None
    result: Any = None

    @property
    def pending(self) -> bool:
        return self.responded_at is None

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "session": self.session,
            "kind": self.kind,
            "args": list(self.args),
            "invoked_at": self.invoked_at,
            "responded_at": self.responded_at,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Op":
        return cls(
            op_id=int(data["op_id"]),
            session=str(data["session"]),
            kind=str(data["kind"]),
            args=tuple(data["args"]),
            invoked_at=float(data["invoked_at"]),
            responded_at=(
                None if data["responded_at"] is None else float(data["responded_at"])
            ),
            result=data["result"],
        )


@dataclass
class History:
    """A recorded concurrent history plus the initial model contents.

    ``initial_keys`` is any int sequence, held as given (the checker
    sorts a copy only if it is not ascending); a history read back from
    JSON holds them as an int64 array.
    """

    ops: list[Op] = field(default_factory=list)
    initial_keys: Sequence[int] = field(default_factory=list)

    @property
    def completed(self) -> list[Op]:
        return [op for op in self.ops if not op.pending]

    @property
    def pending(self) -> list[Op]:
        return [op for op in self.ops if op.pending]

    def to_json(self) -> str:
        return json.dumps(
            {
                "initial_keys": np.asarray(self.initial_keys, dtype=np.int64).tolist(),
                "ops": [op.to_dict() for op in self.ops],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "History":
        data = json.loads(text)
        return cls(
            ops=[Op.from_dict(item) for item in data["ops"]],
            initial_keys=np.asarray(data["initial_keys"], dtype=np.int64),
        )

    def write(self, path: str | Path) -> Path:
        """Archive the history as a replayable JSON artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def read(cls, path: str | Path) -> "History":
        return cls.from_json(Path(path).read_text())


class HistoryRecorder:
    """Logs invocation/response events against a simulation clock.

    ``clock`` is any zero-argument callable returning the current time —
    typically ``lambda: env.now`` — re-evaluated at each event, so the
    recorder survives substrate rebuilds as long as the callable tracks the
    live environment.  ``initial_keys`` passes to every :meth:`history`
    snapshot uncopied.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._ops: list[Op] = []
        self.initial_keys: Sequence[int] = []

    def invoke(self, session: str, kind: str, args: Iterable) -> int:
        """Record an operation's invocation; returns its op id."""
        if kind not in KINDS:
            raise ValueError(f"unknown operation kind {kind!r}")
        op_id = len(self._ops)
        self._ops.append(
            Op(
                op_id=op_id,
                session=session,
                kind=kind,
                args=tuple(int(a) for a in args),
                invoked_at=float(self.clock()),
            )
        )
        return op_id

    def respond(self, op_id: int, result: Any) -> None:
        """Record an operation's response (acknowledgement instant)."""
        op = self._ops[op_id]
        if not op.pending:
            raise ValueError(f"op {op_id} already responded")
        op.responded_at = float(self.clock())
        op.result = result

    def history(self) -> History:
        """Snapshot the events recorded so far."""
        return History(
            ops=[
                Op(
                    op.op_id, op.session, op.kind, op.args,
                    op.invoked_at, op.responded_at, op.result,
                )
                for op in self._ops
            ],
            initial_keys=self.initial_keys,
        )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a linearizability check."""

    ok: bool
    linearization: Optional[list[int]]  # op ids in linearized order
    states_explored: int
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _Model:
    """Sequential key-multiset map with cheap apply/undo.

    The initial contents are a sorted int64 array, bisected with
    ``searchsorted`` (an int64 array passes through uncopied; anything
    else is converted, and sorted only if it is not already); inserted
    keys go into a Counter kept small by typical history sizes.
    """

    def __init__(self, initial_keys: Sequence[int]) -> None:
        base = np.asarray(initial_keys, dtype=np.int64)
        if base.size > 1 and (base[1:] < base[:-1]).any():
            base = np.sort(base)
        self.base = base
        self.extra: Counter[int] = Counter()

    def apply_insert(self, key: int) -> None:
        self.extra[key] += 1

    def undo_insert(self, key: int) -> None:
        self.extra[key] -= 1
        if not self.extra[key]:
            del self.extra[key]

    def contains(self, key: int) -> bool:
        if self.extra.get(key):
            return True
        base = self.base
        slot = int(base.searchsorted(key))
        return slot < len(base) and int(base[slot]) == key

    def range_count(self, lo: int, hi: int) -> int:
        if hi < lo:
            return 0
        base = self.base
        count = int(base.searchsorted(hi, "right") - base.searchsorted(lo, "left"))
        for key, n in self.extra.items():
            if lo <= key <= hi:
                count += n
        return count

    def read_matches(self, op: Op) -> bool:
        """Does a pure op's recorded result agree with the current state?"""
        if op.kind == "lookup":
            return bool(op.result) == self.contains(op.args[0])
        if op.kind == "scan":
            if op.result is None:  # truncated: partial by design
                return True
            return int(op.result) == self.range_count(op.args[0], op.args[1])
        raise ValueError(f"{op.kind!r} is not a pure operation")


def check_linearizable(
    history: History,
    initial_keys: Optional[Sequence[int]] = None,
    max_states: int = 2_000_000,
) -> CheckResult:
    """Search for a linearization of ``history`` against the map model.

    Returns a :class:`CheckResult`; ``result.linearization`` lists op ids
    in a witness order when one exists.  ``max_states`` bounds the search
    (distinct linearized-sets explored) — exceeding it returns ``ok=False``
    with reason ``"state budget exhausted"``, which the callers treat as a
    hard failure so a pathological history cannot silently pass.
    """
    if initial_keys is None:
        initial_keys = history.initial_keys
    completed = [op for op in history.ops if not op.pending]
    # Pending reads have no effect and no acknowledged result: drop them.
    # Pending inserts may have taken effect (the crash could have hit after
    # the mutation): keep them as optional branches.
    optional = [op for op in history.pending if op.kind == "insert"]
    ops = completed + optional
    if not completed:
        return CheckResult(True, [], 0)

    index_of = {op.op_id: i for i, op in enumerate(ops)}
    n = len(ops)
    required_mask = 0
    for op in completed:
        required_mask |= 1 << index_of[op.op_id]
    all_required = required_mask

    model = _Model(initial_keys)
    seen: set[int] = set()
    order: list[int] = []  # op ids, the witness under construction
    states = 0

    # Sort for deterministic candidate iteration (and so earlier-invoked
    # ops are tried first, which tends to find witnesses quickly).
    ops_sorted = sorted(ops, key=lambda op: (op.invoked_at, op.op_id))

    def candidates(done_mask: int) -> list[Op]:
        """Ops linearizable next: not done, invoked before every undone
        completed op's response (real-time order)."""
        horizon = min(
            (
                op.responded_at
                for op in completed
                if not done_mask >> index_of[op.op_id] & 1
            ),
            default=float("inf"),
        )
        return [
            op
            for op in ops_sorted
            if not done_mask >> index_of[op.op_id] & 1 and op.invoked_at <= horizon
        ]

    class _BudgetExhausted(Exception):
        pass

    def search(done_mask: int) -> bool:
        nonlocal states
        if done_mask & all_required == all_required:
            return True
        if done_mask in seen:
            return False
        seen.add(done_mask)
        states += 1
        if states > max_states:
            raise _BudgetExhausted
        # Greedy absorption: linearize every eligible pure op whose result
        # matches right now.  Pure ops do not change state, and placing
        # them at the earliest legal point only relaxes the real-time
        # constraint on everything after them, so this is lossless.
        absorbed = 0
        progress = True
        while progress:
            progress = False
            for op in candidates(done_mask):
                if op.kind == "insert":
                    continue
                if model.read_matches(op):
                    done_mask |= 1 << index_of[op.op_id]
                    order.append(op.op_id)
                    absorbed += 1
                    progress = True
        if done_mask & all_required == all_required:
            return True
        for op in candidates(done_mask):
            if op.kind != "insert":
                continue  # a pure op that didn't match now never will here
            bit = 1 << index_of[op.op_id]
            model.apply_insert(op.args[0])
            order.append(op.op_id)
            if search(done_mask | bit):
                return True
            order.pop()
            model.undo_insert(op.args[0])
        # Backtrack the absorbed pure ops along with this branch.
        for __ in range(absorbed):
            order.pop()
        return False

    try:
        ok = search(0)
    except _BudgetExhausted:
        return CheckResult(False, None, states, reason="state budget exhausted")
    except RecursionError:
        return CheckResult(False, None, states, reason="recursion limit hit")
    if ok:
        return CheckResult(True, list(order), states)
    return CheckResult(
        False,
        None,
        states,
        reason="no linearization exists for the completed operations",
    )
