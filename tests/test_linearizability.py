"""Tests for the Wing–Gong linearizability checker (:mod:`repro.verify`).

Unit scenarios pin down the model semantics (real-time order, pending-op
completion rules, scan truncation) and the known-bad histories the checker
must reject; hypothesis properties generate adversarial interleavings that
are linearizable *by construction* (intervals jittered around ground-truth
linearization points) and assert the checker accepts every one — a failing
example shrinks and is archived as a replayable JSON artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.verify.linearizability import (
    CheckResult,
    History,
    HistoryRecorder,
    Op,
    check_linearizable,
)

#: Every cached page pair is recomputed and compared on use (conftest.py).
pytestmark = pytest.mark.usefixtures("checked_page_entries")

#: Where property-test failures archive their (shrunk) counterexample; the
#: CI concurrency-smoke job uploads this directory on failure.
ARTIFACTS = Path(__file__).resolve().parent.parent / "test-artifacts" / "linearizability"


def op(op_id, kind, args, t0, t1, result=None, session=None):
    return Op(
        op_id=op_id,
        session=session if session is not None else f"s{op_id}",
        kind=kind,
        args=tuple(args),
        invoked_at=float(t0),
        responded_at=None if t1 is None else float(t1),
        result=result,
    )


# -- unit scenarios ----------------------------------------------------------


def test_empty_history_is_linearizable():
    result = check_linearizable(History())
    assert result.ok
    assert result.linearization == []
    assert bool(result) is True


def test_sequential_story_is_accepted_with_full_witness():
    history = History(
        ops=[
            op(0, "insert", (5,), 0, 1),
            op(1, "lookup", (5,), 2, 3, result=True),
            op(2, "scan", (0, 10), 4, 5, result=1),
        ]
    )
    result = check_linearizable(history)
    assert result.ok
    assert sorted(result.linearization) == [0, 1, 2]


def test_lost_update_is_rejected():
    """The seeded known-bad shape: an acknowledged insert that a strictly
    later lookup does not observe has no sequential explanation."""
    history = History(
        ops=[
            op(0, "insert", (5,), 0, 1),
            op(1, "lookup", (5,), 2, 3, result=False),
        ]
    )
    result = check_linearizable(history)
    assert not result.ok
    assert result.linearization is None
    assert "no linearization" in result.reason


def test_concurrent_lookup_may_see_either_side_of_an_insert():
    for seen in (True, False):
        history = History(
            ops=[
                op(0, "lookup", (5,), 0, 5, result=seen),
                op(1, "insert", (5,), 1, 2),
            ]
        )
        assert check_linearizable(history).ok, f"seen={seen} must linearize"


def test_pending_insert_effect_is_ambiguous():
    """A crash-killed insert may or may not have applied: a later lookup
    may legally observe either outcome."""
    for seen in (True, False):
        history = History(
            ops=[
                op(0, "insert", (5,), 0, None),
                op(1, "lookup", (5,), 10, 11, result=seen),
            ]
        )
        assert check_linearizable(history).ok, f"seen={seen} must linearize"


def test_pending_reads_are_dropped():
    history = History(
        ops=[
            op(0, "lookup", (5,), 0, None, result=True),  # absurd if kept
            op(1, "scan", (0, 10), 1, None, result=99),
            op(2, "insert", (7,), 2, 3),
            op(3, "lookup", (7,), 4, 5, result=True),
        ]
    )
    assert check_linearizable(history).ok


def test_scan_counts_against_initial_contents():
    base = dict(initial_keys=[2, 4, 6])
    ok = History(ops=[op(0, "scan", (1, 5), 0, 1, result=2)], **base)
    bad = History(ops=[op(0, "scan", (1, 5), 0, 1, result=3)], **base)
    assert check_linearizable(ok).ok
    assert not check_linearizable(bad).ok


def test_stale_scan_is_rejected():
    """A scan strictly after an acknowledged insert must count it."""
    history = History(
        ops=[
            op(0, "insert", (5,), 0, 1),
            op(1, "scan", (0, 10), 2, 3, result=0),
        ]
    )
    assert not check_linearizable(history).ok


def test_truncated_scan_is_unconstrained():
    history = History(
        ops=[
            op(0, "insert", (5,), 0, 1),
            op(1, "scan", (0, 10), 2, 3, result=None),  # brownout-truncated
        ]
    )
    assert check_linearizable(history).ok


def test_memoization_keeps_overlapping_inserts_cheap():
    # 40 fully-overlapping inserts: naively 40! orders, but the model state
    # is a pure function of the applied set, so the first dive succeeds.
    history = History(ops=[op(i, "insert", (i,), 0, 100) for i in range(40)])
    result = check_linearizable(history)
    assert result.ok
    assert result.states_explored <= 100


def test_state_budget_exhaustion_is_a_hard_failure():
    history = History(
        ops=[
            op(0, "insert", (1,), 0, 10),
            op(1, "insert", (2,), 0, 10),
            op(2, "lookup", (3,), 20, 21, result=True),  # unsatisfiable
        ]
    )
    result = check_linearizable(history, max_states=1)
    assert not result.ok
    assert result.reason == "state budget exhausted"


def test_witness_replays_through_the_sequential_model():
    history = History(
        ops=[
            op(0, "lookup", (5,), 0, 4, result=False),
            op(1, "insert", (5,), 1, 3),
            op(2, "scan", (0, 10), 2, 6, result=2),
            op(3, "insert", (7,), 2, 5),
            op(4, "lookup", (7,), 6, 7, result=True),
        ]
    )
    result = check_linearizable(history)
    assert result.ok
    by_id = {o.op_id: o for o in history.ops}
    contents: set[int] = set()
    for op_id in result.linearization:
        o = by_id[op_id]
        if o.kind == "insert":
            contents.add(o.args[0])
        elif o.kind == "lookup":
            assert bool(o.result) == (o.args[0] in contents)
        else:
            assert o.result == sum(1 for k in contents if o.args[0] <= k <= o.args[1])
    # Real-time order: if a responded before b was invoked, a comes first.
    position = {op_id: i for i, op_id in enumerate(result.linearization)}
    for a in history.ops:
        for b in history.ops:
            if a.responded_at is not None and a.responded_at < b.invoked_at:
                if a.op_id in position and b.op_id in position:
                    assert position[a.op_id] < position[b.op_id]


# -- recorder and serialization ----------------------------------------------


def test_recorder_stamps_the_simulation_clock():
    now = [0.0]
    recorder = HistoryRecorder(clock=lambda: now[0])
    recorder.initial_keys = [1, 2]
    a = recorder.invoke("s1", "insert", (5,))
    now[0] = 3.0
    b = recorder.invoke("s2", "lookup", (5,))
    now[0] = 7.0
    recorder.respond(a, True)
    history = recorder.history()
    assert history.initial_keys == [1, 2]
    assert history.ops[a].invoked_at == 0.0
    assert history.ops[a].responded_at == 7.0
    assert history.ops[b].pending
    with pytest.raises(ValueError, match="already responded"):
        recorder.respond(a, True)
    with pytest.raises(ValueError, match="unknown operation kind"):
        recorder.invoke("s1", "delete", (5,))


def test_recorder_history_is_a_snapshot():
    recorder = HistoryRecorder(clock=lambda: 0.0)
    a = recorder.invoke("s1", "insert", (5,))
    snapshot = recorder.history()
    recorder.respond(a, True)
    assert snapshot.ops[0].pending  # unaffected by the later respond


def test_history_json_round_trip(tmp_path):
    history = History(
        ops=[
            op(0, "insert", (5,), 0, 1),
            op(1, "scan", (0, 10), 2, None, result=None),
            op(2, "lookup", (5,), 2, 3, result=True),
        ],
        initial_keys=[9, 11],
    )
    clone = History.from_json(history.to_json())
    assert clone.to_json() == history.to_json()
    assert [o.to_dict() for o in clone.ops] == [o.to_dict() for o in history.ops]

    path = history.write(tmp_path / "deep" / "artifact.json")
    replayed = History.read(path)
    assert replayed.to_json() == history.to_json()
    # The archived artifact must re-check to the same verdict.
    assert check_linearizable(replayed).ok == check_linearizable(history).ok


def test_initial_keys_as_a_list_or_an_int64_array_check_the_same():
    ops = [
        op(0, "lookup", (9,), 0, 1, result=True),
        op(1, "scan", (8, 12), 0, 1, result=2),
        op(2, "insert", (10,), 2, 3),
        op(3, "scan", (8, 12), 4, 5, result=3),
        op(4, "lookup", (12,), 4, 5, result=False),
    ]
    as_list = check_linearizable(History(ops=ops, initial_keys=[11, 9]))  # unsorted
    as_array = check_linearizable(History(ops=ops, initial_keys=np.array([9, 11], np.int64)))
    assert as_list.ok and as_array == as_list


# -- property tests: adversarial interleavings --------------------------------


@st.composite
def linearizable_histories(draw):
    """A history that is linearizable *by construction*.

    Ground truth: ops execute sequentially against a key multiset at
    linearization points 10, 20, 30, ...; each op's recorded interval is
    jittered around its point (up to 7 time units each way, so neighboring
    intervals genuinely overlap).  Some inserts are then left pending —
    their ground-truth effect stays visible, exercising the completion
    rule's "may have applied" branch.
    """
    initial = draw(st.lists(st.integers(0, 50), max_size=6))
    contents = list(initial)
    n = draw(st.integers(1, 12))
    ops = []
    for i in range(n):
        kind = draw(st.sampled_from(("lookup", "scan", "insert")))
        point = 10.0 * (i + 1)
        invoked = point - draw(st.integers(0, 7))
        responded = point + draw(st.integers(0, 7))
        if kind == "insert":
            key = draw(st.integers(0, 50))
            contents.append(key)
            if draw(st.booleans()) and draw(st.booleans()):
                responded = None  # crash-killed after taking effect
            ops.append(op(i, "insert", (key,), invoked, responded))
        elif kind == "lookup":
            key = draw(st.integers(0, 50))
            ops.append(op(i, "lookup", (key,), invoked, responded, result=key in contents))
        else:
            lo = draw(st.integers(0, 50))
            hi = lo + draw(st.integers(0, 20))
            count = sum(1 for k in contents if lo <= k <= hi)
            ops.append(op(i, "scan", (lo, hi), invoked, responded, result=count))
    return History(ops=ops, initial_keys=initial)


props = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _assert_accepted(history: History, label: str) -> CheckResult:
    result = check_linearizable(history)
    if not result.ok:
        path = history.write(ARTIFACTS / f"{label}.json")
        raise AssertionError(
            "checker rejected a linearizable-by-construction history "
            f"({result.reason}); replayable artifact: {path}"
        )
    return result


@props
@given(history=linearizable_histories())
def test_generated_interleavings_are_accepted(history):
    # On failure, hypothesis shrinks `history` and the minimal rejected
    # interleaving lands in test-artifacts/ for replay via History.read.
    result = _assert_accepted(history, "generated-interleaving")
    completed = {o.op_id for o in history.completed}
    assert completed <= set(result.linearization)


@props
@given(history=linearizable_histories())
def test_phantom_read_is_always_rejected(history):
    # Append a lookup that observes a key no insert (completed, pending or
    # initial) ever produced: no linearization can explain it.
    last = max((o.responded_at or o.invoked_at for o in history.ops), default=0.0)
    phantom = op(len(history.ops), "lookup", (999,), last + 1, last + 2, result=True)
    bad = History(ops=[*history.ops, phantom], initial_keys=history.initial_keys)
    result = check_linearizable(bad)
    assert not result.ok
    assert result.linearization is None


@props
@given(history=linearizable_histories(), data=st.data())
def test_dropping_an_acknowledged_insert_is_rejected(history, data):
    """Flip one completed insert's later observer to 'not seen': if the key
    is observably present (a strictly-later lookup saw it and no other
    insert of that key exists), the flipped history must be rejected."""
    inserts = [
        o
        for o in history.completed
        if o.kind == "insert"
        and o.args[0] not in history.initial_keys
        and sum(1 for p in history.ops if p.kind == "insert" and p.args == o.args) == 1
    ]
    if not inserts:
        return  # nothing observable to flip in this draw
    victim = data.draw(st.sampled_from(inserts))
    denier = op(
        len(history.ops),
        "lookup",
        (victim.args[0],),
        victim.responded_at + 1,
        victim.responded_at + 2,
        result=False,
    )
    bad = History(ops=[*history.ops, denier], initial_keys=history.initial_keys)
    assert not check_linearizable(bad).ok
