"""Tests for the declarative scenario layer (`repro.scenario`).

Three claims, mirroring the module's contract:

1. **Validation before simulation** — every cross-field rule rejects its
   inconsistent combination with an actionable message, table-driven so
   each rule's message content is asserted, and in ~milliseconds (no DES
   clock ever starts for an invalid spec).
2. **Round-trip fidelity** — dict -> spec -> TOML -> spec is the identity
   for every representable spec (hypothesis-driven), and every committed
   matrix file loads and validates.
3. **Cells and determinism** — cells read units and axes straight from
   the spec, and a matrix's results are byte-identical across ``jobs``
   values and across repeated runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import tomllib

from repro.scenario import (
    ScenarioError,
    ScenarioSpec,
    cells,
    load_matrix,
    matrix_payload,
    matrix_to_csv,
    matrix_to_markdown,
    plan_cells,
    run_cell,
    run_matrix,
    run_scenario,
    validate_matrix,
)
from repro.workloads import KeyDistribution, MixedOpStream, OpMix

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "benchmarks" / "scenarios"


def make(**overrides):
    """A valid baseline spec, with overrides applied (not yet validated)."""
    base = dict(name="t", runner="open", num_rows=2_000, offered_loads=(400,),
                duration_s=0.2)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# 1. The rejection table: one row per cross-field rule, message asserted.
# ---------------------------------------------------------------------------

# Each row carries a stable number: a removed rule's number is never
# reused, so a test id always names the same rule.
REJECTIONS = [
    # (number, overrides, substring that must appear in the message)
    # -- single-field sanity ---------------------------------------------------
    (0, dict(runner="warp"), "unknown runner 'warp'"),
    (1, dict(admission="lifo"), "unknown admission mode 'lifo'"),
    (2, dict(concurrency="lockfree"), "unknown concurrency mode 'lockfree'"),
    (3, dict(distribution="pareto"), "unknown distribution 'pareto'"),
    (4, dict(shard_count=2, num_disks=8, placement="stripe"),
     "unknown placement 'stripe'"),
    (5, dict(num_rows=0), "num_rows must be >= 1"),
    (6, dict(duration_s=0.0), "duration_s must be positive"),
    (7, dict(deadline_ms=-5.0), "deadline_ms must be positive"),
    (8, dict(lookup=0.0, scan=0.0, insert=0.0), "positive sum"),
    (9, dict(offered_loads=()), "non-empty list of positive"),
    (10, dict(burstiness=0.5), "burstiness is the mean arrival-burst size"),
    # the broken negative control is a test-only protocol, not a mode.
    (26, dict(concurrency="broken"), "unknown concurrency mode 'broken'"),
    # -- the open loop: a chaos clause needs the closed loop's mirrored,
    # logging substrate (crash points included).
    (14, dict(chaos="corrupt rate=0.1"), "only runs under runner = 'closed'"),
    (32, dict(chaos="crash wal=5"), "only runs under runner = 'closed'"),
    # -- chaos clauses on the closed loop -----------------------------------------
    # malformed clause text caught at parse time.
    (15, dict(runner="closed", deadline_ms=30.0, chaos="explode disk=0"),
     "bad chaos clause"),
    # fault aimed at a disk the array doesn't have.
    (16, dict(runner="closed", deadline_ms=30.0, num_disks=4,
              chaos="limp disk=7 x4 @0.1s"),
     "targets disk 7 but the array has num_disks = 4"),
    # killing the only disk is unsurvivable.
    (17, dict(runner="closed", deadline_ms=30.0, num_disks=1,
              chaos="kill disk=0 @0.1s"),
     "unsurvivable"),
    # a storm's resilient clients need a deadline (brownout SLO keys off it too).
    (18, dict(runner="closed", deadline_ms=None, chaos="corrupt rate=0.1"),
     "set deadline_ms"),
    # -- the closed loop: one server, ops admitted one by one, uniform keys -------
    (23, dict(runner="closed", shard_count=2), "a fleet runs only on the open loop"),
    (21, dict(runner="closed", concurrency="page", admission="batch"),
     "admits each client's op individually"),
    (30, dict(runner="closed", concurrency="page", distribution="zipf"),
     "not plumbed into the closed-loop"),
    (31, dict(runner="closed", burstiness=4.0),
     "closed-loop (sessions self-throttle on completions)"),
    # -- batch admission -----------------------------------------------------------
    (20, dict(admission="batch", lookup=0.0, scan=0.9, insert=0.1),
     "no batch would ever form"),
    # -- the fleet -----------------------------------------------------------------
    # fleet disks that don't divide over the shards would sit idle.
    (19, dict(shard_count=5, num_disks=12),
     "num_disks = 12 does not divide over shard_count = 5"),
    # more shards than spindles.
    (22, dict(shard_count=16, num_disks=12),
     "shard_count = 16 exceeds num_disks = 12"),
    # one shard has no boundaries to optimize.
    (24, dict(shard_count=1, placement="optimized"), "no boundaries to optimize"),
    # page latching isn't wired into a fleet of more than one shard.
    (28, dict(shard_count=2, num_disks=8, concurrency="page"),
     "not wired into the shard fleet"),
    # -- scale ---------------------------------------------------------------------
    # paper-scale keys under a smoke deadline: every query would time out.
    (25, dict(num_rows=10_000_000, deadline_ms=5.0), "every query would time out"),
    # a scan can't cover more entries than exist.
    (29, dict(num_rows=50, scan_span=64), "exceeds the 50-key universe"),
]


@pytest.mark.parametrize(
    "overrides, fragment",
    [(overrides, fragment) for __, overrides, fragment in REJECTIONS],
    ids=[f"{number}-{fragment[:34]}" for number, __, fragment in REJECTIONS],
)
def test_invalid_combination_rejected_with_actionable_message(overrides, fragment):
    spec = make(**overrides)
    started = time.monotonic()
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    elapsed = time.monotonic() - started
    assert fragment in str(excinfo.value), (
        f"expected {fragment!r} in:\n{excinfo.value}"
    )
    # Every message names the scenario so matrix-level aggregation stays
    # attributable, and validation never starts the DES clock.
    assert "scenario 't'" in str(excinfo.value)
    assert elapsed < 1.0, "validation must fail before any simulation time"


def test_validate_reports_every_problem_at_once():
    spec = make(runner="closed", chaos="corrupt rate=0.1", deadline_ms=None,
                burstiness=4.0, shard_count=2)
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    assert len(excinfo.value.problems) >= 3


def test_unknown_field_and_missing_required_rejected():
    with pytest.raises(ScenarioError, match="unknown field\\(s\\) warp_factor"):
        ScenarioSpec.from_dict({"name": "x", "runner": "open", "warp_factor": 9})
    with pytest.raises(ScenarioError, match="missing required field 'runner'"):
        ScenarioSpec.from_dict({"name": "x"})


def test_valid_spec_validates_clean():
    assert make().problems() == []
    assert make(
        runner="closed", deadline_ms=30.0,
        chaos="corrupt rate=0.2; crash wal=10", num_disks=4,
    ).problems() == []
    # A clean closed loop needs no deadline, and no latches either.
    assert make(runner="closed").problems() == []
    # A fleet of one is a bare server, so it carries page latches.
    assert make(concurrency="page").problems() == []


# ---------------------------------------------------------------------------
# 2. Round-trips and committed files.
# ---------------------------------------------------------------------------

def test_toml_round_trip_by_hand():
    spec = make(distribution="zipf", zipf_theta=1.4, burstiness=2.5,
                offered_loads=(200, 1600), deadline_ms=None)
    text = spec.to_toml()
    back = ScenarioSpec.from_dict(tomllib.loads(text)["scenario"][0])
    assert back == spec


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    # Text that TOML basic strings can carry (no control chars we don't
    # escape; the emitter escapes quote/backslash/newline/tab itself).
    names = st.text(
        st.characters(codec="utf-8", exclude_categories=("Cs",), min_codepoint=0x20),
        min_size=1, max_size=40,
    )
    finite_floats = st.floats(
        min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
    )

    @st.composite
    def specs(draw):
        return ScenarioSpec(
            name=draw(names),
            runner=draw(st.sampled_from(["open", "closed"])),
            lookup=draw(finite_floats),
            scan=draw(finite_floats),
            insert=draw(finite_floats),
            scan_span=draw(st.integers(1, 10_000)),
            distribution=draw(st.sampled_from(["uniform", "zipf"])),
            zipf_theta=draw(finite_floats),
            burstiness=draw(finite_floats),
            chaos=draw(st.sampled_from(
                ["", "corrupt rate=0.2", "kill disk=0 @0.1s; crash wal=5"]
            )),
            chaos_seed=draw(st.integers(0, 2**31)),
            num_rows=draw(st.integers(1, 10**8)),
            num_disks=draw(st.integers(1, 64)),
            page_size=draw(st.sampled_from([512, 1024, 4096, 8192])),
            shard_count=draw(st.integers(1, 64)),
            placement=draw(st.sampled_from(["equal_width", "optimized"])),
            admission=draw(st.sampled_from(["fifo", "batch"])),
            batch_max=draw(st.integers(1, 256)),
            batch_window_ms=draw(finite_floats),
            concurrency=draw(st.sampled_from(["none", "page", "coarse"])),
            offered_loads=tuple(draw(
                st.lists(st.integers(1, 10**6), min_size=1, max_size=5)
            )),
            duration_s=draw(finite_floats),
            sessions=draw(st.integers(1, 64)),
            ops_per_session=draw(st.integers(1, 1000)),
            think_time_ms=draw(finite_floats),
            deadline_ms=draw(st.one_of(st.none(), finite_floats)),
            max_concurrency=draw(st.integers(1, 256)),
            queue_depth=draw(st.integers(1, 1024)),
            pool_frames=draw(st.integers(1, 4096)),
            seed=draw(st.integers(0, 2**31)),
        )

    @settings(max_examples=200, deadline=None)
    @given(spec=specs())
    def test_toml_round_trip_hypothesis(spec):
        """dict -> spec -> TOML -> tomllib -> spec is the identity.

        Round-trip fidelity is independent of validity: even specs the
        validator would reject must survive serialization unchanged, or a
        matrix file could silently mean something else than it says.
        """
        text = spec.to_toml()
        back = ScenarioSpec.from_dict(tomllib.loads(text)["scenario"][0])
        assert back == spec


def test_every_committed_scenario_file_loads_and_validates():
    files = sorted(SCENARIO_DIR.glob("*.toml"))
    assert len(files) >= 6, f"expected the committed matrices in {SCENARIO_DIR}"
    for path in files:
        specs = load_matrix(path)
        validate_matrix(specs)  # raises on any problem
        assert specs, path


def test_matrix_defaults_overlay_and_duplicate_names(tmp_path):
    good = tmp_path / "m.toml"
    good.write_text(
        "[defaults]\nnum_rows = 1234\n\n"
        '[[scenario]]\nname = "a"\nrunner = "open"\n\n'
        '[[scenario]]\nname = "b"\nrunner = "open"\nnum_rows = 99\n'
    )
    specs = load_matrix(good)
    assert [s.num_rows for s in specs] == [1234, 99]

    dup = tmp_path / "dup.toml"
    dup.write_text(
        '[[scenario]]\nname = "a"\nrunner = "open"\n\n'
        '[[scenario]]\nname = "a"\nrunner = "open"\n'
    )
    with pytest.raises(ScenarioError, match="duplicate scenario name 'a'"):
        load_matrix(dup)

    empty = tmp_path / "empty.toml"
    empty.write_text("[defaults]\nseed = 1\n")
    with pytest.raises(ScenarioError, match="no \\[\\[scenario\\]\\] tables"):
        load_matrix(empty)


# ---------------------------------------------------------------------------
# 3. Cells and determinism.
# ---------------------------------------------------------------------------

class _Captured(Exception):
    """Raised by a stand-in substrate once it has recorded its arguments."""


def capture(monkeypatch, name, passthrough=False):
    """Replace ``cells.<name>`` with a recorder of its keyword arguments.

    With ``passthrough`` the real constructor still runs; otherwise the
    cell stops right there, before any simulation.
    """
    real = getattr(cells, name)
    seen = {}

    def fake(*args, **kwargs):
        seen.update(kwargs)
        if passthrough:
            return real(*args, **kwargs)
        raise _Captured(name)

    monkeypatch.setattr(cells, name, fake)
    return seen


def test_cells_read_units_and_axes_from_the_spec(monkeypatch):
    # ms -> us for every time axis a closed-loop cell forwards; every
    # closed cell records its history.
    spec = make(runner="closed", deadline_ms=30.0, think_time_ms=1.5,
                chaos="corrupt rate=0.2", chaos_seed=7, num_disks=4,
                concurrency="page")
    seen = capture(monkeypatch, "ChaosRunner")
    with pytest.raises(_Captured):
        run_cell((spec, "resilient"))
    assert seen["deadline_us"] == 30_000.0
    assert seen["think_time_us"] == 1_500.0
    assert seen["retry"] is not None and seen["breaker"] is not None
    assert seen["concurrency"] == "page"
    assert seen["record_history"] is True

    # The fleet's num_disks is divided per shard; deadline and batch
    # window reach the fleet in us.
    spec = make(shard_count=4, num_disks=8, deadline_ms=20.0,
                admission="batch", batch_window_ms=2.5, seed=5)
    seen = capture(monkeypatch, "build_fleet")
    with pytest.raises(_Captured):
        run_cell((spec, 400))
    assert seen["num_disks"] == 2
    assert seen["db_seed"] == 5
    assert seen["deadline_us"] == 20_000.0
    assert seen["batch_window_us"] == 2_500.0


def test_zipf_theta_reaches_the_op_stream_exactly(monkeypatch):
    """Regression: the skew once travelled as ``f"zipf:{theta:g}"``,
    which rounds 1.2345678 to 1.23457; the cell passes the exact exponent."""
    spec = make(distribution="zipf", zipf_theta=1.2345678, deadline_ms=50.0)
    server = capture(monkeypatch, "DbmsServer", passthrough=True)
    seen = capture(monkeypatch, "OpenLoopLoadGenerator")
    with pytest.raises(_Captured):
        run_cell((spec, 400))
    assert server["deadline_us"] == 50_000.0
    n = seen["distribution"].n
    assert n == spec.num_rows
    keys = np.arange(0, 2 * n, 2)
    expected = KeyDistribution.zipf(n, theta=1.2345678)
    assert np.array_equal(seen["distribution"].position_weights(),
                          expected.position_weights())
    rounded = KeyDistribution.zipf(n, theta=1.23457)
    assert not np.array_equal(seen["distribution"].position_weights(),
                              rounded.position_weights())
    mix = OpMix(lookup=spec.lookup, scan=spec.scan, insert=spec.insert,
                scan_span=spec.scan_span)
    ours = MixedOpStream(keys, mix, seed=5, distribution=seen["distribution"])
    exact = MixedOpStream(keys, mix, seed=5, distribution=expected)
    assert [ours.next_op() for __ in range(500)] == [exact.next_op() for __ in range(500)]


def test_cell_planning_splits_open_loop_loads_and_chaos_modes():
    serve_cells = plan_cells(make(offered_loads=(200, 800, 1600)))
    assert [value for __, value in serve_cells] == [200, 800, 1600]
    # A storm runs both client stacks; a clean closed loop only the bare one.
    storm = make(runner="closed", deadline_ms=30.0, chaos="corrupt rate=0.2")
    assert [value for __, value in plan_cells(storm)] == ["baseline", "resilient"]
    clean = make(runner="closed", concurrency="page")
    assert [value for __, value in plan_cells(clean)] == ["baseline"]


TINY_SHARD = dict(runner="open", num_rows=1_500, shard_count=2, num_disks=2,
                  offered_loads=(1_500,), duration_s=0.2, max_concurrency=4,
                  queue_depth=16, pool_frames=24)
TINY_CC = dict(runner="closed", concurrency="page", num_rows=300,
               num_disks=2, page_size=512, sessions=3, ops_per_session=10,
               think_time_ms=0.3, lookup=0.5, scan=0.1, insert=0.4, scan_span=16)
TINY_STORM = dict(TINY_CC, concurrency="none", chaos="corrupt rate=0.2; crash wal=5",
                  chaos_seed=5, deadline_ms=30.0)


@pytest.mark.parametrize(
    "axes, deadline_ms",
    [(TINY_SHARD, 80.0), (TINY_CC, 20.0)],
    ids=["shard", "concurrency"],
)
def test_deadline_reaches_shard_and_concurrency_cells(axes, deadline_ms):
    """Both runners forward ``deadline_ms``; the cells still conserve
    (each asserts it) and rerun byte-identically."""
    import json

    spec = make(**axes, deadline_ms=deadline_ms)
    first = run_scenario(spec)
    again = run_scenario(spec)
    assert json.dumps(first.rows, sort_keys=True) == json.dumps(again.rows, sort_keys=True)
    assert first.rows != run_scenario(make(**axes)).rows, "deadline was ignored"
    for row in first.rows:
        if spec.runner == "open":
            assert row["issued"] == row["completed"] + row["shed"] + row["failed"], row
            assert row["timeouts"] > 0, row
        else:
            assert row["linearizable"] == 1, row


def test_rejected_history_is_archived_for_replay(monkeypatch, tmp_path):
    """Every closed cell checks its history: a latched clean run and both
    client stacks through a storm (crash included) raise on a rejected
    history and leave a replayable artifact named after the cell."""
    from repro.verify.linearizability import CheckResult, History

    monkeypatch.setattr(cells, "ARTIFACT_DIR", str(tmp_path))
    monkeypatch.setattr(
        cells, "check_linearizable",
        lambda history: CheckResult(False, None, 0, reason="forced rejection"),
    )
    cases = [(make(**TINY_CC, seed=7), "baseline"),
             (make(**TINY_STORM, seed=7), "baseline"),
             (make(**TINY_STORM, seed=7), "resilient")]
    for spec, clients in cases:
        assert clients in [value for __, value in plan_cells(spec)]
        with pytest.raises(AssertionError, match="forced rejection"):
            run_cell((spec, clients))
        archived = History.read(
            tmp_path / f"{spec.concurrency}-{clients}-seed7.json"
        )
        assert archived.ops


def test_open_cell_of_one_shard_is_a_bare_server(monkeypatch):
    """A fleet of one builds no router: its router counters read 0, and a
    loaded cell's mid-run probe still sees requests in flight."""
    from repro.shard import ShardRouter

    def no_router(*args, **kwargs):
        raise AssertionError("a one-shard open cell built a ShardRouter")

    monkeypatch.setattr(ShardRouter, "__init__", no_router)
    (row,) = run_scenario(make(offered_loads=(3_000,))).rows
    assert row["shard_count"] == 1
    assert row["probe_in_flight"] > 0, row
    assert row["shed"] > 0, "the cell should be loaded past the knee"
    assert all(row[name] == 0 for name in cells.ROUTER_COUNTERS), row


def test_run_scenario_rejects_invalid_before_running():
    with pytest.raises(ScenarioError):
        run_scenario(make(chaos="crash wal=5"))


def test_matrix_jobs2_byte_identical_to_jobs1():
    import json

    specs = load_matrix(SCENARIO_DIR / "serve_smoke.toml")
    a = matrix_payload(specs, run_matrix(specs, jobs=1))
    b = matrix_payload(specs, run_matrix(specs, jobs=2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_matrix_fails_whole_before_any_cell_runs():
    specs = [make(), make(name="bad", chaos="crash wal=5")]
    started = time.monotonic()
    with pytest.raises(ScenarioError, match="scenario 'bad'"):
        run_matrix(specs)
    # The valid first spec must not have burned its simulation time.
    assert time.monotonic() - started < 1.0


def test_renderers_cover_every_scenario_and_row():
    specs = load_matrix(SCENARIO_DIR / "batch_smoke.toml")
    results = run_matrix(specs, jobs=1)
    csv = matrix_to_csv(results)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert len(lines) == 1 + sum(len(r.rows) for r in results)
    md = matrix_to_markdown(specs, results)
    for spec in specs:
        assert f"## `{spec.name}`" in md
    payload = matrix_payload(specs, results)
    assert [entry["spec"]["name"] for entry in payload["scenarios"]] == [
        s.name for s in specs
    ]
