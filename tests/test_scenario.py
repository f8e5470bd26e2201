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
    base = dict(name="t", runner="serve", num_rows=2_000, offered_loads=(400,),
                duration_s=0.2)
    base.update(overrides)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# 1. The rejection table: one row per cross-field rule, message asserted.
# ---------------------------------------------------------------------------

REJECTIONS = [
    # (overrides, substring that must appear in the message)
    (dict(runner="warp"), "unknown runner 'warp'"),
    (dict(admission="lifo"), "unknown admission mode 'lifo'"),
    (dict(concurrency="lockfree"), "unknown concurrency mode 'lockfree'"),
    (dict(distribution="pareto"), "unknown distribution 'pareto'"),
    (dict(runner="shard", shard_count=2, num_disks=8, placement="stripe"),
     "unknown placement 'stripe'"),
    (dict(num_rows=0), "num_rows must be >= 1"),
    (dict(duration_s=0.0), "duration_s must be positive"),
    (dict(deadline_ms=-5.0), "deadline_ms must be positive"),
    (dict(lookup=0.0, scan=0.0, insert=0.0), "positive sum"),
    (dict(offered_loads=()), "non-empty list of positive"),
    (dict(burstiness=0.5), "burstiness is the mean arrival-burst size"),
    # crash point without a WAL: recovery would have nothing to replay.
    (dict(runner="chaos", wal=False, deadline_ms=30.0, chaos="crash wal=5"),
     "crashing without a write-ahead log loses every acknowledged write"),
    # WAL claimed on a runner with no WAL wiring.
    (dict(runner="serve", wal=True), "has no WAL wiring"),
    # chaos/concurrency substrates always log; the spec must say so.
    (dict(runner="chaos", wal=False, deadline_ms=30.0),
     "serves every insert through a write-ahead log"),
    # a chaos clause aimed at a runner that can't execute it.
    (dict(runner="serve", chaos="corrupt rate=0.1"),
     "only runs under runner = 'chaos'"),
    # malformed clause text caught at parse time.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, chaos="explode disk=0"),
     "bad chaos clause"),
    # fault aimed at a disk the array doesn't have.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, num_disks=4,
          chaos="limp disk=7 x4 @0.1s"),
     "targets disk 7 but the array has num_disks = 4"),
    # killing the only disk is unsurvivable.
    (dict(runner="chaos", wal=True, deadline_ms=30.0, num_disks=1,
          chaos="kill disk=0 @0.1s"),
     "unsurvivable"),
    # chaos clients need a deadline (brownout SLO keys off it too).
    (dict(runner="chaos", wal=True, deadline_ms=None), "set deadline_ms"),
    # fleet disks that don't divide over the shards would sit idle.
    (dict(runner="shard", shard_count=5, num_disks=12),
     "num_disks = 12 does not divide over shard_count = 5"),
    # batch admission with no lookups to batch.
    (dict(admission="batch", lookup=0.0, scan=0.9, insert=0.1),
     "no batch would ever form"),
    # batch admission on a closed-loop runner.
    (dict(runner="concurrency", wal=True, concurrency="page", admission="batch"),
     "admits each client's op individually"),
    # more shards than spindles.
    (dict(runner="shard", shard_count=16, num_disks=12),
     "shard_count = 16 exceeds num_disks = 12"),
    # sharding without the shard runner.
    (dict(runner="serve", shard_count=2), "needs runner = 'shard'"),
    # one shard has no boundaries to optimize: the cell emits zero rows.
    (dict(runner="shard", shard_count=1, placement="optimized"),
     "no boundaries to optimize"),
    # paper-scale keys under a smoke deadline: every query would time out.
    (dict(num_rows=10_000_000, deadline_ms=5.0),
     "every query would time out"),
    # the broken negative control is a test-only protocol, not a mode.
    (dict(concurrency="broken"), "unknown concurrency mode 'broken'"),
    # the concurrency runner exists to compare latching regimes.
    (dict(runner="concurrency", wal=True, concurrency="none"),
     "compares latching regimes"),
    # page latching isn't wired into the shard fleet.
    (dict(runner="shard", shard_count=2, num_disks=8, concurrency="page"),
     "not wired into the shard fleet"),
    # a scan can't cover more entries than exist.
    (dict(num_rows=50, scan_span=64), "exceeds the 50-key universe"),
    # skew/burstiness only shape open-loop arrivals.
    (dict(runner="concurrency", wal=True, concurrency="page", distribution="zipf"),
     "not plumbed into the closed-loop"),
    (dict(runner="chaos", wal=True, deadline_ms=30.0, burstiness=4.0),
     "closed-loop (sessions self-throttle on completions)"),
]


@pytest.mark.parametrize(
    "overrides, fragment",
    REJECTIONS,
    ids=[f"{i}-{frag[:34]}" for i, (_, frag) in enumerate(REJECTIONS)],
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
    spec = make(runner="chaos", wal=False, deadline_ms=None, burstiness=4.0)
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    assert len(excinfo.value.problems) >= 3


def test_unknown_field_and_missing_required_rejected():
    with pytest.raises(ScenarioError, match="unknown field\\(s\\) warp_factor"):
        ScenarioSpec.from_dict({"name": "x", "runner": "serve", "warp_factor": 9})
    with pytest.raises(ScenarioError, match="missing required field 'runner'"):
        ScenarioSpec.from_dict({"name": "x"})


def test_valid_spec_validates_clean():
    assert make().problems() == []
    assert make(
        runner="chaos", wal=True, deadline_ms=30.0,
        chaos="corrupt rate=0.2; crash wal=10", num_disks=4,
    ).problems() == []


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
            runner=draw(st.sampled_from(["serve", "chaos", "shard", "concurrency"])),
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
            wal=draw(st.booleans()),
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
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[[scenario]]\nname = "b"\nrunner = "serve"\nnum_rows = 99\n'
    )
    specs = load_matrix(good)
    assert [s.num_rows for s in specs] == [1234, 99]

    dup = tmp_path / "dup.toml"
    dup.write_text(
        '[[scenario]]\nname = "a"\nrunner = "serve"\n\n'
        '[[scenario]]\nname = "a"\nrunner = "serve"\n'
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
    # ms -> us for every time axis a closed-loop cell forwards.
    spec = make(runner="chaos", wal=True, deadline_ms=30.0, think_time_ms=1.5,
                chaos="corrupt rate=0.2", chaos_seed=7, num_disks=4,
                concurrency="page")
    seen = capture(monkeypatch, "ChaosRunner")
    with pytest.raises(_Captured):
        run_cell((spec, "resilient"))
    assert seen["deadline_us"] == 30_000.0
    assert seen["think_time_us"] == 1_500.0
    assert seen["retry"] is not None and seen["breaker"] is not None
    assert seen["concurrency"] == "page"

    # The fleet's num_disks is divided per shard; deadline and batch
    # window reach the fleet in us.
    spec = make(runner="shard", shard_count=4, num_disks=8, deadline_ms=20.0,
                admission="batch", batch_window_ms=2.5)
    seen = capture(monkeypatch, "build_fleet")
    with pytest.raises(_Captured):
        run_cell((spec, 400))
    assert seen["num_disks"] == 2
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
    chaos_cells = plan_cells(make(runner="chaos", wal=True, deadline_ms=30.0))
    assert [value for __, value in chaos_cells] == ["baseline", "resilient"]
    cc = make(runner="concurrency", wal=True, concurrency="page")
    assert [value for __, value in plan_cells(cc)] == ["page"]


TINY_SHARD = dict(runner="shard", num_rows=1_500, shard_count=2, num_disks=2,
                  offered_loads=(1_500,), duration_s=0.2, max_concurrency=4,
                  queue_depth=16, pool_frames=24)
TINY_CC = dict(runner="concurrency", wal=True, concurrency="page", num_rows=300,
               num_disks=2, page_size=512, sessions=3, ops_per_session=10,
               think_time_ms=0.3, lookup=0.5, scan=0.1, insert=0.4, scan_span=16)


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
        if spec.runner == "shard":
            assert row["issued"] == row["completed"] + row["shed"] + row["failed"], row
            assert row["timeouts"] > 0, row
        else:
            assert row["linearizable"] == 1, row


def test_rejected_history_is_archived_for_replay(monkeypatch, tmp_path):
    """A concurrency cell whose history fails the checker raises and
    leaves a replayable artifact named after its mode and seed."""
    from repro.verify.linearizability import CheckResult, History

    monkeypatch.setattr(cells, "ARTIFACT_DIR", str(tmp_path))
    monkeypatch.setattr(
        cells, "check_linearizable",
        lambda history: CheckResult(False, None, 0, reason="forced rejection"),
    )
    spec = make(**TINY_CC, seed=7)
    with pytest.raises(AssertionError, match="forced rejection"):
        run_cell((spec, "page"))
    archived = History.read(tmp_path / "concurrency-page-seed7.json")
    assert archived.ops


def test_run_scenario_rejects_invalid_before_running():
    with pytest.raises(ScenarioError):
        run_scenario(make(runner="serve", wal=True))


def test_matrix_jobs2_byte_identical_to_jobs1():
    import json

    specs = load_matrix(SCENARIO_DIR / "serve_smoke.toml")
    a = matrix_payload(specs, run_matrix(specs, jobs=1))
    b = matrix_payload(specs, run_matrix(specs, jobs=2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_matrix_fails_whole_before_any_cell_runs():
    specs = [make(), make(name="bad", runner="serve", wal=True)]
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
