"""Golden equivalence: the batched engine == the frozen scalar engine.

:class:`~repro.mem.hierarchy.MemorySystem` runs every access through its
batched entry points (``read_run``/``write_run``/``prefetch_run``/
``probe_run``).  The frozen :class:`~repro.mem.legacy.LegacyMemorySystem`
is the one reference: it shares no code with the batched engine, and its
``*_run`` shims expand each call into the old per-line scalar calls.
Three independent checks:

1. The committed golden-trace fixture (``tests/data/mem_golden_trace.json``,
   generated against the pre-batching engine) replays to field-identical
   ``MemoryStats`` and clocks through one :class:`~repro.btree.trace.Tracer`
   over either engine.
2. A hypothesis property: every ``*_run`` call on the batched engine leaves
   the same state, and returns the same line count, as the same call on the
   frozen engine.
3. Random mixed-op streams, including cache flushes, agree across the two
   engines under the default geometry and stressed ones: tiny caches with
   few MSHRs, a direct-mapped L1, a hardware next-line prefetcher, and a
   single miss handler.
"""

import json
import random
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.trace import Tracer, replay_ops
from repro.mem import CpuCostModel, MemoryConfig, MemorySystem
from repro.mem.legacy import LegacyMemorySystem
from repro.mem.stats import MemoryStats

FIXTURE = Path(__file__).parent / "data" / "mem_golden_trace.json"

STAT_FIELDS = [f.name for f in fields(MemoryStats) if f.name != "extra"]


def fingerprint(mem) -> dict:
    state = {name: getattr(mem.stats, name) for name in STAT_FIELDS}
    state["now"] = mem.now
    return state


def load_cases():
    with open(FIXTURE) as handle:
        payload = json.load(handle)
    return payload["cases"]


CASES = load_cases()


# -- 1. committed fixture, both engines -----------------------------------------

ENGINES = [LegacyMemorySystem, MemorySystem]
ENGINE_IDS = ["legacy-engine", "batched-path"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
def test_golden_trace_replays_identically(case, engine):
    tracer = Tracer(engine(MemoryConfig(**case["config"]), CpuCostModel()))
    replay_ops([tuple(op) for op in case["ops"]], tracer)
    assert fingerprint(tracer.mem) == case["expected"]


def test_fixture_is_nontrivial():
    """The fixture must actually exercise the interesting machinery."""
    for case in CASES:
        expected = case["expected"]
        assert expected["memory_fetches"] > 0
        assert expected["l1_hits"] > 0
        assert expected["now"] > 0
    assert any(c["expected"]["prefetch_covered"] > 0 for c in CASES)
    assert any(c["expected"]["l2_hits"] > 0 for c in CASES)


# -- 2. hypothesis: every *_run call matches the frozen engine ----------------

fast = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Small address space so lines collide and hit every cache/MSHR path; the
# stressed geometries keep evictions and handler pressure frequent.
STRESS_CONFIG = dict(l1_size=512, l1_assoc=2, l2_size=2048, l2_assoc=4, miss_handlers=4)
GEOMETRIES = {
    "default-geometry": {},
    "stress-geometry": STRESS_CONFIG,
    "direct-mapped-l1": dict(STRESS_CONFIG, l1_assoc=1),
    "hardware-prefetch": dict(STRESS_CONFIG, hardware_prefetch_lines=2),
    "one-miss-handler": dict(STRESS_CONFIG, miss_handlers=1),
}

_access = st.tuples(
    st.sampled_from(["read_run", "write_run", "prefetch_run", "probe_run"]),
    st.integers(0, 8192),
    st.integers(1, 400),
)


@fast
@given(
    geometry=st.sampled_from(sorted(GEOMETRIES)),
    ops=st.lists(_access, min_size=1, max_size=60),
)
def test_batched_run_equals_scalar_expansion(geometry, ops):
    """Each batched call == the frozen engine's per-line scalar expansion."""
    config = MemoryConfig(**GEOMETRIES[geometry])
    scalar = LegacyMemorySystem(config, CpuCostModel())
    batched = MemorySystem(config, CpuCostModel())
    for kind, address, nbytes in ops:
        lines = getattr(batched, kind)(address, nbytes)
        assert lines == getattr(scalar, kind)(address, nbytes)
        assert fingerprint(scalar) == fingerprint(batched)


@fast
@given(address=st.integers(0, 1 << 40), nbytes=st.integers(1, 2048))
def test_read_run_equals_n_scalar_reads(address, nbytes):
    """read_run(a, n) == one scalar read per touched line, in order."""
    scalar = LegacyMemorySystem()
    batched = MemorySystem()
    batched.read_run(address, nbytes)
    scalar.read(address, nbytes)
    assert fingerprint(scalar) == fingerprint(batched)
    line_size = batched.config.line_size
    nlines = (address + nbytes - 1) // line_size - address // line_size + 1
    assert batched.stats.accesses == nlines


# -- 3. random mixed streams across both engines --------------------------------


def _random_ops(rng, count):
    ops = []
    for __ in range(count):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("probe", rng.randrange(0, 16384), 4))
        elif roll < 0.55:
            ops.append(("read", rng.randrange(0, 16384), rng.choice((4, 8, 64, 256))))
        elif roll < 0.70:
            ops.append(("prefetch", rng.randrange(0, 16384), rng.choice((64, 512, 832))))
        elif roll < 0.80:
            ops.append(("write", rng.randrange(0, 16384), rng.choice((4, 64))))
        elif roll < 0.90:
            ops.append(("busy", float(rng.randrange(1, 20))))
        elif roll < 0.97:
            ops.append(("visit_node",))
        else:
            ops.append(("clear",))
    return ops


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_random_streams_agree_across_engines(seed, geometry):
    ops = _random_ops(random.Random(seed), 800)
    results = []
    for engine in ENGINES:
        tracer = Tracer(engine(MemoryConfig(**GEOMETRIES[geometry]), CpuCostModel()))
        replay_ops(ops, tracer)
        results.append(fingerprint(tracer.mem))
    assert results[0] == results[1]
