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
4. Range-scan-shaped streams agree across the two engines: page-wide
   node-prefetch bursts that keep every miss handler busy, prefetches of
   L2-resident lines interleaved with bus-queued ones, half-page demand
   reads that leave covered fetches behind on the completion heap, and a
   hardware prefetcher that overfills the in-flight set past
   ``miss_handlers``.
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

# A prefetch_run of up to 64 lines can saturate the default geometry's 32
# miss handlers in one call; demand ranges stay short.
_access = st.one_of(
    st.tuples(
        st.sampled_from(["read_run", "write_run", "probe_run"]),
        st.integers(0, 8192),
        st.integers(1, 400),
    ),
    st.tuples(st.just("prefetch_run"), st.integers(0, 8192), st.integers(1, 4096)),
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


# -- 4. range-scan-shaped streams across both engines ---------------------------

#: (geometry, page bytes, bytes per in-page leaf node): a page prefetch burst
#: is several times the geometry's miss handlers.
SCAN_GEOMETRIES = {
    "default-geometry": ({}, 16384, 576),
    "hardware-prefetch-default": (dict(hardware_prefetch_lines=4), 16384, 576),
    "stress-geometry": (STRESS_CONFIG, 1024, 128),
    "direct-mapped-l1": (dict(STRESS_CONFIG, l1_assoc=1), 1024, 128),
    "hardware-prefetch-stress": (dict(STRESS_CONFIG, hardware_prefetch_lines=3), 1024, 192),
}


def _scan_ops(rng, geometry, scans):
    """Range scans as the fpB+-tree issues them (paper Sec. 3.3): prefetch
    every leaf node of a page, then read part of it.

    Some pages are pre-warmed into L2 and then pushed out of L1 by a sweep
    one L1 size long, so their prefetches complete at ``now + l2_hit_latency``
    between bus-queued ones; a cold demand read after a burst makes a
    hardware prefetcher post past the miss-handler bound.
    """
    config, page, node = SCAN_GEOMETRIES[geometry]
    l1_size = MemoryConfig(**config).l1_size
    far = 64 * page  # the sweep and cold reads live past the scanned pages
    ops = []
    for __ in range(scans):
        base = rng.randrange(32) * page
        if rng.random() < 0.4:
            ops.append(("read", base + rng.choice((0, page // 2)), page // 2))
            ops.append(("read", far + rng.randrange(4) * l1_size, l1_size))
        for offset in range(0, page, node):
            ops.append(("prefetch", base + offset, min(node, page - offset)))
            if rng.random() < 0.3:
                ops.append(("busy", float(rng.randrange(1, 8))))
        if rng.random() < 0.5:
            ops.append(("read", far + rng.randrange(16 * page), rng.choice((4, 256))))
        ops.append(("read", base + rng.choice((0, page // 4, page // 2)), page // 2))
        ops.append(("probe", base + rng.randrange(page), 4))
        if rng.random() < 0.2:
            ops.append(("visit_node",))
    return ops


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("geometry", list(SCAN_GEOMETRIES))
def test_scan_streams_agree_across_engines(seed, geometry):
    ops = _scan_ops(random.Random(seed), geometry, 60)
    config = MemoryConfig(**SCAN_GEOMETRIES[geometry][0])
    results = []
    for engine in ENGINES:
        tracer = Tracer(engine(config, CpuCostModel()))
        replay_ops(ops, tracer)
        results.append(fingerprint(tracer.mem))
    assert results[0] == results[1]


@pytest.mark.parametrize("geometry", ["default-geometry", "hardware-prefetch-default"])
def test_scan_streams_reach_the_saturated_prefetch_path(geometry):
    """The scan streams must hit what they exist to test: a full miss-handler
    file at a prefetch, stale heap entries, L2-latency posts, and (with a
    hardware prefetcher) more fetches in flight than there are handlers."""
    config = MemoryConfig(**SCAN_GEOMETRIES[geometry][0])
    mem = MemorySystem(config, CpuCostModel())
    tracer = Tracer(mem)
    line_size = config.line_size
    saturated = stale = l2_posts = overfull = 0
    for op in _scan_ops(random.Random(1), geometry, 60):
        if op[0] == "prefetch":
            saturated += len(mem._inflight) >= config.miss_handlers
            overfull += len(mem._inflight) > config.miss_handlers
            lines = range(op[1] // line_size, (op[1] + op[2] - 1) // line_size + 1)
            l2_posts += sum(
                mem.l2.contains(line) and not mem.l1.contains(line) and line not in mem._inflight
                for line in lines
            )
        replay_ops([op], tracer)
        stale += len(mem._heap) > len(mem._inflight)
    assert saturated > 100
    assert stale > 0
    assert l2_posts > 0
    if config.hardware_prefetch_lines:
        assert overfull > 0


@pytest.mark.parametrize("geometry", list(SCAN_GEOMETRIES))
def test_stale_heap_entries_never_complete_after_now(geometry):
    """The invariant the saturated stall relies on to skip the staleness
    check: a heap entry no longer in ``_inflight`` (covered by a demand
    access) completed no later than the current clock, and ``_wake`` is a
    lower bound on every heap entry."""
    config = MemoryConfig(**SCAN_GEOMETRIES[geometry][0])
    mem = MemorySystem(config, CpuCostModel())
    tracer = Tracer(mem)
    rng = random.Random(7)
    ops = _scan_ops(rng, geometry, 30) + _random_ops(rng, 400) + _scan_ops(rng, geometry, 30)
    for op in ops:
        replay_ops([op], tracer)
        for entry in mem._heap:
            assert mem._wake <= entry[0]
            if mem._inflight.get(entry[2]) is not entry:
                assert entry[0] <= mem.now
