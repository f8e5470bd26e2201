"""Simulator self-performance: batched trace engine vs. the frozen baseline.

Races the two memory-trace engines on the *same* recorded search workload:

1. Build a disk-first fpB+-Tree and record every trace op a batch of
   searches produces (via :class:`repro.btree.trace.RecordingTracer`).
2. Compile the recorded ops into per-engine call lists, each using the
   engine's native entry points — the batched engine gets one
   ``probe_run``/``read_run``/``prefetch_run`` call per op, the frozen
   reference engine (:mod:`repro.mem.legacy`) gets the old tracer's
   scalar expansion (``read`` + ``probe_penalty`` per probe).  Compiling
   to bound methods up front keeps dispatch overhead out of the race.
3. Time several interleaved repetitions of each list with GC paused and
   take the per-engine minimum (the least-interference estimate on a
   shared machine).
4. Assert golden equivalence on the raced trace — both engines must end
   with field-identical MemoryStats and clocks — then write both
   wall-clock numbers, the speedup, and throughput (simulated accesses/sec
   and trace ops/sec) to ``BENCH_selfperf.json`` (``--smoke`` writes
   ``selfperf_smoke.json`` instead, so a wiring check never overwrites the
   committed trajectory).

A second race covers the serving tree's routing primitive: the cache-side
in-page node walk (``DiskFirstFpTree._locate_child_pid`` and ``search``'s
leaf step, under the null tracer) vs the cached flat ``(keys, ptrs)`` pair
(``page_entries``) the served path routes through — one key at a time
(``child_pid``/``leaf_tid``) and as one ``searchsorted`` per page for the
whole batch (what ``descend`` does) — over every page of a built MiniDbms
index and a sorted mixed hit/miss probe batch.  Results are asserted
identical before timing; the record lands under ``inpage_route`` in the
same JSON file.

Usage::

    PYTHONPATH=src python benchmarks/bench_selfperf.py [--smoke] [--out FILE]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time
from collections import deque
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

from repro.btree.context import TreeEnvironment
from repro.btree.search import insertion_slot
from repro.btree.trace import RecordingTracer
from repro.core.disk_first import DiskFirstFpTree
from repro.mem.hierarchy import MemorySystem
from repro.dbms.engine import MiniDbms
from repro.mem.legacy import LegacyMemorySystem
from repro.mem.stats import MemoryStats

#: Default workload: the paper's search experiment at the 32 KB page point
#: (fig10's geometry), scaled to ~64k trace ops.
DEFAULT = dict(page_size=32_768, num_keys=100_000, searches=2_000, reps=7)
SMOKE = dict(page_size=32_768, num_keys=10_000, searches=200, reps=2)
KEY_SPACE = 10_000_000
SEED = 42

#: In-page routing race: every index page of a built serving tree, probed
#: with a sorted mixed hit/miss batch (the level-wise executor's unit of
#: work).
INPAGE_DEFAULT = dict(num_rows=8_000, page_size=4096, probes=1_000, reps=5)
INPAGE_SMOKE = dict(num_rows=2_000, page_size=1024, probes=200, reps=2)

#: The committed trajectory, and the (git-ignored) smoke-run payload.
FULL_OUT = "BENCH_selfperf.json"
SMOKE_OUT = "selfperf_smoke.json"


def record_search_ops(page_size: int, num_keys: int, searches: int) -> list[tuple]:
    """Record the trace-op stream of a search batch on a bulkloaded tree."""
    rng = random.Random(SEED)
    keys = rng.sample(range(KEY_SPACE), num_keys)
    mem = MemorySystem()
    env = TreeEnvironment(mem=mem, page_size=page_size)
    tree = DiskFirstFpTree(env=env)
    recorder = RecordingTracer(mem)
    env.tracer = recorder
    tree.tracer = recorder  # trees cache the tracer at construction
    for key in sorted(keys):
        tree.insert(key, key)
    recorder.ops.clear()  # keep only the search phase
    mem.clear_caches()
    for key in rng.sample(keys, searches):
        tree.search(key)
    return recorder.ops


def compile_batched(mem: MemorySystem, ops: list[tuple]) -> list[tuple]:
    """One bound batched entry point per recorded op."""
    compiled = []
    for op in ops:
        kind = op[0]
        if kind == "probe":
            compiled.append((mem.probe_run, (op[1], op[2])))
        elif kind == "read":
            compiled.append((mem.read_run, (op[1], op[2])))
        elif kind == "prefetch":
            compiled.append((mem.prefetch_run, (op[1], op[2])))
        elif kind == "write":
            compiled.append((mem.write_run, (op[1], op[2])))
        elif kind == "busy":
            compiled.append((mem.busy, (op[1],)))
        elif kind == "visit_node":
            compiled.append((mem.busy, (mem.cpu.node_visit,)))
        elif kind == "call_overhead":
            compiled.append((mem.busy, (mem.cpu.function_call,)))
        else:
            raise ValueError(f"unhandled trace op {kind!r}")
    return compiled


def compile_legacy(mem: LegacyMemorySystem, ops: list[tuple]) -> list[tuple]:
    """The pre-change tracer's scalar expansion of each recorded op."""
    compiled = []
    for op in ops:
        kind = op[0]
        if kind == "probe":
            compiled.append((mem.read, (op[1], op[2])))
            compiled.append((mem.probe_penalty, ()))
        elif kind == "read":
            compiled.append((mem.read, (op[1], op[2])))
        elif kind == "prefetch":
            compiled.append((mem.prefetch, (op[1], op[2])))
        elif kind == "write":
            compiled.append((mem.write, (op[1], op[2])))
        elif kind == "busy":
            compiled.append((mem.busy, (op[1],)))
        elif kind == "visit_node":
            compiled.append((mem.busy, (mem.cpu.node_visit,)))
        elif kind == "call_overhead":
            compiled.append((mem.busy, (mem.cpu.function_call,)))
        else:
            raise ValueError(f"unhandled trace op {kind!r}")
    return compiled


def final_state(mem) -> dict:
    """Every MemoryStats field plus the clock — the equivalence fingerprint."""
    state = {
        f.name: getattr(mem.stats, f.name)
        for f in fields(MemoryStats)
        if f.name != "extra"
    }
    state["now"] = mem.now
    return state


def timed_replay(make_engine, compiler, ops: list[tuple]):
    """One timed replay on a fresh engine (GC paused during the loop)."""
    mem = make_engine()
    compiled = compiler(mem, ops)
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    # deque(genexp, maxlen=0) drives the calls from C — the cheapest
    # per-entry dispatch available, so the measurement is dominated by the
    # engines rather than the driver loop.  Both engines use the same loop.
    deque((fn(*fn_args) for fn, fn_args in compiled), maxlen=0)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed, mem


def race(ops: list[tuple], reps: int) -> dict:
    """Interleaved min-of-reps race; returns the result record."""
    # Warm-up (bytecode caches, allocator) — untimed.
    timed_replay(LegacyMemorySystem, compile_legacy, ops)
    timed_replay(MemorySystem, compile_batched, ops)
    best_legacy = best_batched = None
    for __ in range(reps):
        t_legacy, legacy_mem = timed_replay(LegacyMemorySystem, compile_legacy, ops)
        t_batched, batched_mem = timed_replay(MemorySystem, compile_batched, ops)
        if best_legacy is None or t_legacy < best_legacy:
            best_legacy = t_legacy
        if best_batched is None or t_batched < best_batched:
            best_batched = t_batched
    legacy_state = final_state(legacy_mem)
    batched_state = final_state(batched_mem)
    if legacy_state != batched_state:
        diffs = {
            key: (legacy_state[key], batched_state[key])
            for key in legacy_state
            if legacy_state[key] != batched_state[key]
        }
        raise AssertionError(f"engines diverged on the raced trace: {diffs}")
    accesses = batched_state["accesses"]
    return {
        "legacy_wall_s": round(best_legacy, 6),
        "batched_wall_s": round(best_batched, 6),
        "speedup": round(best_legacy / best_batched, 3),
        "trace_ops": len(ops),
        "simulated_accesses": accesses,
        "legacy_accesses_per_s": round(accesses / best_legacy),
        "batched_accesses_per_s": round(accesses / best_batched),
        "legacy_ops_per_s": round(len(ops) / best_legacy),
        "batched_ops_per_s": round(len(ops) / best_batched),
        "stats_identical": True,
    }


def build_inpage_workload(num_rows: int, page_size: int, probes: int):
    """A built MiniDbms index, its pages as ``(pid, page)``, and a sorted probe batch."""
    db = MiniDbms(
        num_rows=num_rows, num_disks=4, page_size=page_size, seed=SEED, mature=False
    )
    tree = db.index
    interior, leaves = [], []
    frontier = [tree.root_pid]
    while frontier:
        next_frontier = []
        for pid in frontier:
            page = tree.store.page(pid)
            if page.level > 0:
                interior.append((pid, page))
                for node in page.leaf_nodes_in_order():
                    next_frontier.extend(int(p) for p in node.ptrs[: node.count])
            else:
                leaves.append((pid, page))
        frontier = next_frontier
    rng = random.Random(SEED)
    keys = [int(k) for k in db._workload.keys]
    # Hits, near-miss gap keys, and out-of-range probes in one sorted batch.
    pool = keys + [k + 1 for k in keys] + [keys[0] - 3, keys[-1] + 9]
    batch = np.asarray(sorted(rng.choice(pool) for __ in range(probes)), dtype=np.int64)
    return tree, interior, leaves, batch


def inpage_race(tree, interior: list, leaves: list, batch: np.ndarray, reps: int) -> dict:
    """The node walk vs the cached page pair over the same pages and probes."""
    keys_list = [int(k) for k in batch]

    def walk_pass() -> list[list[int]]:
        out = []
        for __, page in interior:
            out.append([tree._locate_child_pid(page, 0, key) for key in keys_list])
        for __, page in leaves:
            row = []
            for key in keys_list:
                node, __ = tree._inpage_descend(page, 0, key)
                slot = insertion_slot(node.keys, node.count, key, 0, tree.keyspec.size)
                found = slot < node.count and int(node.keys[slot]) == key
                row.append(int(node.ptrs[slot]) if found else 0)
            out.append(row)
        return out

    def pair_pass() -> list[list[int]]:
        out = []
        for pid, __ in interior:
            out.append([tree.child_pid(pid, key) for key in keys_list])
        for pid, __ in leaves:
            out.append([tree.leaf_tid(pid, key) for key in keys_list])
        return out

    def pair_batch_pass() -> list[list[int]]:
        out = []
        for pid, __ in interior:
            seps, ptrs = tree.page_entries(pid)
            slots = seps.searchsorted(batch, side="right")
            out.append(ptrs[np.maximum(slots - 1, 0)].tolist())
        for pid, __ in leaves:
            seps, ptrs = tree.page_entries(pid)
            slots = seps.searchsorted(batch, side="left").tolist()
            size = len(seps)
            out.append([
                int(ptrs[slot]) if slot < size and seps[slot] == key else 0
                for slot, key in zip(slots, keys_list)
            ])
        return out

    assert not tree.tracer.active, "the node walk races under the null tracer"
    reference = walk_pass()
    if pair_pass() != reference or pair_batch_pass() != reference:
        raise AssertionError("the cached page pair diverged from the in-page node walk")

    def timed(fn) -> float:
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        gc.enable()
        return elapsed

    passes = {"walk": walk_pass, "pair": pair_pass, "pair_batch": pair_batch_pass}
    best = {name: None for name in passes}
    for __ in range(reps):
        for name, fn in passes.items():
            elapsed = timed(fn)
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    routings = (len(interior) + len(leaves)) * len(keys_list)
    return {
        "walk_wall_s": round(best["walk"], 6),
        "pair_wall_s": round(best["pair"], 6),
        "pair_batch_wall_s": round(best["pair_batch"], 6),
        "speedup": round(best["walk"] / best["pair"], 3),
        "batch_speedup": round(best["walk"] / best["pair_batch"], 3),
        "interior_pages": len(interior),
        "leaf_pages": len(leaves),
        "probe_keys": len(keys_list),
        "routings": routings,
        "walk_routings_per_s": round(routings / best["walk"]),
        "pair_routings_per_s": round(routings / best["pair"]),
        "pair_batch_routings_per_s": round(routings / best["pair_batch"]),
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload + 2 reps (CI wiring check, not a measurement)",
    )
    parser.add_argument("--reps", type=int, default=None, help="timed repetitions per engine")
    parser.add_argument(
        "--out",
        default=None,
        help=f"result file (default {FULL_OUT}; {SMOKE_OUT} with --smoke)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        # A smoke run is a wiring check, not a measurement: it must never
        # overwrite the committed trajectory.
        args.out = SMOKE_OUT if args.smoke else FULL_OUT

    params = dict(SMOKE if args.smoke else DEFAULT)
    if args.reps is not None:
        params["reps"] = args.reps

    print(
        f"recording search workload: page_size={params['page_size']} "
        f"num_keys={params['num_keys']} searches={params['searches']}"
    )
    ops = record_search_ops(params["page_size"], params["num_keys"], params["searches"])
    print(f"recorded {len(ops)} trace ops; racing {params['reps']} reps per engine")
    result = race(ops, params["reps"])
    inpage_params = dict(INPAGE_SMOKE if args.smoke else INPAGE_DEFAULT)
    tree, interior, leaves, batch = build_inpage_workload(
        inpage_params["num_rows"], inpage_params["page_size"], inpage_params["probes"]
    )
    print(
        f"in-page routing race: {len(interior)} interior + {len(leaves)} leaf "
        f"pages x {len(batch)} probes, {inpage_params['reps']} reps"
    )
    result["inpage_route"] = inpage_race(tree, interior, leaves, batch, inpage_params["reps"])
    result["inpage_route"]["workload"] = dict(inpage_params, seed=SEED)
    result["workload"] = {
        "tree": "fp-disk",
        "page_size": params["page_size"],
        "num_keys": params["num_keys"],
        "searches": params["searches"],
        "key_space": KEY_SPACE,
        "seed": SEED,
        "reps": params["reps"],
        "smoke": bool(args.smoke),
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(
        f"legacy {result['legacy_wall_s'] * 1000:.1f} ms  "
        f"batched {result['batched_wall_s'] * 1000:.1f} ms  "
        f"speedup {result['speedup']:.2f}x  (stats identical)"
    )
    inpage = result["inpage_route"]
    print(
        f"in-page routing: node walk {inpage['walk_wall_s'] * 1000:.1f} ms  "
        f"pair {inpage['pair_wall_s'] * 1000:.1f} ms ({inpage['speedup']:.2f}x)  "
        f"pair, one searchsorted per page {inpage['pair_batch_wall_s'] * 1000:.1f} ms "
        f"({inpage['batch_speedup']:.2f}x)  (results identical)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
