"""cachesim-mixed: the paper's Section 4.2 recipe under the cache simulator.

A disk-first fpB+-tree is bulkloaded untraced, the modelled caches are
cleared (statistics start from empty caches, as in the paper), and a
seeded stream of searches, inserts, deletes and range scans runs under
:class:`~repro.mem.hierarchy.MemorySystem`.  Each op's simulated cost is
the cycle-clock delta across it (1 GHz modelled CPU, so cycles / 1e6 =
ms).  No DES environment exists here: ``des``, ``storage``, ``dbms``,
``serve``, ``obs`` and ``shard`` are bypassed and ``mem``/``core`` do the
host work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import benchstats
from report import Report

NAME = "cachesim-mixed"

SEARCH, INSERT, DELETE, SCAN = 0, 1, 2, 3
KIND_NAMES = ("search", "insert", "delete", "scan")

#: The modelled CPU runs at 1 GHz (paper Table 1).
CYCLES_PER_MS = 1e6


@dataclass(frozen=True)
class Config:
    num_keys: int = 1_000_000
    page_size: int = 16 * 1024
    fill: float = 0.9
    scan_span: int = 1000
    #: Op shares: search, insert, delete, scan.
    mix: tuple = (0.65, 0.15, 0.15, 0.05)
    #: Ops generated per requested second of timed phase (host calibration).
    ops_per_second: int = 3800
    #: Every kind gets at least this many samples (p99 then has >= 10 beyond).
    min_samples: int = 1000
    #: The key universe is fixed; only the op stream comes from ``--seed``.
    data_seed: int = 42


CONFIG = Config()
TINY = replace(CONFIG, num_keys=20_000, scan_span=100, ops_per_second=400, min_samples=100)


@dataclass
class Inputs:
    keys: np.ndarray  # sorted bulkload keys (int64)
    tids: np.ndarray
    kinds: np.ndarray  # op kind per op
    arg_a: np.ndarray  # search/delete/scan-start position, or insert position
    ops: list  # (kind, a, b) ready to execute


def make_inputs(cfg: Config, seed: int, seconds: float) -> Inputs:
    from repro.workloads.generator import KeyWorkload

    universe = KeyWorkload(cfg.num_keys, seed=cfg.data_seed)
    keys = universe.keys.astype(np.int64)
    tids = universe.tids.astype(np.int64)
    rng = np.random.default_rng(seed)
    smallest = min(cfg.mix)
    n_ops = max(int(round(seconds * cfg.ops_per_second)), math.ceil(cfg.min_samples / smallest))
    counts = [int(round(n_ops * share)) for share in cfg.mix]
    kinds = np.repeat(np.arange(4), counts)
    rng.shuffle(kinds)
    arg = np.empty(kinds.size, dtype=np.int64)
    arg[kinds == SEARCH] = rng.integers(0, cfg.num_keys, counts[SEARCH])
    # Inserts and deletes each touch distinct positions, so every key sees at
    # most one update event and the reference state stays a simple replay.
    arg[kinds == INSERT] = rng.choice(cfg.num_keys, counts[INSERT], replace=False)
    arg[kinds == DELETE] = rng.choice(cfg.num_keys, counts[DELETE], replace=False)
    arg[kinds == SCAN] = rng.integers(0, cfg.num_keys - cfg.scan_span + 1, counts[SCAN])
    ops = []
    next_tid = cfg.num_keys + 1
    for kind, a in zip(kinds.tolist(), arg.tolist()):
        if kind == SEARCH or kind == DELETE:
            ops.append((kind, int(keys[a]), 0))
        elif kind == INSERT:
            # Stored keys are >= 2 apart, so key + 1 is always free.
            ops.append((kind, int(keys[a]) + 1, next_tid))
            next_tid += 1
        else:
            ops.append((kind, int(keys[a]), int(keys[a + cfg.scan_span - 1])))
    return Inputs(keys=keys, tids=tids, kinds=kinds, arg_a=arg, ops=ops)


@dataclass
class System:
    mem: object
    tree: object


def build(cfg: Config, inputs: Inputs) -> System:
    from repro.btree.context import TreeEnvironment
    from repro.core.disk_first import DiskFirstFpTree
    from repro.mem.hierarchy import MemorySystem

    mem = MemorySystem()
    tree = DiskFirstFpTree(TreeEnvironment(page_size=cfg.page_size, mem=mem))
    with mem.paused():
        tree.bulkload(inputs.keys, inputs.tids, fill=cfg.fill)
    return System(mem=mem, tree=tree)


def _no_tick() -> None:
    pass


@dataclass
class Outcome:
    results: list
    stamps: list  # simulated clock after each op
    start_cycles: float
    stats_before: object


def drive(system: System, inputs: Inputs, tick=None) -> Outcome:
    """Run the op stream; ``tick`` (host-speed calibration) is called between ops."""
    mem, tree = system.mem, system.tree
    mem.clear_caches()
    start = mem.now
    before = mem.stats.copy()
    search, insert, delete, scan = tree.search, tree.insert, tree.delete, tree.range_scan
    results = [None] * len(inputs.ops)
    stamps = [0.0] * len(inputs.ops)
    tick = tick or _no_tick
    for i, (kind, a, b) in enumerate(inputs.ops):
        tick()
        if kind == SEARCH:
            results[i] = search(a)
        elif kind == INSERT:
            insert(a, b)
        elif kind == DELETE:
            results[i] = delete(a)
        else:
            results[i] = scan(a, b)
        stamps[i] = mem.now
    return Outcome(results=results, stamps=stamps, start_cycles=start, stats_before=before)


def _check(cfg: Config, system: System, inputs: Inputs, outcome: Outcome) -> tuple[int, list]:
    """Replay the op stream against a reference; returns (wrong ops, problems)."""
    from repro.btree.base import IndexCorruptionError
    from repro.scrub import scrub_tree

    kinds, arg, keys, tids = inputs.kinds, inputs.arg_a, inputs.keys, inputs.tids
    order = np.arange(kinds.size)
    never = kinds.size
    delete_at = np.full(cfg.num_keys, never, dtype=np.int64)
    delete_at[arg[kinds == DELETE]] = order[kinds == DELETE]
    insert_at = np.full(cfg.num_keys, never, dtype=np.int64)
    insert_at[arg[kinds == INSERT]] = order[kinds == INSERT]
    insert_tid = np.zeros(cfg.num_keys, dtype=np.int64)
    insert_tid[arg[kinds == INSERT]] = [
        op[2] for op in inputs.ops if op[0] == INSERT
    ]
    wrong = 0
    problems: list[str] = []

    def note(message: str, op_wrong: bool = True) -> None:
        nonlocal wrong
        wrong += op_wrong
        if len(problems) < 8:
            problems.append(message)

    results = outcome.results
    for i in np.flatnonzero(kinds == SEARCH).tolist():
        p = int(arg[i])
        expected = int(tids[p]) if delete_at[p] > i else None
        if results[i] != expected:
            note(f"search #{i} key {int(keys[p])}: got {results[i]}, expected {expected}")
    for i in np.flatnonzero(kinds == DELETE).tolist():
        if results[i] is not True:
            note(f"delete #{i} key {int(keys[arg[i]])} returned {results[i]}")
    span = cfg.scan_span
    deleted_pos = np.flatnonzero(delete_at < never)
    inserted_pos = np.flatnonzero(insert_at < never)
    prefix_tids = np.concatenate(([0], np.cumsum(tids)))
    for i in np.flatnonzero(kinds == SCAN).tolist():
        s = int(arg[i])
        gone = deleted_pos[(deleted_pos >= s) & (deleted_pos <= s + span - 1)]
        gone = gone[delete_at[gone] < i]
        # key[p] + 1 lies inside [key[s], key[s + span - 1]] iff s <= p <= s + span - 2.
        new = inserted_pos[(inserted_pos >= s) & (inserted_pos <= s + span - 2)]
        new = new[insert_at[new] < i]
        count = span - gone.size + new.size
        tid_sum = int(prefix_tids[s + span] - prefix_tids[s]) - int(tids[gone].sum())
        tid_sum += int(insert_tid[new].sum())
        got = results[i]
        if got.count != count or got.tid_sum != tid_sum:
            note(f"scan #{i} from key {int(keys[s])}: got {got}, expected count {count}")
    tree, mem = system.tree, system.mem
    with mem.paused():
        expected_entries = cfg.num_keys - deleted_pos.size + inserted_pos.size
        if tree.num_entries != expected_entries:
            note(f"tree holds {tree.num_entries} entries, reference {expected_entries}", False)
        for op in inputs.ops:
            if op[0] == INSERT and tree.search(op[1]) != op[2]:
                note(f"inserted key {op[1]} not found after the run", False)
        try:
            scrub_tree(tree)
        except IndexCorruptionError as exc:
            note(f"scrub: {exc}", False)
    return wrong, problems


def counted() -> list:
    """Rarely-called program entry points whose calls the drive counts."""
    from repro.des import Environment

    return [(Environment, "__init__", "des.environments")]


def evaluate(cfg: Config, system: System, inputs: Inputs, outcome: Outcome, counts: dict) -> Report:
    wrong, problems = _check(cfg, system, inputs, outcome)
    stamps = np.asarray(outcome.stamps)
    cycles = np.diff(stamps, prepend=outcome.start_cycles)
    per_kind = {
        name: np.sort(cycles[inputs.kinds == code]) for code, name in enumerate(KIND_NAMES)
    }
    total_cycles = float(stamps[-1] - outcome.start_cycles)
    n_ops = len(inputs.ops)
    ops_per_sim_s = n_ops / (total_cycles / (CYCLES_PER_MS * 1e3))
    search, scan = per_kind["search"], per_kind["scan"]
    sim = {
        "sim_lookup_mean_ms": float(search.mean()) / CYCLES_PER_MS,
        "sim_lookup_tail_ms": benchstats.tail_mean(search) / CYCLES_PER_MS,
        "sim_scan_tail_ms": benchstats.tail_mean(scan) / CYCLES_PER_MS,
        # One simulated CPU serves the stream back to back: its throughput is
        # both the capacity and (every op finishing far inside the latency
        # limit) the goodput at this input size.
        "sim_capacity_ops_s": ops_per_sim_s,
        "sim_goodput_ops_s": ops_per_sim_s,
    }
    stats = system.mem.stats.minus(outcome.stats_before)
    demand_misses = stats.memory_fetches + stats.prefetch_covered
    layer = {
        "mem.memory_fetches_per_op": stats.memory_fetches / n_ops,
        "mem.dcache_stall_share": stats.dcache_stall_cycles / stats.total_cycles,
        "mem.prefetch_covered_share": (
            stats.prefetch_covered / demand_misses if demand_misses else 0.0
        ),
        "core.pages_per_lookup": float(
            np.mean([
                len(system.tree.page_path(op[1])) for op in inputs.ops[:2000] if op[0] == SEARCH
            ])
        ),
    }
    for name, values in per_kind.items():
        layer[f"mem.{name}_cycles"] = float(values.mean())
    lines = [
        f"tree: {cfg.num_keys} keys bulkloaded at fill {cfg.fill}, "
        f"{cfg.page_size // 1024} KB pages, "
        f"height {system.tree.height}, {system.tree.num_pages} pages "
        f"(~{system.tree.num_pages * cfg.page_size / 2**20:.0f} MB against a 2 MB modelled L2)",
        "loop: closed, one simulated CPU; caches cleared before the stream "
        "(cold start, paper Sec. 4.2)",
    ]
    for name, values in per_kind.items():
        s = benchstats.summarize(values)
        lines.append(
            f"sim {name}: n={s['n']} mean={s['mean']:.1f} p50={s['p50']:.1f} "
            f"p99={s['p99']:.1f} tail99={s['tail99']:.1f} cycles "
            f"(highest reportable percentile p{s['top_percentile']})"
        )
    exercised = [
        ("mem accesses > 0", stats.accesses > 0),
        (
            "zero DES environments (des/storage/serve bypassed)",
            counts.get("des.environments", 0) == 0,
        ),
    ]
    return Report(
        attempted=n_ops,
        completed=n_ops - wrong,
        refused=0,
        failed=wrong,
        sim=sim,
        layer=layer,
        problems=problems,
        exercised=exercised,
        lines=lines,
    )

