"""Which program entry points the traced run wraps, by layer.

Each row is ``(owner class, attribute, span name, kind, rid_fn)``; the span
name's prefix is the layer.  ``kind="gen"`` marks a process generator:
its spans are per resumption.  Only the benchmark's traced run installs
these; the untraced run executes the program unmodified.
"""

from __future__ import annotations

def _request_rid(self, request, *args, **kwargs) -> int:
    return request.rid


def _owner_rid(*args, owner=None, **kwargs) -> int:
    # Serving ops are tagged owner="<session>#<rid>".
    return int(str(owner).rsplit("#", 1)[1])


def setup_table() -> list:
    """Set-up boundaries: index bulkload, database build, shard planning."""
    from repro.core.disk_first import DiskFirstFpTree
    from repro.dbms import MiniDbms
    from repro.shard import BoundaryPlanner

    return [
        # The constructor runs the in-page layout optimizer.
        (DiskFirstFpTree, "__init__", "core.init", "call", None),
        (DiskFirstFpTree, "bulkload", "core.bulkload", "call", None),
        (MiniDbms, "__init__", "dbms.build", "call", None),
        (BoundaryPlanner, "optimized", "shard.plan", "call", None),
    ]


def run_table() -> list:
    """Timed-phase boundaries of every layer."""
    from repro.core.disk_first import DiskFirstFpTree
    from repro.dbms import MiniDbms
    from repro.des import Environment
    from repro.mem.hierarchy import MemorySystem
    from repro.obs.metrics import Histogram
    from repro.serve import DbmsServer
    from repro.shard import ShardRouter
    from repro.storage.disk import Disk, DiskArray
    from repro.storage.prefetch import AsyncPageReader

    table = [(MemorySystem, name, f"mem.{name}", "call", None) for name in (
        "read_run", "write_run", "prefetch_run", "probe_run",
    )]
    table += [(DiskFirstFpTree, name, f"core.{name}", "call", None) for name in (
        "search", "insert", "delete", "range_scan", "page_path",
    )]
    table += [
        (Environment, "step", "des.step", "call", None),
        (AsyncPageReader, "demand", "storage.demand", "gen", None),
        (AsyncPageReader, "prefetch", "storage.prefetch", "call", None),
        (AsyncPageReader, "_complete", "storage.read_complete", "call", None),
        (DiskArray, "read_page", "storage.read_page", "call", None),
        (DiskArray, "write_page", "storage.write_page", "call", None),
        (Disk, "service", "storage.disk_service", "gen", None),
        (Disk, "service_write", "storage.disk_service_write", "gen", None),
        (MiniDbms, "serve_lookup", "dbms.serve_lookup", "gen", _owner_rid),
        (MiniDbms, "serve_scan", "dbms.serve_scan", "gen", _owner_rid),
        (MiniDbms, "serve_insert", "dbms.serve_insert", "gen", _owner_rid),
        (MiniDbms, "leaf_key_map", "dbms.leaf_key_map", "call", None),
        (DbmsServer, "submit", "serve.submit", "call", _request_rid),
        (DbmsServer, "_client", "serve.client", "gen", _request_rid),
        (DbmsServer, "_execute", "serve.execute", "gen", _request_rid),
        (Histogram, "record", "obs.record", "call", None),
        (ShardRouter, "submit", "shard.submit", "call", _request_rid),
        (ShardRouter, "_client", "shard.client", "gen", _request_rid),
        (ShardRouter, "_route", "shard.route", "gen", _request_rid),
        (ShardRouter, "_gather_fragment", "shard.gather_fragment", "gen", _request_rid),
    ]
    return table


def per_layer(setup, run, counters: dict, ops: int) -> dict:
    """Every per-layer metric that comes from spans, for one traced run.

    ``setup`` and ``run`` are the :class:`spans.SpanRecorder` of the traced
    build and of the traced timed phase.
    ``counters`` holds the workload's counter-derived per-layer values;
    they are merged in (and win) so each name has one source.
    """
    names = run.by_name()
    layers = run.by_layer()
    setup_names = setup.by_name()

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return names.get(name, {}).get("calls", 0)

    def layer_calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    events = calls("des.step")
    metrics = {
        "mem.host_s": self_s("mem"),
        "mem.calls_per_op": layer_calls("mem") / ops,
        "core.host_s": self_s("core"),
        "core.bulkload_s": sum(
            setup_names.get(name, {}).get("total_s", 0.0) for name in ("core.init", "core.bulkload")
        ),
        "des.events_per_op": events / ops,
        "des.host_us_per_event": self_s("des") / events * 1e6 if events else 0.0,
        "storage.host_s": self_s("storage"),
        "storage.demands_per_op": calls("storage.demand") / ops,
        "dbms.build_s": setup_names.get("dbms.build", {}).get("self_s", 0.0),
        "dbms.serve_host_s": sum(
            names.get(f"dbms.serve_{kind}", {}).get("self_s", 0.0)
            for kind in ("lookup", "scan", "insert")
        ),
        "dbms.leaf_map_host_s": names.get("dbms.leaf_key_map", {}).get("total_s", 0.0),
        "serve.host_s": self_s("serve"),
        "obs.records_per_op": calls("obs.record") / ops,
        "obs.host_s": self_s("obs"),
        "shard.host_s": self_s("shard"),
    }
    metrics.update(counters)
    return metrics
