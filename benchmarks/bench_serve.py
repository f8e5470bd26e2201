"""Serving layer: the throughput/latency hockey-stick under open-loop load.

Claims checked on every saturation curve in the payload (a fifo
open-loop scenario on one server with at least three offered loads,
rising past the disk-array service limit):

(a) below the knee the server keeps up — zero shedding and completed
    throughput within 10% of offered;
(b) beyond the knee throughput *plateaus* at the service limit (the two
    most-overloaded points differ by < 25% while offered load differs by
    >= 1.5x) while p99 latency has risen by >= 2x over the unloaded
    baseline — queueing, not service, dominates;
(c) once the admission queue bound is hit the excess is shed
    (shed count > 0 at the top load, and the overload rows stop accepting
    more than the plateau);
(d) accounting is conserved on every row (issued == completed + shed on a
    drained run).

Claims checked on every batched-admission race in the payload (two
one-server open-loop scenarios identical but for ``admission``, so both
modes see the same arrival stream on a lookup-heavy mix):

(e) batch mode completes >= 1.5x the lookup throughput of individual
    admission at every offered load — one admission token carries a whole
    batch, shared upper pages are read once, and sorted per-level
    prefetch waves land leaf reads near-sequentially;
(f) the win comes from genuine batching (batches formed, mean size > 1,
    prefetch waves issued) while individual mode forms none.

The payload is a scenario run's ``--json`` output; the run itself (and
its determinism gate) happens in ``python -m repro.bench scenario``::

    python -m repro.bench scenario --matrix benchmarks/scenarios/serve_smoke.toml \\
        --jobs 2 --gate --json serve.json
    python benchmarks/bench_serve.py serve.json

``batch_smoke.toml`` carries the race; ``full.toml`` both at default scale.
"""

import json
import sys


def check_claims(rows):
    """Assert the saturation-curve claims on one serve scenario's rows."""
    rows = sorted(rows, key=lambda r: r["offered_ops_s"])
    assert len(rows) >= 3, "need at least 3 offered loads to see a knee"
    for row in rows:
        # Drained open-loop run: every issued request completed or was shed.
        assert row["issued"] == row["completed"] + row["shed"], row

    low, second_top, top = rows[0], rows[-2], rows[-1]
    # (a) under light load the server keeps up and sheds nothing.
    assert low["shed"] == 0, low
    assert low["throughput_ops_s"] >= 0.9 * low["offered_ops_s"], low

    # (b) overload: throughput plateaus while p99 rises.
    assert top["offered_ops_s"] >= 1.5 * second_top["offered_ops_s"]
    plateau_ratio = top["throughput_ops_s"] / second_top["throughput_ops_s"]
    assert 0.8 <= plateau_ratio <= 1.25, (second_top, top)
    assert top["throughput_ops_s"] <= 0.8 * top["offered_ops_s"], top
    assert top["p99_ms"] >= 2.0 * low["p99_ms"], (low, top)

    # (c) the admission queue bound converts the excess into sheds.
    assert top["shed"] > 0, top
    assert top["shed"] > second_top["shed"] or second_top["shed"] > 0


def check_batch_claims(fifo_rows, batch_rows):
    """Assert the batched-admission claims on a fifo/batch scenario pair."""
    by_load = {}
    for mode, rows in (("fifo", fifo_rows), ("batch", batch_rows)):
        for row in rows:
            by_load.setdefault(row["offered_ops_s"], {})[mode] = row
    assert by_load, "race produced no rows"
    for load, modes in sorted(by_load.items()):
        fifo, batch = modes["fifo"], modes["batch"]
        # (f) the modes really differ: individual admission never batches,
        # batch admission forms multi-op batches and issues prefetch waves.
        assert fifo["batches"] == 0 and fifo["prefetch_waves"] == 0, fifo
        assert batch["batches"] > 0 and batch["mean_batch_size"] > 1.0, batch
        assert batch["prefetch_waves"] > 0, batch
        # (e) the headline claim: batched execution completes >= 1.5x the
        # lookup throughput of individual admission on the same arrivals.
        assert (
            batch["lookup_throughput_ops_s"]
            >= 1.5 * fifo["lookup_throughput_ops_s"]
        ), (fifo, batch)
        assert batch["lookups_completed"] >= 1.5 * fifo["lookups_completed"], (
            fifo,
            batch,
        )
        print(
            f"load {load}: batch/individual lookup throughput "
            f"{batch['lookup_throughput_ops_s'] / fifo['lookup_throughput_ops_s']:.2f}x"
        )


def races(scenarios):
    """(fifo, batch) scenario pairs whose specs differ only in admission."""
    by_rest = {}
    for entry in scenarios:
        rest = {k: v for k, v in entry["spec"].items() if k not in ("name", "admission")}
        key = json.dumps(rest, sort_keys=True)
        by_rest.setdefault(key, {})[entry["spec"]["admission"]] = entry
    return [
        (pair["fifo"], pair["batch"])
        for pair in by_rest.values()
        if {"fifo", "batch"} <= set(pair)
    ]


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python benchmarks/bench_serve.py PAYLOAD.json")
    with open(argv[0]) as handle:
        scenarios = [
            entry for entry in json.load(handle)["scenarios"]
            if entry["spec"]["runner"] == "open" and entry["spec"]["shard_count"] == 1
        ]
    checked = 0
    for entry in scenarios:
        spec = entry["spec"]
        if spec["admission"] == "fifo" and len(spec["offered_loads"]) >= 3:
            check_claims(entry["rows"])
            print(f"{spec['name']}: saturation-curve claims hold")
            checked += 1
    for fifo, batch in races(scenarios):
        check_batch_claims(fifo["rows"], batch["rows"])
        print(f"{fifo['spec']['name']} vs {batch['spec']['name']}: batching claims hold")
        checked += 1
    assert checked, f"{argv[0]} holds no saturation curve and no batch race"
    print("all serving claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
