"""Contended serving: page-level latches beat one coarse tree latch.

Claims checked on the latched closed-loop scenarios without a chaos
clause in the payload (one write-heavy workload on split-prone 512-byte
pages, served under a coarse tree-wide latch and under page-level
optimistic reads + latch-crabbing writes, paired by seed):

(a) every cell survives with accounting conserved, zero acknowledged
    inserts lost, and a history the Wing–Gong checker accepts (a rejected
    history aborts the run and archives a replayable JSON artifact);
(b) per seed, page mode beats the coarse latch on p99 *lookup* latency
    under write load — readers stop paying for splits they never touch —
    while completing at least as many operations;
(c) the page-mode machinery demonstrably engaged: optimistic validation
    failures > 0 (the load genuinely conflicts) and the coarse cell shows
    write-latch waits (the big lock genuinely queued).

The payload is a scenario run's ``--json`` output; the run itself (and
its determinism gate) happens in ``python -m repro.bench scenario``::

    python -m repro.bench scenario --matrix benchmarks/scenarios/concurrency_smoke.toml \\
        --jobs 2 --gate --json concurrency.json
    python benchmarks/bench_concurrency.py concurrency.json
"""

import json
import sys


def check_claims(rows):
    """Assert the concurrency claims on the concurrency scenarios' rows."""
    cells = {(row["concurrency"], row["seed"]): row for row in rows}
    seeds = sorted({seed for __, seed in cells})
    assert len(cells) == 2 * len(seeds), sorted(cells)

    # (a) every cell is sound: linearizable history, nothing lost.
    for row in rows:
        assert row["linearizable"] == 1, row
        assert row["failed"] == 0, row

    for seed in seeds:
        coarse, page = cells[("coarse", seed)], cells[("page", seed)]
        # (b) page-level CC wins on tail lookup latency under write load.
        assert page["p99_lookup_ms"] < coarse["p99_lookup_ms"], (
            seed, coarse["p99_lookup_ms"], page["p99_lookup_ms"],
        )
        assert page["ok_ops"] >= coarse["ok_ops"], (seed, coarse["ok_ops"], page["ok_ops"])
        # (c) the machinery engaged on both sides.
        assert coarse["write_waits"] > 0, coarse
        assert page["validation_failures"] > 0, page


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python benchmarks/bench_concurrency.py PAYLOAD.json")
    with open(argv[0]) as handle:
        rows = [
            row
            for entry in json.load(handle)["scenarios"]
            if entry["spec"]["runner"] == "closed"
            and not entry["spec"]["chaos"]
            and entry["spec"]["concurrency"] != "none"
            for row in entry["rows"]
        ]
    assert rows, f"{argv[0]} holds no latched closed-loop scenario"
    check_claims(rows)
    print("all concurrency claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
