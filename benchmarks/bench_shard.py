"""Sharded serving: fleet throughput scaling and boundary-placement quality.

Claims checked on the ``shard`` scenarios in the payload, read as one
grid (key-range fleets of 1 to 4 shards, equal-width vs optimized
boundaries, block-Zipf key popularity, every fleet built from the *same
per-shard hardware*):

(a) horizontal scaling — at an offered load that saturates one shard, the
    4-shard fleet completes >= 2.5x the single-shard lookup throughput
    (same offered load, same per-shard disks/tokens/pool);
(b) boundary placement matters — at 4 shards on Zipf keys, optimized cuts
    dispatch strictly fewer scan fragments than equal-width cuts, and
    split at most 0.75x as many scans across shards (the excess-fragment
    count is the scatter–gather overhead the planner minimizes);
(c) the router plane is exactly conserved on every row
    (issued == completed + shed + failed on a drained run), and the
    mid-run conservation probe (asserted inside each cell) saw the
    identity hold with requests genuinely in flight on the loaded cells.

The payload is a scenario run's ``--json`` output; the run itself (and
its determinism gate) happens in ``python -m repro.bench scenario``::

    python -m repro.bench scenario --matrix benchmarks/scenarios/shard_smoke.toml \\
        --jobs 2 --gate --json shard.json
    python benchmarks/bench_shard.py shard.json
"""

import json
import sys


def _rows_at(rows, **conditions):
    return [
        row for row in rows
        if all(row[key] == value for key, value in conditions.items())
    ]


def check_claims(rows):
    """Assert the sharding claims on the shard scenarios' rows."""
    assert rows, "payload holds no shard rows"
    shard_counts = sorted({row["shard_count"] for row in rows})
    assert 1 in shard_counts and max(shard_counts) >= 4, shard_counts
    top_load = max(row["offered_ops_s"] for row in rows)

    # (c) router-plane conservation on every drained row; the mid-run
    # probe (asserted inside each cell) saw in-flight requests.
    for row in rows:
        assert row["issued"] == row["completed"] + row["shed"] + row["failed"], row
    assert any(row["probe_in_flight"] > 0 for row in rows), rows

    # (a) the scaling claim: 4 shards vs 1 at the same (saturating)
    # offered load, same per-shard hardware, optimized boundaries.
    base = _rows_at(rows, shard_count=1, placement="equal_width", offered_ops_s=top_load)[0]
    wide = _rows_at(rows, shard_count=max(shard_counts), placement="optimized",
                    offered_ops_s=top_load)[0]
    assert base["shed"] > 0, f"single shard is not saturated: {base}"
    ratio = wide["lookup_tput_ops_s"] / base["lookup_tput_ops_s"]
    assert ratio >= 2.5, (
        f"4-shard fleet scaled only {ratio:.2f}x over one shard "
        f"(claim needs >= 2.5x): {base} vs {wide}"
    )

    # (b) boundary placement: optimized cuts split fewer Zipf scans.
    for load in sorted({row["offered_ops_s"] for row in rows}):
        ew = _rows_at(rows, shard_count=max(shard_counts),
                      placement="equal_width", offered_ops_s=load)[0]
        opt = _rows_at(rows, shard_count=max(shard_counts),
                       placement="optimized", offered_ops_s=load)[0]
        # Same seed => same op stream => same scan population: fragment
        # counts differ exactly by how many scans each placement splits.
        assert opt["scan_fragments"] < ew["scan_fragments"], (ew, opt)
        assert ew["cross_shard_scans"] > 0, ew
        assert opt["cross_shard_scans"] <= 0.75 * ew["cross_shard_scans"], (ew, opt)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python benchmarks/bench_shard.py PAYLOAD.json")
    with open(argv[0]) as handle:
        rows = [
            row
            for entry in json.load(handle)["scenarios"]
            if entry["spec"]["runner"] == "shard"
            for row in entry["rows"]
        ]
    check_claims(rows)
    print("all sharding claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
