"""Sharded serving: fleet throughput scaling and boundary-placement quality.

Claims checked on every fleet grid in the payload: the open-loop
scenarios whose specs differ only in name, ``shard_count``, ``placement``
and ``num_disks`` (the fleet total), at least one of them a fleet of more
than one shard.  A grid holds key-range fleets of 1 to 4 shards,
equal-width vs optimized boundaries, block-Zipf key popularity, every
fleet built from the *same per-shard hardware*; its one-shard fleet is a
bare server, with no router hop:

(a) horizontal scaling — at an offered load that saturates one shard, the
    4-shard fleet completes >= 2.5x the single-shard lookup throughput
    (same offered load, same per-shard disks/tokens/pool);
(b) boundary placement matters — at 4 shards on Zipf keys, optimized cuts
    dispatch strictly fewer scan fragments than equal-width cuts, and
    split at most 0.75x as many scans across shards (the excess-fragment
    count is the scatter–gather overhead the planner minimizes);
(c) the frontend is exactly conserved on every row
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
    """Assert the sharding claims on one fleet grid's rows."""
    assert rows, "fleet grid holds no rows"
    shard_counts = sorted({row["shard_count"] for row in rows})
    assert 1 in shard_counts and max(shard_counts) >= 4, shard_counts
    top_load = max(row["offered_ops_s"] for row in rows)

    # (c) frontend conservation on every drained row; the mid-run probe
    # (asserted inside each cell) saw in-flight requests.
    for row in rows:
        assert row["issued"] == row["completed"] + row["shed"] + row["failed"], row
    assert any(row["probe_in_flight"] > 0 for row in rows), rows

    # (a) the scaling claim: 4 shards vs 1 at the same (saturating)
    # offered load, same per-shard hardware, optimized boundaries.
    base = _rows_at(rows, shard_count=1, placement="equal_width", offered_ops_s=top_load)[0]
    wide = _rows_at(rows, shard_count=max(shard_counts), placement="optimized",
                    offered_ops_s=top_load)[0]
    assert base["shed"] > 0, f"single shard is not saturated: {base}"
    ratio = wide["lookup_throughput_ops_s"] / base["lookup_throughput_ops_s"]
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


def grids(scenarios):
    """Open-loop scenario groups that differ only in their fleet."""
    fleet_axes = ("name", "shard_count", "placement", "num_disks")
    by_rest = {}
    for entry in scenarios:
        spec = entry["spec"]
        if spec["runner"] != "open":
            continue
        rest = {k: v for k, v in spec.items() if k not in fleet_axes}
        by_rest.setdefault(json.dumps(rest, sort_keys=True), []).append(entry)
    return [
        group for group in by_rest.values()
        if any(entry["spec"]["shard_count"] > 1 for entry in group)
    ]


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python benchmarks/bench_shard.py PAYLOAD.json")
    with open(argv[0]) as handle:
        found = grids(json.load(handle)["scenarios"])
    assert found, f"{argv[0]} holds no fleet grid"
    for group in found:
        check_claims([row for entry in group for row in entry["rows"]])
        names = ", ".join(entry["spec"]["name"] for entry in group)
        print(f"{names}: sharding claims hold")
    print("all sharding claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
