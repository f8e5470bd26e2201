"""Chaos serving: client-side resilience pays for itself under a fault storm.

Claims checked on every closed-loop scenario with a chaos clause in the
payload (one seeded fault schedule — array-wide corruption, a limping
disk, a dead disk, a mid-run crash — served to a bare client fleet and to
a resilient one):

(a) both modes survive the storm with accounting conserved, the crash
    actually fired (crashes >= 1), zero acknowledged inserts were lost
    across WAL recovery, and the history (crash, recovery and retries
    included) passed the Wing–Gong checker;
(b) the resilient mode completes strictly more operations *and* delivers
    strictly higher goodput than the baseline under the identical
    schedule — retries rescue transient failures the bare clients abandon;
(c) the resilience machinery demonstrably engaged: client retries > 0,
    the breaker tripped at least once and closed again (>= 3 transitions),
    and the brownout ladder stepped down at least one rung.

The payload is a scenario run's ``--json`` output; the run itself (and
its determinism gate: same-seed reruns byte-identical, crash and all)
happens in ``python -m repro.bench scenario``::

    python -m repro.bench scenario --matrix benchmarks/scenarios/chaos_smoke.toml \\
        --jobs 2 --gate --json chaos.json
    python benchmarks/bench_chaos.py chaos.json
"""

import json
import sys


def check_claims(rows):
    """Assert the resilience claims on one chaos scenario's rows."""
    rows = {row["clients"]: row for row in rows}
    assert set(rows) == {"baseline", "resilient"}, sorted(rows)
    base, res = rows["baseline"], rows["resilient"]

    # (a) both modes survive: conservation holds, the crash fired, no
    # acknowledged insert was lost across recovery, and the history is
    # linearizable.
    for row in (base, res):
        assert row["conserved"] == 1, row
        assert row["crashes"] >= 1, row
        assert row["lost_inserts"] == 0, row
        assert row["linearizable"] == 1, row

    # (b) resilience wins on completed work and on goodput.
    assert res["ok_ops"] > base["ok_ops"], (base["ok_ops"], res["ok_ops"])
    assert res["goodput_ops_s"] > base["goodput_ops_s"], (
        base["goodput_ops_s"], res["goodput_ops_s"],
    )

    # (c) the machinery actually engaged.
    assert base["retries"] == 0 and base["fast_fails"] == 0, base
    assert res["retries"] > 0, res
    assert res["breaker_trips"] >= 1, res
    assert res["fast_fails"] > 0, res
    assert res["brownout_level"] >= 1, res


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python benchmarks/bench_chaos.py PAYLOAD.json")
    with open(argv[0]) as handle:
        scenarios = [
            entry for entry in json.load(handle)["scenarios"]
            if entry["spec"]["runner"] == "closed" and entry["spec"]["chaos"]
        ]
    assert scenarios, f"{argv[0]} holds no closed-loop scenario with a chaos clause"
    for entry in scenarios:
        check_claims(entry["rows"])
        print(f"{entry['spec']['name']}: resilience claims hold")
    print("all chaos claims hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
