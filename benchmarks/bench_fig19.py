"""Figure 19: jump-pointer-array prefetching in the mini DBMS (DB2 stand-in).

Claims checked (paper Section 4.3.3): prefetching gives a 2.5-5x speedup
over the plain scan; performance improves with the number of I/O prefetcher
processes until it approaches the in-memory ceiling; increasing the SMP
degree helps, with the prefetched curve tracking the in-memory curve.
"""

from conftest import committed


def test_fig19_dbms_prefetching():
    result = committed("fig19")

    def value(panel, x, mode):
        return result.filter(panel=panel, x=x, mode=mode)[0]["elapsed_s"]

    # Panel (a): more prefetchers -> monotonically closer to the floor.
    plain = value("a", 8, "no prefetch")
    warm = value("a", 8, "in memory")
    few = value("a", 1, "with prefetch")
    many = value("a", 12, "with prefetch")
    assert many < few
    assert plain / many > 1.5
    assert many >= warm

    # Panel (b): SMP parallelism helps every mode.
    for mode in ("no prefetch", "with prefetch", "in memory"):
        assert value("b", 9, mode) < value("b", 1, mode)
    # The paper's headline: a 2.5-5x speedup from prefetching.  It shows up
    # at low SMP degrees, where the prefetchers supply all the parallelism.
    best = max(
        value("b", degree, "no prefetch") / value("b", degree, "with prefetch")
        for degree in (1, 3)
    )
    assert 2.5 < best < 7.0, best
    # With prefetchers, the scan tracks the in-memory curve (paper: the
    # bottom two curves nearly overlap at low SMP degrees).
    assert value("b", 1, "with prefetch") < value("b", 1, "in memory") * 1.15
