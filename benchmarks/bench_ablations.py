"""Ablations of the design choices DESIGN.md calls out.

* Overshoot avoidance (Section 2.2): searching the end key up front saves
  wasted page reads at the end of every range.
* Two in-page node sizes (Section 3.1.1): allowing leaf and non-leaf nodes
  to differ buys page fan-out at equal search cost.
* Prefetch depth: the jump-pointer array must run far enough ahead to cover
  the disk latency; improvement saturates once the array is covered.
"""

from conftest import committed


def test_overshoot_avoidance():
    result = committed("ablation-overshoot")
    careful = result.filter(mode="avoid overshoot")[0]
    sloppy = result.filter(mode="overshooting")[0]
    assert careful["overshoot_reads"] == 0
    assert sloppy["overshoot_reads"] > 0
    assert sloppy["disk_reads"] > careful["disk_reads"]


def test_two_node_sizes_beat_uniform():
    result = committed("ablation-uniform-node-size")
    two = result.filter(variant="two sizes (paper)")[0]
    uniform = result.filter(variant="uniform size")[0]
    # Same cost class, but distinct sizes pack more entries per page.
    assert two["page_fanout"] > uniform["page_fanout"]
    assert two["cycles_per_search"] < uniform["cycles_per_search"] * 1.15


def test_jump_pointer_prefetch_helps_standard_btrees():
    """Section 2.2: the technique is not specific to fractal trees."""
    result = committed("ablation-jpa-on-btree")
    fetched = result.filter(mode="with jump-pointer prefetch")[0]
    assert fetched["speedup"] > 1.5


def test_multipage_nodes_tradeoff():
    """Section 2.1: wide nodes win latency, lose OLTP throughput."""
    result = committed("ablation-multipage-nodes")
    single = {r["pages_per_node"]: r["latency_ms"] for r in result.filter(streams=1)}
    oltp = {r["pages_per_node"]: r["throughput_per_s"] for r in result.filter(streams=16)}
    assert single[4] <= single[1]  # latency: wide nodes win
    assert oltp[1] > oltp[4]  # throughput: wide nodes lose


def test_prefetch_depth_saturates():
    result = committed("ablation-prefetch-depth")
    times = {row["depth"]: row["elapsed_ms"] for row in result.rows}
    assert times[16] < times[1]  # deeper prefetch hides more latency
    assert abs(times[64] - times[16]) < times[16] * 0.35  # saturation
