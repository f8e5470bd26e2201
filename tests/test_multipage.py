"""Tests for the multipage-node trade-off experiment (paper Section 2.1)."""


from repro.bench.multipage import (
    MultipageSearchModel,
    ablation_multipage_nodes,
    simulate_search_load,
)


class TestModelGeometry:
    def test_fanout_grows_with_node_size(self):
        one = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        four = MultipageSearchModel(num_keys=10_000_000, pages_per_node=4)
        assert four.node_fanout > 3 * one.node_fanout

    def test_levels_shrink_with_node_size(self):
        one = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        four = MultipageSearchModel(num_keys=10_000_000, pages_per_node=4)
        assert four.levels < one.levels

    def test_levels_for_known_geometry(self):
        # 16KB pages / 8B entries -> fan-out 2040; 10M keys need 3 levels.
        model = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        assert model.node_fanout == 2040
        assert model.levels == 3

    def test_total_nodes_counts_all_levels(self):
        model = MultipageSearchModel(num_keys=100_000, pages_per_node=1)
        leaves = -(-100_000 // model.node_fanout)
        assert model.total_nodes >= leaves + 1

    def test_single_key_tree(self):
        model = MultipageSearchModel(num_keys=1)
        assert model.levels == 1
        assert model.total_nodes == 1


class TestSimulation:
    def test_wide_nodes_cut_single_query_latency(self):
        narrow = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        wide = MultipageSearchModel(num_keys=10_000_000, pages_per_node=4)
        lat_narrow, __ = simulate_search_load(narrow, num_disks=10, concurrent_streams=1)
        lat_wide, __ = simulate_search_load(wide, num_disks=10, concurrent_streams=1)
        assert lat_wide < lat_narrow

    def test_wide_nodes_hurt_concurrent_throughput(self):
        narrow = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        wide = MultipageSearchModel(num_keys=10_000_000, pages_per_node=4)
        __, tp_narrow = simulate_search_load(
            narrow, num_disks=10, concurrent_streams=16, searches_per_stream=10
        )
        __, tp_wide = simulate_search_load(
            wide, num_disks=10, concurrent_streams=16, searches_per_stream=10
        )
        assert tp_narrow > 1.5 * tp_wide

    def test_concurrency_raises_throughput(self):
        model = MultipageSearchModel(num_keys=10_000_000, pages_per_node=1)
        __, tp_serial = simulate_search_load(model, num_disks=10, concurrent_streams=1)
        __, tp_parallel = simulate_search_load(
            model, num_disks=10, concurrent_streams=8, searches_per_stream=10
        )
        assert tp_parallel > 3 * tp_serial

    def test_deterministic_given_seed(self):
        model = MultipageSearchModel(num_keys=1_000_000, pages_per_node=2)
        a = simulate_search_load(model, num_disks=4, concurrent_streams=2, seed=5)
        b = simulate_search_load(model, num_disks=4, concurrent_streams=2, seed=5)
        assert a == b


def test_ablation_reproduces_the_papers_argument():
    result = ablation_multipage_nodes(
        num_keys=5_000_000, node_sizes=(1, 4), stream_counts=(1, 12), searches_per_stream=10
    )
    one_q = {r["pages_per_node"]: r for r in result.filter(streams=1)}
    oltp = {r["pages_per_node"]: r for r in result.filter(streams=12)}
    # Latency: wide nodes win the single-query race...
    assert one_q[4]["latency_ms"] <= one_q[1]["latency_ms"]
    # ...but lose the throughput race under concurrency (Section 2.1).
    assert oltp[1]["throughput_per_s"] > oltp[4]["throughput_per_s"]
