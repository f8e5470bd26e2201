"""White-box tests for fpB+-Tree internals: placement, splits, space management."""

import numpy as np

from repro.btree.context import TreeEnvironment
from repro.core.cache_first import PAGE_LEAF, PAGE_NONLEAF, PAGE_OVERFLOW, CacheFirstFpTree
from repro.core.disk_first import DiskFirstFpTree
from repro.core.inpage import LEAF, NONLEAF


def cf_tree(page_size=4096, hint=200_000, **kw):
    return CacheFirstFpTree(
        TreeEnvironment(page_size=page_size, buffer_pages=2048, **kw), num_keys_hint=hint
    )


def df_tree(page_size=4096, **kw):
    return DiskFirstFpTree(TreeEnvironment(page_size=page_size, buffer_pages=2048, **kw))


class TestCacheFirstPlacementInternals:
    def test_bitmap_spreads_colocated_children_evenly(self):
        """Section 3.2.1: underflow slots spread evenly over the children."""
        tree = cf_tree(page_size=16384)
        n = 200_000
        keys = list(range(10, 10 + 2 * n, 2))
        tree.bulkload(keys, [1] * n)
        root = tree.root
        colocated = [i for i, child in enumerate(root.children) if child.pid == root.pid]
        assert len(colocated) >= 2
        gaps = np.diff(colocated)
        # Even spreading: gaps differ by at most a factor of ~2.
        assert max(gaps) <= 2 * max(1, min(gaps)) + 1

    def test_in_page_levels_recorded(self):
        tree = cf_tree(page_size=16384)
        n = 200_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        root = tree.root
        assert root.in_page_level == 0
        for child in root.children:
            if child.pid == root.pid:
                assert child.in_page_level == 1

    def test_top_of_page_walk(self):
        tree = cf_tree(page_size=16384)
        n = 200_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        root = tree.root
        for child in root.children:
            if child.pid == root.pid and not child.is_leaf_parent:
                assert tree._top_of_page(child) is root
                break

    def test_overflow_pages_only_hold_leaf_parents(self):
        tree = cf_tree(page_size=4096, hint=100_000)
        n = 100_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        for pid in tree._overflow_pids:
            page = tree.store.page(pid)
            assert page.kind == PAGE_OVERFLOW
            for node in page.nodes():
                assert node.is_leaf_parent

    def test_first_leaf_of_page_identifies_chain_head(self):
        tree = cf_tree()
        n = 5000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            first = page.first_leaf()
            residents = page.nodes()
            assert first in residents
            assert all(int(first.keys[0]) <= int(n.keys[0]) for n in residents if n.count)

    def test_forced_page_splits_keep_parent_pointers_consistent(self):
        # A num_keys hint of 100K picks narrow nodes at 1KB pages, so the
        # non-leaf levels are deep enough that Figure 9(c) splits happen.
        tree = cf_tree(page_size=1024, hint=100_000)
        rng = np.random.default_rng(2)
        for key in rng.permutation(np.arange(1, 80_000, 2))[:30_000]:
            tree.insert(int(key), 1)
        assert tree.nonleaf_page_splits > 0
        tree.validate()  # checks parent refs, chains, contiguity, JPA

    def test_page_kinds_partition_the_store(self):
        tree = cf_tree(page_size=4096, hint=100_000)
        n = 100_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        kinds = {PAGE_LEAF: 0, PAGE_NONLEAF: 0, PAGE_OVERFLOW: 0}
        for pid in tree.store.page_ids():
            kinds[tree.store.page(pid).kind] += 1
        assert kinds[PAGE_LEAF] == len(tree.leaf_page_ids())
        assert kinds[PAGE_OVERFLOW] == tree.overflow_page_count()
        assert kinds[PAGE_NONLEAF] >= 1


class TestDiskFirstSpaceInternals:
    def test_inpage_tree_heights_bounded_by_optimizer(self):
        tree = df_tree(page_size=16384)
        n = 100_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)

            def depth(line, acc=1):
                node = page.nodes[line]
                if node.kind == LEAF:
                    return acc
                return max(depth(int(node.ptrs[i]), acc + 1) for i in range(node.count))

            assert depth(page.root_line) <= tree.layout.widths.levels + 1

    def test_line_allocator_consistent_after_heavy_churn(self):
        tree = df_tree(page_size=1024)
        rng = np.random.default_rng(3)
        live = set()
        for key in rng.permutation(np.arange(1, 30_000))[:8000]:
            key = int(key)
            tree.insert(key, 1)
            live.add(key)
        for key in list(live)[::3]:
            tree.delete(key)
        tree.validate()  # includes allocator/line cross-checks

    def test_offsets_fit_two_bytes(self):
        """In-page pointers are line numbers, representable in 2 bytes."""
        tree = df_tree(page_size=32768)
        n = 100_000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n)
        for pid in tree.store.page_ids():
            page = tree.store.page(pid)
            for node in page.nodes.values():
                if node.kind == NONLEAF:
                    assert all(0 < int(p) < 65536 for p in node.ptrs[: node.count])

    def test_page_totals_track_entry_counts(self):
        tree = df_tree()
        n = 4000
        tree.bulkload(range(10, 10 + 2 * n, 2), [1] * n, fill=0.8)
        for key in range(11, 4000, 7):
            tree.insert(key, 2)
        for key in range(10, 2000, 8):
            tree.delete(key)
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            counted = sum(node.count for node in page.leaf_nodes_in_order())
            assert counted == page.total

    def test_reorganize_preserves_entries(self):
        tree = df_tree(page_size=4096)
        n = tree.layout.page_fanout // 2
        keys = list(range(10, 10 + 2 * n, 2))
        tree.bulkload(keys, [k + 1 for k in keys], fill=0.5)
        pid = tree.leaf_page_ids()[0]
        page = tree.store.page(pid)
        before = list(tree.items())
        tree._reorganize_page(pid, page, tree.pool.address_of(pid))
        assert list(tree.items()) == before
        tree.validate()

    def test_empty_page_rebuild_leaves_usable_root(self):
        tree = df_tree()
        keys = list(range(10, 400, 2))
        tree.bulkload(keys, keys)
        for key in keys:
            tree.delete(key)
        # Every page still has a routable (empty) in-page tree.
        for pid in tree.leaf_page_ids():
            page = tree.store.page(pid)
            assert page.root_line in page.nodes
        assert tree.search(10) is None
        tree.insert(10, 1)
        assert tree.search(10) == 1
