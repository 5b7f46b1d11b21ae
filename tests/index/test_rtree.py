"""Tests for the aggregated R-trees (repro.index.rtree)."""

import numpy as np
import pytest

from repro.index.rtree import FlatRTree, RTree, RTreeForest


def brute_force_aggregate(points, weights, lo, hi):
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    return sum(w for p, w in zip(points, weights)
               if np.all(lo <= p) and np.all(p <= hi))


class TestBulkLoad:
    def test_empty(self):
        tree = RTree.bulk_load(np.empty((0, 3)))
        assert tree.size == 0
        assert tree.window_aggregate([0, 0, 0], [1, 1, 1]) == 0.0

    def test_size_and_total_weight(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(100, 2))
        weights = rng.uniform(0, 1, size=100)
        tree = RTree.bulk_load(points, weights=weights)
        assert tree.size == 100
        assert tree.total_weight() == pytest.approx(weights.sum())

    def test_all_entries_present(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(75, 3))
        tree = RTree.bulk_load(points, data=list(range(75)))
        payloads = sorted(entry.data for entry in tree.iter_entries())
        assert payloads == list(range(75))

    def test_node_capacity_respected(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 1, size=(200, 2))
        tree = RTree.bulk_load(points, max_entries=8)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert len(node) <= 8
            if not node.is_leaf:
                stack.extend(node.children)

    def test_bounds_contain_children(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(120, 3))
        tree = RTree.bulk_load(points)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    assert np.all(node.lo <= entry.point + 1e-12)
                    assert np.all(entry.point <= node.hi + 1e-12)
            else:
                for child in node.children:
                    assert np.all(node.lo <= child.lo + 1e-12)
                    assert np.all(child.hi <= node.hi + 1e-12)
                stack.extend(node.children)

    def test_aggregate_sums_consistent(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 1, size=(150, 2))
        weights = rng.uniform(0, 1, size=150)
        tree = RTree.bulk_load(points, weights=weights)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.weight_sum == pytest.approx(
                    sum(e.weight for e in node.entries))
            else:
                assert node.weight_sum == pytest.approx(
                    sum(c.weight_sum for c in node.children))
                stack.extend(node.children)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            RTree.bulk_load(np.zeros(5))


class TestInsertion:
    def test_insert_then_query(self):
        tree = RTree(dimension=2)
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 1, size=(80, 2))
        weights = rng.uniform(0, 1, size=80)
        for point, weight in zip(points, weights):
            tree.insert(point, weight=weight)
        assert tree.size == 80
        assert tree.total_weight() == pytest.approx(weights.sum())
        lo, hi = [0.2, 0.2], [0.7, 0.9]
        assert tree.window_aggregate(lo, hi) == pytest.approx(
            brute_force_aggregate(points, weights, lo, hi))

    def test_insert_dimension_check(self):
        tree = RTree(dimension=3)
        with pytest.raises(ValueError):
            tree.insert([1.0, 2.0])

    def test_incremental_vs_bulk_same_aggregates(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 1, size=(120, 3))
        weights = rng.uniform(0, 1, size=120)
        bulk = RTree.bulk_load(points, weights=weights)
        incremental = RTree(dimension=3, max_entries=8)
        for point, weight in zip(points, weights):
            incremental.insert(point, weight=weight)
        for _ in range(20):
            lo = rng.uniform(0, 0.5, size=3)
            hi = lo + rng.uniform(0, 0.5, size=3)
            assert incremental.window_aggregate(lo, hi) == pytest.approx(
                bulk.window_aggregate(lo, hi))

    def test_height_grows(self):
        tree = RTree(dimension=2, max_entries=4)
        rng = np.random.default_rng(7)
        for point in rng.uniform(0, 1, size=(200, 2)):
            tree.insert(point)
        assert tree.height() >= 3

    def test_window_entries(self):
        tree = RTree(dimension=2)
        tree.insert([0.1, 0.1], data="a")
        tree.insert([0.9, 0.9], data="b")
        entries = tree.window_entries([0.0, 0.0], [0.5, 0.5])
        assert [e.data for e in entries] == ["a"]


class TestWindowAggregates:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 50)
        points = rng.uniform(0, 1, size=(200, 3))
        weights = rng.uniform(0, 1, size=200)
        tree = RTree.bulk_load(points, weights=weights, max_entries=10)
        for _ in range(10):
            lo = rng.uniform(0, 0.6, size=3)
            hi = lo + rng.uniform(0, 0.6, size=3)
            assert tree.window_aggregate(lo, hi) == pytest.approx(
                brute_force_aggregate(points, weights, lo, hi))

    def test_unbounded_window(self):
        rng = np.random.default_rng(60)
        points = rng.uniform(0, 1, size=(60, 2))
        tree = RTree.bulk_load(points)
        lo = np.full(2, -np.inf)
        assert tree.window_aggregate(lo, [1.0, 1.0]) == pytest.approx(60.0)

    def test_dominance_window(self):
        """The exact query shape used by the B&B algorithm."""
        rng = np.random.default_rng(61)
        points = rng.uniform(0, 1, size=(100, 2))
        weights = rng.uniform(0, 1, size=100)
        tree = RTree.bulk_load(points, weights=weights)
        target = rng.uniform(0, 1, size=2)
        lo = np.full(2, -np.inf)
        expected = sum(w for p, w in zip(points, weights)
                       if np.all(p <= target))
        assert tree.window_aggregate(lo, target) == pytest.approx(expected)


class TestFlatRTree:
    def test_empty(self):
        tree = FlatRTree.bulk_load(np.empty((0, 3)))
        assert tree.size == 0 and tree.num_nodes == 0
        assert tree.window_aggregate([0, 0, 0], [1, 1, 1]) == 0.0
        assert np.array_equal(
            tree.window_aggregate_batch(np.zeros((2, 3)), np.ones((2, 3))),
            np.zeros(2))

    def test_level_order_layout(self):
        rng = np.random.default_rng(70)
        points = rng.uniform(0, 1, size=(200, 2))
        tree = FlatRTree.bulk_load(points, max_entries=8)
        assert tree.height() >= 2
        assert tree.level_offsets[0] == 0 and tree.level_offsets[1] == 1
        assert not tree.leaf[0]
        # Internal child spans point strictly downwards in level order.
        for node in np.flatnonzero(~tree.leaf):
            assert tree.child_start[node] > node
        # Payloads default to the original input positions.
        assert sorted(tree.payloads.tolist()) == list(range(200))

    def test_single_query_matches_batch(self):
        rng = np.random.default_rng(71)
        points = rng.uniform(0, 1, size=(150, 3))
        weights = rng.uniform(0, 1, size=150)
        tree = FlatRTree.bulk_load(points, weights=weights, max_entries=10)
        los = rng.uniform(0, 0.5, size=(15, 3))
        his = los + rng.uniform(0, 0.5, size=(15, 3))
        batch = tree.window_aggregate_batch(los, his)
        for q in range(15):
            assert tree.window_aggregate(los[q], his[q]) == pytest.approx(
                batch[q])
            assert batch[q] == pytest.approx(
                brute_force_aggregate(points, weights, los[q], his[q]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            FlatRTree.bulk_load(np.zeros(5))
        tree = FlatRTree.bulk_load(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tree.window_aggregate_batch(np.zeros((2, 3)), np.ones((2, 3)))


class TestRTreeForest:
    def test_insert_then_dominance_aggregate(self):
        rng = np.random.default_rng(80)
        forest = RTreeForest(num_trees=6, dimension=2, max_entries=4)
        points = rng.uniform(0, 1, size=(90, 2))
        weights = rng.uniform(0, 1, size=90)
        owners = rng.integers(0, 6, size=90)
        for point, weight, owner in zip(points, weights, owners):
            forest.insert(int(owner), point, weight=float(weight))
        assert int(forest.sizes.sum()) == 90
        corners = rng.uniform(0, 1, size=(7, 2))
        sigma = forest.dominance_aggregate(corners)
        assert sigma.shape == (7, 6)
        for row, corner in enumerate(corners):
            for tree_id in range(6):
                mask = (owners == tree_id) & np.all(points <= corner, axis=1)
                assert sigma[row, tree_id] == pytest.approx(
                    weights[mask].sum())

    def test_flush_builds_the_shared_block(self):
        rng = np.random.default_rng(81)
        forest = RTreeForest(num_trees=3, dimension=2, max_entries=4)
        for point in rng.uniform(0, 1, size=(40, 2)):
            forest.insert(0, point, weight=0.5)
        forest.flush()
        assert forest.pending_count == 0
        # 40 points at fan-out 4 cannot fit one leaf: tree 0 is multi-level.
        assert forest._tree_root[0] == 0
        assert forest._tree_root[1] == forest._tree_root[2] == -1
        assert not forest._node_leaf[0]
        assert forest.total_weights()[0] == pytest.approx(20.0)

    def test_size_doubling_merge_trigger(self):
        forest = RTreeForest(num_trees=1, dimension=2, max_entries=4)
        for step in range(16 + 1):
            forest.insert(0, [step * 0.01, step * 0.01])
        # The 17th insert crossed the 4 * max_entries floor and merged.
        assert forest.pending_count == 0
        assert forest.num_points == 17

    def test_validates_inputs(self):
        forest = RTreeForest(num_trees=2, dimension=3)
        with pytest.raises(ValueError):
            forest.insert(0, [1.0, 2.0])
        with pytest.raises(ValueError):
            forest.insert(5, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            forest.dominance_aggregate(np.zeros((2, 2)))


    @pytest.mark.parametrize("num_trees, dimension", [(-1, 2), (3, 0)],
                             ids=["negative-trees", "zero-dimension"])
    def test_rejects_bad_construction(self, num_trees, dimension):
        with pytest.raises(ValueError):
            RTreeForest(num_trees=num_trees, dimension=dimension)

    def test_max_entries_has_a_floor_of_four(self):
        assert RTreeForest(num_trees=1, dimension=2,
                           max_entries=1).max_entries == 4
        assert RTreeForest(num_trees=1, dimension=2,
                           max_entries=9).max_entries == 9

    def test_empty_forest_aggregates_to_zero(self):
        forest = RTreeForest(num_trees=3, dimension=2)
        sigma = forest.dominance_aggregate(np.ones((4, 2)))
        assert sigma.shape == (4, 3)
        assert not sigma.any()
        assert forest.num_points == 0
        assert not forest.total_weights().any()
        # Neither an empty corner batch nor a forest without trees fails.
        assert forest.dominance_aggregate(np.empty((0, 2))).shape == (0, 3)
        treeless = RTreeForest(num_trees=0, dimension=2)
        assert treeless.dominance_aggregate(np.ones((2, 2))).shape == (2, 0)

    def test_flush_without_pending_is_a_noop(self):
        forest = RTreeForest(num_trees=2, dimension=2, max_entries=4)
        forest.flush()
        assert forest.num_points == 0
        forest.insert(1, [0.5, 0.5], weight=2.0)
        forest.flush()
        layout = forest._node_lo.copy(), forest._tree_root.copy()
        forest.flush()
        assert np.array_equal(forest._node_lo, layout[0])
        assert np.array_equal(forest._tree_root, layout[1])
        assert forest.dominance_aggregate([1.0, 1.0])[0, 1] == 2.0

    def test_single_corner_is_one_batch_row(self):
        forest = RTreeForest(num_trees=2, dimension=3, max_entries=4)
        forest.insert(0, [0.2, 0.2, 0.2], weight=0.25)
        forest.insert(1, [0.9, 0.9, 0.9], weight=0.75)
        sigma = forest.dominance_aggregate([0.5, 0.5, 0.5])
        assert sigma.shape == (1, 2)
        assert sigma[0].tolist() == [0.25, 0.0]

    @pytest.mark.parametrize("flush", [False, True], ids=["pending", "flat"])
    def test_dominance_is_weak_on_every_axis(self, flush):
        """A point equal to the corner on some axes is still dominated; one
        strictly above it on any axis is not."""
        forest = RTreeForest(num_trees=1, dimension=2, max_entries=4)
        forest.insert(0, [0.5, 0.5], weight=1.0)
        forest.insert(0, [0.5, 0.2], weight=2.0)
        forest.insert(0, [0.5, 0.6], weight=4.0)
        if flush:
            forest.flush()
        sigma = forest.dominance_aggregate([[0.5, 0.5], [0.49, 1.0],
                                            [0.5, 0.2]])
        assert sigma[:, 0].tolist() == [3.0, 0.0, 2.0]

    def test_total_weights_sum_flat_and_pending_parts(self):
        forest = RTreeForest(num_trees=3, dimension=2, max_entries=4)
        for step in range(6):
            forest.insert(step % 2, [step * 0.1, 0.0], weight=1.0)
        forest.flush()
        forest.insert(0, [0.9, 0.9], weight=0.5)
        forest.insert(2, [0.9, 0.9], weight=0.25)
        assert forest.pending_count == 2
        assert forest.num_points == 8
        assert forest.total_weights().tolist() == [3.5, 3.0, 0.25]
        assert forest.sizes.tolist() == [4, 3, 1]

    def test_single_leaf_and_multi_level_trees_share_one_block(self):
        """Small trees become one leaf node, large ones splice their levels
        into the block; both answer through the same descent."""
        rng = np.random.default_rng(82)
        forest = RTreeForest(num_trees=4, dimension=2, max_entries=4)
        counts = [2, 30, 0, 5]
        points, weights, owners = [], [], []
        for tree_id, count in enumerate(counts):
            for point in rng.uniform(0, 1, size=(count, 2)):
                weight = float(rng.uniform(0.1, 1.0))
                forest.insert(tree_id, point, weight=weight)
                points.append(point)
                weights.append(weight)
                owners.append(tree_id)
        forest.flush()
        roots = forest._tree_root
        assert roots[2] == -1
        assert forest._node_leaf[roots[0]]
        assert not forest._node_leaf[roots[1]]
        assert not forest._node_leaf[roots[3]]
        points, weights = np.asarray(points), np.asarray(weights)
        owners = np.asarray(owners)
        corners = rng.uniform(0, 1, size=(12, 2))
        sigma = forest.dominance_aggregate(corners)
        for row, corner in enumerate(corners):
            for tree_id in range(4):
                mask = (owners == tree_id) & np.all(points <= corner, axis=1)
                assert sigma[row, tree_id] == pytest.approx(
                    weights[mask].sum())

    @pytest.mark.parametrize("max_entries", [4, 7, 16])
    def test_queries_between_rebuilds_match_brute_force(self, max_entries):
        """Interleaved inserts and queries stay exact across every
        size-doubling rebuild, whatever the fan-out."""
        rng = np.random.default_rng(83 + max_entries)
        forest = RTreeForest(num_trees=5, dimension=3,
                             max_entries=max_entries)
        points = rng.uniform(0, 1, size=(160, 3))
        weights = rng.uniform(0, 1, size=160)
        owners = rng.integers(0, 5, size=160)
        corners = rng.uniform(0.3, 1, size=(6, 3))
        for step in range(160):
            forest.insert(int(owners[step]), points[step],
                          weight=float(weights[step]))
            if step % 23 == 0 or step == 159:
                seen = slice(0, step + 1)
                sigma = forest.dominance_aggregate(corners)
                for row, corner in enumerate(corners):
                    inside = np.all(points[seen] <= corner, axis=1)
                    for tree_id in range(5):
                        mask = inside & (owners[seen] == tree_id)
                        assert sigma[row, tree_id] == pytest.approx(
                            weights[seen][mask].sum())
        assert int(forest.sizes.sum()) == 160

    def test_chunked_corner_batches_match_one_pass(self, monkeypatch):
        """A corner batch split into memory-bounded chunks gives the same
        σ matrix as a single pass."""
        import repro.index.rtree as rtree_module

        rng = np.random.default_rng(84)
        forest = RTreeForest(num_trees=4, dimension=2, max_entries=4)
        for point in rng.uniform(0, 1, size=(60, 2)):
            forest.insert(int(rng.integers(0, 4)), point,
                          weight=float(rng.uniform(0, 1)))
        corners = rng.uniform(0, 1, size=(25, 2))
        whole = forest.dominance_aggregate(corners)
        # A budget this small leaves room for one corner per chunk.
        monkeypatch.setattr(rtree_module, "_CHUNK_BUDGET", 1)
        chunked = forest.dominance_aggregate(corners)
        assert np.array_equal(whole, chunked)
