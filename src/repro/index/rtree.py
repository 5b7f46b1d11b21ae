"""Aggregated R-trees: a pointer-based reference and a flat array-backed layer.

Two usage patterns from the paper are covered:

* a *static* R-tree over the raw instance set ``I`` built with STR bulk
  loading — the branch-and-bound algorithm traverses it in best-first order;
* *incremental* aggregated R-trees ``R_1, ..., R_m`` (one per uncertain
  object) into which mapped instances are inserted as they are processed and
  which answer window aggregate queries ("sum of probabilities of points
  dominated by the query corner").

Every node maintains the total weight of the points below it so a window
aggregate query can add whole subtrees without opening them.

Three classes implement those patterns at two speeds:

:class:`RTree`
    The pointer-based tree (``RTreeNode`` objects, per-node Python
    traversal).  It remains the readable scalar reference — the flat layer
    below is pinned against it by the property tests in
    ``tests/properties/test_property_rtree.py``, in the same pattern as
    ``loop_arsp_scalar``.

:class:`FlatRTree`
    The same aggregated tree as a struct-of-arrays: contiguous ``lo`` /
    ``hi`` / ``weight`` / child-span arrays in level order (root at index
    0), produced directly by the STR bulk load.  Queries traverse whole
    frontier levels with batched NumPy comparisons
    (:meth:`FlatRTree.window_aggregate_batch` answers many query corners
    against one tree in a handful of kernel calls, mirroring DUAL's chunked
    margin matrices).

:class:`RTreeForest`
    All ``m`` per-object aggregated trees packed into one shared array
    block, answering "σ_j for every other object ``j``" for a whole batch
    of corners in a single call (:meth:`RTreeForest.dominance_aggregate`).
    Incremental insertion keeps the paper's ``R_1 … R_m`` protocol via
    per-tree append buffers (physically one tagged pending block that
    queries brute-force through the containment kernel) which merge into
    the flat layout on a size-doubling rebuild.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.kernels import points_in_boxes, points_in_boxes_rows

#: Upper bound on the number of floats a batched traversal materialises at
#: once — the (queries × nodes-or-points × dimension) comparison blocks of
#: the frontier loops.  Query batches are chunked accordingly (contract
#: rule 4 in docs/ARCHITECTURE.md).
_CHUNK_BUDGET = 4_000_000


class RTreeEntry:
    """A point stored in a leaf, with its weight and an opaque payload."""

    __slots__ = ("point", "weight", "data")

    def __init__(self, point: np.ndarray, weight: float, data):
        self.point = point
        self.weight = weight
        self.data = data


class RTreeNode:
    """One node of the pointer-based R-tree."""

    __slots__ = ("is_leaf", "entries", "children", "lo", "hi", "weight_sum",
                 "parent")

    def __init__(self, is_leaf: bool, dimension: int):
        self.is_leaf = is_leaf
        self.entries: List[RTreeEntry] = []
        self.children: List["RTreeNode"] = []
        self.lo = np.full(dimension, np.inf)
        self.hi = np.full(dimension, -np.inf)
        self.weight_sum = 0.0
        self.parent: Optional["RTreeNode"] = None

    def recompute_bounds(self) -> None:
        """Recompute MBR and aggregate weight from children / entries."""
        if self.is_leaf:
            if self.entries:
                points = np.asarray([entry.point for entry in self.entries])
                self.lo = points.min(axis=0)
                self.hi = points.max(axis=0)
                self.weight_sum = float(sum(e.weight for e in self.entries))
            else:
                self.lo[:] = np.inf
                self.hi[:] = -np.inf
                self.weight_sum = 0.0
        else:
            self.lo = np.min([child.lo for child in self.children], axis=0)
            self.hi = np.max([child.hi for child in self.children], axis=0)
            self.weight_sum = float(sum(c.weight_sum for c in self.children))

    def extend_bounds(self, point: np.ndarray, weight: float) -> None:
        """Grow the MBR to include ``point`` and add its weight."""
        self.lo = np.minimum.reduce([self.lo, point])
        self.hi = np.maximum.reduce([self.hi, point])
        self.weight_sum += weight

    def __len__(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


class RTree:
    """Pointer-based aggregated R-tree supporting bulk loading and insertion.

    This is the scalar reference implementation; the hot paths run on
    :class:`FlatRTree` / :class:`RTreeForest` and are pinned against this
    class by property tests.
    """

    def __init__(self, dimension: int, max_entries: int = 16):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.max_entries = max(4, int(max_entries))
        self.min_entries = max(2, self.max_entries // 3)
        self.root = RTreeNode(is_leaf=True, dimension=self.dimension)
        self.size = 0

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, points: np.ndarray,
                  weights: Optional[Sequence[float]] = None,
                  data: Optional[Sequence] = None,
                  max_entries: int = 16) -> "RTree":
        """Build an R-tree from a static point set with STR packing."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        n, dimension = points.shape
        tree = cls(dimension, max_entries=max_entries)
        if n == 0:
            return tree
        if weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(weights, dtype=float)
        payloads = list(data) if data is not None else [None] * n

        leaves = tree._pack_entries(points, weights, payloads)
        tree.root = tree._pack_upwards(leaves)
        tree.size = n
        return tree

    def _pack_entries(self, points: np.ndarray, weights: np.ndarray,
                      payloads: Sequence) -> List[RTreeNode]:
        """Pack points into leaves using recursive STR tiling.

        The partition runs on index arrays over the flat coordinate matrix
        — entry objects are only materialised per finished leaf, and leaf
        bounds/aggregates come from array reductions over the group instead
        of per-entry ``recompute_bounds`` list building.
        """
        groups = _str_partition(points, np.arange(len(points)),
                                self.max_entries, axis=0)
        leaves = []
        for group in groups:
            leaf = RTreeNode(is_leaf=True, dimension=self.dimension)
            leaf.entries = [RTreeEntry(points[i], float(weights[i]),
                                       payloads[i]) for i in group]
            leaf.lo = points[group].min(axis=0)
            leaf.hi = points[group].max(axis=0)
            leaf.weight_sum = float(weights[group].sum())
            leaves.append(leaf)
        return leaves

    def _pack_upwards(self, nodes: List[RTreeNode]) -> RTreeNode:
        """Pack a level of nodes into parents until a single root remains."""
        while len(nodes) > 1:
            los = np.stack([node.lo for node in nodes])
            his = np.stack([node.hi for node in nodes])
            sums = np.asarray([node.weight_sum for node in nodes])
            groups = _str_partition((los + his) / 2.0,
                                    np.arange(len(nodes)),
                                    self.max_entries, axis=0)
            parents = []
            for group in groups:
                parent = RTreeNode(is_leaf=False, dimension=self.dimension)
                parent.children = [nodes[i] for i in group]
                for child in parent.children:
                    child.parent = parent
                parent.lo = los[group].min(axis=0)
                parent.hi = his[group].max(axis=0)
                parent.weight_sum = float(sums[group].sum())
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float], weight: float = 1.0,
               data=None) -> None:
        """Insert a weighted point, maintaining node aggregates."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise ValueError("point must have dimension %d" % self.dimension)
        entry = RTreeEntry(point, float(weight), data)
        leaf = self._choose_leaf(self.root, point, weight)
        leaf.entries.append(entry)
        leaf.recompute_bounds()
        self._handle_overflow(leaf)
        self.size += 1

    def _choose_leaf(self, node: RTreeNode, point: np.ndarray,
                     weight: float) -> RTreeNode:
        while not node.is_leaf:
            node.extend_bounds(point, weight)
            best = None
            best_cost = None
            for child in node.children:
                cost = _margin_increase(child.lo, child.hi, point)
                if best_cost is None or cost < best_cost:
                    best = child
                    best_cost = cost
            node = best
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        while len(node) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = RTreeNode(is_leaf=False, dimension=self.dimension)
                new_root.children = [node, sibling]
                node.parent = new_root
                sibling.parent = new_root
                new_root.recompute_bounds()
                self.root = new_root
                return
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_bounds()
            node = parent
        # Refresh aggregates up to the root (bounds already extended on the
        # way down; weight sums were updated there too, but a split rebuilds
        # them from scratch so walk up once to keep everything exact).
        current = node.parent
        while current is not None:
            current.recompute_bounds()
            current = current.parent

    def _split(self, node: RTreeNode) -> RTreeNode:
        """Split an overflowing node along its widest dimension."""
        sibling = RTreeNode(is_leaf=node.is_leaf, dimension=self.dimension)
        if node.is_leaf:
            points = np.asarray([entry.point for entry in node.entries])
            axis = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
            order = np.argsort(points[:, axis], kind="stable")
            half = len(order) // 2
            keep = [node.entries[i] for i in order[:half]]
            move = [node.entries[i] for i in order[half:]]
            node.entries = keep
            sibling.entries = move
        else:
            centers = np.asarray([(child.lo + child.hi) / 2.0
                                  for child in node.children])
            axis = int(np.argmax(centers.max(axis=0) - centers.min(axis=0)))
            order = np.argsort(centers[:, axis], kind="stable")
            half = len(order) // 2
            keep = [node.children[i] for i in order[:half]]
            move = [node.children[i] for i in order[half:]]
            node.children = keep
            sibling.children = move
            for child in sibling.children:
                child.parent = sibling
        node.recompute_bounds()
        sibling.recompute_bounds()
        return sibling

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def window_aggregate(self, lo: Sequence[float], hi: Sequence[float]
                         ) -> float:
        """Total weight of points inside the closed box ``[lo, hi]``."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if self.size == 0:
            return 0.0
        total = 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.weight_sum == 0.0:
                continue
            if np.any(node.lo > hi) or np.any(node.hi < lo):
                continue
            if np.all(lo <= node.lo) and np.all(node.hi <= hi):
                total += node.weight_sum
                continue
            if node.is_leaf:
                for entry in node.entries:
                    if (np.all(lo <= entry.point)
                            and np.all(entry.point <= hi)):
                        total += entry.weight
            else:
                stack.extend(node.children)
        return total

    def window_entries(self, lo: Sequence[float], hi: Sequence[float]
                       ) -> List[RTreeEntry]:
        """Entries whose points lie inside the closed box ``[lo, hi]``."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        result: List[RTreeEntry] = []
        if self.size == 0:
            return result
        stack = [self.root]
        while stack:
            node = stack.pop()
            if np.any(node.lo > hi) or np.any(node.hi < lo):
                continue
            if node.is_leaf:
                for entry in node.entries:
                    if (np.all(lo <= entry.point)
                            and np.all(entry.point <= hi)):
                        result.append(entry)
            else:
                stack.extend(node.children)
        return result

    def iter_entries(self) -> Iterator[RTreeEntry]:
        """Iterate over all stored entries."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry
            else:
                stack.extend(node.children)

    def total_weight(self) -> float:
        return self.root.weight_sum if self.size else 0.0

    def height(self) -> int:
        """Height of the tree (1 for a single leaf root)."""
        height = 1
        node = self.root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height


class FlatRTree:
    """Struct-of-arrays aggregated R-tree in level order.

    All nodes live in parallel arrays, stored level by level with the root
    at index 0 (STR bulk loading produces a stratified tree, so every leaf
    sits on the last level):

    ``lo`` / ``hi``
        ``(num_nodes, d)`` MBR corner arrays.
    ``weight``
        ``(num_nodes,)`` aggregate weight below each node.
    ``child_start`` / ``child_count``
        ``(num_nodes,)`` spans: for internal nodes into the node arrays
        (children of one parent are contiguous), for leaves into the point
        arrays.
    ``leaf``
        ``(num_nodes,)`` boolean mask.
    ``points`` / ``point_weights`` / ``payloads``
        The stored points in leaf order (``payloads`` is an integer array;
        it defaults to the original input positions).
    ``level_offsets``
        ``(height + 1,)`` node-array offsets of each level.

    Queries traverse whole frontier levels at once: every live
    (query, node) pair of a level is classified with batched array
    comparisons, PARTIAL leaves are expanded into (query, point) pairs and
    resolved through :func:`repro.core.kernels.points_in_boxes_rows`.
    """

    def __init__(self, dimension: int, max_entries: int = 16):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.max_entries = max(4, int(max_entries))
        self.size = 0
        self.lo = np.empty((0, self.dimension))
        self.hi = np.empty((0, self.dimension))
        self.weight = np.empty(0)
        self.child_start = np.empty(0, dtype=int)
        self.child_count = np.empty(0, dtype=int)
        self.leaf = np.empty(0, dtype=bool)
        self.level_offsets = np.zeros(1, dtype=int)
        self.points = np.empty((0, self.dimension))
        self.point_weights = np.empty(0)
        self.payloads = np.empty(0, dtype=int)

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive, directly into the flat layout)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, points: np.ndarray,
                  weights: Optional[Sequence[float]] = None,
                  data: Optional[Sequence[int]] = None,
                  max_entries: int = 16) -> "FlatRTree":
        """Build the flat layout from a static point set with STR packing.

        The recursive tiling runs on index arrays over the flat coordinate
        matrix; leaf bounds and aggregates of every level come from three
        ``ufunc.reduceat`` sweeps, so no per-entry Python objects are built.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        n, dimension = points.shape
        tree = cls(dimension, max_entries=max_entries)
        if n == 0:
            return tree
        weights = (np.ones(n) if weights is None
                   else np.asarray(weights, dtype=float))
        payloads = (np.arange(n) if data is None
                    else np.asarray(data, dtype=int))

        groups = _str_partition(points, np.arange(n), tree.max_entries,
                                axis=0)
        perm = np.concatenate(groups)
        tree.points = points[perm]
        tree.point_weights = weights[perm]
        tree.payloads = payloads[perm]
        tree.size = n

        counts = np.asarray([len(group) for group in groups], dtype=int)
        starts = _starts_of(counts)
        # Tiers are built bottom-up: (lo, hi, weight, child_start,
        # child_count, is_leaf_level).  Child spans are values stored in the
        # rows, so reordering a tier under the parent-level STR permutation
        # moves them along for free.
        tier = [np.minimum.reduceat(tree.points, starts, axis=0),
                np.maximum.reduceat(tree.points, starts, axis=0),
                np.add.reduceat(tree.point_weights, starts),
                starts, counts, True]
        tiers = [tier]
        while len(tier[0]) > 1:
            lo, hi, weight, child_start, child_count, _ = tier
            groups = _str_partition((lo + hi) / 2.0, np.arange(len(lo)),
                                    tree.max_entries, axis=0)
            perm = np.concatenate(groups)
            tier[0] = lo = lo[perm]
            tier[1] = hi = hi[perm]
            tier[2] = weight = weight[perm]
            tier[3] = child_start[perm]
            tier[4] = child_count[perm]
            counts = np.asarray([len(group) for group in groups], dtype=int)
            starts = _starts_of(counts)
            tier = [np.minimum.reduceat(lo, starts, axis=0),
                    np.maximum.reduceat(hi, starts, axis=0),
                    np.add.reduceat(weight, starts),
                    starts, counts, False]
            tiers.append(tier)

        tiers.reverse()  # root first
        sizes = np.asarray([len(t[0]) for t in tiers], dtype=int)
        tree.level_offsets = np.concatenate([[0], np.cumsum(sizes)])
        # Internal child spans index the next level down; shift them by that
        # level's offset in the concatenated arrays.  Leaf spans stay point
        # spans.
        for index, t in enumerate(tiers):
            if not t[5]:
                t[3] = t[3] + tree.level_offsets[index + 1]
        tree.lo = np.concatenate([t[0] for t in tiers])
        tree.hi = np.concatenate([t[1] for t in tiers])
        tree.weight = np.concatenate([t[2] for t in tiers])
        tree.child_start = np.concatenate([t[3] for t in tiers])
        tree.child_count = np.concatenate([t[4] for t in tiers])
        tree.leaf = np.concatenate(
            [np.full(len(t[0]), t[5], dtype=bool) for t in tiers])
        return tree

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.lo.shape[0]

    def height(self) -> int:
        """Height of the tree (1 for a single leaf root, 0 when empty)."""
        return len(self.level_offsets) - 1

    def total_weight(self) -> float:
        return float(self.weight[0]) if self.size else 0.0

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def window_aggregate(self, lo: Sequence[float], hi: Sequence[float]
                         ) -> float:
        """Total weight of points inside the closed box ``[lo, hi]``."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return float(self.window_aggregate_batch(lo[None, :], hi[None, :])[0])

    def window_aggregate_batch(self, los: np.ndarray, his: np.ndarray
                               ) -> np.ndarray:
        """Window aggregates of many query boxes against this one tree.

        ``los`` / ``his`` are ``(Q, d)`` corner arrays; the return value is
        the ``(Q,)`` vector of total weights inside each closed box.  The
        whole batch shares one level-order traversal; the query axis is
        chunked against the module memory budget.
        """
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        if los.shape != his.shape or los.shape[1] != self.dimension:
            raise ValueError("query corners must be (Q, %d) arrays"
                             % self.dimension)
        num_queries = los.shape[0]
        totals = np.zeros(num_queries)
        if self.size == 0 or num_queries == 0:
            return totals
        chunk = max(1, _CHUNK_BUDGET // max(1, self.size * self.dimension))
        for start in range(0, num_queries, chunk):
            stop = min(num_queries, start + chunk)
            self._frontier_aggregate(los[start:stop], his[start:stop],
                                     totals[start:stop])
        return totals

    def _frontier_aggregate(self, los: np.ndarray, his: np.ndarray,
                            totals: np.ndarray) -> None:
        """One chunk of :meth:`window_aggregate_batch`, accumulated in place."""
        queries = np.arange(los.shape[0])
        nodes = np.zeros(los.shape[0], dtype=int)
        while len(nodes):
            node_lo = self.lo[nodes]
            node_hi = self.hi[nodes]
            query_lo = los[queries]
            query_hi = his[queries]
            disjoint = ((node_lo > query_hi).any(axis=1)
                        | (node_hi < query_lo).any(axis=1))
            contained = (~disjoint
                         & (query_lo <= node_lo).all(axis=1)
                         & (node_hi <= query_hi).all(axis=1))
            if contained.any():
                np.add.at(totals, queries[contained],
                          self.weight[nodes[contained]])
            partial = ~(disjoint | contained)
            at_leaf = partial & self.leaf[nodes]
            if at_leaf.any():
                counts = self.child_count[nodes[at_leaf]]
                rows = _span_indices(self.child_start[nodes[at_leaf]], counts)
                pair_queries = np.repeat(queries[at_leaf], counts)
                inside = points_in_boxes_rows(self.points[rows],
                                              los[pair_queries],
                                              his[pair_queries])
                np.add.at(totals, pair_queries[inside],
                          self.point_weights[rows[inside]])
            internal = partial & ~self.leaf[nodes]
            counts = self.child_count[nodes[internal]]
            queries = np.repeat(queries[internal], counts)
            nodes = _span_indices(self.child_start[nodes[internal]], counts)


class RTreeForest:
    """All per-object aggregated R-trees packed into one shared array block.

    The forest keeps the paper's incremental ``R_1 … R_m`` protocol —
    :meth:`insert` appends one weighted point to one tree — but stores the
    trees as a single set of flat node arrays plus one grouped point block,
    so a σ query for a whole batch of corners runs against *every* tree in
    a handful of kernel calls instead of ``m`` Python tree walks:

    * inserts land in per-tree append buffers (physically one shared
      pending block tagged with tree ids);
    * when the pending block outgrows the flat part, the whole forest is
      rebuilt — one stable sort groups the points by tree, one ``reduceat``
      sweep yields every root box, trees that fit one leaf (the common
      case: per-object instance counts are small) become single nodes, and
      larger trees splice their :class:`FlatRTree` levels into the shared
      block.  The size-doubling trigger keeps total rebuild work
      ``O(n log n)``;
    * :meth:`dominance_aggregate` classifies all tree roots against all
      query corners with one dense comparison, descends only the straddling
      (corner, tree) pairs level by level through the shared block, and
      brute-forces the pending block through the containment kernel.
    """

    def __init__(self, num_trees: int, dimension: int, max_entries: int = 16):
        if num_trees < 0:
            raise ValueError("num_trees must be non-negative")
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.num_trees = int(num_trees)
        self.dimension = int(dimension)
        self.max_entries = max(4, int(max_entries))
        self.sizes = np.zeros(self.num_trees, dtype=int)
        # Pending block (per-tree append buffers, tagged with tree ids).
        self._pend_points: List[np.ndarray] = []
        self._pend_trees: List[int] = []
        self._pend_weights: List[float] = []
        self._pend_cache: Optional[Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]] = None
        # Flat part: grouped point block plus the shared node block.
        self._points = np.empty((0, self.dimension))
        self._point_weights = np.empty(0)
        self._point_trees = np.empty(0, dtype=int)
        self._node_lo = np.empty((0, self.dimension))
        self._node_hi = np.empty((0, self.dimension))
        self._node_weight = np.empty(0)
        self._node_child_start = np.empty(0, dtype=int)
        self._node_child_count = np.empty(0, dtype=int)
        self._node_leaf = np.empty(0, dtype=bool)
        self._tree_root = np.full(self.num_trees, -1, dtype=int)
        # Dense per-tree root views of the flat part (±inf / 0 when empty).
        self._root_lo = np.full((self.num_trees, self.dimension), np.inf)
        self._root_hi = np.full((self.num_trees, self.dimension), -np.inf)
        self._root_weight = np.zeros(self.num_trees)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return self._points.shape[0] + len(self._pend_points)

    @property
    def pending_count(self) -> int:
        return len(self._pend_points)

    def insert(self, tree_id: int, point: Sequence[float],
               weight: float = 1.0) -> None:
        """Append a weighted point to tree ``tree_id``."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dimension,):
            raise ValueError("point must have dimension %d" % self.dimension)
        if not 0 <= tree_id < self.num_trees:
            raise ValueError("tree_id out of range")
        self._pend_points.append(point.copy())
        self._pend_trees.append(int(tree_id))
        self._pend_weights.append(float(weight))
        self._pend_cache = None
        self.sizes[tree_id] += 1
        if len(self._pend_points) > max(4 * self.max_entries,
                                        self._points.shape[0]):
            self.flush()

    def flush(self) -> None:
        """Merge the pending buffers into the flat layout (full rebuild)."""
        pending = self._pending_arrays()
        if pending is None:
            return
        points, tree_ids, weights = pending
        self._pend_points, self._pend_trees, self._pend_weights = [], [], []
        self._pend_cache = None
        self._rebuild(np.concatenate([self._points, points]),
                      np.concatenate([self._point_weights, weights]),
                      np.concatenate([self._point_trees, tree_ids]))

    def _pending_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]]:
        if not self._pend_points:
            return None
        if self._pend_cache is None:
            self._pend_cache = (np.stack(self._pend_points),
                                np.asarray(self._pend_trees, dtype=int),
                                np.asarray(self._pend_weights, dtype=float))
        return self._pend_cache

    def _rebuild(self, points: np.ndarray, weights: np.ndarray,
                 tree_ids: np.ndarray) -> None:
        """Rebuild the shared block from the full (point, tree) multiset."""
        order = np.argsort(tree_ids, kind="stable")
        points = points[order]
        weights = weights[order]
        tree_ids = tree_ids[order]
        counts = np.bincount(tree_ids, minlength=self.num_trees)
        starts = _starts_of(counts)
        occupied = np.flatnonzero(counts)

        self._root_lo = np.full((self.num_trees, self.dimension), np.inf)
        self._root_hi = np.full((self.num_trees, self.dimension), -np.inf)
        self._root_weight = np.zeros(self.num_trees)
        if len(occupied):
            segment_starts = starts[occupied]
            self._root_lo[occupied] = np.minimum.reduceat(
                points, segment_starts, axis=0)
            self._root_hi[occupied] = np.maximum.reduceat(
                points, segment_starts, axis=0)
            self._root_weight[occupied] = np.add.reduceat(
                weights, segment_starts)

        lo_parts: List[np.ndarray] = []
        hi_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        start_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        leaf_parts: List[np.ndarray] = []
        tree_root = np.full(self.num_trees, -1, dtype=int)
        offset = 0
        for tree_id in occupied:
            begin = int(starts[tree_id])
            count = int(counts[tree_id])
            tree_root[tree_id] = offset
            if count <= self.max_entries:
                # Single-leaf tree straight from the dense root views.
                lo_parts.append(self._root_lo[tree_id][None, :])
                hi_parts.append(self._root_hi[tree_id][None, :])
                weight_parts.append(self._root_weight[tree_id][None])
                start_parts.append(np.asarray([begin], dtype=int))
                count_parts.append(np.asarray([count], dtype=int))
                leaf_parts.append(np.ones(1, dtype=bool))
                offset += 1
                continue
            subtree = FlatRTree.bulk_load(points[begin:begin + count],
                                          weights=weights[begin:begin + count],
                                          max_entries=self.max_entries)
            # The subtree reordered its points into leaf order; splice that
            # order back into the grouped block so its leaf spans apply.
            points[begin:begin + count] = subtree.points
            weights[begin:begin + count] = subtree.point_weights
            child_start = subtree.child_start.copy()
            child_start[subtree.leaf] += begin
            child_start[~subtree.leaf] += offset
            lo_parts.append(subtree.lo)
            hi_parts.append(subtree.hi)
            weight_parts.append(subtree.weight)
            start_parts.append(child_start)
            count_parts.append(subtree.child_count)
            leaf_parts.append(subtree.leaf)
            offset += subtree.num_nodes

        self._points = points
        self._point_weights = weights
        self._point_trees = tree_ids
        self._tree_root = tree_root
        if lo_parts:
            self._node_lo = np.concatenate(lo_parts)
            self._node_hi = np.concatenate(hi_parts)
            self._node_weight = np.concatenate(weight_parts)
            self._node_child_start = np.concatenate(start_parts)
            self._node_child_count = np.concatenate(count_parts)
            self._node_leaf = np.concatenate(leaf_parts)
        else:
            self._node_lo = np.empty((0, self.dimension))
            self._node_hi = np.empty((0, self.dimension))
            self._node_weight = np.empty(0)
            self._node_child_start = np.empty(0, dtype=int)
            self._node_child_count = np.empty(0, dtype=int)
            self._node_leaf = np.empty(0, dtype=bool)

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def total_weights(self) -> np.ndarray:
        """Per-tree total weights (flat part plus pending buffers)."""
        totals = self._root_weight.copy()
        pending = self._pending_arrays()
        if pending is not None:
            _, tree_ids, weights = pending
            np.add.at(totals, tree_ids, weights)
        return totals

    def dominance_aggregate(self, corners: np.ndarray) -> np.ndarray:
        """σ matrix of a corner batch against every tree in the forest.

        ``corners`` is a ``(B, d)`` array; the return value is the
        ``(B, num_trees)`` matrix whose ``[b, j]`` entry is the total weight
        of tree ``j``'s points weakly dominated by ``corners[b]`` (the
        window aggregate over ``[-inf, corners[b]]``) — exactly the σ
        values B&B's per-survivor loop used to collect one
        ``window_aggregate`` call at a time.
        """
        corners = np.atleast_2d(np.asarray(corners, dtype=float))
        if corners.shape[1] != self.dimension:
            raise ValueError("corners must be (B, %d)" % self.dimension)
        batch = corners.shape[0]
        sigma = np.zeros((batch, self.num_trees))
        if batch == 0 or self.num_trees == 0:
            return sigma
        widest = max(self.num_trees, self._points.shape[0],
                     len(self._pend_points), 1)
        chunk = max(1, _CHUNK_BUDGET // (widest * self.dimension))
        for start in range(0, batch, chunk):
            stop = min(batch, start + chunk)
            self._dominance_chunk(corners[start:stop], sigma[start:stop])
        return sigma

    def _dominance_chunk(self, corners: np.ndarray, sigma: np.ndarray
                         ) -> None:
        """One corner chunk of :meth:`dominance_aggregate`, in place."""
        # Pending block: brute-force containment through the kernel.
        pending = self._pending_arrays()
        if pending is not None:
            pend_points, pend_trees, pend_weights = pending
            los = np.broadcast_to(np.full(self.dimension, -np.inf),
                                  corners.shape)
            mask = points_in_boxes(pend_points, los, corners)
            rows, cols = np.nonzero(mask)
            np.add.at(sigma, (rows, pend_trees[cols]), pend_weights[cols])
        if not self._points.shape[0]:
            return
        # Flat part: dense root classification (a dominance window's lower
        # corner is -inf, so containment collapses to hi <= corner).
        query_hi = corners[:, None, :]
        disjoint = (self._root_lo[None, :, :] > query_hi).any(axis=2)
        contained = ~disjoint & (self._root_hi[None, :, :]
                                 <= query_hi).all(axis=2)
        sigma += np.where(contained, self._root_weight[None, :], 0.0)
        partial = ~(disjoint | contained)
        batch_idx, tree_idx = np.nonzero(partial)
        if not len(batch_idx):
            return
        # Straddling (corner, tree) pairs descend the shared node block one
        # frontier level at a time.
        nodes = self._tree_root[tree_idx]
        while len(nodes):
            node_lo = self._node_lo[nodes]
            node_hi = self._node_hi[nodes]
            query = corners[batch_idx]
            disjoint = (node_lo > query).any(axis=1)
            contained = ~disjoint & (node_hi <= query).all(axis=1)
            if contained.any():
                np.add.at(sigma, (batch_idx[contained], tree_idx[contained]),
                          self._node_weight[nodes[contained]])
            partial = ~(disjoint | contained)
            at_leaf = partial & self._node_leaf[nodes]
            if at_leaf.any():
                counts = self._node_child_count[nodes[at_leaf]]
                rows = _span_indices(self._node_child_start[nodes[at_leaf]],
                                     counts)
                pair_batch = np.repeat(batch_idx[at_leaf], counts)
                pair_tree = np.repeat(tree_idx[at_leaf], counts)
                entry_points = self._points[rows]
                inside = points_in_boxes_rows(
                    entry_points,
                    np.broadcast_to(np.full(self.dimension, -np.inf),
                                    entry_points.shape),
                    corners[pair_batch])
                np.add.at(sigma, (pair_batch[inside], pair_tree[inside]),
                          self._point_weights[rows[inside]])
            internal = partial & ~self._node_leaf[nodes]
            counts = self._node_child_count[nodes[internal]]
            batch_idx = np.repeat(batch_idx[internal], counts)
            tree_idx = np.repeat(tree_idx[internal], counts)
            nodes = _span_indices(self._node_child_start[nodes[internal]],
                                  counts)


def _margin_increase(lo: np.ndarray, hi: np.ndarray,
                     point: np.ndarray) -> float:
    """Perimeter increase of the box ``[lo, hi]`` when adding ``point``."""
    new_lo = np.minimum(lo, point)
    new_hi = np.maximum(hi, point)
    return float(np.sum(new_hi - new_lo) - np.sum(hi - lo))


def _starts_of(counts: np.ndarray) -> np.ndarray:
    """Segment start offsets of consecutive groups with the given sizes."""
    return np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)


def _span_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` for every span."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=int)
    first = np.repeat(starts - _starts_of(counts), counts)
    return first + np.arange(total)


def _str_partition(points: np.ndarray, indices: np.ndarray,
                   capacity: int, axis: int) -> List[np.ndarray]:
    """Recursively tile ``indices`` into groups of at most ``capacity``.

    A simplified Sort-Tile-Recursive: sort by the current axis, cut into
    vertical slabs, then recurse on the next axis within each slab.  The
    partition operates on index arrays over the shared ``(n, d)`` coordinate
    matrix — one stable ``argsort`` per slab instead of per-entry Python
    comparisons — and is shared by the pointer tree, the flat tree and the
    forest, so all three produce the same tiling.
    """
    indices = np.asarray(indices, dtype=int)
    if len(indices) <= capacity:
        return [indices]
    dimension = points.shape[1]
    num_groups = int(np.ceil(len(indices) / capacity))
    num_slabs = int(np.ceil(num_groups ** (1.0 / max(1, dimension - axis))))
    slab_size = int(np.ceil(len(indices) / num_slabs))
    order = indices[np.argsort(points[indices, axis], kind="stable")]
    groups: List[np.ndarray] = []
    next_axis = (axis + 1) % dimension
    for start in range(0, len(order), slab_size):
        slab = order[start:start + slab_size]
        if axis == dimension - 1 or len(slab) <= capacity:
            for chunk_start in range(0, len(slab), capacity):
                groups.append(slab[chunk_start:chunk_start + capacity])
        else:
            groups.extend(_str_partition(points, slab, capacity, next_axis))
    return groups
