"""B&B: the branch-and-bound algorithm (Algorithm 2).

Instead of mapping the whole dataset into score space up front, the
branch-and-bound algorithm traverses an R-tree over the *raw* instances in
best-first order of their score under one vertex of the preference region and
maps instances on the fly.  Two structures make it fast:

* one aggregated R-tree ``R_j`` per uncertain object, holding the score
  vectors of the already-processed instances of ``T_j`` — a window aggregate
  query against ``R_j`` yields the probability mass of ``T_j`` that
  F-dominates the current instance;
* a pruning set ``P`` with at most one point per object: once the entire
  probability mass of an object has been processed, the component-wise
  maximum of its score vectors is added to ``P``, and any R-tree node whose
  min-corner score vector is dominated by a member of ``P`` contains only
  zero-probability instances (Theorems 3 and 4) and is skipped entirely.

Expected time complexity ``O(m n log n)``.

Both R-tree roles run on the flat array layer of :mod:`repro.index.rtree`
(see docs/ARCHITECTURE.md):

* the *static* index is a :class:`repro.index.rtree.FlatRTree`; its node
  min corners are score-mapped once with two matrix products at build time
  (heap keys and pruning-test scores for every node of the tree), and each
  expansion prunes a whole contiguous child span with one kernel call
  against the pruning set;
* the *aggregated* trees ``R_1 … R_m`` live in one
  :class:`repro.index.rtree.RTreeForest` block.  A tied batch inserts all
  surviving score vectors, then resolves every survivor's σ values against
  every other object with a single
  :meth:`~repro.index.rtree.RTreeForest.dominance_aggregate` call instead
  of a per-(survivor, object) Python loop of ``window_aggregate`` queries.
  Survivors whose own existence probability is zero skip the σ query
  entirely — their rskyline probability is zero regardless.

The pruning set is kept as a stacked corner matrix tested with
:func:`repro.core.kernels.dominates_corner` /
:func:`repro.core.kernels.weak_dominance_matrix`; the σ window aggregates
query the closed box at ``corner + SCORE_ATOL`` so the forest's exact
containment test implements the same tolerant weak dominance as every
other algorithm's score-space comparison (ulp-level ties count in both
directions).

Instances with identical scores under the sort vertex are processed as one
batch (all of them are inserted into their aggregated R-trees before any of
them is queried) so that weak dominance between tied instances is accounted
for exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.dataset import UncertainDataset
from ..core.kernels import dominates_corner, weak_dominance_matrix
from ..core.numeric import PROB_ATOL, SCORE_ATOL
from ..core.preference import resolve_preference_region
from ..core.profiling import phase
from ..index.rtree import FlatRTree, RTreeForest
from .base import ExecutionPolicy, finalize_result, sharded_arsp

_NODE = 0
_INSTANCE = 1


class _PruningSet:
    """The pruning set ``P`` as a lazily stacked corner matrix.

    Membership tests are the B&B per-node dominance tests; keeping the
    corners in one ``(k, d')`` array lets a single kernel call decide a
    whole block of score vectors instead of looping corner by corner.
    Insertions append to a list in O(1); the stacked matrix is rebuilt only
    when the next test observes new corners.
    """

    __slots__ = ("_pending", "_corners")

    def __init__(self, dimension: int):
        self._pending: List[np.ndarray] = []
        self._corners = np.empty((0, dimension))

    def add(self, corner: np.ndarray) -> None:
        self._pending.append(corner.copy())

    def _matrix(self) -> np.ndarray:
        if self._pending:
            self._corners = np.concatenate(
                [self._corners, np.stack(self._pending)])
            self._pending = []
        return self._corners

    def prunes(self, score_vector: np.ndarray) -> bool:
        """Does any pruning corner weakly dominate ``score_vector``?"""
        corners = self._matrix()
        if not len(corners):
            return False
        return bool(dominates_corner(corners, score_vector,
                                     atol=SCORE_ATOL).any())

    def prunes_block(self, score_vectors: np.ndarray) -> np.ndarray:
        """Batched :meth:`prunes` over a ``(b, d')`` score block."""
        corners = self._matrix()
        if not len(corners) or not len(score_vectors):
            return np.zeros(len(score_vectors), dtype=bool)
        return weak_dominance_matrix(corners, score_vectors,
                                     atol=SCORE_ATOL).any(axis=0)


def branch_and_bound_arsp(dataset: UncertainDataset, constraints,
                          max_entries: int = 16,
                          workers: Optional[int] = None,
                          backend: Optional[str] = None,
                          policy: Optional[ExecutionPolicy] = None
                          ) -> Dict[int, float]:
    """Compute ARSP with the branch-and-bound algorithm.

    Parameters
    ----------
    dataset, constraints:
        The ARSP input (any constraint type with a preference region).
    max_entries:
        Fan-out of the R-trees (both the static index and the per-object
        aggregated forest).
    workers, backend:
        Target-axis sharding across the execution backend
        (:mod:`repro.core.backend`).  Every worker replays the full
        best-first traversal (the pruning-set evolution is inherently
        sequential) but runs the dominant per-survivor σ queries and the
        result emission only for its own shard of target objects; the
        forest's per-corner aggregates are batch-order independent, so
        shard results are bit-identical to the serial run.
    """
    return sharded_arsp(_bnb_shard, dataset, constraints,
                        workers=workers, backend=backend,
                        options={"max_entries": max_entries}, policy=policy)


def _bnb_shard(dataset: UncertainDataset, constraints,
               lo: int, hi: int, max_entries: int = 16) -> Dict[int, float]:
    """B&B results for the instances owned by objects in ``[lo, hi)``."""
    with phase("setup"):
        region = resolve_preference_region(constraints)
    if region.dimension != dataset.dimension:
        raise ValueError(
            "constraints are defined for dimension %d but the dataset has "
            "dimension %d" % (region.dimension, dataset.dimension))
    result = {instance.instance_id: 0.0 for instance in dataset.instances
              if lo <= instance.object_id < hi}
    n = dataset.num_instances
    if n == 0:
        return result

    instances = dataset.instances
    points = dataset.instance_matrix()
    probabilities = dataset.probability_vector()
    object_ids = dataset.object_ids()
    vertices = region.vertices
    sort_vertex = vertices[0]
    mapped_dimension = region.num_vertices
    # Heap keys of all instances in one product instead of one dot per push.
    instance_keys = points @ sort_vertex

    with phase("index"):
        index = FlatRTree.bulk_load(points,
                                    weights=probabilities,
                                    data=np.arange(n),
                                    max_entries=max_entries)
        # Score-map every node's min corner once: heap keys and pruning-test
        # scores for the whole static tree come from two matrix products.
        node_keys = index.lo @ sort_vertex
        node_scores = index.lo @ vertices.T

    forest = RTreeForest(dataset.num_objects, mapped_dimension,
                         max_entries=max_entries)

    pruning_set = _PruningSet(mapped_dimension)
    processed_mass = np.zeros(dataset.num_objects)
    object_totals = np.asarray(
        [obj.total_probability for obj in dataset.objects])
    max_corners = np.full((dataset.num_objects, mapped_dimension), -np.inf)

    counter = itertools.count()
    heap: List[Tuple[float, int, int, int]] = []

    def push_node(node_id: int) -> None:
        heapq.heappush(heap, (float(node_keys[node_id]), next(counter),
                              _NODE, node_id))

    def push_instance(position: int) -> None:
        heapq.heappush(heap, (float(instance_keys[position]), next(counter),
                              _INSTANCE, position))

    def expand(node_id: int) -> None:
        """Open a static-index node, pruning children dominated by ``P``."""
        start = int(index.child_start[node_id])
        stop = start + int(index.child_count[node_id])
        if index.leaf[node_id]:
            for position in index.payloads[start:stop]:
                push_instance(int(position))
        else:
            # The child span is contiguous in the flat layout: its
            # precomputed score rows feed one kernel call against P.
            pruned = pruning_set.prunes_block(node_scores[start:stop])
            for child_id in range(start, stop):
                if not pruned[child_id - start]:
                    push_node(child_id)

    with phase("query"):
        if index.size and not pruning_set.prunes(node_scores[0]):
            push_node(0)

        while heap:
            key, _, kind, payload = heapq.heappop(heap)
            if kind == _NODE:
                if not pruning_set.prunes(node_scores[payload]):
                    expand(payload)
                continue

            # Gather every instance with the same sort key (plus any node
            # whose min corner shares the key, which may hide further tied
            # instances).
            batch: List[int] = [payload]
            while heap and heap[0][0] <= key + SCORE_ATOL:
                _, _, other_kind, other_payload = heapq.heappop(heap)
                if other_kind == _NODE:
                    if not pruning_set.prunes(node_scores[other_payload]):
                        expand(other_payload)
                else:
                    batch.append(other_payload)

            # First pass: map the whole batch into score space with one
            # block product and discard instances already known to have zero
            # probability (Theorem 3 makes this safe).
            batch_scores = points[batch] @ vertices.T
            pruned_batch = pruning_set.prunes_block(batch_scores)
            survivors = [(position, batch_scores[row])
                         for row, position in enumerate(batch)
                         if not pruned_batch[row]]

            # Second pass: insert all survivors before querying any of them
            # so tied instances see each other in the window aggregates.
            for position, score_vector in survivors:
                forest.insert(int(object_ids[position]), score_vector,
                              weight=float(probabilities[position]))

            # Third pass: one forest call resolves σ against every other
            # object for the whole batch.  Survivors with zero existence
            # probability skip the query — their result is zero either way
            # — and so do survivors outside this shard's target range:
            # their masses were inserted above (they stay candidate
            # dominators for everyone), but their own σ rows belong to
            # another shard.  The forest's per-corner rows do not depend on
            # which other corners share the batch, so the remaining rows
            # are bit-identical to the unsharded batch.
            live = [(position, score_vector)
                    for position, score_vector in survivors
                    if probabilities[position] > 0.0
                    and lo <= int(object_ids[position]) < hi]
            if live:
                corners = np.stack([score for _, score in live])
                owners = np.asarray([int(object_ids[position])
                                     for position, _ in live])
                # Querying the closed window at corner + SCORE_ATOL makes
                # the exact containment test of the forest implement the
                # same tolerant weak dominance (candidate <= target + atol)
                # as every other algorithm's score-space comparison —
                # without it, ulp-level score ties (e.g. under degenerate
                # single-vertex regions) are counted in one direction only.
                sigma = forest.dominance_aggregate(corners + SCORE_ATOL)
                sigma[np.arange(len(live)), owners] = 0.0
                saturated = (sigma >= 1.0 - PROB_ATOL).any(axis=1)
                live_probabilities = (
                    np.asarray([probabilities[position]
                                for position, _ in live])
                    * np.prod(1.0 - sigma, axis=1))
                live_probabilities[saturated] = 0.0
                for row, (position, _) in enumerate(live):
                    result[instances[position].instance_id] = float(
                        live_probabilities[row])

            for position, score_vector in survivors:
                owner = int(object_ids[position])
                processed_mass[owner] += probabilities[position]
                max_corners[owner] = np.maximum(max_corners[owner],
                                                score_vector)
                if (object_totals[owner] >= 1.0 - PROB_ATOL
                        and processed_mass[owner] >= 1.0 - PROB_ATOL
                        and len(dataset.objects[owner]) > 0):
                    pruning_set.add(max_corners[owner])

    return finalize_result(result)
