"""KDTT / KDTT+: the kd-tree traversal algorithm (Algorithm 1).

The algorithm maps the uncertain dataset into the score space defined by the
vertices of the preference region and then runs the kd-ASP* procedure.  Two
variants are exposed, matching the paper's experimental study:

* ``KDTT`` (``integrated=False``): the original formulation that explores the
  complete kd-tree;
* ``KDTT+`` (``integrated=True``, the default): construction is integrated
  with the preorder traversal and subtrees whose instances all have zero
  rskyline probability are never built.

Time complexity: ``O(c^2 + d d' n + n^{2 - 1/d'})`` where ``d'`` is the
number of vertices of the preference region.  The underlying engine runs on
the batched kernels of :mod:`repro.core.kernels`; ``repro bench`` tracks its
throughput in ``BENCH_arsp.json`` (see PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.dataset import UncertainDataset
from .base import (ExecutionPolicy, build_score_space, finalize_result,
                   shard_covers_all, sharded_arsp)
from .tree_traversal import kd_partition, traverse_arsp


def _kdtt_shard(dataset: UncertainDataset, constraints,
                lo: int, hi: int,
                integrated: bool = True) -> Dict[int, float]:
    """kd-ASP* results for the instances owned by objects in ``[lo, hi)``.

    The traversal runs over the *full* score space (candidates are never
    sharded) with a target mask: subtrees holding no shard target are
    skipped, and every visited node carries the exact σ/β/χ state of the
    unmasked traversal, so shard results are bit-identical to the serial
    run (see :func:`repro.algorithms.tree_traversal.traverse_arsp`).
    """
    space = build_score_space(dataset, constraints)
    # The full-range shard (workers=1) drops the mask entirely so the
    # serial path pays no per-node target checks.
    targets = (None if shard_covers_all(dataset, lo, hi)
               else (space.object_ids >= lo) & (space.object_ids < hi))
    result: Dict[int, float] = {}
    traverse_arsp(space, result, kd_partition, prune_construction=integrated,
                  targets=targets)
    return finalize_result(result)


def kdtree_traversal_arsp(dataset: UncertainDataset, constraints,
                          integrated: bool = True,
                          workers: Optional[int] = None,
                          backend: Optional[str] = None,
                          policy: Optional[ExecutionPolicy] = None
                          ) -> Dict[int, float]:
    """Compute ARSP with the kd-tree traversal algorithm.

    Parameters
    ----------
    dataset:
        The uncertain dataset.
    constraints:
        Linear or weight-ratio constraints (anything accepted by
        :func:`repro.core.preference.resolve_preference_region`).
    integrated:
        ``True`` for KDTT+ (integrated construction + zero pruning),
        ``False`` for the original KDTT.
    workers, backend:
        Target-axis sharding across the execution backend
        (:mod:`repro.core.backend`); results are bit-identical for every
        worker count.
    """
    return sharded_arsp(_kdtt_shard, dataset, constraints,
                        workers=workers, backend=backend,
                        options={"integrated": integrated}, policy=policy)


def kdtt(dataset: UncertainDataset, constraints,
         workers: Optional[int] = None,
         backend: Optional[str] = None,
         policy: Optional[ExecutionPolicy] = None) -> Dict[int, float]:
    """Convenience wrapper for the original KDTT variant."""
    return kdtree_traversal_arsp(dataset, constraints, integrated=False,
                                 workers=workers, backend=backend,
                                 policy=policy)
