"""Shared plumbing for the ARSP algorithms.

The central concept is the *score space*: Theorem 2 reduces F-dominance under
linear constraints to classical dominance between the vectors of scores under
the vertices of the preference region.  :class:`ScoreSpace` performs that
mapping once and exposes the arrays all index-based algorithms work on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.backend import (AlgorithmResult, ExecutionPolicy,
                            ExecutionReport, run_sharded)
from ..core.dataset import UncertainDataset
from ..core.numeric import PROB_ATOL, clamp_probability
from ..core.preference import PreferenceRegion, resolve_preference_region
from ..core.profiling import phase


@dataclass
class ScoreSpace:
    """The dataset mapped into the ``d'``-dimensional score space.

    Attributes
    ----------
    dataset:
        The original uncertain dataset.
    region:
        The resolved preference region (its vertices define the mapping).
    scores:
        ``(n, d')`` array: row ``k`` is ``S_V(t_k)`` for the ``k``-th instance
        in ``dataset.instances`` order.
    probabilities:
        ``(n,)`` array of existence probabilities in the same order.
    object_ids:
        ``(n,)`` array with the owning object of every instance.
    instance_ids:
        ``(n,)`` array with the global instance ids (result dictionary keys).
    object_totals:
        ``(m,)`` array with the total probability mass of every object.
    """

    dataset: UncertainDataset
    region: PreferenceRegion
    scores: np.ndarray
    probabilities: np.ndarray
    object_ids: np.ndarray
    instance_ids: np.ndarray
    object_totals: np.ndarray

    @property
    def num_instances(self) -> int:
        return self.scores.shape[0]

    @property
    def num_objects(self) -> int:
        return self.object_totals.shape[0]

    @property
    def mapped_dimension(self) -> int:
        return self.scores.shape[1]


def build_score_space(dataset: UncertainDataset, constraints) -> ScoreSpace:
    """Resolve the constraints and map every instance into score space."""
    with phase("setup"):
        region = resolve_preference_region(constraints)
    if region.dimension != dataset.dimension:
        raise ValueError(
            "constraints are defined for dimension %d but the dataset has "
            "dimension %d" % (region.dimension, dataset.dimension))
    points = dataset.instance_matrix()
    scores = region.score_matrix(points)
    object_totals = np.zeros(dataset.num_objects)
    for obj in dataset.objects:
        object_totals[obj.object_id] = obj.total_probability
    return ScoreSpace(
        dataset=dataset,
        region=region,
        scores=scores,
        probabilities=dataset.probability_vector(),
        object_ids=dataset.object_ids(),
        instance_ids=np.asarray(
            [inst.instance_id for inst in dataset.instances], dtype=int),
        object_totals=object_totals,
    )


def empty_result(dataset: UncertainDataset) -> Dict[int, float]:
    """Result dictionary with every instance initialised to probability 0."""
    return {instance.instance_id: 0.0 for instance in dataset.instances}


def shard_covers_all(dataset: UncertainDataset, lo: int, hi: int) -> bool:
    """True when a shard's ``[lo, hi)`` range is the whole object axis.

    Shard functions with a cheaper unmasked full-range path (the
    traversal family's subtree skipping, DUAL's target restriction) use
    this to keep the serial ``workers=1`` hot path free of per-target
    bookkeeping; defined once here so every ported algorithm applies the
    same sentinel.
    """
    return lo == 0 and hi == dataset.num_objects


def sharded_arsp(shard_fn: Callable, dataset: UncertainDataset, constraints,
                 workers: Optional[int] = None,
                 backend: Optional[str] = None,
                 options: Optional[Dict[str, object]] = None,
                 policy: Optional[ExecutionPolicy] = None
                 ) -> AlgorithmResult:
    """Run an ARSP shard function over the object axis via the backend layer.

    This is the uniform entry point behind every ported algorithm's
    ``workers=`` parameter (see :mod:`repro.core.backend`): the object axis
    ``[0, m)`` is cut into ``workers`` contiguous shards,
    ``shard_fn(dataset, constraints, lo, hi, **options)`` computes the
    results for the instances owned by objects in ``[lo, hi)``, and the
    shard results are merged into a full result dictionary whose key order
    is the canonical instance order regardless of worker count.  The
    returned :class:`AlgorithmResult` carries the run's
    :class:`ExecutionReport` (``.execution``); ``policy`` selects the
    supervision knobs (shard timeout, retry budget, terminal behaviour).
    """
    return run_sharded(shard_fn, dataset, constraints,
                       num_targets=dataset.num_objects,
                       workers=workers, backend=backend,
                       base_result=empty_result(dataset),
                       options=options, policy=policy)


def finalize_result(result: Dict[int, float]) -> Dict[int, float]:
    """Clamp accumulated float noise so probabilities stay within [0, 1]."""
    return {key: clamp_probability(value) for key, value in result.items()}


class SaturationTracker:
    """Incrementally maintained ``σ`` / ``β`` / ``χ`` state.

    This is the bookkeeping shared by the kd-tree and quadtree traversal
    algorithms: ``sigma[j]`` is the probability mass of object ``j`` known to
    dominate the current node's min corner, ``beta`` is the product of
    ``(1 - sigma[j])`` over non-saturated objects and ``chi`` counts the
    saturated objects.  Updates are undoable so the traversal can backtrack.
    """

    __slots__ = ("sigma", "beta", "saturated")

    def __init__(self, num_objects: int):
        self.sigma = np.zeros(num_objects)
        self.beta = 1.0
        self.saturated: set = set()

    @property
    def chi(self) -> int:
        return len(self.saturated)

    def add(self, object_id: int, probability: float) -> None:
        """Record that ``probability`` more mass of ``object_id`` dominates."""
        old = self.sigma[object_id]
        new = old + probability
        self.sigma[object_id] = new
        if object_id in self.saturated:
            return
        if new >= 1.0 - PROB_ATOL:
            self.saturated.add(object_id)
            # The factor (1 - old) leaves the product.
            if 1.0 - old > 0.0:
                self.beta /= (1.0 - old)
        else:
            self.beta *= (1.0 - new) / (1.0 - old)

    def remove(self, object_id: int, probability: float) -> None:
        """Undo a previous :meth:`add` with the same arguments.

        The arithmetic inversion is exact only up to float rounding — a
        remove leaves ulp-level residue in ``beta`` and ``sigma``.  The
        traversal engine therefore undoes whole blocks with
        :meth:`apply_block` / :meth:`restore` instead, whose snapshot
        restore is bit-exact; this scalar pair remains the readable
        specification (and the unit-tested reference) of what an undo
        means.
        """
        new = self.sigma[object_id]
        old = new - probability
        self.sigma[object_id] = old
        if object_id in self.saturated:
            if old >= 1.0 - PROB_ATOL:
                return
            self.saturated.remove(object_id)
            self.beta *= (1.0 - old)
        else:
            self.beta *= (1.0 - old) / (1.0 - new)

    def apply_block(self, object_ids, probabilities) -> tuple:
        """Apply a block of :meth:`add` updates; return an undo token.

        The token snapshots ``beta`` and the touched ``sigma`` entries, so
        :meth:`restore` rewinds the tracker *bit-exactly* — after a
        restore, the state is precisely what it was before the block, with
        none of the rounding residue an arithmetic :meth:`remove` leaves
        behind.  That makes the state at any tree node a pure function of
        the promotions along its root path, which is what lets the
        execution backend skip sibling subtrees without perturbing results
        (docs/ARCHITECTURE.md, "Execution backends").
        """
        old_beta = self.beta
        old_sigma = []
        newly_saturated = []
        for object_id, probability in zip(object_ids, probabilities):
            object_id = int(object_id)
            old = self.sigma[object_id]
            old_sigma.append((object_id, old))
            new = old + probability
            self.sigma[object_id] = new
            if object_id in self.saturated:
                continue
            if new >= 1.0 - PROB_ATOL:
                self.saturated.add(object_id)
                newly_saturated.append(object_id)
                # The factor (1 - old) leaves the product.
                if 1.0 - old > 0.0:
                    self.beta /= (1.0 - old)
            else:
                self.beta *= (1.0 - new) / (1.0 - old)
        return (old_beta, old_sigma, newly_saturated)

    def restore(self, token: tuple) -> None:
        """Bit-exact inverse of the :meth:`apply_block` that made the
        token (tokens must be restored in reverse application order)."""
        old_beta, old_sigma, newly_saturated = token
        # Reverse order puts the pre-block value back when one object was
        # promoted several times within the block.
        for object_id, old in reversed(old_sigma):
            self.sigma[object_id] = old
        for object_id in newly_saturated:
            self.saturated.discard(object_id)
        self.beta = old_beta

    def probabilities_for(self, object_ids: np.ndarray,
                          probabilities: np.ndarray) -> np.ndarray:
        """Batched :meth:`probability_for` over whole leaf blocks.

        Performs the same case analysis once for the block instead of per
        instance, so leaf emission in the traversal is a single array write.
        """
        object_ids = np.asarray(object_ids)
        probabilities = np.asarray(probabilities, dtype=float)
        if len(self.saturated) >= 2:
            return np.zeros(probabilities.shape)
        if len(self.saturated) == 1:
            saturated_object = next(iter(self.saturated))
            return np.where(object_ids == saturated_object,
                            probabilities * self.beta, 0.0)
        return probabilities * self.beta / (1.0 - self.sigma[object_ids])

    def probability_for(self, object_id: int, probability: float) -> float:
        """Rskyline probability of an instance of ``object_id`` with ``p``.

        Assumes ``sigma`` currently reflects exactly the mass dominating the
        instance.  The owning object's factor is excluded: if another object
        is saturated the probability is zero, otherwise it is
        ``p * beta / (1 - sigma[own])`` (or ``p * beta`` when the own object
        itself is saturated, because ``beta`` already excludes it).
        """
        others_saturated = self.saturated - {object_id}
        if others_saturated:
            return 0.0
        if object_id in self.saturated:
            return probability * self.beta
        own = self.sigma[object_id]
        return probability * self.beta / (1.0 - own)
