"""High level ARSP API.

``compute_arsp`` is the main entry point of the package: it dispatches to any
of the registered algorithms and returns the rskyline probability of every
instance.  Convenience helpers aggregate the result per object, rank objects
and report the ARSP size statistic used throughout the paper's figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .dataset import UncertainDataset
from .numeric import PROB_ATOL, clamp_probability
from .preference import WeightRatioConstraints


def compute_arsp(dataset: UncertainDataset, constraints,
                 algorithm: str = "auto", workers: Optional[int] = None,
                 backend: Optional[str] = None, policy=None,
                 **options) -> Dict[int, float]:
    """Compute the rskyline probability of every instance.

    Parameters
    ----------
    dataset:
        The uncertain dataset.
    constraints:
        A :class:`~repro.core.preference.LinearConstraints`,
        :class:`~repro.core.preference.WeightRatioConstraints`,
        :class:`~repro.core.preference.PreferenceRegion` or raw vertex array.
    algorithm:
        One of the names in :func:`repro.algorithms.list_algorithms`, or
        ``"auto"`` to pick a sensible default (B&B for general constraints,
        DUAL for weight ratio constraints).
    workers:
        Shard the target axis across this many workers (see
        :mod:`repro.core.backend`).  Only the ported algorithms accept it;
        requesting workers for a serial-only algorithm raises
        ``ValueError`` rather than silently running serial.
    backend:
        Execution backend name (``auto``/``serial``/``process``); like
        ``workers``, only meaningful for the ported algorithms.
    policy:
        An :class:`~repro.core.backend.ExecutionPolicy` with the
        supervision knobs (shard timeout, retry budget, ``on_failure``);
        only meaningful for the ported algorithms.
    options:
        Extra keyword arguments passed to the selected algorithm.

    Returns
    -------
    dict
        Mapping ``instance_id -> rskyline probability`` covering every
        instance of the dataset (zero-probability instances included).
        The ported algorithms return an
        :class:`~repro.core.backend.AlgorithmResult` whose ``execution``
        attribute records what the execution layer did.
    """
    from ..algorithms.registry import (canonical_name, get_algorithm,
                                       supports_workers)

    if algorithm == "auto":
        if isinstance(constraints, WeightRatioConstraints):
            algorithm = "dual"
        else:
            algorithm = "bnb"
    name = canonical_name(algorithm)
    implementation = get_algorithm(name)
    sharded_options = {"workers": workers, "backend": backend,
                       "policy": policy}
    requested = {key: value for key, value in sharded_options.items()
                 if value is not None}
    if requested:
        if not supports_workers(name):
            from ..algorithms.registry import PARALLEL_ALGORITHMS

            raise ValueError(
                "algorithm %r does not support sharded execution (%s); "
                "parallel algorithms: %s"
                % (name,
                   ", ".join("%s=%r" % item for item in requested.items()),
                   ", ".join(sorted(PARALLEL_ALGORITHMS))))
        options = dict(options, **requested)
    return implementation(dataset, constraints, **options)


def object_rskyline_probabilities(dataset: UncertainDataset,
                                  instance_probabilities: Dict[int, float]
                                  ) -> Dict[int, float]:
    """Aggregate instance-level ARSP into per-object probabilities.

    Sums are clamped into ``[0, 1]`` to absorb accumulated float noise.
    """
    totals: Dict[int, float] = {obj.object_id: 0.0 for obj in dataset.objects}
    for instance in dataset.instances:
        totals[instance.object_id] += instance_probabilities[
            instance.instance_id]
    return {key: clamp_probability(value) for key, value in totals.items()}


def top_k_objects(dataset: UncertainDataset,
                  instance_probabilities: Dict[int, float],
                  k: int) -> List[Tuple[int, float]]:
    """Top-``k`` objects ranked by rskyline probability.

    Returns ``(object_id, probability)`` pairs sorted by decreasing
    probability (ties broken by object id for determinism).  This is the
    query behind Table I of the paper.
    """
    totals = object_rskyline_probabilities(dataset, instance_probabilities)
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def arsp_size(instance_probabilities: Dict[int, float],
              atol: float = PROB_ATOL) -> int:
    """Number of instances with non-zero rskyline probability."""
    return sum(1 for value in instance_probabilities.values() if value > atol)


def threshold_query(instance_probabilities: Dict[int, float],
                    threshold: float) -> List[int]:
    """Instance ids whose rskyline probability is at least ``threshold``.

    The paper motivates computing *all* probabilities partly because it
    subsumes threshold queries; this helper provides that derived query.
    """
    return [instance_id
            for instance_id, value in instance_probabilities.items()
            if value >= threshold]
