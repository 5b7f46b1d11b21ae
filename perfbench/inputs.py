"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program is built here from the run's seed
with numpy alone: object instance lists, constraint systems, deltas and
query streams.  The program only ever sees the results through its public
constructors (``UncertainDataset.from_instance_lists``, ``LinearConstraints``,
``WeightRatioConstraints``, ``ObjectSpec``/``DatasetDelta``), so a change to
the program's own data generators cannot change what the benchmark runs.

The inputs are plain Python/numpy values so :func:`fingerprint` can hash
them canonically; a run records that hash next to its metrics.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``default`` is the measured scale."""

    objects: int
    max_instances: int
    dimension: int
    #: Events generated ahead of the run (the stream cycles if a fast
    #: program exhausts it).
    stream_length: int
    #: Untimed warm-up: oneshot-lin8 ops on rankings disjoint from the
    #: timed ones; serve-*: one query on each of the hottest pool entries.
    warmup: int
    #: Leading queries whose answers make up the result fingerprint.
    fingerprint_queries: int
    #: Answers verified against a one-shot reference after the window.
    verify_sample: int
    pool: int = 0
    targets: int = 8


SCALES: Dict[str, Dict[str, Scale]] = {
    "default": {
        "oneshot-lin8": Scale(objects=300, max_instances=4, dimension=8,
                              stream_length=600, warmup=2,
                              fingerprint_queries=32, verify_sample=4),
        "serve-hot": Scale(objects=256, max_instances=4, dimension=4,
                           stream_length=20000, warmup=8,
                           fingerprint_queries=256, verify_sample=8,
                           pool=256),
        "serve-churn": Scale(objects=256, max_instances=4, dimension=4,
                             stream_length=8000, warmup=8,
                             fingerprint_queries=128, verify_sample=8,
                             pool=16),
    },
    # Seconds-long variant for the benchmark's own tests.
    "tiny": {
        "oneshot-lin8": Scale(objects=30, max_instances=3, dimension=5,
                              stream_length=40, warmup=1,
                              fingerprint_queries=4, verify_sample=3),
        "serve-hot": Scale(objects=40, max_instances=3, dimension=4,
                           stream_length=400, warmup=4,
                           fingerprint_queries=16, verify_sample=6,
                           pool=24, targets=4),
        "serve-churn": Scale(objects=40, max_instances=3, dimension=4,
                             stream_length=300, warmup=4,
                             fingerprint_queries=16, verify_sample=6,
                             pool=6, targets=4),
    },
}

#: serve-* query popularity: Zipf exponent over the constraint pool.
ZIPF_EXPONENT = 1.1
ZIPF_BLOCK = 512
#: serve-churn: one delta (2 inserts, 2 deletes, 2 updates) per this many
#: queries, and the burst-size cap and geometric mean.
DELTA_EVERY = 10
DELTA_SHAPE = (2, 2, 2)
MAX_BURST = 4
MEAN_BURST = 2.0


@dataclass
class Query:
    """One request: a constraint-pool index and the target object ids."""

    constraint: int
    targets: Tuple[int, ...]


@dataclass
class Delta:
    """One edit batch in plain values (instance rows per object)."""

    inserts: Tuple[Tuple[Tuple[float, ...], ...], ...]
    deletes: Tuple[int, ...]
    updates: Tuple[Tuple[int, Tuple[Tuple[float, ...], ...]], ...]


@dataclass
class Inputs:
    """Everything one workload run consumes, generated from its seed."""

    workload: str
    seed: int
    scale: Scale
    #: ``objects[i]`` is the list of instance rows of object ``i``; every
    #: instance of an object has probability ``1 / len(objects[i])``.
    objects: List[List[Tuple[float, ...]]]
    #: oneshot-lin8: rows of ``A`` in ``A ω <= 0`` per op;
    #: serve-*: weight-ratio ``(low, high)`` ranges per pool entry.
    constraints: List[List[Tuple[float, ...]]]
    #: oneshot-lin8 warm-up constraints, disjoint from ``constraints``.
    warmup_constraints: List[List[Tuple[float, ...]]] = field(
        default_factory=list)
    #: serve-*: the event stream, bursts of identical queries and deltas.
    events: List[Tuple[str, object]] = field(default_factory=list)


def _objects(rng: np.random.Generator, count: int, dimension: int,
             max_instances: int, anti: bool,
             sizes: Optional[Sequence[int]] = None
             ) -> List[List[Tuple[float, ...]]]:
    """Uncertain objects in the paper's generator shape.

    Centres are independent (IND) or anti-correlated around
    ``sum(x) = d/2`` (ANTI); each object's instances are uniform in a box
    of clipped-normal edge around its centre.  Instance counts cycle
    through 1..``max_instances`` in seeded order (or are given as
    ``sizes``), so every seed yields the same total instance count and
    the quadratic kernels cost the same from seed to seed.
    """
    if anti:
        totals = np.clip(rng.normal(0.5 * dimension, 0.05 * dimension,
                                    size=count), 0.0, float(dimension))
        weights = rng.dirichlet(np.ones(dimension), size=count)
        centers = np.clip(weights * totals[:, None], 0.0, 1.0)
    else:
        centers = rng.uniform(0.0, 1.0, size=(count, dimension))
    edges = np.clip(rng.normal(0.1, 0.025, size=count), 0.0, 0.2)
    lows = np.clip(centers - edges[:, None] / 2.0, 0.0, 1.0)
    highs = np.clip(centers + edges[:, None] / 2.0, 0.0, 1.0)
    if sizes is None:
        sizes = rng.permutation(
            np.resize(np.arange(1, max_instances + 1), count))
    return [[tuple(float(v) for v in row)
             for row in rng.uniform(lows[i], highs[i],
                                    size=(int(sizes[i]), dimension))]
            for i in range(count)]


#: oneshot-lin8: every FULL_RANKING_EVERY-th op ranks all attributes, the
#: others leave the last attribute of their permutation free.
FULL_RANKING_EVERY = 4


def _ranking_rows(permutation: Sequence[int], full: bool
                  ) -> List[Tuple[float, ...]]:
    """``ω[π_0] >= ω[π_1] >= ...`` as rows of ``A ω <= 0``.

    A partial ranking leaves ``π_{d-1}`` free (d - 2 constraints; at d = 8
    vertex enumeration solves C(14, 7) = 3432 candidate systems); a full
    one ranks every attribute (d - 1 constraints, C(15, 7) = 6435
    systems), about twice the work.  Both have d vertices.
    """
    dimension = len(permutation)
    rows = []
    for i in range(dimension - (1 if full else 2)):
        row = [0.0] * dimension
        row[permutation[i]] = -1.0
        row[permutation[i + 1]] = 1.0
        rows.append(tuple(row))
    return rows


def _rankings(rng: np.random.Generator, dimension: int, count: int
              ) -> List[List[Tuple[float, ...]]]:
    """``count`` rankings over distinct seeded attribute permutations,
    every ``FULL_RANKING_EVERY``-th of them full.

    The fixed mix keeps the oneshot-lin8 percentiles off the edge between
    the two op costs: p50 lies among the partial rankings and p90 among
    the full ones, in every run.
    """
    seen = set()
    out = []
    while len(out) < count:
        permutation = tuple(int(v) for v in rng.permutation(dimension))
        if permutation not in seen:
            seen.add(permutation)
            out.append(_ranking_rows(
                permutation, len(out) % FULL_RANKING_EVERY
                == FULL_RANKING_EVERY - 1))
    return out


def _ratio_pool(rng: np.random.Generator, size: int, dimension: int
                ) -> List[List[Tuple[float, ...]]]:
    """Distinct weight-ratio boxes ``l_i <= ω[i]/ω[d] <= h_i``."""
    pool = []
    for _ in range(size):
        lows = rng.uniform(0.3, 0.8, size=dimension - 1)
        highs = lows * rng.uniform(1.5, 3.0, size=dimension - 1)
        pool.append([(float(lo), float(hi)) for lo, hi in zip(lows, highs)])
    return pool


def _zipf_choices(rng: np.random.Generator, pool: int, count: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` pool indices with Zipf popularity, block-stratified.

    Each block of ``ZIPF_BLOCK`` picks draws one jittered quantile per
    slot and shuffles the block, so every block holds each pool entry in
    its Zipf proportion and the cache hit rate of a timed window varies
    little from seed to seed; the order stays seeded-random.  Returns the
    pool indices hottest first, and the picks.
    """
    ranks = np.arange(1, pool + 1, dtype=float)
    weights = ranks ** -ZIPF_EXPONENT
    cumulative = np.cumsum(weights / weights.sum())
    # A seeded shuffle decides which pool entry holds which rank.
    owner = rng.permutation(pool)
    blocks = []
    for _ in range(-(-count // ZIPF_BLOCK)):
        quantiles = (np.arange(ZIPF_BLOCK)
                     + rng.uniform(size=ZIPF_BLOCK)) / ZIPF_BLOCK
        block = np.minimum(np.searchsorted(cumulative, quantiles), pool - 1)
        rng.shuffle(block)
        blocks.append(block)
    return owner, owner[np.concatenate(blocks)[:count]]


def _targets(rng: np.random.Generator, objects: int, count: int
             ) -> Tuple[int, ...]:
    return tuple(sorted(int(v) for v in
                        rng.choice(objects, size=count, replace=False)))


def make_inputs(workload: str, seed: int, scale_name: str = "default"
                ) -> Inputs:
    """Generate the inputs of ``workload`` from ``seed``.

    Each concern (objects, constraints, stream, deltas) draws from its own
    child of one ``SeedSequence``, so resizing one never shifts another.
    """
    scale = SCALES[scale_name][workload]
    streams = [np.random.default_rng(child)
               for child in np.random.SeedSequence(seed).spawn(4)]
    data_rng, constraint_rng, stream_rng, delta_rng = streams
    d = scale.dimension
    objects = _objects(data_rng, scale.objects, d, scale.max_instances,
                       anti=workload == "oneshot-lin8")
    if workload == "oneshot-lin8":
        # Warm-up rankings come first, so they never repeat a timed one.
        rankings = _rankings(constraint_rng, d,
                             scale.warmup + scale.stream_length)
        return Inputs(
            workload=workload, seed=seed, scale=scale, objects=objects,
            constraints=rankings[scale.warmup:],
            warmup_constraints=rankings[:scale.warmup])

    pool = _ratio_pool(constraint_rng, scale.pool, d)
    hottest, choices = _zipf_choices(stream_rng, scale.pool,
                                     scale.stream_length)
    # The warm-up prefix: the same work (one miss per entry) on every seed.
    events: List[Tuple[str, object]] = [
        ("burst", [Query(int(choice), _targets(stream_rng, scale.objects,
                                               scale.targets))])
        for choice in hottest[:scale.warmup]]
    if workload == "serve-hot":
        for choice in choices:
            events.append(("burst", [Query(int(choice), _targets(
                stream_rng, scale.objects, scale.targets))]))
    elif workload == "serve-churn":
        sizes = [len(rows) for rows in objects]
        queries = 0
        since_delta = 0
        for choice in choices:
            if since_delta >= DELTA_EVERY:
                delta, sizes = _delta(delta_rng, sizes, d,
                                      scale.max_instances)
                events.append(("delta", delta))
                since_delta = 0
            size = min(MAX_BURST, int(stream_rng.geometric(1.0 / MEAN_BURST)))
            events.append(("burst", [
                Query(int(choice), _targets(stream_rng, scale.objects,
                                            scale.targets))
                for _ in range(size)]))
            queries += size
            since_delta += size
            if queries >= scale.stream_length:
                break
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return Inputs(workload=workload, seed=seed, scale=scale, objects=objects,
                  constraints=pool, events=events)


def _delta(rng: np.random.Generator, sizes: List[int], dimension: int,
           max_instances: int) -> Tuple[Delta, List[int]]:
    """One delta against objects of instance counts ``sizes``; returns it
    with the counts after it.

    Inserts take the instance counts of the deleted objects and updates
    keep theirs, so the object and instance totals never drift.
    """
    inserts, deletes, updates = DELTA_SHAPE
    chosen = [int(v) for v in rng.choice(len(sizes), size=deletes + updates,
                                         replace=False)]
    gone, changed = sorted(chosen[:deletes]), sorted(chosen[deletes:])
    fresh_sizes = [sizes[i] for i in gone][:inserts] + [sizes[i]
                                                        for i in changed]
    fresh = [tuple(obj) for obj in _objects(
        rng, len(fresh_sizes), dimension, max_instances, anti=False,
        sizes=fresh_sizes)]
    delta = Delta(inserts=tuple(fresh[:inserts]), deletes=tuple(gone),
                  updates=tuple(zip(changed, fresh[inserts:])))
    after = [n for i, n in enumerate(sizes) if i not in set(gone)]
    return delta, after + fresh_sizes[:inserts]


def apply_delta_to_lists(objects: List[List[Tuple[float, ...]]],
                         delta: Delta) -> List[List[Tuple[float, ...]]]:
    """The object list after ``delta``, rebuilt without the program.

    Survivors keep their relative order with updated objects replaced in
    place, and inserts are appended: the canonical renumbering
    ``DatasetDelta`` documents.  Verification builds each epoch's dataset
    from these lists, independently of the served dataset.
    """
    updated = dict(delta.updates)
    deleted = set(delta.deletes)
    out = [list(updated.get(i, rows)) for i, rows in enumerate(objects)
           if i not in deleted]
    out.extend(list(rows) for rows in delta.inserts)
    return out


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _feed(digest, value) -> None:
    """Canonical, type-tagged bytes of nested plain values."""
    if isinstance(value, float):
        digest.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, (int, np.integer)):
        digest.update(b"i" + struct.pack("<q", int(value)))
    elif isinstance(value, str):
        digest.update(b"s" + value.encode("utf-8") + b"\0")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[" + struct.pack("<q", len(value)))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, Query):
        _feed(digest, ("q", value.constraint, value.targets))
    elif isinstance(value, Delta):
        _feed(digest, ("d", value.inserts, value.deletes, value.updates))
    elif isinstance(value, Scale):
        _feed(digest, tuple(getattr(value, name)
                            for name in value.__dataclass_fields__))
    else:
        raise TypeError("cannot fingerprint %r" % (type(value),))


def fingerprint(inputs: Inputs) -> str:
    """sha256 of every input a run consumes."""
    digest = hashlib.sha256()
    _feed(digest, (inputs.workload, inputs.seed, inputs.scale,
                   inputs.objects, inputs.constraints,
                   inputs.warmup_constraints, inputs.events))
    return digest.hexdigest()


def result_bytes(result: Dict[int, float]) -> bytes:
    """Canonical bytes of one answer: ``(instance id, float64)`` in order."""
    return b"".join(struct.pack("<qd", key, value)
                    for key, value in result.items())
