"""Bench-regression harness for the ARSP hot paths.

``repro bench`` times every registered algorithm on the full **workload
matrix** of the paper's evaluation — the IND/ANTI/CORR synthetic
distributions plus the IIP/CAR/NBA real-data stand-ins, each at the
profile's scaled default size (see :mod:`repro.experiments.workloads`) —
and writes the per-workload medians to ``BENCH_arsp.json``.  The file is
the performance trajectory of the repository: every perf-affecting PR
reruns the harness and records before/after medians in PERFORMANCE.md, so
regressions show up as a diff instead of an anecdote, on every
distribution rather than only the independent one.

Profiles
--------
``default``
    The scaled-down counterpart of the paper's default setting
    (m = 192 objects, cnt = 4, d = 4, WR constraints with c = d - 1) on
    all six workloads.
``quick``
    A seconds-scale smoke profile used by the benchmark suite's tier-1
    test; it covers IND, ANTI and the IIP real-data stand-in so the smoke
    run already exercises a non-IND and a real-data cell.

Algorithms whose constraint class differs from the generic linear WR set
get a matching variant of the *same* workload: DUAL receives the
equivalent weight-ratio box, DUAL-MS the 2-d projection, and ENUM a
shrunk prefix whose possible worlds stay enumerable.  Every cell is
checked against KDTT+ on the same (dataset, constraints) pair, so the
file doubles as an end-to-end parity sweep across the whole matrix.

Beyond the registered ARSP algorithms, an ``extras`` section times the
kernel-layer paths that live outside the registry: the eclipse query
algorithms (QUAD and DUAL-S on a certain-point workload, parity-checked
against the naive eclipse) and the continuous-uncertainty Monte Carlo
sampler.  Extras run whenever no explicit ``--algorithms`` subset is
requested.

Per-phase timing
----------------
Algorithms that annotate their preprocessing/query split with
:func:`repro.core.profiling.phase` (currently B&B's static-index build vs.
traversal and DUAL's forest build vs. query, plus the constraint ``setup``
of B&B and of every algorithm built on ``build_score_space``) get a
``phases_s`` mapping in their cells — per-phase medians next to the headline ``median_s`` — so an
index-layer regression is attributable without re-profiling.

Sharded cells
-------------
``repro bench --workers N`` runs every backend-ported algorithm (see
``repro.algorithms.registry.PARALLEL_ALGORITHMS``) with its target axis
sharded across ``N`` workers; serial-only algorithms keep their serial
cells.  The parity reference is always computed on the serial backend, so
a ``--workers`` run doubles as a serial-vs-sharded cross-backend parity
sweep over the whole matrix.  The effective worker count lands in the
payload (top level and per cell).

Sharded cells also record what the supervised execution layer did: each
backend-ported cell's ``execution`` field is the
:class:`repro.core.backend.ExecutionReport` summary of its last timed run
(attempts, retried/recovered shards, pool rebuilds, timeouts, fallback
events), so recovery overhead — e.g. under a ``REPRO_FAULTS`` injection —
is measured per cell rather than guessed.  ``--backend``,
``--shard-timeout``, ``--max-retries`` and ``--on-failure`` select the
backend and its :class:`repro.core.backend.ExecutionPolicy` for the
sharded cells.

Serve workload
--------------
A ``serve`` section (run whenever no explicit ``--algorithms`` subset is
requested, like the extras) measures the serving layer of PR 7: a
repeated-constraint query stream against :class:`repro.serve.ArspService`,
timed cold (a fresh daemon per round — every query pays the index build
and a cache miss) and warm (a long-lived daemon — every query is a
cross-query cache hit).  The warm entry records the shared cache's
hit/miss/eviction counters and the section records the warm-vs-cold
speedup, so the daemon's reason to exist is measured, not asserted; every
served result is parity-checked against one-shot ``compute_arsp``.

Stream workload
---------------
A ``stream`` section (run with the extras) replays one deterministic
scenario from :mod:`repro.experiments.scenarios` — per-step dataset
deltas plus a Zipf-skewed, bursty query stream — in three ways: *cold*
(one-shot ``compute_arsp`` recompute per query, the specification),
*incremental* (σ-matrix maintenance through
:class:`repro.algorithms.incremental.IncrementalArsp`) and *warm* (the
PR 7 daemon session with the cross-query LRU cache, bursts coalescing
in flight).  Per-step wall-clock lands in each entry's ``runs_s``, the
warm entry records the cache hit rate under the skewed stream *and* the
post-delta hit rate (hits served by cache entries σ-repaired across a
delta — the retention win of PR 10), and the three replays' stream
fingerprints must agree byte for byte (recorded as the section's
``parity``).

The JSON schema is ``repro-bench/8``: per-workload ``matrix`` sections
with per-phase timings, ``workers`` fields, per-cell ``execution``
summaries and ``cache`` stats, plus the top-level ``serve`` and
``stream`` sections.  :func:`load_bench` reads only that schema and
rejects any other with a ``ValueError``.

``compare_payloads`` diffs two payloads cell by cell (``repro bench
--compare BASELINE.json``) and flags cells whose median — or, with
``--compare-stat min``, whose CI-friendly minimum over runs — grew beyond
a configurable regression threshold, optionally gating every recorded
phase too (``--phase-regression-threshold``); the CLI exits non-zero on
any flagged cell so a bench run doubles as a regression gate.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.registry import (canonical_name, get_algorithm,
                                   list_algorithms, supports_workers)
from ..continuous.model import UniformBoxObject
from ..continuous.sampling import monte_carlo_object_arsp
from ..core.arsp import arsp_size, compute_arsp
from ..core.backend import resolve_workers
from ..core.preference import WeightRatioConstraints
from ..core.profiling import collect_phases
from ..data.synthetic import generate_certain_points
from ..eclipse import dual_s_eclipse, naive_eclipse, quad_eclipse
from .harness import _compare
from .workloads import (WORKLOAD_AXIS, Workload, WorkloadScale,
                        build_workload, get_workload_spec,
                        variant_for_algorithm)

#: Schema tag written into the JSON payload so future harness versions can
#: evolve the format without ambiguity.
SCHEMA = "repro-bench/8"

#: Default output file, written at the repository root by ``repro bench``.
DEFAULT_OUTPUT = "BENCH_arsp.json"


@dataclass(frozen=True)
class BenchProfile:
    """One named scale of the harness: workload sizes plus repeat count."""

    name: str
    scale: WorkloadScale
    repeats: int = 5
    #: Workloads timed when ``--workloads`` is not given.
    workload_names: Tuple[str, ...] = WORKLOAD_AXIS
    #: Certain-point workload of the eclipse extras (Fig. 8 shape).
    eclipse_points: int = 1024
    eclipse_dimension: int = 3
    #: Continuous Monte Carlo extras workload.
    mc_objects: int = 16
    mc_trials: int = 400
    #: Scenario replayed by the ``stream`` section (steps × queries/step).
    stream_steps: int = 4
    stream_queries: int = 12


PROFILES: Dict[str, BenchProfile] = {
    "default": BenchProfile(
        name="default",
        scale=WorkloadScale(num_objects=192, max_instances=4, dimension=4),
        repeats=5),
    "quick": BenchProfile(
        name="quick",
        scale=WorkloadScale(num_objects=32, max_instances=3, dimension=3,
                            enum_objects=5, iip_records=48, car_models=16,
                            car_instances=4, nba_players=12, nba_games=5),
        repeats=2,
        workload_names=("ind", "anti", "iip"),
        eclipse_points=192, eclipse_dimension=2,
        mc_objects=8, mc_trials=100,
        stream_steps=3, stream_queries=8),
}

#: Reference algorithm used for the parity check of every matrix cell.
_REFERENCE_ALGORITHM = "kdtt+"

#: Names of the non-registry hot paths timed in the ``extras`` section.
EXTRA_PATHS = ("eclipse-quad", "eclipse-dual-s", "continuous-mc")


def _time_runs(runner, rounds: int
               ) -> Tuple[object, List[float], List[Dict[str, float]]]:
    """Run ``runner`` ``rounds`` times; return (last result, timings,
    per-run phase attributions)."""
    runs: List[float] = []
    phase_runs: List[Dict[str, float]] = []
    result = None
    for _ in range(rounds):
        phases: Dict[str, float] = {}
        with collect_phases(phases):
            start = time.perf_counter()
            result = runner()
            runs.append(time.perf_counter() - start)
        phase_runs.append(phases)
    return result, runs, phase_runs


def _timing_fields(runs: Sequence[float]) -> Dict[str, object]:
    return {
        "repeats": len(runs),
        "runs_s": [round(value, 6) for value in runs],
        "median_s": round(statistics.median(runs), 6),
        "min_s": round(min(runs), 6),
    }


def _phase_fields(phase_runs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-phase medians across the repeated runs (empty when the
    algorithm does not annotate phases)."""
    names = sorted({name for phases in phase_runs for name in phases})
    return {name: round(statistics.median(
                [phases.get(name, 0.0) for phases in phase_runs]), 6)
            for name in names}


def _run_workload(workload: Workload, names: Sequence[str], rounds: int,
                  check: bool, workers: int = 1,
                  backend: Optional[str] = None,
                  policy=None) -> Dict[str, object]:
    """Time the named algorithms on one workload; one matrix section.

    ``workers > 1`` shards every backend-ported algorithm's target axis
    (``backend`` and ``policy`` — an
    :class:`repro.core.backend.ExecutionPolicy` — select the execution
    backend and its supervision knobs for those cells); serial-only
    algorithms keep running unsharded (their cells record ``workers: 1``).
    The parity reference is always computed on the serial backend, so a
    sharded run's cells double as a cross-backend parity sweep.  Each
    cell records the execution layer's report summary (its last timed
    run) under ``execution`` — ``None`` for serial-only algorithms — so
    retries, pool rebuilds and fallbacks are measured per cell.
    """
    references: Dict[str, Dict[int, float]] = {}
    entries: Dict[str, dict] = {}
    for name in names:
        variant_key = variant_for_algorithm(name)
        variant = workload.variants[variant_key]
        implementation = get_algorithm(name)
        cell_workers = workers if (workers > 1
                                   and supports_workers(name)) else 1
        if cell_workers > 1:
            def runner(impl=implementation, data=variant,
                       count=cell_workers):
                return impl(data.dataset, data.constraints, workers=count,
                            backend=backend, policy=policy)
        else:
            def runner(impl=implementation, data=variant):
                return impl(data.dataset, data.constraints)
        result, runs, phase_runs = _time_runs(runner, rounds)
        entry = dict({"variant": variant_key, "workers": cell_workers},
                     **_timing_fields(runs))
        entry["phases_s"] = _phase_fields(phase_runs)
        entry["arsp_size"] = arsp_size(result)
        execution = getattr(result, "execution", None)
        entry["execution"] = (execution.summary()
                              if execution is not None else None)
        # One-shot matrix cells never touch the serving layer's shared
        # cache; the field exists so every cell has the same v6 shape as
        # the serve section's entries.
        entry["cache"] = None
        if check:
            if variant_key not in references:
                if name == _REFERENCE_ALGORITHM and cell_workers == 1:
                    references[variant_key] = result
                else:
                    reference = get_algorithm(_REFERENCE_ALGORITHM)
                    references[variant_key] = reference(variant.dataset,
                                                        variant.constraints)
            mismatch = _compare(references[variant_key], result)
            entry["parity"] = mismatch if mismatch else "ok"
        entries[name] = entry
    return {
        "kind": workload.kind,
        "description": workload.description,
        "datasets": {key: variant.describe()
                     for key, variant in workload.variants.items()},
        "algorithms": entries,
    }


def _continuous_workload(profile: BenchProfile):
    """Random uniform-box objects for the Monte Carlo extras entry."""
    rng = np.random.default_rng(profile.scale.seed)
    dimension = profile.eclipse_dimension
    objects = []
    for object_id in range(profile.mc_objects):
        lo = rng.uniform(0.0, 0.8, size=dimension)
        hi = lo + rng.uniform(0.05, 0.2, size=dimension)
        objects.append(UniformBoxObject(
            object_id, lo, hi,
            appearance_probability=float(rng.uniform(0.5, 1.0))))
    return objects


def _run_extras(profile: BenchProfile, rounds: int, check: bool
                ) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """Time the eclipse and continuous paths; returns (entries, workloads)."""
    d = profile.eclipse_dimension
    points = generate_certain_points(profile.eclipse_points, d,
                                     distribution="IND",
                                     seed=profile.scale.seed)
    ratio = WeightRatioConstraints([(0.5, 2.0)] * (d - 1))
    objects = _continuous_workload(profile)

    workloads = {
        "eclipse-ind": {"constraints": "ratio[0.5,2]^%d" % (d - 1),
                        "num_points": profile.eclipse_points,
                        "dimension": d},
        "continuous-boxes": {"constraints": "ratio[0.5,2]^%d" % (d - 1),
                             "num_objects": profile.mc_objects,
                             "trials": profile.mc_trials,
                             "dimension": d},
    }
    runners = {
        "eclipse-quad": ("eclipse-ind",
                         lambda: quad_eclipse(points, ratio)),
        "eclipse-dual-s": ("eclipse-ind",
                           lambda: dual_s_eclipse(points, ratio)),
        "continuous-mc": ("continuous-boxes",
                          lambda: monte_carlo_object_arsp(
                              objects, ratio, num_trials=profile.mc_trials,
                              seed=profile.scale.seed)),
    }
    reference_eclipse = sorted(naive_eclipse(points, ratio)) if check else None

    entries: Dict[str, dict] = {}
    for name in EXTRA_PATHS:
        workload_key, runner = runners[name]
        result, runs, _ = _time_runs(runner, rounds)
        entry = dict({"workload": workload_key}, **_timing_fields(runs))
        entry["result_size"] = len(result)
        if check and name.startswith("eclipse"):
            entry["parity"] = ("ok" if sorted(result) == reference_eclipse
                               else "eclipse result differs from the naive "
                                    "reference")
        entries[name] = entry
    return entries, workloads


#: Distinct constraint boxes in the serve workload's query stream.  Each
#: round asks all of them, so warm rounds are all cache hits and cold
#: rounds all misses.
_SERVE_STREAM_CONSTRAINTS = 4

#: Workload the serve section queries (present in every profile's registry
#: even when not on its matrix axis).
_SERVE_WORKLOAD = "ind"


def _serve_constraint_stream(variant, count: int
                             ) -> List[WeightRatioConstraints]:
    """``count`` distinct WR boxes nested inside the variant's box.

    Each is shrunk a little further toward the box centre, so the stream
    exercises distinct cache keys while every query stays a valid
    weight-ratio constraint of the same shape.
    """
    stream = []
    for step in range(count):
        shrink = 0.08 * step
        ranges = []
        for low, high in variant.constraints.ranges:
            span = high - low
            ranges.append((low + span * shrink, high - span * shrink))
        stream.append(WeightRatioConstraints(ranges))
    return stream


def _run_serve(profile: BenchProfile, rounds: int, check: bool
               ) -> Dict[str, object]:
    """Measure the serving layer: cold-per-round vs a warm daemon.

    *Cold* rounds start a fresh :class:`repro.serve.ArspService` and
    answer the whole constraint stream — every query pays its share of
    the index build and a cross-query cache miss, the cost one-shot
    ``repro arsp`` pays on every invocation.  *Warm* rounds reuse one
    pre-warmed service whose cache already holds the stream — every query
    is a hit.  The warm entry carries the cache counters, and ``check``
    pins every served result against one-shot ``compute_arsp`` on the
    same (dataset, constraints) pair.
    """
    from ..serve import ArspService

    workload = build_workload(_SERVE_WORKLOAD, profile.scale)
    variant = workload.variants["ratio"]
    stream = _serve_constraint_stream(variant, _SERVE_STREAM_CONSTRAINTS)

    cold_runs: List[float] = []
    cold_results: List[Dict[int, float]] = []
    for _ in range(rounds):
        start = time.perf_counter()
        service = ArspService(variant.dataset)
        cold_results = [service.query(constraints).result
                        for constraints in stream]
        cold_runs.append(time.perf_counter() - start)
    cold_entry = _timing_fields(cold_runs)

    warm_service = ArspService(variant.dataset)
    warm_service.warm()
    for constraints in stream:
        warm_service.query(constraints)
    warm_runs: List[float] = []
    warm_results: List[Dict[int, float]] = []
    for _ in range(rounds):
        start = time.perf_counter()
        warm_results = [warm_service.query(constraints).result
                        for constraints in stream]
        warm_runs.append(time.perf_counter() - start)
    warm_entry = dict(_timing_fields(warm_runs),
                      cache=warm_service.cache.stats())

    warm_median = warm_entry["median_s"]
    section: Dict[str, object] = {
        "workload": dict(variant.describe(), workload=_SERVE_WORKLOAD,
                         variant="ratio"),
        "queries_per_round": len(stream),
        "cold": cold_entry,
        "warm": warm_entry,
        "speedup": (round(cold_entry["median_s"] / warm_median, 2)
                    if warm_median > 0 else None),
    }
    if check:
        mismatch = None
        for constraints, cold, warm in zip(stream, cold_results,
                                           warm_results):
            reference = dict(compute_arsp(variant.dataset, constraints,
                                          algorithm="dual"))
            if cold != reference:
                mismatch = "cold served result differs from one-shot"
                break
            if warm != reference:
                mismatch = "warm served result differs from one-shot"
                break
        section["parity"] = mismatch if mismatch else "ok"
    return section


#: Seed of the bench scenario.  Fixed so the stream section measures the
#: same script in every run of a given profile — the comparison gate
#: depends on the offered load being identical across runs.
_STREAM_SEED = 2024

#: Hit-rate guardrail of the ``--compare`` gate: the warm stream's cache
#: hit rate may drop at most this much (absolute) below the baseline's
#: before the cell flags.  Timing thresholds don't protect the cache — a
#: broken eviction policy can stay fast on bench-sized data while ruining
#: production hit rates, so the counter itself is gated.
HIT_RATE_TOLERANCE = 0.05


def _stream_spec(profile: BenchProfile):
    """The deterministic scenario the ``stream`` section replays."""
    from .scenarios import ScenarioSpec
    scale = profile.scale
    return ScenarioSpec(
        name="bench-%s" % profile.name,
        seed=_STREAM_SEED,
        steps=profile.stream_steps,
        num_objects=scale.num_objects,
        max_instances=scale.max_instances,
        dimension=scale.dimension,
        inserts_per_step=max(1, scale.num_objects // 24),
        deletes_per_step=max(1, scale.num_objects // 24),
        updates_per_step=max(1, scale.num_objects // 24),
        queries_per_step=profile.stream_queries)


def _run_stream(profile: BenchProfile, check: bool) -> Dict[str, object]:
    """Replay the bench scenario cold / incremental / warm.

    *Cold* is the specification — every query recomputed one-shot after
    each step's delta.  *Incremental* maintains σ matrices through
    :class:`repro.algorithms.incremental.IncrementalArsp`.  *Warm* runs
    the stream through the PR 7 daemon session: deltas and queries on
    the single compute thread, bursts submitted concurrently so repeated
    in-flight constraints coalesce, the cross-query LRU absorbing the
    Zipf repetition and carrying σ-repaired entries across each step's
    delta (``post_delta_hit_rate`` counts the hits those retained
    entries serve).  Per-step wall-clock becomes each entry's ``runs_s``
    (so ``--compare`` gates per-step latency), and ``check`` records
    whether all three stream fingerprints agree byte for byte.
    """
    from .scenarios import build_scenario, replay_scenario

    spec = _stream_spec(profile)
    script = build_scenario(spec)
    replays = {mode: replay_scenario(script, bench_mode)
               for mode, bench_mode in (("cold", "oneshot"),
                                        ("incremental", "incremental"),
                                        ("warm", "daemon"))}

    section: Dict[str, object] = {
        "workload": {
            "scenario": spec.name,
            "seed": spec.seed,
            "steps": spec.steps,
            "queries": script.num_queries,
            "num_objects": spec.num_objects,
            "max_instances": spec.max_instances,
            "dimension": spec.dimension,
            "constraint_pool": spec.constraint_pool,
            "zipf_exponent": spec.zipf_exponent,
            "script_fingerprint": script.fingerprint(),
        },
    }
    for mode, report in replays.items():
        entry = _timing_fields(report.step_seconds)
        if mode == "incremental":
            stats = report.engine_stats
            entry["maintenance"] = {
                "sigma_hits": stats["sigma_hits"],
                "copied_fraction": stats["copied_fraction"],
            }
        if mode == "warm":
            stats = report.engine_stats
            entry["cache"] = stats["cache"]
            entry["hit_rate"] = stats["cache"]["hit_rate"]
            # Post-delta warm hit rate: hits served by retained (σ-repaired)
            # entries over the queries that arrived after the first delta —
            # structurally zero before PR 10 cleared-on-delta was replaced.
            post_queries = sum(len(step.queries)
                               for step in script.steps[1:])
            entry["post_delta_hit_rate"] = (
                round(stats["cache"]["retained_hits"] / post_queries, 6)
                if post_queries else 0.0)
            entry["coalesced"] = stats["coalesced"]
        section[mode] = entry
    cold_total = sum(replays["cold"].step_seconds)
    warm_total = sum(replays["warm"].step_seconds)
    section["speedup"] = (round(cold_total / warm_total, 2)
                          if warm_total > 0 else None)
    if check:
        fingerprints = {report.result_fingerprint
                        for report in replays.values()}
        section["parity"] = ("ok" if len(fingerprints) == 1
                             else "replay modes disagree on the stream "
                                  "fingerprint")
    return section


def run_bench(profile: str = "default",
              algorithms: Optional[Sequence[str]] = None,
              workloads: Optional[Sequence[str]] = None,
              repeats: Optional[int] = None,
              output_path: Optional[str] = None,
              check: bool = True,
              workers: Optional[int] = None,
              backend: Optional[str] = None,
              policy=None) -> Dict[str, object]:
    """Time the algorithm × workload matrix and return (and optionally
    write) the ``BENCH_arsp.json`` payload.

    Parameters
    ----------
    profile:
        Name of a :data:`PROFILES` entry (``default`` or ``quick``).
    algorithms:
        Registry names to time; all registered algorithms by default.
    workloads:
        Workload names (see
        :func:`repro.experiments.workloads.available_workloads`); the
        profile's default axis when omitted.
    repeats:
        Override the profile's repeat count (the median is reported).
    output_path:
        When given, the payload is written there as JSON.
    check:
        Compare every cell against the reference algorithm on the same
        (dataset, constraints) pair and record the outcome in the payload.
    workers:
        Shard the target axis of every backend-ported algorithm across
        this many workers (``None``/1 keeps everything serial); the
        parity reference stays on the serial backend either way.
    backend:
        Execution backend for the sharded cells (``auto`` when omitted).
    policy:
        :class:`repro.core.backend.ExecutionPolicy` supervision knobs for
        the sharded cells (shard timeout, retry budget, ``on_failure``).
    """
    if profile not in PROFILES:
        raise KeyError("unknown bench profile %r; available: %s"
                       % (profile, ", ".join(sorted(PROFILES))))
    resolved = PROFILES[profile]
    rounds = repeats if repeats is not None else resolved.repeats
    if rounds < 1:
        raise ValueError("repeats must be at least 1")
    worker_count = resolve_workers(workers)
    # Resolve both axes (canonicalizing aliases and case, validating names,
    # dropping duplicates) before any timing work starts, so a typo in the
    # last name cannot discard minutes of already-measured cells — and so
    # an alias like ``dualms`` lands on its matching workload variant.
    # Empty selections fall back to the defaults, like omitted ones.
    names: List[str] = []
    for name in (algorithms if algorithms else list_algorithms()):
        canonical = canonical_name(name)
        if canonical not in names:
            names.append(canonical)
    selection: List[str] = []
    for name in (workloads if workloads else resolved.workload_names):
        canonical = get_workload_spec(name).name
        if canonical not in selection:
            selection.append(canonical)

    matrix: Dict[str, dict] = {}
    for workload_name in selection:
        workload = build_workload(workload_name, resolved.scale)
        matrix[workload.name] = _run_workload(workload, names, rounds, check,
                                              workers=worker_count,
                                              backend=backend, policy=policy)

    # The extras cover the vectorized paths outside the algorithm registry;
    # an explicit --algorithms subset is a request to time just that subset.
    extras: Dict[str, dict] = {}
    extra_workloads: Dict[str, dict] = {}
    serve: Dict[str, object] = {}
    stream: Dict[str, object] = {}
    if not algorithms:
        extras, extra_workloads = _run_extras(resolved, rounds, check)
        serve = _run_serve(resolved, rounds, check)
        stream = _run_stream(resolved, check)

    payload = {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "profile": resolved.name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reference_algorithm": _REFERENCE_ALGORITHM if check else None,
        "workers": worker_count,
        "backend": backend,
        "workload_axis": [name for name in matrix],
        "matrix": matrix,
        "extras": extras,
        "extra_workloads": extra_workloads,
        "serve": serve,
        "stream": stream,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload


# ----------------------------------------------------------------------
# Reading payloads
# ----------------------------------------------------------------------

def load_bench(path: str) -> Dict[str, object]:
    """Read a ``BENCH_arsp.json`` file of the current schema.

    Raises ``ValueError``, its message starting with ``path``, when the
    file cannot be read, is not JSON or carries any schema other than
    :data:`SCHEMA`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as error:
                raise ValueError("%s: not a JSON bench payload (%s)"
                                 % (path, error)) from error
    except OSError as error:
        raise ValueError("%s: cannot read bench payload (%s)"
                         % (path, error.strerror or error)) from error
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != SCHEMA:
        raise ValueError("%s: bench payload schema %r, expected %r "
                         "(re-measure the baseline with this version)"
                         % (path, schema, SCHEMA))
    return payload


# ----------------------------------------------------------------------
# Comparing payloads (the ``repro bench --compare`` regression gate)
# ----------------------------------------------------------------------

#: Default ``--regression-threshold``: a cell regresses when its median
#: grows beyond this factor of the baseline median.  Wall-clock medians on
#: shared machines are noisy, so the default leaves generous headroom; CI
#: setups with quiet runners can tighten it.
DEFAULT_REGRESSION_THRESHOLD = 1.5

#: ``statistic=`` values accepted by :func:`compare_payloads`: the cell
#: field each one gates on.  ``min`` is the CI-friendly mode — the minimum
#: over repeats filters scheduler noise that inflates medians on shared
#: runners.
COMPARE_STATISTICS = {"median": "median_s", "min": "min_s"}


def compare_payloads(baseline: Dict[str, object],
                     current: Dict[str, object],
                     threshold: float = DEFAULT_REGRESSION_THRESHOLD,
                     statistic: str = "median",
                     phase_threshold: Optional[float] = None
                     ) -> Tuple[List[str], List[str]]:
    """Per-cell timing deltas between two bench payloads.

    Both payloads carry the current schema.  Returns
    ``(lines, regressions)``: ``lines`` is the printable per-cell report
    over every cell of ``current`` (matrix and extras), ``regressions``
    the subset of cell names whose ``statistic`` (``median`` or the
    CI-friendly ``min`` of runs) grew beyond ``threshold`` times the
    baseline.  When ``phase_threshold`` is given, every phase recorded in
    both payloads (the ``phases_s`` medians) is additionally gated: a
    phase regressing beyond it flags ``cell:phase``, so an index-layer
    regression hiding inside a stable headline time still trips the gate.
    Cells or phases missing from the baseline (new algorithms, new
    workloads, newly annotated phases) are reported but never flagged.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if phase_threshold is not None and phase_threshold <= 0:
        raise ValueError("phase threshold must be positive")
    if statistic not in COMPARE_STATISTICS:
        raise ValueError("unknown statistic %r; available: %s"
                         % (statistic,
                            ", ".join(sorted(COMPARE_STATISTICS))))
    field = COMPARE_STATISTICS[statistic]
    baseline_matrix = baseline.get("matrix", {})
    lines: List[str] = []
    regressions: List[str] = []

    # Timings taken at different worker counts measure different things
    # (sharded cells pay pool/ship overhead and, on few cores, contention);
    # a delta between them is not attributable to a code change, so the
    # mismatch is called out up front and on every affected cell.
    base_workers = int(baseline.get("workers", 1))
    now_workers = int(current.get("workers", 1))
    if base_workers != now_workers:
        lines.append("  WARNING: baseline ran with workers=%d but this run "
                     "with workers=%d; deltas on sharded cells reflect the "
                     "backend, not code changes" % (base_workers,
                                                    now_workers))

    def ratio_of(base: float, now: float) -> float:
        return now / base if base > 0.0 else float("inf")

    def compare_cell(cell: str, base_entry, entry) -> None:
        if base_entry is None:
            lines.append("  %-28s %9.4f s  (no baseline)"
                         % (cell, entry[field]))
            return
        base = float(base_entry[field])
        now = float(entry[field])
        ratio = ratio_of(base, now)
        flag = ""
        cell_base_workers = int(base_entry.get("workers", 1))
        cell_now_workers = int(entry.get("workers", 1))
        if cell_base_workers != cell_now_workers:
            flag += ("  [workers %d -> %d]"
                     % (cell_base_workers, cell_now_workers))
        if ratio > threshold:
            regressions.append(cell)
            flag += "  REGRESSION (> %.2fx)" % threshold
        lines.append("  %-28s %9.4f s -> %9.4f s  (%5.2fx)%s"
                     % (cell, base, now, ratio, flag))
        if phase_threshold is None:
            return
        base_phases = base_entry.get("phases_s") or {}
        for phase_name, now_s in sorted((entry.get("phases_s")
                                         or {}).items()):
            if phase_name not in base_phases:
                # Newly annotated phases: reported, never flagged —
                # mirroring the cell-level "(no baseline)" convention.
                lines.append("    %-26s %9.4f s  (no baseline)"
                             % ("phase " + phase_name, float(now_s)))
                continue
            phase_ratio = ratio_of(float(base_phases[phase_name]),
                                   float(now_s))
            phase_flag = ""
            if phase_ratio > phase_threshold:
                regressions.append("%s:%s" % (cell, phase_name))
                phase_flag = ("  REGRESSION (> %.2fx)" % phase_threshold)
            lines.append("    %-26s %9.4f s -> %9.4f s  (%5.2fx)%s"
                         % ("phase " + phase_name,
                            float(base_phases[phase_name]), float(now_s),
                            phase_ratio, phase_flag))

    for workload_name, section in current.get("matrix", {}).items():
        base_section = baseline_matrix.get(workload_name, {})
        base_algorithms = base_section.get("algorithms", {})
        for name, entry in section["algorithms"].items():
            compare_cell("%s/%s" % (workload_name, name),
                         base_algorithms.get(name), entry)
    base_extras = baseline.get("extras") or {}
    for name, entry in (current.get("extras") or {}).items():
        compare_cell("extras/%s" % name, base_extras.get(name), entry)
    base_serve = baseline.get("serve") or {}
    current_serve = current.get("serve") or {}
    for mode in ("cold", "warm"):
        if mode in current_serve:
            compare_cell("serve/%s" % mode, base_serve.get(mode),
                         current_serve[mode])
    base_stream = baseline.get("stream") or {}
    current_stream = current.get("stream") or {}
    for mode in ("cold", "incremental", "warm"):
        if mode in current_stream:
            compare_cell("stream/%s" % mode, base_stream.get(mode),
                         current_stream[mode])
    # Per-step timings don't protect the cache; gate the warm replay's
    # hit rate directly so a cache/coalescing regression that stays fast
    # on bench-sized data still flags.
    warm = current_stream.get("warm") or {}
    base_warm = base_stream.get("warm") or {}
    # ``post_delta_hit_rate`` gates cache *retention*: a broken repair
    # path silently degrades to clear-on-delta (rate 0) without failing
    # any timing cell, so the counter is gated like the hit rate is.
    for field in ("hit_rate", "post_delta_hit_rate"):
        if field not in warm:
            continue
        label = "stream/warm:%s" % field
        now_rate = float(warm[field])
        if field in base_warm:
            base_rate = float(base_warm[field])
            flag = ""
            if now_rate < base_rate - HIT_RATE_TOLERANCE:
                regressions.append(label)
                flag = ("  REGRESSION (dropped > %.2f)"
                        % HIT_RATE_TOLERANCE)
            lines.append("  %-28s %9.2f   -> %9.2f%s"
                         % (label, base_rate, now_rate, flag))
        else:
            lines.append("  %-28s %9.2f    (no baseline)"
                         % (label, now_rate))
    return lines, regressions


def format_compare(baseline: Dict[str, object], current: Dict[str, object],
                   threshold: float = DEFAULT_REGRESSION_THRESHOLD,
                   statistic: str = "median",
                   phase_threshold: Optional[float] = None
                   ) -> Tuple[str, bool]:
    """Human-readable :func:`compare_payloads` report.

    Returns ``(text, ok)`` where ``ok`` is False when any cell (or, with
    ``phase_threshold``, any phase) regressed beyond its threshold.
    """
    lines, regressions = compare_payloads(baseline, current,
                                          threshold=threshold,
                                          statistic=statistic,
                                          phase_threshold=phase_threshold)
    header = ("comparison against baseline (%s, regression threshold %.2fx%s)"
              % (statistic, threshold,
                 "" if phase_threshold is None
                 else ", per-phase %.2fx" % phase_threshold))
    if regressions:
        footer = ("%d cell(s) regressed: %s"
                  % (len(regressions), ", ".join(regressions)))
    else:
        footer = "no regressions beyond the thresholds"
    return "\n".join([header] + lines + [footer]), not regressions


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------

def _format_entry(width: int, name: str, entry: Dict[str, object],
                  size_key: str, workload_key: str) -> str:
    parity = entry.get("parity")
    suffix = "" if parity in (None, "ok") else "  PARITY: %s" % parity
    execution = entry.get("execution") or {}
    if execution and not execution.get("clean", True):
        suffix += ("  [exec: %d attempts, %d rebuild(s), %d timeout(s)%s]"
                   % (execution.get("attempts", 0),
                      execution.get("pool_rebuilds", 0),
                      execution.get("timeouts", 0),
                      ", serial fallback"
                      if execution.get("serial_fallback_shards") else ""))
    phases = entry.get("phases_s") or {}
    if phases:
        suffix += "  {%s}" % ", ".join(
            "%s %.4f" % (phase_name, seconds)
            for phase_name, seconds in sorted(phases.items()))
    return ("  %-*s  %9.4f s  (min %.4f, size %d, %s)%s"
            % (width, name, entry["median_s"], entry["min_s"],
               entry[size_key], entry[workload_key], suffix))


def format_bench(payload: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_bench` payload."""
    matrix = payload["matrix"]
    extras = payload.get("extras") or {}
    names = [name for section in matrix.values()
             for name in section["algorithms"]] + list(extras)
    width = max(len(name) for name in names) if names else 1
    repeats = sorted({str(entry["repeats"]) + " runs"
                      for section in matrix.values()
                      for entry in section["algorithms"].values()}
                     | {str(entry["repeats"]) + " runs"
                        for entry in extras.values()})
    workers = payload.get("workers", 1)
    lines = ["bench profile %r (median of %s%s)"
             % (payload["profile"], ", ".join(repeats),
                "" if workers == 1 else ", workers=%d" % workers)]
    for workload_name in payload["workload_axis"]:
        section = matrix[workload_name]
        lines.append("[%s] %s" % (workload_name, section["description"]))
        for name in sorted(section["algorithms"]):
            lines.append(_format_entry(width, name,
                                       section["algorithms"][name],
                                       "arsp_size", "variant"))
    if extras:
        lines.append("[extras]")
        for name in sorted(extras):
            lines.append(_format_entry(width, name, extras[name],
                                       "result_size", "workload"))
    serve = payload.get("serve") or {}
    if serve:
        meta = serve.get("workload") or {}
        lines.append("[serve] %d-constraint query stream on %s/%s "
                     "(cold: fresh daemon per round, warm: shared cache)"
                     % (serve.get("queries_per_round", 0),
                        meta.get("workload", "?"), meta.get("variant", "?")))
        serve_width = max(width, len("serve-cold"))
        for mode in ("cold", "warm"):
            entry = serve.get(mode)
            if not entry:
                continue
            suffix = ""
            cache = entry.get("cache")
            if cache:
                suffix = ("  [cache: %d hit(s), %d miss(es), hit rate "
                          "%.2f]" % (cache["hits"], cache["misses"],
                                     cache["hit_rate"]))
            lines.append("  %-*s  %9.4f s  (min %.4f)%s"
                         % (serve_width, "serve-" + mode,
                            entry["median_s"], entry["min_s"], suffix))
        if serve.get("speedup") is not None:
            parity = serve.get("parity")
            lines.append("  warm rounds %.2fx faster than cold%s"
                         % (serve["speedup"],
                            "" if parity in (None, "ok")
                            else "  PARITY: %s" % parity))
    stream = payload.get("stream") or {}
    if stream:
        meta = stream.get("workload") or {}
        lines.append("[stream] scenario %r: %d steps, %d queries "
                     "(Zipf s=%.2f over %d constraints; cold: per-query "
                     "recompute, incremental: sigma maintenance, warm: "
                     "daemon replay)"
                     % (meta.get("scenario", "?"), meta.get("steps", 0),
                        meta.get("queries", 0),
                        meta.get("zipf_exponent", 0.0),
                        meta.get("constraint_pool", 0)))
        stream_width = max(width, len("stream-incremental"))
        for mode in ("cold", "incremental", "warm"):
            entry = stream.get(mode)
            if not entry:
                continue
            suffix = ""
            maintenance = entry.get("maintenance")
            if maintenance:
                suffix = ("  [sigma: %d hit(s), %.0f%% copied]"
                          % (maintenance["sigma_hits"],
                             100.0 * maintenance["copied_fraction"]))
            cache = entry.get("cache")
            if cache:
                suffix = ("  [cache: %d hit(s), %d miss(es), hit rate "
                          "%.2f; post-delta %.2f; %d coalesced]"
                          % (cache["hits"], cache["misses"],
                             cache["hit_rate"],
                             entry.get("post_delta_hit_rate", 0.0),
                             entry.get("coalesced", 0)))
            lines.append("  %-*s  %9.4f s/step  (min %.4f)%s"
                         % (stream_width, "stream-" + mode,
                            entry["median_s"], entry["min_s"], suffix))
        if stream.get("speedup") is not None:
            parity = stream.get("parity")
            lines.append("  warm replay %.2fx faster than cold%s"
                         % (stream["speedup"],
                            "" if parity in (None, "ok")
                            else "  PARITY: %s" % parity))
    return "\n".join(lines)
