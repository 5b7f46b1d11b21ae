"""Command line interface.

Four subcommands cover the common ways of exercising the reproduction
without writing code:

``python -m repro arsp``
    Generate a synthetic workload and compute ARSP with a chosen algorithm,
    printing timing, the ARSP size and the top objects.

``python -m repro figure --id 5a``
    Re-run one of the paper's figure sweeps (scaled down) and print the
    running-time / ARSP-size series.

``python -m repro effectiveness``
    Print the Table I / Table II style rankings on the simulated NBA data.

``python -m repro algorithms``
    List the registered ARSP algorithms.

``python -m repro serve``
    Start the long-lived query daemon (see docs/ARCHITECTURE.md, "Serving
    layer"): load one synthetic workload, keep the index state warm, and
    answer a stream of (constraint, target-set) ARSP queries over a
    line-delimited JSON protocol on a TCP port.  Served results are
    byte-identical to one-shot ``repro arsp``; repeated constraints are
    answered from the shared cross-query cache and concurrent identical
    queries are coalesced into one kernel pass.

``python -m repro stream``
    Build a deterministic time-stepped scenario (per-step dataset deltas
    plus a Zipf-skewed, bursty query stream; see
    :mod:`repro.experiments.scenarios`) and replay it in the requested
    modes — ``oneshot`` recompute, ``incremental`` σ-matrix maintenance,
    warm ``service``, and the ``daemon`` session — printing per-step
    latency, maintenance/cache counters and the byte-equivalence verdict
    across the replayed modes.

``python -m repro bench``
    Run the bench-regression harness over the algorithm × workload matrix
    (IND/ANTI/CORR synthetic distributions plus the IIP/CAR/NBA real-data
    stand-ins, selectable via ``--workloads``) and write
    ``BENCH_arsp.json`` (see PERFORMANCE.md).  ``--workers N`` shards every
    backend-ported algorithm's target axis across ``N`` worker processes,
    with each cell still parity-checked against the serial backend.
    ``--compare BASELINE.json`` additionally prints per-cell deltas against
    a previous payload (``--compare-stat`` picks the median or the
    CI-friendly min of runs, ``--phase-regression-threshold`` gates the
    recorded per-phase medians too) and exits non-zero when any cell
    regresses beyond ``--regression-threshold``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence, Tuple

from .algorithms.registry import list_algorithms
from .core.arsp import arsp_size, compute_arsp, top_k_objects
from .data.constraints import weak_ranking_constraints
from .data.real import nba_dataset
from .data.synthetic import SyntheticConfig, generate_uncertain_dataset
from .experiments.effectiveness import (format_ranking_table,
                                        rskyline_probability_ranking,
                                        skyline_probability_ranking)
from .experiments.figures import figure5_sweep, figure6_sweep, figure8_sweep
from .experiments.harness import sweep_to_series
from .experiments.perf import (COMPARE_STATISTICS, DEFAULT_OUTPUT,
                               DEFAULT_REGRESSION_THRESHOLD, PROFILES,
                               format_bench, format_compare, load_bench,
                               run_bench)
from .experiments.workloads import available_workloads
from .experiments.reporting import format_series, format_table

#: Figure identifiers accepted by ``python -m repro figure --id ...`` mapped
#: to (description, runner).  Runners return printable text.
FIGURE_IDS = ("5a", "5d", "5g", "5j", "5m", "5p", "6a", "8a", "8b")


def _workers_argument(value: str) -> int:
    """Argparse type for ``--workers``: a positive integer.

    Thin wrapper over :func:`repro.core.backend.resolve_workers` — the
    single source of the validation rule — so a bad value fails with a
    clear CLI error before any dataset is generated.  The CPU-count clamp
    is applied later by the execution backend (it only affects spawned
    processes, never the deterministic shard layout).
    """
    from .core.backend import resolve_workers

    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "workers must be a positive integer, got %r" % value)
    try:
        return resolve_workers(workers)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _timeout_argument(value: str) -> float:
    """Argparse type for ``--shard-timeout``: positive seconds."""
    try:
        timeout = float(value)
    except ValueError:
        timeout = 0.0
    if not timeout > 0:
        raise argparse.ArgumentTypeError(
            "shard timeout must be a positive number of seconds, got %r"
            % value)
    return timeout


def _retries_argument(value: str) -> int:
    """Argparse type for ``--max-retries``: a non-negative integer."""
    try:
        retries = int(value)
    except ValueError:
        retries = -1
    if retries < 0:
        raise argparse.ArgumentTypeError(
            "max retries must be a non-negative integer, got %r" % value)
    return retries


def _add_execution_arguments(command: argparse.ArgumentParser) -> None:
    """The supervised-execution flags shared by ``arsp`` and ``bench``.

    They parameterize :class:`repro.core.backend.ExecutionPolicy`; all are
    only meaningful together with ``--workers`` on backend-ported
    algorithms (the serial path has no pool to supervise).
    """
    from .core.backend import BACKENDS, ON_FAILURE

    command.add_argument("--backend", default=None, choices=BACKENDS,
                         help="execution backend for sharded runs "
                              "(default: auto — process pools when "
                              "workers > 1)")
    command.add_argument("--shard-timeout", type=_timeout_argument,
                         default=None, metavar="SECONDS",
                         help="wall-clock budget per shard attempt; a hung "
                              "worker is killed and its shard rescheduled "
                              "(default: no timeout)")
    command.add_argument("--max-retries", type=_retries_argument,
                         default=None, metavar="N",
                         help="extra submissions granted per shard after an "
                              "infrastructure failure (default: 2)")
    command.add_argument("--on-failure", default=None, choices=ON_FAILURE,
                         help="terminal policy once a shard exhausts its "
                              "retries: recompute missing shards serially "
                              "(default), raise after the retries, or raise "
                              "on the first failure")


def _execution_policy(args: argparse.Namespace):
    """Build the ExecutionPolicy requested by the CLI flags (or None)."""
    from .core.backend import ExecutionPolicy

    if (args.shard_timeout is None and args.max_retries is None
            and args.on_failure is None):
        return None
    defaults = ExecutionPolicy()
    return ExecutionPolicy(
        shard_timeout_s=args.shard_timeout,
        max_retries=(defaults.max_retries if args.max_retries is None
                     else args.max_retries),
        on_failure=args.on_failure or defaults.on_failure)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Computing All Restricted Skyline "
                    "Probabilities on Uncertain Datasets' (ICDE 2024)")
    subparsers = parser.add_subparsers(dest="command")

    arsp = subparsers.add_parser("arsp", help="run ARSP on synthetic data")
    arsp.add_argument("--algorithm", default="auto",
                      help="algorithm name (see 'algorithms' command)")
    arsp.add_argument("--objects", type=int, default=200, help="m")
    arsp.add_argument("--instances", type=int, default=4, help="cnt")
    arsp.add_argument("--dimension", type=int, default=4, help="d")
    arsp.add_argument("--region-length", type=float, default=0.2, help="l")
    arsp.add_argument("--incomplete", type=float, default=0.0, help="phi")
    arsp.add_argument("--distribution", default="IND",
                      choices=["IND", "ANTI", "CORR"])
    arsp.add_argument("--constraints", type=int, default=None,
                      help="number of WR constraints (default d-1)")
    arsp.add_argument("--top-k", type=int, default=10)
    arsp.add_argument("--seed", type=int, default=7)
    arsp.add_argument("--workers", type=_workers_argument, default=None,
                      help="shard the target axis across this many worker "
                           "processes (backend-ported algorithms only)")
    _add_execution_arguments(arsp)

    serve = subparsers.add_parser(
        "serve", help="long-lived ARSP query daemon (warm indexes, shared "
                      "cross-query cache)")
    serve.add_argument("--objects", type=int, default=200, help="m")
    serve.add_argument("--instances", type=int, default=4, help="cnt")
    serve.add_argument("--dimension", type=int, default=4, help="d")
    serve.add_argument("--region-length", type=float, default=0.2, help="l")
    serve.add_argument("--incomplete", type=float, default=0.0, help="phi")
    serve.add_argument("--distribution", default="IND",
                       choices=["IND", "ANTI", "CORR"])
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--algorithm", default="auto",
                       help="default algorithm for queries that do not name "
                            "one (default: auto)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 picks a free one and prints it "
                            "(default: 0)")
    serve.add_argument("--cache-limit", type=int, default=None, metavar="N",
                       help="entry bound of the shared cross-query cache "
                            "(default: 64)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip the eager index build at startup")
    serve.add_argument("--workers", type=_workers_argument, default=None,
                       help="run every computed query sharded across this "
                            "many worker processes (supervised; the "
                            "ExecutionReport lands in each response)")
    _add_execution_arguments(serve)

    stream = subparsers.add_parser(
        "stream", help="replay a time-stepped delta + Zipf query scenario "
                       "and check replay-mode equivalence")
    stream.add_argument("--seed", type=int, default=0,
                        help="scenario seed; same seed, same script in any "
                             "process (default: 0)")
    stream.add_argument("--steps", type=int, default=4,
                        help="number of time steps (default: 4)")
    stream.add_argument("--objects", type=int, default=48, help="m")
    stream.add_argument("--instances", type=int, default=4, help="cnt")
    stream.add_argument("--dimension", type=int, default=3, help="d")
    stream.add_argument("--distribution", default="IND",
                        choices=["IND", "ANTI", "CORR"])
    stream.add_argument("--inserts", type=int, default=2,
                        help="objects inserted per step (default: 2)")
    stream.add_argument("--deletes", type=int, default=2,
                        help="objects deleted per step (default: 2)")
    stream.add_argument("--updates", type=int, default=2,
                        help="objects updated per step (default: 2)")
    stream.add_argument("--queries", type=int, default=12,
                        help="queries per step (default: 12)")
    stream.add_argument("--pool", type=int, default=6,
                        help="distinct constraints in the pool (default: 6)")
    stream.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf popularity exponent of the pool "
                             "(default: 1.1)")
    stream.add_argument("--modes", default="oneshot,incremental,daemon",
                        help="comma-separated replay modes out of "
                             "oneshot,incremental,service,daemon "
                             "(default: oneshot,incremental,daemon)")

    figure = subparsers.add_parser("figure", help="re-run a figure sweep")
    figure.add_argument("--id", required=True, choices=FIGURE_IDS,
                        help="figure identifier, e.g. 5a")

    subparsers.add_parser("effectiveness",
                          help="Tables I/II on the simulated NBA data")
    subparsers.add_parser("algorithms", help="list registered algorithms")

    bench = subparsers.add_parser(
        "bench", help="run the bench-regression harness (BENCH_arsp.json)")
    bench.add_argument("--profile", default="default",
                       choices=sorted(PROFILES),
                       help="workload scale (default: default)")
    bench.add_argument("--quick", action="store_true",
                       help="shorthand for --profile quick")
    bench.add_argument("--algorithms", default=None,
                       help="comma-separated registry names "
                            "(default: all registered algorithms)")
    bench.add_argument("--workloads", default=None,
                       help="comma-separated workload names out of %s "
                            "(default: the profile's workload axis)"
                            % ",".join(available_workloads()))
    bench.add_argument("--repeats", type=int, default=None,
                       help="override the profile's repeat count")
    bench.add_argument("--output", default=DEFAULT_OUTPUT,
                       help="JSON output path (default: %s); "
                            "'-' skips writing" % DEFAULT_OUTPUT)
    bench.add_argument("--no-check", action="store_true",
                       help="skip the parity check against the reference "
                            "algorithm")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="compare medians against a baseline "
                            "BENCH_arsp.json (schema repro-bench/8) and "
                            "exit non-zero when a cell regresses beyond the "
                            "threshold; the baseline must be measured on "
                            "the same host, since timings from another "
                            "host do not gate")
    bench.add_argument("--regression-threshold", type=float,
                       default=DEFAULT_REGRESSION_THRESHOLD,
                       help="regression factor for --compare "
                            "(default: %.2fx)"
                            % DEFAULT_REGRESSION_THRESHOLD)
    bench.add_argument("--workers", type=_workers_argument, default=None,
                       help="shard every backend-ported algorithm's target "
                            "axis across this many worker processes; every "
                            "cell stays parity-checked against the serial "
                            "backend")
    _add_execution_arguments(bench)
    bench.add_argument("--compare-stat", default="median",
                       choices=sorted(COMPARE_STATISTICS),
                       help="statistic gated by --compare: the median or "
                            "the CI-friendly min of runs (default: median)")
    bench.add_argument("--phase-regression-threshold", type=float,
                       default=None, metavar="FACTOR",
                       help="additionally gate every recorded per-phase "
                            "median (index/query splits) on this factor "
                            "during --compare")
    return parser


def run_arsp(args: argparse.Namespace) -> str:
    config = SyntheticConfig(num_objects=args.objects,
                             max_instances=args.instances,
                             dimension=args.dimension,
                             region_length=args.region_length,
                             incomplete_fraction=args.incomplete,
                             distribution=args.distribution,
                             seed=args.seed)
    dataset = generate_uncertain_dataset(config)
    constraints = weak_ranking_constraints(args.dimension, args.constraints)
    workers = getattr(args, "workers", None)
    start = time.perf_counter()
    result = compute_arsp(dataset, constraints, algorithm=args.algorithm,
                          workers=workers,
                          backend=getattr(args, "backend", None),
                          policy=_execution_policy(args))
    elapsed = time.perf_counter() - start

    lines = [
        "workload: m=%d, instances=%d, d=%d, distribution=%s"
        % (dataset.num_objects, dataset.num_instances, dataset.dimension,
           args.distribution),
        "algorithm %s finished in %.3f s%s; ARSP size %d"
        % (args.algorithm, elapsed,
           "" if workers is None else " (workers=%d)" % workers,
           arsp_size(result)),
    ]
    execution = getattr(result, "execution", None)
    if execution is not None and not execution.clean:
        summary = execution.summary()
        note = ("execution: %d attempt(s), %d pool rebuild(s), "
                "%d timeout(s)"
                % (summary["attempts"], summary["pool_rebuilds"],
                   summary["timeouts"]))
        if summary["recovered_shards"]:
            note += ", recovered shards %s" % summary["recovered_shards"]
        if summary["serial_fallback_shards"]:
            note += (", serial fallback for shards %s"
                     % summary["serial_fallback_shards"])
        lines.append(note)
    lines.append("")
    rows = [(object_id, round(probability, 4))
            for object_id, probability in top_k_objects(dataset, result,
                                                        args.top_k)]
    lines.append(format_table(["object", "Pr_rsky"], rows,
                              title="top-%d objects" % args.top_k))
    return "\n".join(lines)


def run_serve(args: argparse.Namespace) -> int:
    """Start the query daemon and serve until a ``shutdown`` op arrives.

    Prints a single flushed ``listening on HOST:PORT`` line once the
    socket is bound — with ``--port 0`` that line is how callers learn
    the actual port — and a cache-statistics summary on exit.
    """
    import asyncio

    from .serve import ArspServer, ArspService, ArspSession, ServeConfig

    config = SyntheticConfig(num_objects=args.objects,
                             max_instances=args.instances,
                             dimension=args.dimension,
                             region_length=args.region_length,
                             incomplete_fraction=args.incomplete,
                             distribution=args.distribution,
                             seed=args.seed)
    dataset = generate_uncertain_dataset(config)
    serve_config = ServeConfig(algorithm=args.algorithm,
                               workers=args.workers, backend=args.backend,
                               policy=_execution_policy(args))
    if args.cache_limit is not None:
        serve_config.cache_limit = args.cache_limit
    service = ArspService(dataset, serve_config)

    async def _serve() -> None:
        session = ArspSession(service)
        server = ArspServer(session, host=args.host, port=args.port)
        host, port = await server.start()
        if not args.no_warm:
            warm_s = await asyncio.get_running_loop().run_in_executor(
                None, service.warm)
            print("repro serve: warm index built in %.3f s" % warm_s,
                  flush=True)
        print("repro serve: dataset m=%d n=%d d=%d %s; listening on %s:%d"
              % (dataset.num_objects, dataset.num_instances,
                 dataset.dimension, args.distribution, host, port),
              flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    stats = service.stats()
    cache = stats["cache"]
    summary = ("repro serve: answered %d queries; cache %d/%d entries, "
               "%d hit(s), %d miss(es), %d eviction(s)"
               % (stats["queries"], cache["size"], cache["limit"],
                  cache["hits"], cache["misses"], cache["evictions"]))
    if stats["deltas"]:
        summary += ("; %d delta(s): %d entrie(s) retained (%d repaired, "
                    "%d retained hit(s))"
                    % (stats["deltas"], cache["retained"],
                       cache["repaired"], cache["retained_hits"]))
    print(summary)
    return 0


def run_stream(args: argparse.Namespace) -> Tuple[str, int]:
    """Build and replay one scenario; returns (report, exit status).

    The exit status is non-zero when the replayed modes disagree on the
    stream fingerprint — the CLI doubles as an equivalence check.
    """
    from .experiments.scenarios import (REPLAY_MODES, ScenarioSpec,
                                        build_scenario, replay_scenario)

    modes = _parse_names(args.modes) or []
    for mode in modes:
        if mode not in REPLAY_MODES:
            raise ValueError("unknown replay mode %r (expected a subset of "
                             "%s)" % (mode, ", ".join(REPLAY_MODES)))
    if not modes:
        raise ValueError("at least one replay mode is required")
    spec = ScenarioSpec(name="cli", seed=args.seed, steps=args.steps,
                        num_objects=args.objects,
                        max_instances=args.instances,
                        dimension=args.dimension,
                        distribution=args.distribution,
                        inserts_per_step=args.inserts,
                        deletes_per_step=args.deletes,
                        updates_per_step=args.updates,
                        queries_per_step=args.queries,
                        constraint_pool=args.pool,
                        zipf_exponent=args.zipf)
    script = build_scenario(spec)
    lines = [
        "scenario seed=%d: %d steps x (%d inserts, %d deletes, %d updates, "
        "%d queries), pool=%d, zipf=%.2f"
        % (spec.seed, spec.steps, spec.inserts_per_step,
           spec.deletes_per_step, spec.updates_per_step,
           spec.queries_per_step, spec.constraint_pool, spec.zipf_exponent),
        "script fingerprint %s" % script.fingerprint()[:16],
    ]
    reports = []
    for mode in modes:
        report = replay_scenario(script, mode)
        reports.append(report)
        steps = " ".join("%.4f" % seconds for seconds in report.step_seconds)
        lines.append("%-12s total %.4f s  per-step [%s]"
                     % (mode, report.total_seconds, steps))
        stats = report.engine_stats
        if "sigma_hits" in stats:
            lines.append("             sigma cache: %d hit(s), %.0f%% of "
                         "entries copied across deltas"
                         % (stats["sigma_hits"],
                            100.0 * stats["copied_fraction"]))
        cache = stats.get("cache")
        if cache:
            note = ("             query cache: %d hit(s), %d miss(es), hit "
                    "rate %.2f" % (cache["hits"], cache["misses"],
                                   cache["hit_rate"]))
            if cache.get("retained"):
                note += ("; %d retained across deltas (%d hit(s))"
                         % (cache["retained"], cache["retained_hits"]))
            if "coalesced" in stats:
                note += "; %d coalesced" % stats["coalesced"]
            lines.append(note)
    fingerprints = {report.result_fingerprint for report in reports}
    if len(fingerprints) == 1:
        lines.append("all %d replay mode(s) byte-identical (stream "
                     "fingerprint %s)"
                     % (len(reports), reports[0].result_fingerprint[:16]))
        return "\n".join(lines), 0
    lines.append("EQUIVALENCE FAILURE: replay modes disagree on the stream "
                 "fingerprint")
    for report in reports:
        lines.append("  %-12s %s" % (report.mode,
                                     report.result_fingerprint[:16]))
    return "\n".join(lines), 1


def run_figure(figure_id: str) -> str:
    algorithms = ("loop", "kdtt+", "bnb")
    if figure_id == "5a":
        points = figure5_sweep("m", [32, 64, 128], algorithms=algorithms)
        return format_series("m", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(a): IND, vary m (seconds)")
    if figure_id == "5d":
        points = figure5_sweep("cnt", [2, 4, 6], algorithms=algorithms)
        return format_series("cnt", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(d): IND, vary cnt (seconds)")
    if figure_id == "5g":
        points = figure5_sweep("d", [2, 3, 4], algorithms=algorithms)
        return format_series("d", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(g): IND, vary d (seconds)")
    if figure_id == "5j":
        points = figure5_sweep("l", [0.1, 0.3, 0.5], algorithms=algorithms)
        return format_series("l", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(j): IND, vary l (seconds)")
    if figure_id == "5m":
        points = figure5_sweep("phi", [0.0, 0.4, 0.8], algorithms=algorithms)
        return format_series("phi", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(m): IND, vary phi (seconds)")
    if figure_id == "5p":
        points = figure5_sweep("c", [1, 2, 3], algorithms=algorithms,
                               base={"dimension": 4})
        return format_series("c", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 5(p): IND, vary c (seconds)")
    if figure_id == "6a":
        points = figure6_sweep("IIP", "m", [25, 50, 100],
                               algorithms=algorithms,
                               dataset_kwargs={"num_records": 400})
        return format_series("m%", [p.value for p in points],
                             sweep_to_series(points, algorithms),
                             title="Figure 6(a): IIP, vary m (seconds)")
    if figure_id in ("8a", "8b"):
        parameter = "n" if figure_id == "8a" else "d"
        values: Sequence = [512, 1024, 2048] if figure_id == "8a" else [2, 3, 4]
        rows = figure8_sweep(parameter, values, default_n=1024)
        series = {
            "QUAD": [row["quad_s"] for row in rows],
            "DUAL-S": [row["dual_s_s"] for row in rows],
            "eclipse size": [row["eclipse_size"] for row in rows],
        }
        return format_series(parameter, list(values), series,
                             title="Figure 8: eclipse query (seconds)")
    raise ValueError("unknown figure id %r" % figure_id)


def run_effectiveness() -> str:
    dataset = nba_dataset(num_players=100, max_games=15, num_metrics=3,
                          seed=2021)
    constraints = weak_ranking_constraints(3)
    table1 = rskyline_probability_ranking(dataset, constraints, top_k=14)
    table2 = skyline_probability_ranking(dataset, top_k=14)
    return "\n\n".join([
        format_ranking_table(table1,
                             "Table I - top-14 by rskyline probability "
                             "(* = aggregated rskyline member)"),
        format_ranking_table(table2,
                             "Table II - top-14 by skyline probability",
                             probability_header="Pr_sky"),
    ])


def _parse_names(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def run_bench_command(args: argparse.Namespace) -> Tuple[str, int]:
    """Run the bench harness; returns (printable report, exit code)."""
    profile = "quick" if args.quick else args.profile
    output_path = None if args.output == "-" else args.output
    # Read the baseline up front so a bad path or unknown schema fails
    # before minutes of timing work, not after.
    baseline = load_bench(args.compare) if args.compare else None
    payload = run_bench(profile=profile,
                        algorithms=_parse_names(args.algorithms),
                        workloads=_parse_names(args.workloads),
                        repeats=args.repeats, output_path=output_path,
                        check=not args.no_check, workers=args.workers,
                        backend=args.backend, policy=_execution_policy(args))
    lines = [format_bench(payload)]
    if output_path:
        lines.append("wrote %s" % output_path)
    status = 0
    if baseline is not None:
        text, ok = format_compare(
            baseline, payload, threshold=args.regression_threshold,
            statistic=args.compare_stat,
            phase_threshold=args.phase_regression_threshold)
        lines.append(text)
        if not ok:
            status = 1
    return "\n".join(lines), status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "algorithms":
        print("\n".join(list_algorithms()))
        return 0
    if args.command == "arsp":
        try:
            print(run_arsp(args))
        except ValueError as error:
            # e.g. --workers requested for a serial-only algorithm.
            print("error: %s" % error, file=sys.stderr)
            return 2
        return 0
    if args.command == "serve":
        return run_serve(args)
    if args.command == "stream":
        try:
            text, status = run_stream(args)
        except ValueError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
        print(text)
        return status
    if args.command == "figure":
        print(run_figure(args.id))
        return 0
    if args.command == "effectiveness":
        print(run_effectiveness())
        return 0
    if args.command == "bench":
        try:
            text, status = run_bench_command(args)
        except ValueError as error:
            # e.g. a --compare baseline that is not JSON or not this schema.
            print("error: %s" % error, file=sys.stderr)
            return 2
        print(text)
        return status
    parser.error("unknown command %r" % args.command)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
