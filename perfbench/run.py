"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload: the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``).  The lines
before it print every metric by name and unit, the input and result
fingerprints and the error rate.  A traced run writes its spans to
``perfbench/out/``.

``--workload all`` runs every workload untraced and traced, each in a
fresh interpreter, and prints the tracing overhead per workload.

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with a non-zero status before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("oneshot-lin8", "serve-hot", "serve-churn")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.dataset.build_ms": "ms",
    "core.preference.setup_ms": "ms",
    "core.preference.vertices": "count",
    "algorithms.bnb.query_ms": "ms",
    "algorithms.arsp_size": "count",
    "index.dual.build_ms": "ms",
    "core.cache.hit_ms": "ms",
    "algorithms.dual.miss_ms": "ms",
    "serve.service.project_ms": "ms",
    "serve.protocol.codec_ms": "ms",
    "algorithms.incremental.delta_ms": "ms",
    "algorithms.incremental.copied_fraction": "1",
    "core.cache.hit_rate": "1",
    "core.cache.evictions": "count",
    "core.cache.retained_hit_rate": "1",
    "serve.session.coalesced": "count",
    "memory.setup_rss_mb": "MB",
    "trace.latency_p50_ms": "ms",
    "trace.unattributed_share": "1",
    "trace.preference_share": "1",
    "trace.p90_dual_share": "1",
}


def _quiet_process() -> None:
    """Noise hygiene for a measuring process; call before numpy loads.

    One BLAS thread.  And one CPU: the serve workloads hand every request
    between the event loop and the service's compute thread, and
    cross-core wake-ups made the sub-millisecond hit path differ by up to
    30% between runs of one seed; on one core it stays within 10%.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: no program at %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported repro from %s, not %s"
                 % (repro.__file__, SRC))


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "default", tamper=None) -> dict:
    """Generate, run and verify one workload; return its record."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    _import_program()
    from perfbench import inputs as gen
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, layer_metrics

    generated = gen.make_inputs(workload, seed, scale)
    tracer = Tracer() if trace else None
    run = WORKLOADS[workload](generated, seconds, tracer, tamper)
    record = run.record()
    record["trace"] = bool(trace)
    if trace:
        record["per_layer"] = layer_metrics(run)
        record["layer_self_s"] = _layer_totals(tracer)
        os.makedirs(OUT, exist_ok=True)
        record["spans_file"] = os.path.join(
            OUT, "spans-%s-s%d.jsonl" % (workload, seed))
        tracer.write(record["spans_file"])
    record["correct"] = (run.failed == 0 and run.verified > 0
                         and record["fingerprint_queries"]
                         == generated.scale.fingerprint_queries)
    return record


def _layer_totals(tracer) -> dict:
    """Total self time per layer over every traced request."""
    from perfbench.tracing import self_times

    totals: dict = {}
    for layers in self_times(tracer.spans).values():
        for name, seconds in layers.items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def result_line(record: dict) -> dict:
    """The result line: the last line a single-workload run prints."""
    if record["trace"]:
        values, units = record["per_layer"], PER_LAYER
    else:
        values, units = record["metrics"], END_TO_END
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


def print_record(record: dict) -> None:
    line = result_line(record)
    print("workload %s seed %d trace %d: %d queries in %.2f s"
          % (record["workload"], record["seed"], record["trace"],
             record["queries"], record["window_s"]))
    for name, metric in line["metrics"].items():
        print("  %-40s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print("  %-40s %14.6f 1  (%d failed / %d attempted, %d verified)"
          % ("error_rate", record["error_rate"], record["failed"],
             record["attempted"], record["verified"]))
    if record["delta_p50_ms"] is not None:
        print("  %-40s %14.6f ms" % ("delta_p50_ms", record["delta_p50_ms"]))
    print("  input_fingerprint  %s" % record["input_fingerprint"])
    print("  result_fingerprint %s (first %d answers)"
          % (record["result_fingerprint"], record["fingerprint_queries"]))
    if record["trace"]:
        total = sum(record["layer_self_s"].values()) or 1.0
        for name, seconds in sorted(record["layer_self_s"].items(),
                                    key=lambda item: -item[1]):
            print("  self %-35s %10.3f s %6.1f%%"
                  % (name, seconds, 100.0 * seconds / total))


def run_all(seed: int, seconds: float, scale: str) -> dict:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        latency = {}
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--scale", scale, "--record"]
            completed = subprocess.run(command, stdout=subprocess.PIPE,
                                       text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.exit("perfbench: %s (trace %d) exited with status %d"
                         % (workload, trace, completed.returncode))
            record = json.loads(lines[-1])
            print_record(record)
            line = result_line(record)
            merged["correct"] &= line["correct"]
            merged["attempted"] += line["attempted"]
            merged["failed"] += line["failed"]
            for name, metric in line["metrics"].items():
                merged["metrics"]["%s/%s" % (workload, name)] = metric
            latency[trace] = (record["per_layer"]["trace.latency_p50_ms"]
                              if trace else
                              record["metrics"]["latency_p50_ms"])
        overhead = latency[1] - latency[0]
        print("%s tracing overhead: latency_p50 %+.4f ms (%+.1f%%)"
              % (workload, overhead, 100.0 * overhead / latency[0]))
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"),
                        default="default",
                        help="input sizes; 'tiny' is for the tests")
    parser.add_argument("--record", action="store_true",
                        help="print the full run record as the last line "
                             "instead of the result line")
    args = parser.parse_args(argv)
    _quiet_process()

    if args.workload == "all":
        if ROOT not in sys.path:
            sys.path.insert(0, ROOT)
        _import_program()
        print(json.dumps(run_all(args.seed, args.seconds, args.scale)))
        return 0

    record = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    print_record(record)
    print(json.dumps(record if args.record else result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
