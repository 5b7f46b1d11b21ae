"""The three workloads: set up, run a closed loop for a fixed time, verify.

Each workload drives the program only through public calls
(``compute_arsp``, ``LinearConstraints.preference_region``, ``ArspService``,
``ArspSession``, ``ServeClient.in_process``).  A run

1. sets up ``SETUP_REPEATS`` times from the generated inputs (dataset
   construction, service and index build, a fixed short warm-up prefix)
   and keeps the last set-up for the timed window;
2. runs the closed loop until ``seconds`` have passed: one op at a time
   (serve-churn: one burst of identical queries at a time);
3. untimed, completes the result-fingerprint prefix if the window ended
   before it, and verifies a seeded reservoir sample of the answers
   against one-shot references computed from the inputs alone.

With a :class:`~perfbench.tracing.Tracer` the same loop runs with every
layer call wrapped in a span; :func:`layer_metrics` turns the spans and
counters into the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import random
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional

from . import inputs as gen
from .tracing import Tracer, self_times

SETUP_REPEATS = 5
#: Parity tolerance of the program's own bench harness for algorithms
#: compared against KDTT+.
PARITY_ATOL = 1e-8

perf = time.perf_counter


def _rss_mb() -> float:
    """Resident set size now, in MB."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * resource.getpagesize() / 2 ** 20
    except OSError:
        return _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in ``(0, 1]``) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, int(math.ceil(q * len(ordered)))) - 1]


class Run:
    """What one run measured, counted and checked."""

    def __init__(self, inputs: gen.Inputs, tracer: Optional[Tracer],
                 tamper: Optional[Callable[[Dict[int, float]],
                                           Dict[int, float]]]):
        self.inputs = inputs
        self.tracer = tracer
        self.tamper = tamper
        self.setup_s: List[float] = []
        self.build_s: List[float] = []
        self.warm_s: List[float] = []
        self.setup_rss_mb = 0.0
        self.peak_rss_mb = 0.0
        self.latencies: List[float] = []
        self.delta_latencies: List[float] = []
        self.window_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.mismatches = 0
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._digest = hashlib.sha256()
        self._answers = 0
        self.reservoir: List[tuple] = []
        self._sampler = random.Random(inputs.seed)

    # ------------------------------------------------------------------
    def answer(self, result: Dict[int, float], key: tuple) -> None:
        """Account one answer: fingerprint prefix + reservoir sample.

        ``key`` is whatever the verifier needs to recompute the answer.
        """
        if self.tamper is not None:
            result = self.tamper(result)
        index = self._answers
        self._answers += 1
        if index < self.inputs.scale.fingerprint_queries:
            self._digest.update(gen.result_bytes(result))
        size = self.inputs.scale.verify_sample
        if index < size:
            self.reservoir.append((key, result))
        else:
            slot = self._sampler.randrange(index + 1)
            if slot < size:
                self.reservoir[slot] = (key, result)

    @property
    def fingerprint_done(self) -> bool:
        return self._answers >= self.inputs.scale.fingerprint_queries

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def record(self) -> Dict[str, object]:
        """End-to-end metrics plus everything the summary prints."""
        lat = self.latencies
        metrics = {
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": quantile(lat, 0.9) * 1e3,
            "throughput_qps": len(lat) / self.window_s,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {
            "workload": self.inputs.workload,
            "seed": self.inputs.seed,
            "metrics": metrics,
            "queries": len(lat),
            "window_s": self.window_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / max(1, self.attempted),
            "verified": self.verified,
            "mismatches": self.mismatches,
            "delta_p50_ms": (statistics.median(self.delta_latencies) * 1e3
                             if self.delta_latencies else None),
            "input_fingerprint": gen.fingerprint(self.inputs),
            "result_fingerprint": self._digest.hexdigest(),
            "fingerprint_queries": min(self._answers,
                                       self.inputs.scale.fingerprint_queries),
            "setup_runs_s": self.setup_s,
            "counters": self.counters,
        }


def _start_window(run: Run) -> None:
    gc.collect()
    run.setup_rss_mb = _rss_mb()


# ----------------------------------------------------------------------
# oneshot-lin8
# ----------------------------------------------------------------------
def run_oneshot(inputs: gen.Inputs, seconds: float,
                tracer: Optional[Tracer] = None, tamper=None) -> Run:
    """compute_arsp(auto -> B&B) per op, each a fresh weak ranking."""
    from repro import (LinearConstraints, UncertainDataset, arsp_size,
                       compute_arsp)

    run = Run(inputs, tracer, tamper)
    d = inputs.scale.dimension

    def constraints_of(rows):
        return LinearConstraints(d, rows, [0.0] * len(rows))

    timed = [constraints_of(rows) for rows in inputs.constraints]
    warmup = [constraints_of(rows) for rows in inputs.warmup_constraints]

    if tracer is not None:
        setup = tracer.wrap(lambda c: c.preference_region(),
                            "core.preference.setup")
        bnb = tracer.wrap(compute_arsp, "algorithms.bnb.query")

    def op(constraints, phase: str) -> None:
        """One query; ``phase`` as in :func:`_serve`'s ``play``."""
        run.attempted += 1
        traced = tracer is not None and phase == "timed"
        start = perf()
        try:
            if not traced:
                result = compute_arsp(dataset, constraints)
            else:
                root = tracer.begin_request()
                region = setup(constraints)
                result = bnb(dataset, region, algorithm="bnb")
        except Exception:
            run.failed += 1
            return
        end = perf()
        if phase == "warmup":
            return
        if phase == "timed":
            run.latencies.append(end - start)
        if traced:
            tracer.end_request(root, "oneshot.query", start, end)
            run.sample("vertices", region.num_vertices)
            run.sample("arsp_size", arsp_size(result))
        run.answer(result, (constraints,))

    for _ in range(SETUP_REPEATS):
        start = perf()
        dataset = UncertainDataset.from_instance_lists(inputs.objects)
        run.build_s.append(perf() - start)
        for constraints in warmup:
            op(constraints, "warmup")
        run.setup_s.append(perf() - start)

    _start_window(run)
    index = 0
    window_start = perf()
    deadline = window_start + seconds
    while perf() < deadline:
        op(timed[index % len(timed)], "timed")
        index += 1
    run.window_s = perf() - window_start
    run.peak_rss_mb = _peak_rss_mb()
    limit = index + len(timed)
    while not run.fingerprint_done and index < limit:
        op(timed[index % len(timed)], "extra")
        index += 1

    for (constraints,), served in run.reservoir:
        reference = compute_arsp(dataset, constraints, algorithm="kdtt+")
        run.verified += 1
        if set(served) != set(reference) or any(
                abs(served[key] - value) > PARITY_ATOL
                for key, value in reference.items()):
            run.mismatches += 1
            run.failed += 1
    return run


# ----------------------------------------------------------------------
# serve-hot / serve-churn
# ----------------------------------------------------------------------
_CODEC = {
    "repro.serve.client": ("encode_constraints", "dump_message",
                           "load_message", "decode_result"),
    "repro.serve.server": ("decode_constraints", "encode_result"),
}


def _patch_codec(tracer: Tracer) -> Callable[[], None]:
    """Wrap the protocol functions where the in-process path calls them;
    returns the undo."""
    import importlib

    undo = []
    for module_name, names in _CODEC.items():
        module = importlib.import_module(module_name)
        for name in names:
            original = getattr(module, name)
            setattr(module, name, tracer.wrap(original,
                                              "serve.protocol.codec"))
            undo.append((module, name, original))

    def restore():
        for module, name, original in undo:
            setattr(module, name, original)
    return restore


def run_serve(inputs: gen.Inputs, seconds: float,
              tracer: Optional[Tracer] = None, tamper=None) -> Run:
    """Closed-loop traffic through ``ServeClient.in_process``."""
    restore = _patch_codec(tracer) if tracer is not None else None
    try:
        return asyncio.run(_serve(inputs, seconds, tracer, tamper))
    finally:
        if restore is not None:
            restore()


async def _serve(inputs: gen.Inputs, seconds: float,
                 tracer: Optional[Tracer], tamper) -> Run:
    from repro import UncertainDataset, WeightRatioConstraints, arsp_size
    from repro.core.dataset import DatasetDelta, ObjectSpec
    from repro.serve import ArspService, ArspSession, ServeClient

    run = Run(inputs, tracer, tamper)
    pool = [WeightRatioConstraints(ranges) for ranges in inputs.constraints]

    def to_delta(delta: gen.Delta) -> DatasetDelta:
        return DatasetDelta(
            inserts=tuple(ObjectSpec.make(rows) for rows in delta.inserts),
            deletes=delta.deletes,
            updates=tuple((i, ObjectSpec.make(rows))
                          for i, rows in delta.updates))

    events = [(kind, to_delta(payload) if kind == "delta" else payload,
               payload) for kind, payload in inputs.events]
    warmup = inputs.scale.warmup

    state = {}

    async def play(position: int, phase: str) -> None:
        """One event: a delta, or a burst of identical queries in flight
        together.  ``phase`` is ``warmup``, ``timed`` or ``extra`` (after
        the window, completing the fingerprint prefix)."""
        timed = phase == "timed"
        kind, payload, plain = events[position % len(events)]
        session = state["session"]
        if kind == "delta":
            run.attempted += 1
            root = tracer.begin_request() if tracer else None
            if tracer is not None:
                tracer.compute_owner = root
            start = perf()
            try:
                await session.apply_delta(payload)
            except Exception:
                run.failed += 1
                return
            end = perf()
            state["deltas"].append(plain)
            if timed:
                run.delta_latencies.append(end - start)
                repair = session.service.engine.last_repair or {}
                run.sample("copied_fraction",
                           repair.get("copied_fraction", 0.0))
            if tracer is not None:
                tracer.end_request(root, "serve.delta", start, end)
            return

        epoch = len(state["deltas"])
        roots = ([tracer.new_id() for _ in payload] if tracer else
                 [None] * len(payload))
        if tracer is not None:
            tracer.compute_owner = roots[0]  # the first request leads

        async def one(query: gen.Query, root):
            if root is not None:
                tracer.current.set(root)
            start = perf()
            response = await state["client"].query(
                pool[query.constraint], targets=query.targets)
            end = perf()
            if root is not None:
                tracer.end_request(root, "serve.request", start, end)
            return response, end - start

        run.attempted += len(payload)
        replies = await asyncio.gather(
            *(one(query, root) for query, root in zip(payload, roots)),
            return_exceptions=True)
        for query, reply in zip(payload, replies):
            if isinstance(reply, BaseException):
                if not isinstance(reply, Exception):
                    raise reply
                run.failed += 1
                continue
            response, latency = reply
            if timed:
                run.latencies.append(latency)
            if phase != "warmup":
                run.answer(response["result"], (epoch, query))

    def traced_service(service) -> None:
        original = service.full_result

        def full_result(*args, **kwargs):
            parent = tracer.compute_owner
            start = perf()
            value = original(*args, **kwargs)
            end = perf()
            full, cached, _ = value
            tracer.record("core.cache.hit" if cached
                          else "algorithms.dual.miss", start, end,
                          parent, parent)
            if not cached:
                run.sample("arsp_size", arsp_size(full))
            return value

        service.full_result = full_result
        service.project = tracer.wrap(service.project,
                                      "serve.service.project")
        service.apply_delta = tracer.wrap(
            service.apply_delta, "algorithms.incremental.delta",
            owner=lambda: tracer.compute_owner)

    for repeat in range(SETUP_REPEATS):
        if state:
            state["session"].close()
            state.clear()
            gc.collect()
        start = perf()
        dataset = UncertainDataset.from_instance_lists(inputs.objects)
        run.build_s.append(perf() - start)
        service = ArspService(dataset)
        run.warm_s.append(service.warm())
        session = ArspSession(service)
        state.update(session=session, deltas=[],
                     client=ServeClient.in_process(session))
        if tracer is not None and repeat == SETUP_REPEATS - 1:
            # Only the kept set-up is traced; its warm-up spans are
            # dropped below so the trace covers the timed window.
            traced_service(service)
        for position in range(warmup):
            await play(position, "warmup")
        run.setup_s.append(perf() - start)

    session = state["session"]
    service = session.service
    if tracer is not None:
        tracer.spans.clear()
    before = dict(service.cache.stats(), coalesced=session.coalesced)

    _start_window(run)
    position = warmup
    window_start = perf()
    deadline = window_start + seconds
    while perf() < deadline:
        await play(position, "timed")
        position += 1
    run.window_s = perf() - window_start
    run.peak_rss_mb = _peak_rss_mb()
    after = dict(service.cache.stats(), coalesced=session.coalesced)
    traced_spans = len(tracer.spans) if tracer is not None else 0
    limit = position + len(events)
    while not run.fingerprint_done and position < limit:
        await play(position, "extra")
        position += 1
    session.close()
    if tracer is not None:
        del tracer.spans[traced_spans:]  # the trace covers the window

    window = {key: after[key] - before[key]
              for key in ("hits", "misses", "evictions", "retained",
                          "retained_hits", "coalesced")}
    lookups = window["hits"] + window["misses"]
    run.counters = dict(
        window,
        hit_rate=window["hits"] / lookups if lookups else 0.0,
        retained_hit_rate=(window["retained_hits"] / window["retained"]
                           if window["retained"] else 0.0))
    _verify_serve(run, pool, state["deltas"])
    return run


def _verify_serve(run: Run, pool, deltas: List[gen.Delta]) -> None:
    """Served answers must be bit-equal to one-shot DUAL on the dataset of
    the epoch that answered, rebuilt from the inputs alone."""
    from repro import UncertainDataset, compute_arsp

    samples = sorted(run.reservoir, key=lambda item: item[0][0])
    objects = run.inputs.objects
    epoch, dataset = 0, None
    for (query_epoch, query), served in samples:
        if dataset is None or epoch < query_epoch:
            while epoch < query_epoch:
                objects = gen.apply_delta_to_lists(objects, deltas[epoch])
                epoch += 1
            dataset = UncertainDataset.from_instance_lists(objects)
        full = compute_arsp(dataset, pool[query.constraint],
                            algorithm="dual")
        wanted = set(query.targets)
        expected = {instance.instance_id: full[instance.instance_id]
                    for instance in dataset.instances
                    if instance.object_id in wanted}
        run.verified += 1
        if gen.result_bytes(served) != gen.result_bytes(expected):
            run.mismatches += 1
            run.failed += 1


WORKLOADS = {
    "oneshot-lin8": run_oneshot,
    "serve-hot": run_serve,
    "serve-churn": run_serve,
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _p50_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(run: Run) -> Dict[str, float]:
    """Per-layer metrics from a traced run's spans and counters."""
    spans = run.tracer.spans
    by_name: Dict[str, List[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(
            span["end"] - span["start"])
    selfs = self_times(spans)
    roots = {span["id"]: span for span in spans if span["parent"] is None}
    requests = [rid for rid, span in roots.items()
                if span["name"] != "serve.delta"]
    total = sum(roots[rid]["end"] - roots[rid]["start"] for rid in requests)

    def share(layer: str, ids) -> float:
        ids = list(ids)
        spent = sum(roots[rid]["end"] - roots[rid]["start"] for rid in ids)
        return (sum(selfs[rid].get(layer, 0.0) for rid in ids) / spent
                if spent else 0.0)

    latencies = [roots[rid]["end"] - roots[rid]["start"] for rid in requests]
    tail = []
    if latencies:
        cut = quantile(latencies, 0.9)
        tail = [rid for rid, lat in zip(requests, latencies) if lat >= cut]
    unattributed = (sum(selfs[rid].get(roots[rid]["name"], 0.0)
                        for rid in requests) / total if total else 0.0)
    counters = run.counters
    return {
        "core.dataset.build_ms": statistics.median(run.build_s) * 1e3,
        "core.preference.setup_ms": _p50_ms(
            by_name.get("core.preference.setup", [])),
        "core.preference.vertices": _mean(run.samples.get("vertices", [])),
        "algorithms.bnb.query_ms": _p50_ms(
            by_name.get("algorithms.bnb.query", [])),
        "algorithms.arsp_size": _mean(run.samples.get("arsp_size", [])),
        "index.dual.build_ms": (statistics.median(run.warm_s) * 1e3
                                if run.warm_s else 0.0),
        "core.cache.hit_ms": _p50_ms(by_name.get("core.cache.hit", [])),
        "algorithms.dual.miss_ms": _p50_ms(
            by_name.get("algorithms.dual.miss", [])),
        "serve.service.project_ms": _p50_ms(
            by_name.get("serve.service.project", [])),
        "serve.protocol.codec_ms": _p50_ms(
            [selfs[rid].get("serve.protocol.codec", 0.0)
             for rid in requests if roots[rid]["name"] == "serve.request"]),
        "algorithms.incremental.delta_ms": _p50_ms(
            by_name.get("algorithms.incremental.delta", [])),
        "algorithms.incremental.copied_fraction": _mean(
            run.samples.get("copied_fraction", [])),
        "core.cache.hit_rate": counters.get("hit_rate", 0.0),
        "core.cache.evictions": counters.get("evictions", 0),
        "core.cache.retained_hit_rate": counters.get("retained_hit_rate",
                                                     0.0),
        "serve.session.coalesced": counters.get("coalesced", 0),
        "memory.setup_rss_mb": run.setup_rss_mb,
        "trace.latency_p50_ms": _p50_ms(latencies),
        "trace.unattributed_share": unattributed,
        "trace.preference_share": share("core.preference.setup", requests),
        "trace.p90_dual_share": share("algorithms.dual.miss", tail),
    }
