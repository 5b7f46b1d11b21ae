"""Execution backends: sharding the target axis across worker processes.

Every ARSP algorithm is embarrassingly parallel over the *target objects*:
the rskyline probability of each instance depends on the whole dataset but
not on the results of any other instance, so the target axis ``[0, m)`` can
be cut into contiguous shards and each shard computed independently against
the shared instance arrays.  This module provides the executor abstraction
behind the uniform ``workers=`` parameter of the ported algorithms
(docs/ARCHITECTURE.md, "Execution backends"):

``serial``
    Runs the shard functions in-process, one after the other.  With a
    single shard this is exactly the pre-backend code path; with several
    shards it exercises the shard/merge machinery without process overhead
    (which is what the cross-backend parity suite leans on).
``process``
    Ships the dataset to a worker-process pool once — through a
    ``multiprocessing.shared_memory`` block holding the flat instance
    arrays when available, falling back to pickling the same arrays — and
    runs the shards under a **supervised scheduler**: every shard is an
    individual future, a broken pool is rebuilt and only the unfinished
    shards are resubmitted (bounded retries with exponential backoff), a
    hung worker is detected by a per-shard wall-clock timeout and its pool
    is killed and rebuilt, and the terminal behaviour is selected by
    :class:`ExecutionPolicy` (``on_failure="serial"|"retry"|"raise"``).
    What happened — attempts, recoveries, rebuilds, fallbacks, per-shard
    timings — is recorded in an :class:`ExecutionReport` attached to the
    returned :class:`AlgorithmResult`.

Determinism contract
--------------------
The shard layout is a pure function of ``(num_targets, workers)`` — it
never depends on ``os.cpu_count()`` or on which backend executes it — and
shard results are merged in ascending target order.  Together with the
per-target invariance of the ported shard functions (each target's result
is bit-identical no matter which other targets share its shard; see the
algorithm modules) this makes results *bit-identical* across backends,
across worker counts and across machines.  The CPU-count clamp applies
only to the number of worker processes actually spawned, so an
over-subscribed ``workers=`` cannot change results, only scheduling.
Supervision preserves the contract: retries resubmit the *same* shard
bounds to the *same* shard function, and the merge consumes results by
shard index, so a recovered run is byte-identical to a clean one.

Shard functions must be module-level callables (picklable by reference)
with the signature ``fn(dataset, constraints, lo, hi, **options)``
returning ``{instance_id: probability}`` for every instance whose owning
object id lies in ``[lo, hi)``.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import Instance, UncertainDataset, UncertainObject
from .faults import FaultPlan, apply_task_fault

#: Backend names accepted by :func:`run_sharded` / the ``backend=`` option.
BACKENDS = ("auto", "serial", "process")

#: Terminal policies when a shard exhausts its retry budget (see
#: :class:`ExecutionPolicy`).
ON_FAILURE = ("serial", "retry", "raise")

#: Start method used for worker pools: the platform default.  Forcing
#: ``fork`` would be marginally faster where it is not already the
#: default, but forking a multi-threaded host (or numpy/Accelerate on
#: macOS) can deadlock or crash the child — the reason CPython moved its
#: defaults to ``spawn``/``forkserver`` — and the determinism contract
#: does not depend on the start method, so the default always stands.
_START_METHOD = None


def _start_method() -> str:
    global _START_METHOD
    if _START_METHOD is None:
        import multiprocessing

        _START_METHOD = multiprocessing.get_start_method(allow_none=False)
    return _START_METHOD


def resolve_workers(workers: Optional[int]) -> int:
    """Validate a ``workers=`` value; ``None`` means serial (one shard).

    The returned count drives the *shard layout* and is deliberately not
    clamped to the machine's CPU count — the layout must be deterministic
    across machines.  :func:`pool_size` applies the CPU clamp to the
    number of processes actually spawned.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError("workers must be a positive integer, got %r"
                         % (workers,))
    if workers < 1:
        raise ValueError("workers must be a positive integer, got %d"
                         % workers)
    return workers


def pool_size(workers: int, num_shards: int,
              available: Optional[int] = None) -> int:
    """Number of worker processes to spawn: clamped to the CPU count.

    ``available`` overrides ``os.cpu_count()`` for tests; a machine whose
    CPU count cannot be determined counts as one CPU.
    """
    if available is None:
        available = os.cpu_count() or 1
    return max(1, min(workers, num_shards, available))


def shard_bounds(num_targets: int, num_shards: int) -> List[Tuple[int, int]]:
    """Cut ``[0, num_targets)`` into at most ``num_shards`` contiguous,
    near-equal shards (the first ``num_targets % num_shards`` shards are one
    target larger).  Empty shards are dropped, so ``num_targets <
    num_shards`` yields ``num_targets`` single-target shards.  A zero-target
    axis keeps one empty shard so degenerate inputs still reach the shard
    function (and fail there exactly like the pre-backend code paths).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive, got %d" % num_shards)
    if num_targets <= 0:
        return [(0, 0)]
    num_shards = min(num_shards, num_targets)
    base, remainder = divmod(num_targets, num_shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

class DatasetRestoreError(RuntimeError):
    """A shipped dataset failed validation while being rebuilt in a worker.

    Raised by :func:`_rebuild_dataset` when the flat arrays violate the
    shipping invariants (e.g. an ``object_id`` outside the dense range
    ``[0, num_objects)``), identifying the offending row instead of
    letting a bare ``IndexError`` surface from deep inside a worker.
    """


class ShardExecutionError(RuntimeError):
    """The supervised scheduler gave up on one or more shards.

    Raised under ``on_failure="raise"`` (immediately, on the first
    infrastructure failure) and under ``on_failure="retry"`` (once a
    shard's retry budget is exhausted).  Deliberately *not* an ``OSError``
    or ``BrokenExecutor`` subclass, so it bypasses
    :func:`run_sharded`'s serial-degradation path and reaches the caller.
    """

    def __init__(self, message: str, shard_indices: Sequence[int] = (),
                 report: Optional["ExecutionReport"] = None):
        super().__init__(message)
        self.shard_indices = tuple(shard_indices)
        self.report = report


class _HungShards(RuntimeError):
    """Internal: one or more in-flight shards exceeded the shard timeout."""


# ----------------------------------------------------------------------
# Shipping the dataset to worker processes
# ----------------------------------------------------------------------

def _dataset_arrays(dataset: UncertainDataset) -> Dict[str, np.ndarray]:
    """The flat arrays that fully determine an ARSP computation.

    Labels are deliberately not shipped: no algorithm reads them, and
    results are keyed by instance ids.
    """
    return {
        "points": np.ascontiguousarray(dataset.instance_matrix(),
                                       dtype=np.float64),
        "probabilities": np.ascontiguousarray(dataset.probability_vector(),
                                              dtype=np.float64),
        "object_ids": np.ascontiguousarray(dataset.object_ids(),
                                           dtype=np.int64),
        "instance_ids": np.ascontiguousarray(
            [instance.instance_id for instance in dataset.instances],
            dtype=np.int64),
    }


def _rebuild_dataset(arrays: Dict[str, np.ndarray],
                     num_objects: int) -> UncertainDataset:
    """Inverse of :func:`_dataset_arrays`: regroup the flat arrays.

    Instance order within each object (and hence the dataset's flat
    instance order, which is grouped by object on construction) round-trips
    exactly, so the rebuilt dataset produces bit-identical results.  The
    shipped arrays are attached as the dataset's flat-accessor cache, so
    a shard function's ``instance_matrix()`` / ``probability_vector()`` /
    ``object_ids()`` calls return them directly instead of re-flattening
    the just-built Python instance objects.

    Object ids are validated against the dense range ``[0, num_objects)``
    the sharded target axis assumes; a violation raises
    :class:`DatasetRestoreError` naming the offending row.
    """
    grouped: List[List[Instance]] = [[] for _ in range(num_objects)]
    points = arrays["points"]
    probabilities = arrays["probabilities"]
    object_ids = arrays["object_ids"]
    instance_ids = arrays["instance_ids"]
    for row in range(points.shape[0]):
        object_id = int(object_ids[row])
        if not 0 <= object_id < num_objects:
            raise DatasetRestoreError(
                "shipped dataset is corrupt: row %d (instance id %d) has "
                "object_id %d outside the dense target range [0, %d)"
                % (row, int(instance_ids[row]), object_id, num_objects))
        grouped[object_id].append(Instance(
            object_id=object_id,
            instance_id=int(instance_ids[row]),
            values=tuple(float(value) for value in points[row]),
            probability=float(probabilities[row])))
    objects = [UncertainObject(object_id=object_id, instances=instances)
               for object_id, instances in enumerate(grouped)]
    dataset = UncertainDataset(objects)
    if num_objects and points.shape[0]:
        dataset._attach_flat_cache(points, probabilities, object_ids)
    return dataset


@dataclass
class PickledDataset:
    """Pickle-shipping fallback: the flat arrays ride the initargs pipe."""

    arrays: Dict[str, np.ndarray]
    num_objects: int

    @classmethod
    def create(cls, dataset: UncertainDataset) -> "PickledDataset":
        return cls(_dataset_arrays(dataset), dataset.num_objects)

    def restore(self) -> UncertainDataset:
        return _rebuild_dataset(self.arrays, self.num_objects)

    def unlink(self) -> None:
        """Nothing to release; mirrors :class:`SharedDatasetHandle`."""


def _release_block(block) -> None:
    """Close and unlink a shared-memory block, tolerating double release.

    Used both by :meth:`SharedDatasetHandle.unlink` and by the
    ``weakref.finalize`` guard, so it must be safe when the block is
    already gone (e.g. the resource tracker or an earlier call won the
    race).
    """
    try:
        block.close()
    except (OSError, BufferError):
        pass
    try:
        block.unlink()
    except FileNotFoundError:
        pass


@dataclass
class SharedDatasetHandle:
    """Dataset shipped through one ``multiprocessing.shared_memory`` block.

    The parent writes the flat arrays into a single block; only this small
    descriptor (block name, array shapes/offsets) is pickled to the
    workers, which attach by name, copy the arrays out and rebuild the
    dataset.  The parent owns the block and calls :meth:`unlink` once the
    pool has finished; a ``weakref.finalize`` guard unlinks the block even
    when the owner crashes between :func:`ship_dataset` and the release,
    so an abandoned handle can never leak ``/dev/shm`` space (or trigger a
    ``resource_tracker`` leak warning at interpreter exit).
    """

    name: str
    specs: Dict[str, Tuple[int, Tuple[int, ...], str]]
    num_objects: int

    @classmethod
    def create(cls, dataset: UncertainDataset) -> "SharedDatasetHandle":
        from multiprocessing import shared_memory

        arrays = _dataset_arrays(dataset)
        specs: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for key, array in arrays.items():
            specs[key] = (offset, array.shape, array.dtype.str)
            offset += array.nbytes
        block = shared_memory.SharedMemory(create=True, size=max(1, offset))
        try:
            for key, array in arrays.items():
                start = specs[key][0]
                view = np.ndarray(array.shape, dtype=array.dtype,
                                  buffer=block.buf, offset=start)
                view[...] = array
                del view
        except BaseException:
            _release_block(block)
            raise
        handle = cls(block.name, specs, dataset.num_objects)
        handle._block = block
        handle._finalizer = weakref.finalize(handle, _release_block, block)
        return handle

    def restore(self) -> UncertainDataset:
        """Attach to the block (in a worker) and rebuild the dataset."""
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(name=self.name)
        try:
            arrays = {}
            for key, (offset, shape, dtype) in self.specs.items():
                view = np.ndarray(shape, dtype=np.dtype(dtype),
                                  buffer=block.buf, offset=offset)
                arrays[key] = view.copy()
                del view
        finally:
            # Only close, never unlink or unregister: the parent owns the
            # block, unlinks it once the pool has finished, and (with a
            # pool-shared resource tracker) performs the single unregister.
            block.close()
        return _rebuild_dataset(arrays, self.num_objects)

    def unlink(self) -> None:
        """Release the block (parent side, after the pool has finished).

        Idempotent: the release goes through the ``weakref.finalize``
        guard, which runs at most once no matter how many times it is
        invoked — double ``unlink()``, or ``unlink()`` racing garbage
        collection, releases exactly once.
        """
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer()
        self._block = None

    def __getstate__(self):
        # The live block object (and its finalizer) stays in the parent;
        # workers reattach by name, so only the descriptor crosses the
        # process boundary.
        return (self.name, self.specs, self.num_objects)

    def __setstate__(self, state):
        self.name, self.specs, self.num_objects = state


def ship_dataset(dataset: UncertainDataset):
    """Prepare a dataset for worker processes.

    Returns ``(payload, release)``: a picklable payload whose ``restore()``
    rebuilds the dataset in a worker, and a zero-argument cleanup callable
    for the parent.  Shared memory is preferred; environments without a
    usable ``/dev/shm`` (or without the module at all) fall back to
    pickling the same arrays, so both paths rebuild the identical dataset.
    """
    try:
        handle = SharedDatasetHandle.create(dataset)
        return handle, handle.unlink
    except (ImportError, OSError) as error:
        warnings.warn("shared memory unavailable (%s); falling back to "
                      "pickled dataset shipping" % error,
                      RuntimeWarning, stacklevel=2)
        payload = PickledDataset.create(dataset)
        return payload, payload.unlink


# ----------------------------------------------------------------------
# Execution policy and report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPolicy:
    """Supervision knobs for the process backend.

    shard_timeout_s:
        Wall-clock budget per shard attempt.  An in-flight shard that
        exceeds it is treated as hung: its pool is killed and rebuilt and
        the shard is rescheduled (consuming one attempt).  ``None``
        (default) disables the timeout.
    max_retries:
        Extra submissions granted per shard beyond the first, so a shard
        runs at most ``1 + max_retries`` times.  A broken pool charges an
        attempt to every shard that was in flight on it — the scheduler
        cannot know which task killed the pool.
    on_failure:
        Terminal behaviour once a shard exhausts its budget (a tolerance
        ladder): ``"serial"`` (default) computes the still-missing shards
        serially in the parent, preserving the everything-still-answers
        degradation contract; ``"retry"`` raises
        :class:`ShardExecutionError` after the retries; ``"raise"`` grants
        no retries at all — the first infrastructure failure propagates
        immediately (the budget is trivially exhausted).
    backoff_base_s / backoff_cap_s:
        Exponential backoff between pool rebuilds:
        ``min(cap, base * 2**(round - 1))`` seconds after the ``round``-th
        consecutive failure round.
    fault_plan:
        Deterministic fault injection (see :mod:`repro.core.faults`),
        applied only inside worker processes.  When unset, the
        ``REPRO_FAULTS`` environment spec is consulted at
        :meth:`resolve` time.
    """

    shard_timeout_s: Optional[float] = None
    max_retries: int = 2
    on_failure: str = "serial"
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.on_failure not in ON_FAILURE:
            raise ValueError("on_failure must be one of %s; got %r"
                             % (", ".join(ON_FAILURE), self.on_failure))
        if (isinstance(self.max_retries, bool)
                or not isinstance(self.max_retries, int)
                or self.max_retries < 0):
            raise ValueError("max_retries must be a non-negative integer, "
                             "got %r" % (self.max_retries,))
        if self.shard_timeout_s is not None and not self.shard_timeout_s > 0:
            raise ValueError("shard_timeout_s must be positive, got %r"
                             % (self.shard_timeout_s,))
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be non-negative")

    @property
    def attempts_allowed(self) -> int:
        """Total submissions a shard may consume before it is terminal."""
        return 1 if self.on_failure == "raise" else 1 + self.max_retries

    @classmethod
    def resolve(cls, policy: Optional["ExecutionPolicy"] = None,
                fault_plan: Optional[FaultPlan] = None) -> "ExecutionPolicy":
        """Effective policy: explicit args first, then ``REPRO_FAULTS``."""
        base = policy if policy is not None else cls()
        plan = fault_plan if fault_plan is not None else base.fault_plan
        if plan is None:
            plan = FaultPlan.from_env()
        if plan is not base.fault_plan:
            base = replace(base, fault_plan=plan)
        return base


@dataclass
class ShardRecord:
    """Lifecycle of one shard under the scheduler.

    ``outcome`` is ``"pending"`` until the shard completes, then
    ``"done"`` (clean), ``"recovered"`` (pool success after at least one
    failure) or ``"serial"`` (computed by the serial terminal fallback).
    ``failures`` tags each failed attempt: ``"worker-lost"`` (the shard's
    own future died), ``"pool-broken"`` (collateral — its pool broke or a
    sibling hung), ``"timeout"`` (this shard tripped the shard timeout).
    """

    index: int
    lo: int
    hi: int
    attempts: int = 0
    outcome: str = "pending"
    failures: Tuple[str, ...] = ()
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"index": self.index, "targets": [self.lo, self.hi],
                "attempts": self.attempts, "outcome": self.outcome,
                "failures": list(self.failures),
                "elapsed_s": round(self.elapsed_s, 6)}


@dataclass
class ExecutionReport:
    """What the execution layer actually did for one sharded run.

    Attached to every :class:`AlgorithmResult` as ``.execution`` and
    summarized per bench cell (schema ``repro-bench/5``), so recovery
    overhead is measured, not guessed.
    """

    backend: str
    workers: int
    shards: List[ShardRecord]
    pool_size: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    fallback_events: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def attempts(self) -> int:
        """Total shard submissions (serial executions included)."""
        return sum(record.attempts for record in self.shards)

    @property
    def retried_shards(self) -> List[int]:
        return [record.index for record in self.shards
                if record.attempts > 1]

    @property
    def recovered_shards(self) -> List[int]:
        return [record.index for record in self.shards
                if record.outcome == "recovered"]

    @property
    def serial_fallback_shards(self) -> List[int]:
        return [record.index for record in self.shards
                if record.outcome == "serial"]

    @property
    def clean(self) -> bool:
        """True when nothing was retried, rebuilt or degraded."""
        return (not self.pool_rebuilds and not self.timeouts
                and not self.fallback_events and not self.retried_shards
                and all(record.outcome == "done" for record in self.shards))

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest recorded per bench cell."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "shards": len(self.shards),
            "pool_size": self.pool_size,
            "attempts": self.attempts,
            "retried_shards": self.retried_shards,
            "recovered_shards": self.recovered_shards,
            "serial_fallback_shards": self.serial_fallback_shards,
            "pool_rebuilds": self.pool_rebuilds,
            "timeouts": self.timeouts,
            "fallback_events": list(self.fallback_events),
            "clean": self.clean,
            "elapsed_s": round(self.elapsed_s, 6),
        }


class AlgorithmResult(dict):
    """``{instance_id: probability}`` plus how it was computed.

    A plain ``dict`` subclass: equality, iteration order, serialization
    and the determinism fingerprints are exactly the underlying mapping's.
    The supervised scheduler's :class:`ExecutionReport` rides along as the
    ``execution`` attribute (``None`` for results that never went through
    :func:`run_sharded`).
    """

    def __init__(self, *args, execution: Optional[ExecutionReport] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self.execution = execution


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

class SerialBackend:
    """Run every shard in-process, in ascending target order."""

    name = "serial"

    def map_shards(self, fn: Callable, dataset: UncertainDataset,
                   constraints, bounds: Sequence[Tuple[int, int]],
                   options: Dict[str, object],
                   report: Optional[ExecutionReport] = None
                   ) -> List[Dict[int, float]]:
        partials = []
        for index, (lo, hi) in enumerate(bounds):
            started = time.perf_counter()
            partials.append(fn(dataset, constraints, lo, hi, **options))
            if report is not None and index < len(report.shards):
                record = report.shards[index]
                record.attempts += 1
                record.outcome = "done"
                record.elapsed_s = time.perf_counter() - started
        return partials


#: Worker-process state installed once per worker by the pool initializer:
#: ``(dataset, shard_fn, constraints, options, fault_plan)``.
_WORKER_STATE = None


def _poison_payload(payload):
    """Fault injection: corrupt the payload so ``restore()`` fails on the
    genuine attach path (the descriptor names a block that does not
    exist)."""
    if isinstance(payload, SharedDatasetHandle):
        return SharedDatasetHandle(payload.name + "-poisoned",
                                   payload.specs, payload.num_objects)
    from .faults import FaultInjected

    raise FaultInjected("attach fault requested but the dataset was "
                        "shipped pickled (no shared-memory attach to "
                        "poison)")


def _worker_init(payload, fn, constraints, options,
                 fault_plan: Optional[FaultPlan] = None,
                 generation: int = 0) -> None:
    global _WORKER_STATE
    if fault_plan is not None:
        from .faults import FaultInjected

        if fault_plan.init_rule(generation) is not None:
            raise FaultInjected("injected initializer failure "
                                "(pool generation %d)" % generation)
        if fault_plan.attach_rule(generation) is not None:
            payload = _poison_payload(payload)
    _WORKER_STATE = (payload.restore(), fn, constraints, options, fault_plan)


def _worker_run(bounds: Tuple[int, int], shard_index: Optional[int] = None,
                attempt: int = 1) -> Dict[int, float]:
    dataset, fn, constraints, options, fault_plan = _WORKER_STATE
    if fault_plan is not None and shard_index is not None:
        apply_task_fault(fault_plan, shard_index, attempt)
    lo, hi = bounds
    return fn(dataset, constraints, lo, hi, **options)


def _terminate_pool(pool) -> None:
    """Tear a pool down without waiting on its workers.

    A hung worker never returns, so a graceful ``shutdown(wait=True)``
    would wedge the parent; kill the worker processes first (via the
    executor's private process table — guarded, since it is private API)
    and then release the executor's bookkeeping.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class _ShardSupervisor:
    """One supervised execution of a shard batch over a process pool.

    Shards are submitted as individual futures through a sliding window of
    at most ``pool_size`` in-flight tasks, so submission time approximates
    start time and the per-shard wall-clock deadline needs no cooperation
    from the worker.  On any infrastructure failure (worker death, broken
    pool, initializer failure, hung shard) the pool is killed and rebuilt
    with an incremented generation and only the unfinished shards are
    resubmitted, after exponential backoff.  Results land in a list
    indexed by shard, so the caller's in-order merge is untouched.
    """

    def __init__(self, bounds: Sequence[Tuple[int, int]], fn: Callable,
                 constraints, options: Dict[str, object], payload, context,
                 processes: int, policy: ExecutionPolicy,
                 report: Optional[ExecutionReport]):
        self.bounds = list(bounds)
        self.fn = fn
        self.constraints = constraints
        self.options = options
        self.payload = payload
        self.context = context
        self.processes = processes
        self.policy = policy
        self.report = report
        count = len(self.bounds)
        self.results: List[Optional[Dict[int, float]]] = [None] * count
        self.done = [False] * count
        self.attempts = [0] * count
        self.pending = deque(range(count))
        self.in_flight: Dict[object, Tuple[int, float]] = {}
        self.generation = 0
        self.failure_rounds = 0
        self.pool = None

    # -- pool lifecycle ------------------------------------------------

    def _spawn_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.processes, mp_context=self.context,
            initializer=_worker_init,
            initargs=(self.payload, self.fn, self.constraints, self.options,
                      self.policy.fault_plan, self.generation))

    def _backoff(self) -> None:
        delay = min(self.policy.backoff_cap_s,
                    self.policy.backoff_base_s
                    * (2 ** (self.failure_rounds - 1)))
        if delay > 0:
            time.sleep(delay)

    # -- report plumbing -----------------------------------------------

    def _record(self, index: int) -> Optional[ShardRecord]:
        if self.report is not None and index < len(self.report.shards):
            return self.report.shards[index]
        return None

    def _mark_failure(self, index: int, tag: str) -> None:
        record = self._record(index)
        if record is not None:
            record.attempts = self.attempts[index]
            record.failures = record.failures + (tag,)

    def _mark_done(self, index: int, elapsed: float) -> None:
        record = self._record(index)
        if record is not None:
            record.attempts = self.attempts[index]
            record.elapsed_s = elapsed
            record.outcome = "recovered" if record.failures else "done"

    # -- scheduling ----------------------------------------------------

    def run(self, dataset: UncertainDataset) -> List[Dict[int, float]]:
        try:
            self.pool = self._spawn_pool()
            while not all(self.done):
                if self._drive() == "serial":
                    self._complete_serially(dataset)
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)
                self.pool = None
        finally:
            if self.pool is not None:
                _terminate_pool(self.pool)
                self.pool = None
        return self.results

    def _drive(self) -> str:
        """One scheduling step: fill the window, wait, collect, recover."""
        from concurrent.futures import FIRST_COMPLETED, wait

        error = self._submit_window()
        if error is None and self.in_flight:
            finished, _ = wait(list(self.in_flight),
                               timeout=self._wait_timeout(),
                               return_when=FIRST_COMPLETED)
            error = self._collect(finished)
            if error is None and not finished:
                error = self._check_deadlines()
        if error is not None:
            return self._recover(error)
        return "ok"

    def _submit_window(self):
        from concurrent.futures import BrokenExecutor

        while self.pending and len(self.in_flight) < self.processes:
            index = self._next_pending()
            if index is None:
                break
            self.attempts[index] += 1
            try:
                future = self.pool.submit(_worker_run, self.bounds[index],
                                          index, self.attempts[index])
            except (BrokenExecutor, OSError) as error:
                self._mark_failure(index, "pool-broken")
                return error
            self.in_flight[future] = (index, time.monotonic())
        return None

    def _next_pending(self) -> Optional[int]:
        """Take the first pending shard whose fault-plan gate is open.

        A task gated by an ``after=`` fault rule waits until its
        prerequisite shard's result has been collected; when nothing is in
        flight to open a gate, the first pending shard goes regardless.
        """
        plan = self.policy.fault_plan
        for index in self.pending:
            rule = (None if plan is None
                    else plan.task_rule(index, self.attempts[index] + 1))
            after = None if rule is None else rule.after
            if after is None or after >= len(self.done) or self.done[after]:
                self.pending.remove(index)
                return index
        return self.pending.popleft() if not self.in_flight else None

    def _wait_timeout(self) -> Optional[float]:
        if self.policy.shard_timeout_s is None:
            return None
        oldest = min(started for _, started in self.in_flight.values())
        return max(0.0, oldest + self.policy.shard_timeout_s
                   - time.monotonic())

    def _collect(self, finished):
        from concurrent.futures import BrokenExecutor

        error = None
        for future in finished:
            index, started = self.in_flight.pop(future)
            try:
                result = future.result()
            except (BrokenExecutor, OSError) as failure:
                # Infrastructure: the worker died or took the pool with
                # it.  Shard-function exceptions take the ``raise`` below
                # instead and propagate as themselves — they are bugs, not
                # failures to retry.
                self._mark_failure(index, "worker-lost")
                error = failure
                continue
            self.results[index] = result
            self.done[index] = True
            self._mark_done(index, time.monotonic() - started)
        return error

    def _check_deadlines(self):
        if self.policy.shard_timeout_s is None:
            return None
        now = time.monotonic()
        overdue = [future for future, (_, started) in self.in_flight.items()
                   if now - started >= self.policy.shard_timeout_s]
        if not overdue:
            return None
        indices = []
        for future in overdue:
            index, _ = self.in_flight.pop(future)
            indices.append(index)
            self._mark_failure(index, "timeout")
            if self.report is not None:
                self.report.timeouts += 1
        return _HungShards("shard(s) %s exceeded the %.3gs shard timeout"
                           % (sorted(indices), self.policy.shard_timeout_s))

    def _recover(self, error) -> str:
        """Handle one failure round: requeue, then rebuild / degrade /
        raise according to the policy."""
        # Whatever was still in flight died with the pool (or must be
        # abandoned with it — a future on a killed pool never resolves).
        for future, (index, _) in list(self.in_flight.items()):
            self._mark_failure(index, "pool-broken")
        self.in_flight.clear()
        self.failure_rounds += 1
        missing = [index for index, flag in enumerate(self.done) if not flag]
        self.pending = deque(missing)
        _terminate_pool(self.pool)
        self.pool = None
        if self.policy.on_failure == "raise":
            raise ShardExecutionError(
                "sharded execution failed (%s: %s) and on_failure='raise' "
                "grants no retries; unfinished shard(s): %s"
                % (type(error).__name__, error, missing),
                shard_indices=missing, report=self.report) from error
        exhausted = [index for index in missing
                     if self.attempts[index] >= self.policy.attempts_allowed]
        if exhausted:
            if self.policy.on_failure == "retry":
                raise ShardExecutionError(
                    "shard(s) %s failed %d attempt(s) each (last error %s: "
                    "%s); retry budget exhausted"
                    % (exhausted, self.policy.attempts_allowed,
                       type(error).__name__, error),
                    shard_indices=exhausted, report=self.report) from error
            return "serial"
        self._backoff()
        self.generation += 1
        if self.report is not None:
            self.report.pool_rebuilds += 1
        try:
            self.pool = self._spawn_pool()
        except OSError as pool_error:
            if self.policy.on_failure == "retry":
                raise ShardExecutionError(
                    "could not rebuild the worker pool (%s: %s)"
                    % (type(pool_error).__name__, pool_error),
                    shard_indices=missing, report=self.report) \
                    from pool_error
            return "serial"
        return "ok"

    def _complete_serially(self, dataset: UncertainDataset) -> None:
        """Terminal ``on_failure="serial"`` path: recompute only the
        still-missing shards, in the parent, without fault injection."""
        missing = [index for index, flag in enumerate(self.done) if not flag]
        warnings.warn(
            "process pool could not finish shard(s) %s within the retry "
            "budget; computing %d shard(s) serially"
            % (missing, len(missing)), RuntimeWarning, stacklevel=4)
        if self.report is not None:
            self.report.fallback_events.append(
                "retry budget exhausted: shard(s) %s recomputed serially"
                % missing)
        for index in missing:
            lo, hi = self.bounds[index]
            started = time.perf_counter()
            self.results[index] = self.fn(dataset, self.constraints, lo, hi,
                                          **self.options)
            self.done[index] = True
            self.attempts[index] += 1
            record = self._record(index)
            if record is not None:
                record.attempts = self.attempts[index]
                record.outcome = "serial"
                record.elapsed_s = time.perf_counter() - started
        self.pending.clear()


class ProcessBackend:
    """Run shards in a supervised worker-process pool.

    The dataset is shipped once per worker through the pool initializer
    (shared memory when available, pickled arrays otherwise).  Each shard
    is one future under a :class:`_ShardSupervisor`: worker deaths and
    hung shards rebuild the pool and resubmit only the unfinished shards,
    with bounded retries, exponential backoff and an
    :class:`ExecutionPolicy`-selected terminal behaviour.  The pool is a
    ``concurrent.futures.ProcessPoolExecutor`` rather than
    ``multiprocessing.Pool`` deliberately: when a worker dies (OOM kill,
    native crash, an initializer failure) the executor raises
    ``BrokenProcessPool`` instead of hanging forever, which is the signal
    the supervisor recovers from.
    """

    name = "process"

    def __init__(self, workers: int, available_cpus: Optional[int] = None,
                 policy: Optional[ExecutionPolicy] = None):
        self.workers = workers
        self.available_cpus = available_cpus
        self.policy = policy if policy is not None else ExecutionPolicy()

    def map_shards(self, fn: Callable, dataset: UncertainDataset,
                   constraints, bounds: Sequence[Tuple[int, int]],
                   options: Dict[str, object],
                   report: Optional[ExecutionReport] = None
                   ) -> List[Dict[int, float]]:
        import multiprocessing

        context = multiprocessing.get_context(_start_method())
        payload, release = ship_dataset(dataset)
        processes = pool_size(self.workers, len(bounds),
                              self.available_cpus)
        if report is not None:
            report.pool_size = processes
        supervisor = _ShardSupervisor(bounds, fn, constraints, options,
                                      payload, context, processes,
                                      self.policy, report)
        try:
            return supervisor.run(dataset)
        finally:
            release()


def get_backend(name: str, workers: int,
                policy: Optional[ExecutionPolicy] = None):
    """Resolve a backend name (``auto`` picks by worker count)."""
    if name not in BACKENDS:
        raise ValueError("unknown execution backend %r; available: %s"
                         % (name, ", ".join(BACKENDS)))
    if name == "auto":
        name = "process" if workers > 1 else "serial"
    if name == "process":
        return ProcessBackend(workers, policy=policy)
    return SerialBackend()


def run_sharded(fn: Callable, dataset: UncertainDataset, constraints, *,
                num_targets: int, workers: Optional[int] = None,
                backend=None,
                base_result: Optional[Dict[int, float]] = None,
                options: Optional[Dict[str, object]] = None,
                policy: Optional[ExecutionPolicy] = None,
                fault_plan: Optional[FaultPlan] = None) -> AlgorithmResult:
    """Shard the target axis, execute, and merge in target order.

    Parameters
    ----------
    fn:
        Module-level shard function
        ``fn(dataset, constraints, lo, hi, **options)`` returning results
        for the targets in ``[lo, hi)``.
    num_targets:
        Length of the target axis (the number of uncertain objects).
    workers:
        Requested worker count; ``None`` and ``1`` mean one serial shard.
    backend:
        ``auto`` (default), ``serial`` or ``process``.  ``serial`` with
        ``workers > 1`` still shards — it just executes the shards
        in-process, which the parity suite uses to test the shard layout
        without pool overhead.  A pre-built backend instance (anything
        with ``map_shards``) is used as-is, which lets tests and embedders
        inject e.g. a :class:`ProcessBackend` with a custom CPU budget.
    base_result:
        Merged-into result template (typically every instance id mapped to
        0.0, in canonical instance order, so the merged dictionary keeps a
        deterministic key order).
    options:
        Extra keyword arguments forwarded to every shard call.
    policy:
        Supervision knobs (:class:`ExecutionPolicy`); ``None`` means the
        defaults (2 retries, no shard timeout, serial terminal fallback).
    fault_plan:
        Deterministic fault injection, overriding both ``policy.fault_plan``
        and the ``REPRO_FAULTS`` environment spec.

    Returns an :class:`AlgorithmResult` — a dict of
    ``{instance_id: probability}`` with the run's
    :class:`ExecutionReport` attached as ``.execution``.
    """
    from concurrent.futures import BrokenExecutor

    count = resolve_workers(workers)
    bounds = shard_bounds(num_targets, count)
    policy = ExecutionPolicy.resolve(policy, fault_plan)
    if backend is None or isinstance(backend, str):
        chosen = get_backend(backend or "auto", count, policy)
    else:
        chosen = backend
    if isinstance(chosen, ProcessBackend):
        policy = chosen.policy
        if len(bounds) == 1:
            # One shard gains nothing from a pool; run it where the
            # caller is.
            chosen = SerialBackend()
    report = ExecutionReport(
        backend=chosen.name, workers=count,
        shards=[ShardRecord(index, lo, hi)
                for index, (lo, hi) in enumerate(bounds)])
    options = dict(options or {})
    started = time.perf_counter()
    try:
        partials = chosen.map_shards(fn, dataset, constraints, bounds,
                                     options, report=report)
    except (OSError, BrokenExecutor) as error:
        if not isinstance(chosen, ProcessBackend):
            raise
        if policy.on_failure != "serial":
            raise
        # Process pools need working semaphores/pipes and live workers; a
        # locked-down environment (OSError) that defeats even the
        # supervisor's rebuilds degrades to serial execution loudly
        # instead of failing — or hanging — the query.  Shard-function
        # exceptions are not caught here: they re-raise from the pool as
        # themselves and propagate (as does ShardExecutionError under the
        # stricter policies).
        warnings.warn("process backend unavailable (%s: %s); falling back "
                      "to serial execution"
                      % (type(error).__name__, error), RuntimeWarning,
                      stacklevel=2)
        report.fallback_events.append(
            "process backend unavailable (%s): full serial recompute"
            % type(error).__name__)
        partials = SerialBackend().map_shards(fn, dataset, constraints,
                                              bounds, options,
                                              report=report)
    report.elapsed_s = time.perf_counter() - started
    merged = AlgorithmResult(base_result or {}, execution=report)
    for partial in partials:
        merged.update(partial)
    return merged
