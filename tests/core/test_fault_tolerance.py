"""End-to-end recovery tests for the supervised process scheduler.

Every test here injects a deterministic fault (``repro.core.faults``) into
a real process pool and asserts the supervisor's contract: only unfinished
shards are resubmitted, the merged result is byte-identical to an
uninjected run, and the terminal ``on_failure`` policies behave as
documented.  The whole module carries the ``faults`` marker (tier-1 by
default, deselectable with ``-m 'not faults'``) plus ``parallel`` because
every test spawns worker processes.
"""

from __future__ import annotations

import hashlib
import struct
import subprocess
import sys
import time

import pytest

from repro.algorithms import kdtree_traversal_arsp
from repro.core.backend import (DatasetRestoreError, ExecutionPolicy,
                                PickledDataset, ShardExecutionError,
                                SharedDatasetHandle, run_sharded)
from repro.core.faults import CRASH_EXIT_CODE, FaultPlan
from repro.data.constraints import weak_ranking_constraints

from tests.conftest import make_random_dataset

pytestmark = [pytest.mark.faults, pytest.mark.parallel]

#: Generous wall-clock bound for recovery tests: far above any healthy
#: retry schedule (backoff caps at 2 s), far below the injected 30 s hangs.
RECOVERY_DEADLINE_S = 20.0


def _fingerprint(result) -> str:
    """Byte-level digest of an ARSP result *including its key order*."""
    digest = hashlib.sha256()
    for instance_id, probability in result.items():
        digest.update(struct.pack("<qd", instance_id, probability))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workload():
    dataset = make_random_dataset(seed=41, num_objects=12, max_instances=3,
                                  dimension=3, incomplete_fraction=0.25)
    return dataset, weak_ranking_constraints(3)


def _policy(**kwargs) -> ExecutionPolicy:
    """Fast-recovery policy so injected failures don't slow the suite."""
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return ExecutionPolicy(**kwargs)


class TestCrashRecovery:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_merged_result_is_bit_identical_after_a_crash(self, workload,
                                                          workers):
        dataset, constraints = workload
        reference = kdtree_traversal_arsp(dataset, constraints,
                                          workers=workers, backend="process",
                                          policy=_policy())
        assert reference.execution.clean
        injected = kdtree_traversal_arsp(
            dataset, constraints, workers=workers, backend="process",
            policy=_policy(fault_plan=FaultPlan.from_spec(
                "crash:shard=1,attempt=1,after=0")))
        assert _fingerprint(injected) == _fingerprint(reference)

        report = injected.execution
        assert not report.clean
        assert report.pool_rebuilds >= 1
        # Shard 1 was resubmitted; shards that finished before the crash
        # were not (they stay at one attempt and are never "recovered").
        assert 1 in report.recovered_shards
        records = {record.index: record for record in report.shards}
        assert records[1].attempts >= 2
        assert records[1].outcome == "recovered"
        assert "worker-lost" in records[1].failures
        finished_before = [r for r in report.shards
                           if r.outcome == "done" and r.attempts == 1]
        assert finished_before, "some shard should finish on attempt 1"
        assert report.serial_fallback_shards == []

    def test_env_spec_drives_the_same_recovery(self, workload, monkeypatch):
        dataset, constraints = workload
        monkeypatch.setenv("REPRO_FAULTS", "crash:shard=0,attempt=1")
        result = kdtree_traversal_arsp(dataset, constraints, workers=2,
                                       backend="process", policy=_policy())
        assert 0 in result.execution.recovered_shards


class TestHangRecovery:
    def test_shard_timeout_kills_the_hung_worker_and_recovers(self,
                                                              workload):
        dataset, constraints = workload
        reference = kdtree_traversal_arsp(dataset, constraints, workers=2,
                                          backend="process", policy=_policy())
        start = time.perf_counter()
        injected = kdtree_traversal_arsp(
            dataset, constraints, workers=2, backend="process",
            policy=_policy(shard_timeout_s=0.5,
                           fault_plan=FaultPlan.from_spec(
                               "hang:shard=0,attempt=1,seconds=30")))
        elapsed = time.perf_counter() - start
        assert elapsed < RECOVERY_DEADLINE_S, (
            "hung shard was not reclaimed by the timeout")
        assert _fingerprint(injected) == _fingerprint(reference)

        report = injected.execution
        assert report.timeouts >= 1
        records = {record.index: record for record in report.shards}
        assert "timeout" in records[0].failures
        assert records[0].outcome == "recovered"


def _echo_shard(dataset, constraints, lo, hi):
    return {instance.instance_id: float(instance.object_id)
            for instance in dataset.instances
            if lo <= instance.object_id < hi}


class TestTerminalPolicies:
    def test_on_failure_raise_propagates_the_first_failure(self):
        dataset = make_random_dataset(seed=42, num_objects=8)
        policy = _policy(on_failure="raise",
                         fault_plan=FaultPlan.from_spec(
                             "crash:shard=1,attempt=1"))
        with pytest.raises(ShardExecutionError) as excinfo:
            run_sharded(_echo_shard, dataset, None,
                        num_targets=dataset.num_objects, workers=2,
                        backend="process", policy=policy)
        assert 1 in excinfo.value.shard_indices

    def test_on_failure_retry_raises_after_the_budget(self):
        dataset = make_random_dataset(seed=43, num_objects=8)
        # Crash shard 1 on every attempt it is allowed (1 + max_retries).
        policy = _policy(on_failure="retry", max_retries=2,
                         fault_plan=FaultPlan.from_spec(
                             "crash:shard=1,attempt=1;"
                             "crash:shard=1,attempt=2;"
                             "crash:shard=1,attempt=3"))
        with pytest.raises(ShardExecutionError, match="retry budget"):
            run_sharded(_echo_shard, dataset, None,
                        num_targets=dataset.num_objects, workers=2,
                        backend="process", policy=policy)

    def test_on_failure_serial_recomputes_only_missing_shards(self):
        dataset = make_random_dataset(seed=44, num_objects=8)
        policy = _policy(on_failure="serial", max_retries=1,
                         fault_plan=FaultPlan.from_spec(
                             "crash:shard=1,attempt=1;"
                             "crash:shard=1,attempt=2"))
        with pytest.warns(RuntimeWarning, match="computing 1 shard"):
            result = run_sharded(_echo_shard, dataset, None,
                                 num_targets=dataset.num_objects, workers=2,
                                 backend="process", policy=policy)
        assert result == _echo_shard(dataset, None, 0, dataset.num_objects)
        report = result.execution
        assert report.serial_fallback_shards == [1]
        assert report.fallback_events
        records = {record.index: record for record in report.shards}
        assert records[1].outcome == "serial"
        # The healthy shard was computed by the pool, not serially.
        assert records[0].outcome in ("done", "recovered")

    def test_retry_exhaustion_still_allows_later_recovery(self):
        # One crash, two retries: the default "serial" policy should not
        # need its terminal fallback at all.
        dataset = make_random_dataset(seed=45, num_objects=8)
        policy = _policy(max_retries=2, fault_plan=FaultPlan.from_spec(
            "crash:shard=0,attempt=1"))
        result = run_sharded(_echo_shard, dataset, None,
                             num_targets=dataset.num_objects, workers=2,
                             backend="process", policy=policy)
        assert result == _echo_shard(dataset, None, 0, dataset.num_objects)
        assert result.execution.serial_fallback_shards == []


class TestPoolFaults:
    @pytest.mark.parametrize("spec", ["init:generation=0",
                                      "attach:generation=0"])
    def test_poisoned_first_generation_is_rebuilt(self, workload, spec):
        dataset, constraints = workload
        reference = kdtree_traversal_arsp(dataset, constraints, workers=2,
                                          backend="process", policy=_policy())
        injected = kdtree_traversal_arsp(
            dataset, constraints, workers=2, backend="process",
            policy=_policy(fault_plan=FaultPlan.from_spec(spec)))
        assert _fingerprint(injected) == _fingerprint(reference)
        assert injected.execution.pool_rebuilds >= 1


class TestSharedMemoryLifecycle:
    def test_unlink_is_idempotent(self):
        dataset = make_random_dataset(seed=46, num_objects=4)
        handle = SharedDatasetHandle.create(dataset)
        handle.unlink()
        handle.unlink()  # second release must be a no-op, not an OSError

    def test_abandoned_handle_does_not_leak_or_warn(self):
        # Regression: before the weakref.finalize guard, dropping a handle
        # without unlink() left the block to the resource tracker, which
        # reports "leaked shared_memory objects" on stderr at exit.
        code = "\n".join([
            "import gc",
            "from repro.core.backend import SharedDatasetHandle",
            "from repro.data.synthetic import (SyntheticConfig,",
            "                                  generate_uncertain_dataset)",
            "dataset = generate_uncertain_dataset(SyntheticConfig(",
            "    num_objects=5, max_instances=2, dimension=2, seed=1))",
            "handle = SharedDatasetHandle.create(dataset)",
            "del handle",
            "gc.collect()",
            "print('RELEASED')",
        ])
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert "RELEASED" in completed.stdout
        assert "resource_tracker" not in completed.stderr
        assert "leaked" not in completed.stderr


class TestDatasetRestoreValidation:
    def test_corrupt_object_ids_raise_a_named_error(self):
        dataset = make_random_dataset(seed=47, num_objects=5)
        payload = PickledDataset.create(dataset)
        payload.arrays["object_ids"][2] = dataset.num_objects + 3
        with pytest.raises(DatasetRestoreError, match=r"row 2 .*outside "
                                                      r"the dense target "
                                                      r"range"):
            payload.restore()

    def test_negative_object_ids_are_rejected_too(self):
        dataset = make_random_dataset(seed=48, num_objects=5)
        payload = PickledDataset.create(dataset)
        payload.arrays["object_ids"][0] = -1
        with pytest.raises(DatasetRestoreError, match="corrupt"):
            payload.restore()


class TestServePathRecovery:
    """The recovery ladder works unchanged underneath the query daemon."""

    @pytest.mark.serve
    def test_daemon_query_recovers_from_injected_crash(self, workload):
        import asyncio

        from repro.serve import (ArspService, ArspSession, ServeClient,
                                 ServeConfig)

        dataset, constraints = workload
        reference = ArspService(
            dataset, ServeConfig(workers=2, backend="process",
                                 policy=_policy())).query(constraints)
        assert reference.execution["clean"] is True

        service = ArspService(
            dataset,
            ServeConfig(workers=2, backend="process",
                        policy=_policy(fault_plan=FaultPlan.from_spec(
                            "crash:shard=1,attempt=1"))))

        async def scenario():
            session = ArspSession(service)
            client = ServeClient.in_process(session)
            injected = await client.query(constraints=constraints)
            repeat = await client.query(constraints=constraints)
            session.close()
            return injected, repeat

        injected, repeat = asyncio.run(scenario())
        # The injected crash changed nothing about the answer...
        assert (_fingerprint(injected["result"])
                == _fingerprint(reference.result))
        # ...and the response carries the populated ExecutionReport that
        # proves recovery actually happened under the daemon.
        execution = injected["execution"]
        assert execution["clean"] is False
        assert 1 in execution["recovered_shards"]
        assert execution["pool_rebuilds"] >= 1
        # The repeat came from the cross-query cache: same bytes, no
        # second trip through the (still fault-injected) scheduler.
        assert repeat["cached"] is True
        assert repeat["execution"] is None
        assert (_fingerprint(repeat["result"])
                == _fingerprint(reference.result))

    @pytest.mark.serve
    def test_env_fault_spec_reaches_the_serve_path(self, workload,
                                                   monkeypatch):
        from repro.serve import ArspService, ServeConfig

        dataset, constraints = workload
        monkeypatch.setenv("REPRO_FAULTS", "crash:shard=0,attempt=1")
        outcome = ArspService(
            dataset, ServeConfig(workers=2, backend="process",
                                 policy=_policy())).query(constraints)
        assert 0 in outcome.execution["recovered_shards"]


def test_crash_exit_code_is_distinctive():
    # 87 deliberately differs from every exit code the interpreter or a
    # signal produces, so a supervisor log line can attribute the loss.
    assert CRASH_EXIT_CODE not in (0, 1, 2)
