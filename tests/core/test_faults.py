"""Unit tests for the deterministic fault-injection plans.

``repro.core.faults`` is pure bookkeeping — parsing, matching and the two
worker-side fault actions.  Nothing here spawns a process; the end-to-end
recovery behaviour lives in ``tests/core/test_fault_tolerance.py``.
"""

from __future__ import annotations

import pytest

from repro.core.faults import (CRASH_EXIT_CODE, ENV_VAR, FaultPlan,
                               FaultRule, apply_task_fault)


class TestFaultRule:
    def test_defaults_target_the_first_attempt(self):
        rule = FaultRule(kind="crash", shard=2)
        assert rule.attempt == 1
        assert rule.generation == 0

    @pytest.mark.parametrize("kwargs,match", [
        (dict(kind="explode"), "unknown fault kind"),
        (dict(kind="crash", shard=-1), "shard"),
        (dict(kind="crash", shard=0, attempt=0), "attempt"),
        (dict(kind="hang", shard=0, seconds=0.0), "seconds"),
        (dict(kind="init", generation=-2), "generation"),
    ])
    def test_invalid_rules_are_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultRule(**kwargs)

    def test_spec_roundtrip(self):
        rule = FaultRule(kind="hang", shard=3, attempt=2, seconds=1.5)
        assert FaultPlan.from_spec(rule.to_spec()).rules == (rule,)
        gated = FaultRule(kind="crash", shard=1, after=0)
        assert FaultPlan.from_spec(gated.to_spec()).rules == (gated,)

    @pytest.mark.parametrize("after", [-1, 2])
    def test_after_must_name_another_shard(self, after):
        with pytest.raises(ValueError, match="after"):
            FaultRule(kind="crash", shard=2, after=after)


class TestFaultPlan:
    def test_parses_multiple_semicolon_separated_rules(self):
        plan = FaultPlan.from_spec(
            "crash:shard=1,attempt=2; hang:shard=0,seconds=0.5 ;"
            "init:generation=1;attach:generation=0")
        assert [rule.kind for rule in plan.rules] == [
            "crash", "hang", "init", "attach"]
        assert plan  # non-empty plans are truthy

    def test_spec_roundtrip_preserves_every_rule(self):
        spec = "crash:shard=1,attempt=2;hang:shard=0,attempt=1,seconds=0.5"
        plan = FaultPlan.from_spec(spec)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    @pytest.mark.parametrize("spec", [
        "crash",                      # no shard
        "crash:shard=x",              # non-integer
        "hang:shard=0,seconds=abc",   # non-float
        "crash:shard=0,generation=1", # field not valid for the kind
        "sigsegv:shard=0",            # unknown kind
        "crash=shard:0",              # malformed layout
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_after_field_belongs_to_the_matching_task_rule(self):
        plan = FaultPlan.from_spec("crash:shard=1,attempt=1,after=0;"
                                   "hang:shard=2,attempt=2,seconds=1,after=1")
        assert [rule.after for rule in plan.rules] == [0, 1]
        assert plan.task_rule(shard=1, attempt=1).after == 0
        assert plan.task_rule(shard=1, attempt=2) is None
        assert plan.task_rule(shard=2, attempt=2).after == 1
        assert FaultPlan.from_spec("crash:shard=1").task_rule(1, 1).after \
            is None

    @pytest.mark.parametrize("spec", [
        "crash:shard=1,after=x",      # non-integer
        "crash:shard=1,after=1",      # gated on itself
        "init:generation=0,after=1",  # pool faults are not per-task
    ])
    def test_malformed_after_fields_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_task_rule_matches_shard_and_attempt(self):
        plan = FaultPlan.from_spec("crash:shard=1,attempt=2")
        assert plan.task_rule(shard=1, attempt=2).kind == "crash"
        assert plan.task_rule(shard=1, attempt=1) is None
        assert plan.task_rule(shard=0, attempt=2) is None

    def test_pool_rules_match_their_generation(self):
        plan = FaultPlan.from_spec("init:generation=1;attach:generation=0")
        assert plan.init_rule(0) is None
        assert plan.init_rule(1).kind == "init"
        assert plan.attach_rule(0).kind == "attach"
        assert plan.attach_rule(1) is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_VAR, "   ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(ENV_VAR, "crash:shard=0")
        assert FaultPlan.from_env().task_rule(0, 1).kind == "crash"
        monkeypatch.setenv(ENV_VAR, "nonsense")
        with pytest.raises(ValueError, match=ENV_VAR):
            FaultPlan.from_env()


class TestApplyTaskFault:
    def test_crash_rule_exits_the_process(self, monkeypatch):
        import os

        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        plan = FaultPlan.from_spec("crash:shard=2,attempt=1")
        apply_task_fault(plan, shard=2, attempt=1)
        assert exits == [CRASH_EXIT_CODE]

    def test_hang_rule_sleeps_for_the_configured_time(self, monkeypatch):
        import time

        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        plan = FaultPlan.from_spec("hang:shard=0,seconds=0.25")
        apply_task_fault(plan, shard=0, attempt=1)
        assert naps == [0.25]

    def test_non_matching_calls_are_no_ops(self, monkeypatch):
        import os
        import time

        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("exited"))
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("slept"))
        plan = FaultPlan.from_spec("crash:shard=1;hang:shard=2")
        apply_task_fault(plan, shard=0, attempt=1)
        apply_task_fault(None, shard=1, attempt=1)


class TestSubmissionGate:
    """The supervisor's side of ``after=``: which pending shard goes next
    (no pool is spawned here)."""

    def _supervisor(self, spec):
        from repro.core.backend import ExecutionPolicy, _ShardSupervisor

        policy = ExecutionPolicy(fault_plan=FaultPlan.from_spec(spec))
        return _ShardSupervisor([(0, 1), (1, 2), (2, 3)], fn=None,
                                constraints=None, options={}, payload=None,
                                context=None, processes=3, policy=policy,
                                report=None)

    def test_gated_shard_waits_for_its_prerequisite(self):
        supervisor = self._supervisor("crash:shard=1,attempt=1,after=0")
        assert supervisor._next_pending() == 0
        supervisor.in_flight["shard-0"] = (0, 0.0)
        assert supervisor._next_pending() == 2
        assert supervisor._next_pending() is None
        del supervisor.in_flight["shard-0"]
        supervisor.done[0] = True
        assert supervisor._next_pending() == 1

    def test_a_gate_nothing_can_open_is_ignored(self):
        supervisor = self._supervisor("crash:shard=0,attempt=1,after=2;"
                                      "crash:shard=2,attempt=1,after=0")
        supervisor.pending.remove(1)
        assert supervisor._next_pending() == 0
