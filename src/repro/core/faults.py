"""Deterministic fault injection for the sharded execution layer.

The supervised shard scheduler (:mod:`repro.core.backend`) recovers from
worker crashes, hung workers, failed pool initializers and poisoned
shared-memory attaches.  None of those happen on demand in CI, so this
module makes every one of them *reproducible*: a :class:`FaultPlan` is a
small, picklable description of exactly which failure to inject where —
"crash the worker running shard 1's first attempt", "hang shard 0's
second attempt for 30 seconds", "fail every initializer of pool
generation 0" — threaded through ``run_sharded(fault_plan=...)`` (or the
``REPRO_FAULTS`` environment variable) and evaluated inside the worker
processes.

Faults are keyed on coordinates the scheduler controls deterministically:

``shard`` / ``attempt``
    The shard's index in the deterministic ``shard_bounds`` layout and
    the 1-based attempt counter the parent passes along with every
    submission.  Because the layout is a pure function of
    ``(num_targets, workers)`` and attempts are counted in the parent, a
    rule fires on exactly one task execution no matter how the pool
    schedules work.
``after``
    Optional ordering for a ``crash`` / ``hang`` rule: the supervisor
    submits the task only once shard ``after``'s result is collected.
    The other coordinates fix which task fails, not which tasks are in
    flight with it (and die with the pool); ``after`` fixes that too, on
    any core count.  With nothing in flight the gate is ignored, so it
    cannot deadlock.
``generation``
    The pool's rebuild counter: the first pool is generation 0, each
    supervised rebuild increments it.  Initializer and attach faults are
    keyed on the generation so "the first pool fails, the rebuilt pool
    recovers" is a deterministic scenario.

Faults are applied **only inside worker processes** (the pool
initializer and the per-task wrapper).  Serial execution — ``workers=1``,
``backend="serial"`` and the scheduler's serial fallback — never consults
the plan, so a recovery path that degrades to in-process execution cannot
re-trigger the fault that caused the degradation (and an injected
``crash`` can never take down the parent).

The ``REPRO_FAULTS`` spec
-------------------------
Rules are separated by ``;``; each rule is ``kind`` optionally followed
by ``:`` and comma-separated ``key=value`` fields::

    REPRO_FAULTS="crash:shard=1,attempt=1"
    REPRO_FAULTS="crash:shard=1,attempt=1,after=0"
    REPRO_FAULTS="hang:shard=0,attempt=2,seconds=30"
    REPRO_FAULTS="init:generation=0;attach:generation=1"

``crash`` and ``hang`` require ``shard`` (``attempt`` defaults to 1,
``seconds`` to 30, ``after`` to no gate); ``init`` and ``attach`` take
``generation`` (default 0).  :meth:`FaultPlan.from_env` parses the
variable, so any ``repro arsp`` / ``repro bench`` invocation can be run
under a fault plan without code changes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: Environment variable holding a fault-plan spec (see module docstring).
ENV_VAR = "REPRO_FAULTS"

#: Rule kinds applied per task execution (keyed on shard/attempt).
TASK_KINDS = ("crash", "hang")

#: Rule kinds applied at pool startup (keyed on the pool generation).
POOL_KINDS = ("init", "attach")

#: All accepted rule kinds.
KINDS = TASK_KINDS + POOL_KINDS

#: Exit status of an injected worker crash.  ``os._exit`` (no cleanup, no
#: exception propagation) is deliberate: it models the failure class the
#: supervisor must survive — OOM kills and native crashes that never
#: unwind the Python stack.
CRASH_EXIT_CODE = 87

#: Default hang duration (seconds) when a ``hang`` rule omits ``seconds``.
DEFAULT_HANG_SECONDS = 30.0


class FaultInjected(RuntimeError):
    """Raised by injected initializer/attach faults (never by ``crash`` —
    an injected crash exits the worker without raising)."""


@dataclass(frozen=True)
class FaultRule:
    """One injected fault.

    ``crash`` / ``hang`` rules fire when the worker executes the matching
    ``(shard, attempt)`` task (submitted only once shard ``after``'s result
    is collected, when ``after`` is set); ``init`` / ``attach`` rules fire
    in every worker initializer of the matching pool ``generation``.
    """

    kind: str
    shard: Optional[int] = None
    attempt: int = 1
    seconds: float = DEFAULT_HANG_SECONDS
    generation: int = 0
    after: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown fault kind %r; available: %s"
                             % (self.kind, ", ".join(KINDS)))
        if self.kind in TASK_KINDS:
            if self.shard is None or self.shard < 0:
                raise ValueError("%r faults need a non-negative shard "
                                 "index, got %r" % (self.kind, self.shard))
            if self.attempt < 1:
                raise ValueError("fault attempts are 1-based, got %d"
                                 % self.attempt)
            if self.after is not None and (self.after < 0
                                           or self.after == self.shard):
                raise ValueError("'after' must name another non-negative "
                                 "shard, got %r for shard %d"
                                 % (self.after, self.shard))
        if self.kind == "hang" and not self.seconds > 0.0:
            raise ValueError("hang faults need seconds > 0, got %r"
                             % (self.seconds,))
        if self.kind in POOL_KINDS and self.generation < 0:
            raise ValueError("%r faults need a non-negative pool "
                             "generation, got %d"
                             % (self.kind, self.generation))

    def to_spec(self) -> str:
        """Spec fragment that parses back into this rule."""
        if self.kind in TASK_KINDS:
            fields = ["shard=%d" % self.shard, "attempt=%d" % self.attempt]
            if self.kind == "hang":
                fields.append("seconds=%g" % self.seconds)
            if self.after is not None:
                fields.append("after=%d" % self.after)
        else:
            fields = ["generation=%d" % self.generation]
        return "%s:%s" % (self.kind, ",".join(fields))


#: Per-kind accepted spec fields and their parsers.
_FIELD_PARSERS = {
    "shard": int,
    "attempt": int,
    "seconds": float,
    "generation": int,
    "after": int,
}

_KIND_FIELDS = {
    "crash": ("shard", "attempt", "after"),
    "hang": ("shard", "attempt", "seconds", "after"),
    "init": ("generation",),
    "attach": ("generation",),
}


def _parse_rule(fragment: str) -> FaultRule:
    head, _, tail = fragment.partition(":")
    kind = head.strip().lower()
    if kind not in KINDS:
        raise ValueError("unknown fault kind %r in spec fragment %r; "
                         "available: %s" % (kind, fragment, ", ".join(KINDS)))
    values: Dict[str, object] = {}
    for item in filter(None, (part.strip() for part in tail.split(","))):
        key, separator, raw = item.partition("=")
        key = key.strip().lower()
        if not separator or key not in _KIND_FIELDS[kind]:
            raise ValueError(
                "bad fault field %r in spec fragment %r; %r accepts: %s"
                % (item, fragment, kind, ", ".join(_KIND_FIELDS[kind])))
        try:
            values[key] = _FIELD_PARSERS[key](raw.strip())
        except ValueError:
            raise ValueError("bad %s value %r in spec fragment %r"
                             % (key, raw.strip(), fragment))
    return FaultRule(kind=kind, **values)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultRule` entries.

    Plans are immutable and picklable: the parent ships the plan to every
    worker through the pool initializer, so rule evaluation happens where
    the fault must strike.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style spec string (see module docs)."""
        rules = tuple(_parse_rule(fragment)
                      for fragment in filter(None, (part.strip()
                                                    for part in
                                                    spec.split(";"))))
        return cls(rules)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        """Plan described by ``REPRO_FAULTS``, or ``None`` when unset/empty.

        A malformed spec raises ``ValueError`` — a typo in a fault spec
        must never silently run the query without the fault.
        """
        spec = (os.environ if environ is None else environ).get(ENV_VAR, "")
        if not spec.strip():
            return None
        try:
            return cls.from_spec(spec)
        except ValueError as error:
            raise ValueError("invalid %s value %r: %s"
                             % (ENV_VAR, spec, error)) from error

    def to_spec(self) -> str:
        """Spec string that parses back into this plan."""
        return ";".join(rule.to_spec() for rule in self.rules)

    def task_rule(self, shard: int, attempt: int) -> Optional[FaultRule]:
        """First crash/hang rule matching this ``(shard, attempt)`` task."""
        for rule in self.rules:
            if (rule.kind in TASK_KINDS and rule.shard == shard
                    and rule.attempt == attempt):
                return rule
        return None

    def init_rule(self, generation: int) -> Optional[FaultRule]:
        """Initializer-failure rule for this pool generation, if any."""
        for rule in self.rules:
            if rule.kind == "init" and rule.generation == generation:
                return rule
        return None

    def attach_rule(self, generation: int) -> Optional[FaultRule]:
        """Shared-memory attach poison for this pool generation, if any."""
        for rule in self.rules:
            if rule.kind == "attach" and rule.generation == generation:
                return rule
        return None


def apply_task_fault(plan: Optional[FaultPlan], shard: int,
                     attempt: int) -> None:
    """Apply the matching crash/hang rule inside a worker, if any.

    Called by the worker-side task wrapper before the shard function
    runs.  ``crash`` exits the process immediately (no cleanup — the
    point is to model a worker the supervisor loses without warning);
    ``hang`` sleeps for the rule's duration and then proceeds normally,
    so with no shard timeout configured the query still completes — a
    hang is a stall, not a failure, until the scheduler decides it is.
    """
    if plan is None:
        return
    rule = plan.task_rule(shard, attempt)
    if rule is None:
        return
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if rule.kind == "hang":
        time.sleep(rule.seconds)
