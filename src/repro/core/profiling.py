"""Per-phase wall-clock attribution for the bench harness.

Index-based algorithms split into constraint-independent preprocessing and
constraint-dependent query work (docs/ARCHITECTURE.md, "Preprocessing /
query split").  The bench harness records that split per cell: algorithms
wrap their phases in :func:`phase` blocks, and the harness activates a
collector around every timed run with :func:`collect_phases`.

When no collector is active, :func:`phase` is a no-op beyond one global
check, so algorithms annotate their phases unconditionally without taxing
ordinary callers.  Phases are flat, top-level sections of one algorithm
run — nested ``phase`` blocks would be attributed to both names.

The collector is process-global, not per thread: while one is active, a
phase recorded by any thread of the process (the serving daemon's compute
thread included) lands in it, and phases recorded in worker processes are
never collected.  The bench harness, its only user, times one cell at a
time from one thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

_active: Optional[Dict[str, float]] = None


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the enclosed block's wall clock to ``name``.

    Durations accumulate: entering the same phase name repeatedly (e.g. a
    query phase resumed per batch) sums into one entry.
    """
    if _active is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        _active[name] = (_active.get(name, 0.0)
                         + time.perf_counter() - start)


@contextmanager
def collect_phases(sink: Dict[str, float]) -> Iterator[Dict[str, float]]:
    """Collect :func:`phase` durations into ``sink`` while the block runs."""
    global _active
    previous = _active
    _active = sink
    try:
        yield sink
    finally:
        _active = previous
