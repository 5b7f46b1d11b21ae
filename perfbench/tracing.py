"""Spans recorded from outside the program, around its public layer calls.

A span is ``(id, name, start, end, parent, request)``; every span of one
request shares the request's id, and the request itself is the root span
(``parent`` is ``None``).  Spans are kept in memory and written out once,
after the timed window.  A layer's *self time* is its span's duration
minus the part of that interval its child spans cover; the self times of
one request's spans therefore add up to the request's latency, with the
root's own self time being whatever no wrapped layer call covered.

The workloads decide which calls to wrap; this module only records.
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """In-memory span store with a per-task current request."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._next_id = 0
        self._lock = threading.Lock()
        #: Root span of the request the running task/thread serves.
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None)
        #: Root span that calls made on the program's compute thread belong
        #: to (that thread does not inherit the caller's context).
        self.compute_owner: Optional[int] = None

    def new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], request: Optional[int] = None,
               span_id: Optional[int] = None) -> int:
        span_id = span_id if span_id is not None else self.new_id()
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "request": request if request is not None
                           else span_id})
        return span_id

    def begin_request(self) -> int:
        """Reserve a root span id and make it current in this context."""
        root = self.new_id()
        self.current.set(root)
        return root

    def end_request(self, root: int, name: str, start: float,
                    end: float) -> None:
        self.record(name, start, end, None, root, span_id=root)

    def wrap(self, function: Callable, name: str,
             owner: Optional[Callable[[], Optional[int]]] = None
             ) -> Callable:
        """``function`` recording one span per call.

        The parent is the context's current request, or ``owner()`` when
        given (for calls that run on another thread).
        """
        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = owner() if owner is not None else self.current.get()
            start = time.perf_counter()
            value = function(*args, **kwargs)
            end = time.perf_counter()
            if parent is not None:
                self.record(name, start, end, parent, parent)
            return value
        return traced

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times in seconds)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(start: float, end: float, children: Iterable[Dict]) -> float:
    """Length of ``[start, end]`` covered by the children's intervals."""
    intervals = sorted((max(start, c["start"]), min(end, c["end"]))
                       for c in children)
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: List[Dict]) -> Dict[int, Dict[str, float]]:
    """Per request: layer name -> summed self time (seconds).

    The root span appears under its own name; its self time is the part
    of the request no wrapped layer call covered.
    """
    children: Dict[int, List[Dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        own = (span["end"] - span["start"]
               - _covered(span["start"], span["end"],
                          children.get(span["id"], ())))
        out[span["request"]][span["name"]] += own
    return out
