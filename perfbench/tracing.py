"""Spans recorded by the benchmark around calls into the program's public
functions.

A traced run installs wrappers (``Tracer.patch``) on the functions that form
each layer's boundary — ``resolve_state_sets``, ``build_job``,
``QueryPlan.derive``, ``TransformJob.evaluate_many``,
``MultiprocessingBackend.evaluate``, ``invert_values``, the service client
calls, ... — and records one span per call: name, start, end, parent span and
query id.  Spans stay in memory and are written as JSON lines when the run
ends.  The program itself is not modified; untraced runs install nothing.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def query(self):
        return getattr(self._local, "query", None)

    @query.setter
    def query(self, value) -> None:
        self._local.query = value

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "query": self.query,
            "start": time.perf_counter(),
            **attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    # ------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, *, attrs=None, after=None) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``.

        ``attrs(args, kwargs)`` adds attributes before the call and
        ``after(record, args, result)`` after it.  Class-, static- and plain
        methods and module-level functions are all handled; ``restore()``
        puts every original back.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else {}
            with tracer.span(name, **extra) as record:
                result = func(*args, **kwargs)
                if after is not None:
                    after(record, args, result)
                return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------- analysis
    def of_query(self, query) -> list[dict]:
        return [s for s in self.spans if s["query"] == query]

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def totals(self, spans: list[dict]) -> dict[str, float]:
        """Seconds per span name (nested spans of one name are not double-counted)."""
        by_id = {s["id"]: s for s in spans}
        out: dict[str, float] = {}
        for s in spans:
            parent = by_id.get(s["parent"])
            nested = False
            while parent is not None:
                if parent["name"] == s["name"]:
                    nested = True
                    break
                parent = by_id.get(parent["parent"])
            if not nested:
                out[s["name"]] = out.get(s["name"], 0.0) + self.duration(s)
        return out

    def attributed_share(self, root: dict, spans: list[dict]) -> float:
        """Share of ``root``'s wall time covered by its direct child spans."""
        covered = sum(self.duration(s) for s in spans if s["parent"] == root["id"])
        total = self.duration(root)
        return covered / total if total > 0 else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record, default=str) + "\n")


def span_cost_seconds(reps: int = 5000) -> float:
    """Seconds one wrapped call adds over a bare call (the tracing overhead)."""
    tracer = Tracer()

    class Probe:
        @staticmethod
        def noop():
            return None

    bare = Probe.noop
    started = time.perf_counter()
    for _ in range(reps):
        bare()
    base = time.perf_counter() - started
    tracer.patch(Probe, "noop", "probe")
    started = time.perf_counter()
    for _ in range(reps):
        Probe.noop()
    wrapped = time.perf_counter() - started
    tracer.restore()
    return max(wrapped - base, 0.0) / reps
