"""Spans recorded from outside the program, by wrapping its public functions.

Each wrapper replaces a function on the module attribute (or dict entry) its
caller looks up at call time, so the program itself is unchanged.  Spans are
kept in memory; a span's self time is its duration minus the durations of its
children, so the self times of one command add up to the root span exactly.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "minflt", "info")

    def __init__(self, name: str, start: float, parent: int | None) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0
        self.minflt = 0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Wraps functions, records spans, and undoes the wrapping on `restore`.

    Wrapped functions record spans only while a root span opened with `span`
    is running, so calls the benchmark makes between commands stay out.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}  # missing target -> span name it would record
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, owner, key: str, name: str, *, label: str, after=None,
             faults: bool = False) -> None:
        """Record a `name` span around owner.key (an attribute, or a dict entry).

        `after(span, result, args)` runs once the span has closed (its cost
        lands in the parent span's self time, so keep it small); with
        `faults`, the span also counts the minor page faults of the call.  A
        missing target (`owner` None, or no such key) is listed in `absent`
        under `label` instead of failing, so the benchmark survives a
        refactor that renames or removes it.
        """
        is_dict = isinstance(owner, dict)
        original = owner.get(key) if is_dict else getattr(owner, key, None)
        if not callable(original):
            self.absent[label] = name
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a root span, e.g. an output check
                return original(*args, **kwargs)
            faults_before = _minflt() if faults else 0
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer._close(index)
                if faults:
                    span.minflt = _minflt() - faults_before
            if after is not None:
                after(span, result, args)
            return result

        if is_dict:
            owner[key] = traced
        else:
            setattr(owner, key, traced)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_time
        return out

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]
