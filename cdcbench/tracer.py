"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``Tracer.patch`` swaps a
module or class attribute for a wrapper that opens a span around every call,
and ``Tracer.restore`` puts the original back. The package itself is never
edited. The benchmark drives the engine from one thread, so a span's parent
is simply the innermost span open when it starts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own
        accounting reads, which are not work of the system)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent,
                               self.run_id))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper. A plain
        function stored on a class still binds as a method."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- derived numbers -----------------------------------------------------

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        out = [s for s in self.spans if s.name == name]
        if parent is not None:
            out = [s for s in out if s.parent is not None
                   and self.spans[s.parent].name == parent]
        return out

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(s.dur for s in self.named(name, parent))

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it its children cover. Children
        of one span run one after another (single driver thread), so their
        durations add without overlap."""
        covered = sum(c.dur for c in self.spans if c.parent == span.id)
        return span.dur - covered

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def wrapper_cost_s(reps: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a bare one."""
    tr = Tracer("calibrate")

    class _Box:
        @staticmethod
        def noop():
            return None

    bare = _Box.noop
    t = time.perf_counter()
    for _ in range(reps):
        bare()
    t_bare = time.perf_counter() - t
    tr.patch(_Box, "noop", "noop")
    t = time.perf_counter()
    for _ in range(reps):
        _Box.noop()
    t_wrapped = time.perf_counter() - t
    tr.restore()
    return max(0.0, (t_wrapped - t_bare) / reps)
