"""In-memory span recorder wrapped around quadcover's public functions
from outside the package.

Every call through a wrapped function records a span: name, start, end
and parent span.  Spans named in `peak_names` also record the
tracemalloc peak above the memory in use when they opened; tracemalloc
runs only inside them, because it slows every allocation.  Nested spans
reset the tracemalloc peak, so the parent's running peak is carried
across them by hand.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from typing import NamedTuple

MB = 1024 * 1024


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    peak_bytes: int


class _Open:
    __slots__ = ("sid", "name", "start", "base", "peak", "started_tracing")

    def __init__(self, sid, name, start, base, started_tracing):
        self.sid, self.name, self.start = sid, name, start
        self.base = self.peak = base
        self.started_tracing = started_tracing


class Recorder:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self, peak_names=()):
        self.peak_names = frozenset(peak_names)
        self.spans: list[Span] = []
        self._stack: list[_Open] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> _Open:
        started = name in self.peak_names and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                top = self._stack[-1]
                top.peak = max(top.peak, peak)
            tracemalloc.reset_peak()
        frame = _Open(len(self.spans) + len(self._stack), name, time.perf_counter(),
                      current, started)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Open) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            frame.peak = max(frame.peak, peak)
            if parent is not None:
                parent.peak = max(parent.peak, frame.peak)
            tracemalloc.reset_peak()
        if frame.started_tracing:
            tracemalloc.stop()
        self.spans.append(
            Span(frame.sid, parent.sid if parent else None, frame.name,
                 frame.start, end, frame.peak - frame.base)
        )

    def span(self, name: str, fn, *args, **kwargs):
        frame = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name) target until uninstall().

        A module-level function is replaced in every quadcover module
        that bound it by import, so calls through any name are seen; a
        method is replaced on its class.  Missing targets are skipped.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if k == "quadcover" or k.startswith("quadcover.")]
        for owner, attr, name in targets:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            for site in [owner] if isinstance(owner, type) else modules:
                for key, val in list(vars(site).items()):
                    if val is orig:
                        self._patched.append((site, key, orig))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, key, orig = self._patched.pop()
            setattr(site, key, orig)

    # --- aggregates --------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def _outermost(self, name: str) -> list[Span]:
        by_id = {s.sid: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def busy_s(self, name: str) -> float:
        """Wall time inside the function, recursion counted once."""
        return sum(s.end - s.start for s in self._outermost(name))

    def peak_mb(self, name: str) -> float:
        return max((s.peak_bytes for s in self.spans if s.name == name), default=0) / MB

    def top_level_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)
