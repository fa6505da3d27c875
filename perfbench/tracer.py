"""In-memory spans around the program's public functions.

The tracer replaces functions at the module bindings the program calls them
through (``cti2stix.cli.run_entity_pipeline``, ``cti2stix.entity_pipeline.
condense``, ...) with wrappers that record a span: name, start, end, parent
and the report it belongs to.  Spans stay in memory and are written once,
when the benchmark ends.  Nothing under ``src/`` knows about them.

A span's *self time* is its duration minus the durations of its children.
Spans nest per thread, so with ``extract --jobs 2`` each worker thread has its
own stack and its own report root.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    report: str = ""
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; :meth:`wrap` instruments one binding, :meth:`restore`
    puts every original back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, report: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if report is None:
            report = self.spans[parent].report if parent >= 0 else ""
        record = Span(name, time.perf_counter(), parent=parent, report=report)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, **values: float) -> None:
        """Add counts to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            counts = self.spans[stack[-1]].counts
            for key, value in values.items():
                counts[key] = counts.get(key, 0) + value

    def wrap(self, owner: Any, attr: str, name: str,
             counts: Optional[Callable[..., dict[str, float]]] = None,
             report: Optional[Callable[..., str]] = None,
             before: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counts(result, *args, **kwargs)`` adds counts to the span,
        ``report(*args, **kwargs)`` names the report a root span belongs to and
        ``before(*args, **kwargs)`` runs inside the span before the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            rid = report(*args, **kwargs) if report else None
            with tracer.span(name, rid) as record:
                if before:
                    before(*args, **kwargs)
                result = original(*args, **kwargs)
                if counts:
                    for key, value in counts(result, *args, **kwargs).items():
                        record.counts[key] = record.counts.get(key, 0) + value
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def wrap_counter(self, owner: Any, attr: str,
                     counts: Callable[..., dict[str, float]]) -> None:
        """Replace ``owner.attr`` with a wrapper that only adds counts to the
        caller's span (for calls too small and frequent to be spans)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            tracer.count(**counts(result, *args, **kwargs))
            return result

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def roots(self) -> list[int]:
        """Index of each span's root span (parents precede their children)."""
        out: list[int] = []
        for i, s in enumerate(self.spans):
            out.append(i if s.parent < 0 else out[s.parent])
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "report": s.report, "start": s.start, "end": s.end,
                                     **({"counts": s.counts} if s.counts else {})}) + "\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
