"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions by
patching each name *where its caller looks it up* (``run_ppq`` imports
``ar_features`` by name, so the wrapper must replace
``repro.core.ppq.ar_features``, not ``repro.core.partitioning``'s copy).
Nothing inside ``src/`` is edited; :meth:`Tracer.restore` puts every
original back.

A span is (name, start, end, parent). The run is single-threaded, so the
parent is whatever span is open when the call starts. Self time is a
span's duration minus the part of it covered by its child spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object | None]] = field(default_factory=list)

    # ---------------- recording ----------------
    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named ``name``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        self._patched.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---------------- analysis ----------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_a = cur_b = None
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, s.start), min(b, s.end)
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out.append((s.end - s.start) - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s, st in zip(self.spans, self.self_times()):
            a = agg[s.name]
            a["calls"] += 1
            a["total_s"] += s.end - s.start
            a["self_s"] += st
        return dict(agg)

    def parent_names(self) -> list[str | None]:
        """Name of each span's parent (None for roots)."""
        return [
            self.spans[s.parent].name if s.parent >= 0 else None for s in self.spans
        ]

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines (name, start, end, parent)."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent]) + "\n")


class NullTracer:
    """Stand-in with the same ``span`` API that records nothing (untraced
    runs), so workload code is identical in both modes."""

    def span(self, name: str):
        return nullcontext()
