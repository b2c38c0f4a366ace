"""In-memory spans: ``(name, start, end, parent, run id)``.

Spans are recorded from the benchmark's own files, around calls into the
engine's public functions.  A span's self time is its duration minus the
part its child spans cover; spans of one tracer never overlap except by
nesting, because each tracer is driven from one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent index]
        self._open: list = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return traced

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.spans if n == name)

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _n, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _p), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def dump(self, fh) -> None:
        for name, start, end, parent in self.spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                )
                + "\n"
            )


class NoTracer:
    """Stands in for a :class:`Tracer` in untraced runs."""

    @staticmethod
    def span(_name: str):
        return contextlib.nullcontext()
