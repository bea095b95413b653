"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the engine's layers by wrapping
the names those layers call (``patch``), from the benchmark's own
files; the engine is not modified.  Each span has a name, start, end,
parent and run id.  A layer's self time is its spans' duration minus
the time covered by their direct child spans.  Single-threaded.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, args)`` adds to counters."""
        def traced(*args, **kw):
            with self.span(name):
                out = fn(*args, **kw)
            if count is not None:
                count(out, args)
            return out
        return traced

    def wrap_iter(self, name: str, fn, count=None):
        """Generator function ``fn``: every ``next()`` runs in a span, so
        the lazy work lands in this layer, not in the consumer's."""
        def traced(*args, **kw):
            it = iter(fn(*args, **kw))
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                if count is not None:
                    count(item, args)
                yield item
        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, t0, t1, _p), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return dict(out)

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id,
                       "spans": [{"name": n, "start": a, "end": b,
                                  "parent": p}
                                 for n, a, b, p in self.spans],
                       "counts": dict(self.counts)}, f)


@contextlib.contextmanager
def patch(obj, attr: str, value):
    """Temporarily replace ``obj.attr``."""
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)
