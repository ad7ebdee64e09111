"""In-memory spans and counters for the traced run.

A span is (id, name, start, end, parent). Spans are opened only by the
benchmark's own code, around its calls into a layer of `fcn`; nothing in
`fcn` itself is instrumented. `Tracer.off()` gives a tracer whose spans
cost one method call and record nothing, so untraced and traced passes can
share their code. The tracer also adds up its own cost: the bookkeeping of
every span plus the calls that only a traced pass makes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, on: bool = True):
        self.on = on
        self.spans = []  # (id, name, start, end, parent id or None)
        self.counts = {}
        self.overhead_s = 0.0  # time a traced pass spends only on tracing
        self._stack = []

    @classmethod
    def off(cls):
        return cls(on=False)

    def span(self, name: str, extra: bool = False):
        """A span around a call into a layer. `extra` marks a call that only
        the traced pass makes, so its whole duration counts as overhead."""
        return self._span(name, extra) if self.on else nullcontext()

    @contextmanager
    def _span(self, name, extra):
        entered = perf_counter()
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # keeps ids in opening order
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)
            booked = (end - start) if extra else 0.0
            self.overhead_s += booked + (start - entered) + (perf_counter() - end)

    def count(self, name: str, n: int):
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        """Summed duration in seconds of every span called `name`."""
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time its children cover."""
        out = {}
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for sid, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def dump(self, path):
        rows = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"spans": rows, "counts": self.counts, "self_s": self.self_times()},
                indent=1,
            )
        )
