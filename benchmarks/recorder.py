"""Operation accounting and optional spans around calls into walkstop.

Every call the benchmark makes into a walkstop public function goes
through `Recorder.call`, which counts it as attempted (and as failed when
it raises).  With tracing on, each call also records a span: name, start,
end and parent, plus work counts computed from its output after the span
closes.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracing = False
        self.spans: list[dict] = []
        self._parents: list[int] = []

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Call fn(*args, **kwargs) as one operation named `name`.

        `counts(output)` returns the work done ({"trials": .., "steps": ..});
        it is evaluated only when tracing, after the span has closed.
        Returns None when the call raised.
        """
        self.attempted += 1
        start = time.perf_counter() if self.tracing else 0.0
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted; the run goes on
            self.fail(name, repr(exc))
            out = None
        if self.tracing:
            end = time.perf_counter()
            self._record(name, start, end, counts(out) if counts and out is not None else {})
        return out

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {reason}")

    @contextmanager
    def span(self, name: str):
        """A parent span (a round); a no-op when tracing is off."""
        if not self.tracing:
            yield
            return
        start = time.perf_counter()
        sid = len(self.spans)
        self.spans.append(None)  # reserved so children can name it as parent
        self._parents.append(sid)
        try:
            yield
        finally:
            self._parents.pop()
            self.spans[sid] = self._span(sid, name, start, time.perf_counter(), {})

    def _record(self, name: str, start: float, end: float, counts: dict) -> None:
        self.spans.append(self._span(len(self.spans), name, start, end, counts))

    def _span(self, sid: int, name: str, start: float, end: float, counts: dict) -> dict:
        parent = self._parents[-1] if self._parents else None
        return {"id": sid, "name": name, "parent": parent, "start": start, "end": end, **counts}

    def write_spans(self, path, stamp: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stamp": stamp, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> list[dict]:
    """Each span with `self_s`: its duration minus the time its children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [{**s, "self_s": s["end"] - s["start"] - child[s["id"]]} for s in spans]


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Totals per span name: calls, self seconds, and summed work counts."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s in self_times(spans):
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["self_s"] += s["self_s"]
        for key in ("trials", "steps", "points", "sweeps"):
            agg[key] += s.get(key, 0)
    return out
