"""In-memory spans for the benchmark's runs of the pipeline.

A span has a name, a start, an end, the id of the span that encloses it
and the id of the run it belongs to.  Two kinds are recorded:

* phases (``Tracer.phase``) are the benchmark's own timers around the
  end-to-end metrics.  They are recorded in every run, traced or not,
  because the end-to-end metrics are read from them.
* layer spans (``Tracer.span``) sit around each call into a module of
  the package.  They are recorded only when tracing is on; otherwise
  ``span`` hands back a shared no-op context manager.

Spans stay in memory; the caller writes them out once, at the end.
Every clock reading is CLOCK_MONOTONIC, which is shared by all processes
on the machine, so a child process can start its root span at the
moment its parent launched it.
"""

import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


def now():
    """Seconds on the system-wide monotonic clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records nested spans of one run of the pipeline."""

    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []     # closed spans, in order of closing
        self._open = []     # stack of open spans
        self._next_id = 0

    def open(self, name, kind, start=None):
        span = {
            "run": self.run_id,
            "id": self._next_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "kind": kind,
            "start": now() if start is None else start,
            "end": None,
        }
        self._next_id += 1
        self._open.append(span)
        return span

    def close(self, span):
        if not self._open or self._open[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        span["end"] = now()
        self._open.pop()
        self.spans.append(span)

    @contextmanager
    def _scope(self, name, kind, start=None):
        span = self.open(name, kind, start)
        try:
            yield span
        finally:
            self.close(span)

    def phase(self, name, start=None):
        """A benchmark timer; recorded whether or not tracing is on."""
        return self._scope(name, "phase", start)

    def span(self, name):
        """A layer span around one call into the package."""
        if not self.enabled:
            return _NULL
        return self._scope(name, "layer")


def duration(span):
    return span["end"] - span["start"]


def children(spans):
    """Map from span id to the list of its direct children."""
    out = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]].append(s)
    return out


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    The pipeline runs on one thread, so siblings never overlap and the
    covered time is the sum of the children's durations.
    """
    kids = children(spans)
    return {s["id"]: duration(s) - sum(duration(c) for c in kids[s["id"]])
            for s in spans}


def total(spans, *names):
    """Summed duration of every span with one of the given names."""
    return sum(duration(s) for s in spans if s["name"] in names)


def durations(spans, name):
    """Durations of the spans with this name, in the order they ran."""
    return [duration(s) for s in spans if s["name"] == name]


def coverage(spans, phase):
    """Share of a phase's wall time covered by its direct child spans."""
    kids = children(spans)
    wall = covered = 0.0
    for s in spans:
        if s["kind"] == "phase" and s["name"] == phase:
            wall += duration(s)
            covered += sum(duration(c) for c in kids[s["id"]])
    return covered / wall
