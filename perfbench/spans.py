"""In-memory span recorder and the statistics the benchmark reports.

A span covers one call into a layer: name, start, end, the span that
was open when it began (its parent, per thread) and a request id shared
by every span of one request.  Spans stay in memory and are written
once, at exit.  A layer's *self time* is a span's duration minus the
part of its interval that its child spans cover.

Spans are recorded around calls into each module's public functions by
:meth:`Recorder.wrap`, which replaces an attribute of a class or module
for the duration of a ``with`` block; the program itself is not changed.
"""

from __future__ import annotations

import functools
import json
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[str] = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects spans and counters; one per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent=None if parent is None else parent.sid,
                        rid=rid if rid is not None or parent is None else parent.rid,
                        attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None, **attrs):
        s = self.begin(name, rid, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------------
    @contextmanager
    def wrap(self, owner, attr: str, name: str, items=None, result=None):
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``items(args, kwargs)`` stores an item count on the span;
        ``result(value)`` stores attributes derived from the return value.
        The original attribute is restored when the block exits.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if items is not None:
                span.attrs["items"] = items(args, kwargs)
            try:
                value = original(*args, **kwargs)
            finally:
                self.end(span)
            if result is not None:
                span.attrs.update(result(value))
            return value

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    @contextmanager
    def tally(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without a span (for hot calls)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            kids = [(c.start, c.end) for c in children.get(s.sid, ())]
            totals[s.name] = totals.get(s.name, 0.0) + self_time(s.start, s.end, kids)
        return totals

    def under(self, name: str, ancestor: str) -> list[Span]:
        """Spans called ``name`` that have an ancestor called ``ancestor``."""
        by_id = {s.sid: s for s in self.spans}
        found = []
        for s in self.named(name):
            parent = s.parent
            while parent is not None:
                p = by_id[parent]
                if p.name == ancestor:
                    found.append(s)
                    break
                parent = p.parent
        return found

    def write(self, path, header: dict) -> None:
        doc = {
            "header": header,
            "counts": self.counts,
            "spans": [
                {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "rid": s.rid, **s.attrs}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the union of child intervals clipped to it.

    Children may overlap each other (threads) or spill past the parent;
    each instant of the parent's interval is subtracted at most once.
    """
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


# -- statistics -------------------------------------------------------------------
def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples (exact for q in tenths)."""
    tenths = round(q * 10)
    return max(1, -(-tenths * n // 1000))


def median(samples) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class HostPace:
    """The host's speed, probed while units of work run.

    On a shared host neighbours make CPU-bound work up to twice as slow,
    for seconds to tens of seconds at a time.  While :meth:`running`, a
    timer signal interrupts the program every ``INTERVAL`` seconds and
    times a fixed pure-Python arithmetic loop, which allocates nothing
    and so does not depend on the program's heap.  :meth:`clock` is a
    ``perf_counter`` that leaves out the time spent in probes, so the
    program's timings do not include them.  :meth:`scale` gives the
    factor that brings a unit's times to the nominal host, on which the
    probe takes ``REFERENCE_S``: ``REFERENCE_S / p``, with ``p`` the
    median probe during the unit.  On 2-vCPU KVM guests the log of a
    unit's time follows the log of this probe's with a slope of 1.06 to
    1.13 and a correlation of 0.91 to 0.96, for both in-process
    workloads; a loop that allocates (dict insertions) slows down up to
    twice as much as the program and tracks it worse.
    """

    INTERVAL = 0.05
    REFERENCE_S = 0.0004
    MIN_PROBES = 5
    PROBE_STEPS = 6000

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []   # (start, seconds)
        self.spent = 0.0                               # seconds in the handler

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(self.PROBE_STEPS):
            total += i * i % 7
        t1 = time.perf_counter()
        self.probes.append((t0, t1 - t0))
        self.spent += time.perf_counter() - t0

    @contextmanager
    def running(self):
        """Probe every ``INTERVAL`` seconds until the block exits."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> float:
        """Seconds, as ``perf_counter``, less the time spent in probes."""
        return time.perf_counter() - self.spent

    def scale(self, start: float, end: float) -> float:
        """The factor for a unit that ran from ``start`` to ``end`` (``perf_counter``).

        Uses the probes taken during the unit, or the last ``MIN_PROBES``
        before its end when the unit was too short to hold that many.
        """
        during = [d for t, d in self.probes if start <= t <= end]
        if len(during) < self.MIN_PROBES:
            during = [d for t, d in self.probes if t <= end][-self.MIN_PROBES:]
        if not during:
            return 1.0
        return self.REFERENCE_S / median(during)


def unit_metrics(units: list, kind=lambda unit: None) -> tuple[dict, int]:
    """End-to-end metrics over every unit of a run, at the nominal host pace.

    Each unit is a dict with its ``wall`` time, policy ``calls``, advice
    ``items``, ``latencies`` (seconds, one per timed advice item) and the
    ``scale`` :class:`HostPace` gave it (1 when absent); its wall time
    and latencies are multiplied by its scale.  Units of one ``kind`` do
    the same work.  ``run_wall_s`` adds up the median unit of every kind:
    one unit of work made of one unit of each kind.  Returns the metrics
    and the latency sample count.
    """
    groups: dict = {}
    for unit in units:
        groups.setdefault(kind(unit), []).append(unit)
    wall = sum(u["wall"] * u.get("scale", 1.0) for u in units)
    latencies = [x * u.get("scale", 1.0) for u in units for x in u["latencies"]]
    return {
        "run_wall_s": sum(median(u["wall"] * u.get("scale", 1.0) for u in group)
                          for group in groups.values()),
        "items_per_s": sum(u["items"] for u in units) / wall,
        "req_per_s": sum(u["calls"] for u in units) / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 99) * 1000.0,
    }, len(latencies)


def overhead_pct(traced: list, untraced: list, kind=lambda unit: None) -> float:
    """Traced against untraced ``run_wall_s``, each as :func:`unit_metrics` gives it."""
    with_spans = unit_metrics(traced, kind)[0]["run_wall_s"]
    without = unit_metrics(untraced, kind)[0]["run_wall_s"]
    return (with_spans / without - 1.0) * 100.0


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - _rank(n, q)


def highest_reportable(n: int, ladder=(50.0, 90.0, 95.0, 99.0, 99.9)) -> Optional[float]:
    """The highest percentile of ``ladder`` with at least ten samples beyond it."""
    best = None
    for q in ladder:
        if beyond(n, q) >= 10:
            best = q
    return best
