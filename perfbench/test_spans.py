"""Tests of the span arithmetic, the percentile rule and the host-pace scaling.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (  # noqa: E402
    HostPace,
    Recorder,
    Span,
    beyond,
    highest_reportable,
    median,
    percentile,
    self_time,
    unit_metrics,
)


def _recorder(*spans: tuple) -> Recorder:
    """A recorder holding (name, start, end, parent) spans in order."""
    recorder = Recorder()
    for sid, (name, start, end, parent) in enumerate(spans):
        recorder.spans.append(Span(sid, name, start, end, parent))
    return recorder


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == 5.0
    assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == 3.0


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 10.0, [(0.0, 3.0), (8.0, 12.0)]) == 5.0
    assert self_time(0.0, 1.0, [(0.0, 1.0), (0.0, 1.0)]) == 0.0


def test_self_times_over_nested_spans():
    recorder = _recorder(
        ("des.run", 0.0, 10.0, None),
        ("policy.service.submit_transfers", 1.0, 5.0, 0),
        ("rules.fire_all", 2.0, 4.0, 1),
        ("policy.provenance", 4.0, 4.5, 1),
        ("policy.service.submit_transfers", 6.0, 7.0, 0),
    )
    times = recorder.self_times()
    assert times["des.run"] == 10.0 - 4.0 - 1.0
    assert times["policy.service.submit_transfers"] == (4.0 - 2.0 - 0.5) + 1.0
    assert times["rules.fire_all"] == 2.0
    assert times["policy.provenance"] == 0.5
    assert [s.sid for s in recorder.under("policy.provenance", "des.run")] == [3]


def test_recorded_spans_nest_per_thread():
    recorder = Recorder()
    with recorder.span("outer", rid="r1"):
        with recorder.span("inner"):
            pass
    seen = []

    def other():
        with recorder.span("elsewhere") as s:
            seen.append(s)

    with recorder.span("outer2"):
        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    outer, inner = recorder.named("outer")[0], recorder.named("inner")[0]
    assert inner.parent == outer.sid and inner.rid == "r1"
    assert seen[0].parent is None


def test_wrap_records_and_restores():
    class Layer:
        def work(self, batch):
            return len(batch)

    recorder = Recorder()
    original = Layer.__dict__["work"]
    with recorder.wrap(Layer, "work", "layer.work", items=lambda a, k: len(a[1]),
                       result=lambda v: {"done": v}):
        assert Layer().work([1, 2, 3]) == 3
    assert Layer.__dict__["work"] is original
    (span,) = recorder.named("layer.work")
    assert span.attrs == {"items": 3, "done": 3}


def test_ten_samples_beyond_rule():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert highest_reportable(1000) == 99.0
    assert highest_reportable(999) == 95.0
    assert highest_reportable(10_000) == 99.9
    assert highest_reportable(20) == 50.0
    assert highest_reportable(19) is None


def test_nearest_rank_percentile_and_median():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 99) == 99
    assert percentile(samples, 50) == 50
    assert percentile([7.0], 99) == 7.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_unit_metrics_scale_every_unit_to_the_nominal_pace():
    units = [
        {"kind": kind, "wall": float(w), "calls": 1, "items": 2, "latencies": [w / 2, w / 2],
         "scale": 0.5}
        for kind, walls in (("a", [4, 2, 6]), ("b", [10, 30, 20]))
        for w in walls
    ]
    metrics, samples = unit_metrics(units, kind=lambda u: u["kind"])
    assert samples == 12
    assert metrics["run_wall_s"] == 2.0 + 10.0
    assert metrics["items_per_s"] == 12 / 36.0
    assert metrics["req_per_s"] == 6 / 36.0
    assert metrics["latency_p50_ms"] == 1500.0
    assert metrics["latency_p99_ms"] == 7500.0


def test_unit_metrics_default_to_scale_one():
    units = [{"wall": w, "calls": 1, "items": 1, "latencies": [w]} for w in (3.0, 1.0, 2.0)]
    metrics, samples = unit_metrics(units)
    assert samples == 3
    assert metrics["run_wall_s"] == 2.0
    assert metrics["items_per_s"] == 3 / 6.0


def test_host_pace_scales_by_the_probes_during_a_unit():
    pace = HostPace()
    ref = HostPace.REFERENCE_S
    pace.probes = [(0.5, ref), (1.0, 4 * ref), (1.1, 4 * ref), (1.2, ref), (1.3, 4 * ref),
                   (1.4, 4 * ref), (1.5, 4 * ref), (3.0, ref)]
    assert pace.scale(1.0, 1.5) == 0.25         # the median probe ran 4x slow
    # too short to hold MIN_PROBES probes: the last five before its end
    assert pace.scale(1.45, 1.6) == 0.25
    assert HostPace().scale(0.0, 1.0) == 1.0


def test_host_pace_probes_and_keeps_them_out_of_its_clock():
    pace = HostPace()
    pace.INTERVAL = 0.005
    with pace.running():
        t0, c0 = time.perf_counter(), pace.clock()
        while len(pace.probes) < 3:
            sum(range(1000))
        t1, c1 = time.perf_counter(), pace.clock()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert pace.spent > 0.0
    assert c1 - c0 < t1 - t0
