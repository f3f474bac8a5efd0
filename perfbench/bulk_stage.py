"""bulk_stage: the advice path at scale, by direct PolicyService calls.

A default-configured service is pre-loaded (through ``reconcile_staged``)
with 10,000 staged files.  Workflow lifetimes then run back to back: each
submits one transfer batch, completes the approved transfers, submits
and completes their cleanups, and unregisters.  Batch sizes range over
400 -> 25 (16x) and a quarter of every batch names an already-staged
file, which the service must skip.  One unit of work is one sweep: four
400-item lifetimes, each followed by one of the smaller sizes.  Each
lifetime is timed as a unit of its batch size.  The latency percentiles
are taken over transfer requests, so they fall on the 400-item batches;
with four of them per sweep (81% of the requests) the median lands
inside the spread of their timings, not on the fastest one.

The seed picks the pre-staged file names, which of them each batch
repeats, source sites and file sizes; the amount of work does not
depend on it.
"""

from __future__ import annotations

import gc
import random
import time

from spans import HostPace, Recorder, median, overhead_pct, unit_metrics

PRESTAGED = 10_000
# 16x from largest to smallest.  A call has a fixed cost of some 50 ms, so
# the per-item cost only grows with batch size above about 50 items.
BATCH_SIZES = (400, 200, 100, 50, 25)
SWEEP = (400, 25, 400, 50, 400, 100, 400, 200)
STAGED_SHARE = 4             # every 4th item of a batch is already staged
SOURCE_SITES = 8
DST = "gsiftp://obelix/scratch"


class Inputs:
    """The generated inputs: pre-staged files and one batch per size."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        tag = f"{rng.randrange(1 << 32):08x}"
        self.prestaged = [
            (f"pre-{tag}-{i}", f"{DST}/pre-{tag}-{i}", float(rng.randrange(1, 100) * 1e6))
            for i in range(PRESTAGED)
        ]
        self.sources = [f"gsiftp://site{k}-{tag}/data" for k in range(SOURCE_SITES)]
        self.sizes = [float(rng.randrange(1, 100) * 1e6) for _ in range(max(BATCH_SIZES))]
        self.repeats = {
            n: rng.sample(range(PRESTAGED), len(range(0, n, STAGED_SHARE)))
            for n in BATCH_SIZES
        }

    def batch(self, life: int, n: int) -> tuple[list[dict], set]:
        """Transfer specs for lifetime ``life`` of size ``n``, and the staged LFNs."""
        repeats = iter(self.repeats[n])
        specs, staged = [], set()
        for i in range(n):
            src = self.sources[i % SOURCE_SITES]
            if i % STAGED_SHARE == 0:
                lfn, dst, nbytes = self.prestaged[next(repeats)]
                staged.add(lfn)
            else:
                lfn = f"wf{life}/f{i}"
                dst, nbytes = f"{DST}/{lfn}", self.sizes[i]
            specs.append({"lfn": lfn, "src_url": f"{src}/{lfn}", "dst_url": dst,
                          "nbytes": nbytes})
        return specs, staged


def build_service(inputs: Inputs):
    """A default service holding the pre-staged files."""
    from repro.policy import PolicyConfig, PolicyService

    service = PolicyService(PolicyConfig())
    service.reconcile_staged("preload", inputs.prestaged)
    return service


def setup(inputs: Inputs, pace: HostPace, repeats: int = 9):
    """Median time to build a pre-loaded service, at the nominal host pace.

    Returns (seconds, service).  ``pace`` must be running.
    """
    times = []
    for _ in range(repeats):
        service = None           # freed before the next one is built
        gc.collect()
        start, t0 = time.perf_counter(), pace.clock()
        service = build_service(inputs)
        times.append((pace.clock() - t0) * pace.scale(start, time.perf_counter()))
    return median(times), service


class Sweep:
    """The lifetimes of one sweep, each a unit holding its own check failures."""

    def __init__(self, pace: HostPace):
        self.pace = pace
        self.units: list[dict] = []

    def timed(self, call, *args, items: int = 0, latency: bool = False, **kwargs):
        t0 = self.pace.clock()
        value = call(*args, **kwargs)
        elapsed = self.pace.clock() - t0
        unit = self.units[-1]
        unit["wall"] += elapsed
        unit["calls"] += 1
        unit["items"] += items
        if latency:
            unit["latencies"].extend([elapsed] * items)
        return value


def lifetime(service, inputs: Inputs, life: int, n: int, baseline: dict, sweep: Sweep):
    wf = f"wf{life}"
    specs, staged = inputs.batch(life, n)
    problems: list[str] = []
    sweep.units.append({"kind": n, "wall": 0.0, "calls": 0, "items": 0, "latencies": [],
                        "problems": problems})
    advice = sweep.timed(service.submit_transfers, wf, "stage", specs, items=n, latency=True)
    approved = [a for a in advice if a.action == "transfer"]
    skipped = [a for a in advice if a.action == "skip"]
    if sorted(a.tid for a in advice) != sorted({a.tid for a in advice}) or len(advice) != n:
        problems.append(f"{wf}: {len(advice)} advice for {n} items")
    if sorted(a.lfn for a in advice) != sorted(s["lfn"] for s in specs):
        problems.append(f"{wf}: advice does not cover the batch")
    if len(skipped) != len(staged) or {a.lfn for a in skipped} != staged:
        problems.append(f"{wf}: {len(skipped)} skipped, {len(staged)} pre-staged")
    sweep.timed(service.complete_transfers, done=[a.tid for a in approved])
    files = [(a.lfn, a.dst_url) for a in approved]
    cleanups = sweep.timed(service.submit_cleanups, wf, "cleanup", files, items=len(files))
    deletes = [c.cid for c in cleanups if c.action == "delete"]
    if len(deletes) != len(files):
        problems.append(f"{wf}: {len(deletes)} of {len(files)} cleanups approved")
    sweep.timed(service.complete_cleanups, deletes)
    sweep.timed(service.unregister_workflow, wf)
    census = service.memory.snapshot()
    if census != baseline:
        problems.append(f"{wf}: census {census} != baseline {baseline}")


def _batch_size(unit: dict) -> int:
    return unit["kind"]


def run(seed: int, seconds: float, trace: bool, recorder: Recorder) -> dict:
    from layers import service_metrics, traced

    inputs = Inputs(seed)
    units, traced_units = [], []
    life = sweeps = 0
    pace = HostPace()
    with pace.running():
        setup_s, service = setup(inputs, pace)
        baseline = service.memory.snapshot()
        t_start = time.perf_counter()
        while (not units or (trace and not traced_units)
               or time.perf_counter() - t_start < seconds):
            sweep = Sweep(pace)
            tracing = trace and sweeps % 2 == 1
            sweeps += 1
            for n in SWEEP:
                gc.collect()
                start = time.perf_counter()
                if tracing:
                    with traced(recorder):
                        lifetime(service, inputs, life, n, baseline, sweep)
                else:
                    lifetime(service, inputs, life, n, baseline, sweep)
                sweep.units[-1]["scale"] = pace.scale(start, time.perf_counter())
                life += 1
            (traced_units if tracing else units).extend(sweep.units)
    metrics, samples = unit_metrics(units, _batch_size)
    everything = units + traced_units
    out = {
        "attempted": len(everything),
        "failed": sum(bool(u["problems"]) for u in everything),
        "problems": [p for u in everything for p in u["problems"]],
        "samples": samples,
        "summary": {"prestaged_files": PRESTAGED, "sweep": list(SWEEP),
                    "run_wall_s_unscaled": "{:.6g} s".format(sum(
                        median(u["wall"] for u in units if u["kind"] == n) for n in BATCH_SIZES
                    )),
                    "host_scale_median": "{:.4g}".format(median(u["scale"] for u in units))},
        "metrics": {"setup_s": setup_s, **metrics},
    }
    if trace:
        traced_sweeps = len(traced_units) // len(SWEEP)
        out["layers"] = service_metrics(recorder, traced_sweeps, BATCH_SIZES)
        out["layers"]["obs.tracing_overhead_pct"] = overhead_pct(traced_units, units, _batch_size)
    return out
