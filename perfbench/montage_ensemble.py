"""montage_ensemble: a multi-tenant ensemble of augmented Montage runs.

Six augmented Montage workflows (20 images, one 10 MB extra file per
staging job) run under the default Pegasus configuration through
``run_tenant_ensemble``: three tenants weighted 1:2:4, two workflows
each, pairs of workflows reading the same input set, two admission slots
for six workflows, and a staged-data catalog whose site capacity binds
so that eviction fires.  One unit of work is one whole ensemble run.
Latency is taken per advice item, transfer and cleanup alike: both
are jobs on the workflow's path.

The seed picks the testbed seed (compute runtimes and the other
simulated randomness).  Tenants, input sharing and submission order are
fixed: letting the seed reorder them changes the number of policy calls
by up to a fifth, which would swamp the measurement.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from spans import HostPace, Recorder, median, overhead_pct, unit_metrics

N_IMAGES = 20
EXTRA_MB = 10.0
SITE_CAPACITY = 4e8          # bytes; binds for this ensemble, so eviction fires
TENANTS = (("t1", 1.0), ("t2", 2.0), ("t4", 4.0))
WORKFLOWS_PER_TENANT = 2
ADMISSION_SLOTS = 2


def make_inputs(seed: int):
    """The ensemble's generated inputs: config, tenants and submissions."""
    from repro.datacatalog.model import CatalogConfig
    from repro.experiments import ExperimentConfig
    from repro.workflow.montage import MB, MontageConfig, augmented_montage

    owners = [t for _ in range(WORKFLOWS_PER_TENANT) for t, _ in TENANTS]
    submissions = []
    for k, tenant in enumerate(owners):
        dataset = f"set{k // 2}/"   # consecutive pairs read the same inputs
        wf = augmented_montage(
            EXTRA_MB * MB,
            MontageConfig(n_images=N_IMAGES, name=f"{tenant}-wf{k}", lfn_prefix=dataset),
        )
        submissions.append((tenant, wf))
    cfg = ExperimentConfig(
        extra_file_mb=EXTRA_MB,
        n_images=N_IMAGES,
        catalog=CatalogConfig(default_capacity=SITE_CAPACITY),
        seed=random.Random(seed).randrange(1 << 30),
    )
    tenants = [{"tenant": t, "weight": w} for t, w in TENANTS]
    return cfg, tenants, submissions


class _Capture:
    """Counts the ensemble's advice items, times its advice calls, and
    notes each workflow's admission wait.

    ``run_tenant_ensemble`` builds its client through the runner's
    ``build_policy_client``; the capture wraps that function so it can
    time the submit calls on the built service instance and read the
    client's counters afterwards, and wraps ``AdmissionController.submit``
    to note when each workflow was queued and when its starter ran.
    """

    def __init__(self, pace: HostPace):
        self.pace = pace
        self.client = None
        self.item_latencies: list[float] = []
        self.items = 0
        self.admission_wait = 0.0

    @contextmanager
    def installed(self):
        from repro.experiments import runner
        from repro.tenancy.admission import AdmissionController

        original = runner.build_policy_client
        original_submit = AdmissionController.submit
        capture = self

        def submit(controller, tenant, name, starter, est_bytes=0.0):
            submitted = controller.env.now

            def timed_starter(sub):
                capture.admission_wait += controller.env.now - submitted
                return starter(sub)

            return original_submit(controller, tenant, name, timed_starter, est_bytes)

        def build(*args, **kwargs):
            client = original(*args, **kwargs)
            self.client = client
            service = client.service
            service.submit_transfers = self._timed(service.submit_transfers)
            service.submit_cleanups = self._timed(service.submit_cleanups)
            return client

        runner.build_policy_client = build
        AdmissionController.submit = submit
        try:
            yield self
        finally:
            runner.build_policy_client = original
            AdmissionController.submit = original_submit

    def _timed(self, call):
        def timed(workflow, job, batch, **kwargs):
            batch = list(batch)
            t0 = self.pace.clock()
            advice = call(workflow, job, batch, **kwargs)
            self.item_latencies.extend([self.pace.clock() - t0] * len(batch))
            self.items += len(batch)
            return advice

        return timed


def _run_once(seed: int, capture: _Capture):
    from repro.experiments import run_tenant_ensemble
    from repro.tenancy import AdmissionConfig

    cfg, tenants, submissions = make_inputs(seed)
    t0 = capture.pace.clock()
    with capture.installed():
        result = run_tenant_ensemble(
            cfg, tenants=tenants, submissions=submissions,
            admission=AdmissionConfig(max_concurrent=ADMISSION_SLOTS),
        )
    return result, capture.pace.clock() - t0


def _check(result, reference) -> list[str]:
    """Output checks for one ensemble; returns the failures found."""
    from repro.policy.provenance import decision_digest

    problems = []
    if len(result.metrics) != len(TENANTS) * WORKFLOWS_PER_TENANT:
        problems.append(f"{len(result.metrics)} workflows ran")
    problems += [f"workflow {m.workflow_id} failed" for m in result.metrics if not m.success]
    bad = sum(1 for r in result.decisions if decision_digest(r) != r["digest"])
    if bad or not result.decisions:
        problems.append(f"{bad} of {len(result.decisions)} decision digests do not verify")
    witness = _witness(result)
    if reference is not None and witness != reference:
        problems.append(f"ensemble did not repeat: {witness} != {reference}")
    return problems


def _witness(result):
    return (
        tuple(result.admission_order),
        max(m.makespan for m in result.metrics),
        sum(m.bytes_staged for m in result.metrics),
    )


def setup(seed: int, repeats: int = 5) -> float:
    """Median time for a fresh interpreter to import the program and make the inputs."""
    here = Path(__file__).resolve().parent
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import montage_ensemble, repro.experiments; "
        "montage_ensemble.make_inputs(int(sys.argv[3]))"
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(here), str(here.parent / "src"), str(seed)],
            check=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return median(times)


def run(seed: int, seconds: float, trace: bool, recorder: Recorder) -> dict:
    from layers import traced

    setup_s = setup(seed)
    units, traced_units, results = [], [], []
    problems: list[str] = []
    reference = None
    failed = 0
    pace = HostPace()
    t_start = time.perf_counter()
    with pace.running():
        while (not units or (trace and not traced_units)
               or time.perf_counter() - t_start < seconds):
            capture = _Capture(pace)
            tracing = trace and (len(units) + len(traced_units)) % 2 == 1
            gc.collect()
            start = time.perf_counter()
            if tracing:
                with traced(recorder):
                    result, wall = _run_once(seed, capture)
                results.append((result, capture))
            else:
                result, wall = _run_once(seed, capture)
            (traced_units if tracing else units).append(
                {"wall": wall, "calls": capture.client.calls, "items": capture.items,
                 "latencies": capture.item_latencies,
                 "scale": pace.scale(start, time.perf_counter())})
            found = _check(result, reference)
            if reference is None:
                reference = _witness(result)
            problems += found
            failed += bool(found)
            result = None    # not alive while the next ensemble runs
    metrics, samples = unit_metrics(units)
    makespan, nbytes = reference[1], reference[2]
    out = {
        "attempted": len(units) + len(traced_units),
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "summary": {"makespan_s": f"{makespan:.6g} sim_s",
                    "bytes_staged_gb": f"{nbytes / 1e9:.6g} GB",
                    "admission_order": list(reference[0]),
                    "run_wall_s_unscaled": f"{median(u['wall'] for u in units):.6g} s",
                    "host_scale_median": f"{median(u['scale'] for u in units):.4g}"},
        "metrics": {"setup_s": setup_s, **metrics},
    }
    if trace:
        out["layers"] = _layers(recorder, results)
        out["layers"]["obs.tracing_overhead_pct"] = overhead_pct(traced_units, units)
        out["layers"].update({"sim.makespan_s": makespan, "sim.bytes_staged_gb": nbytes / 1e9})
    return out


def _layers(recorder: Recorder, results) -> dict:
    from layers import service_metrics

    units = len(results)
    out = service_metrics(recorder, units)
    self_times = recorder.self_times()
    out["planner.plans"] = len(recorder.named("planner.plan")) / units
    out["planner.busy_s"] = recorder.busy("planner.plan") / units
    out["des.events"] = recorder.counts.get("des.events", 0) / units
    out["des.self_s"] = self_times.get("des.run", 0.0) / units
    out["net.start_transfer_calls"] = len(recorder.named("net.start_transfer")) / units
    out["net.busy_s"] = recorder.busy("net.start_transfer") / units
    out["engine.retries"] = recorder.counts.get("engine.retries", 0) / units

    totals = {k: 0.0 for k in ("calls", "sim", "executed", "skipped", "waited",
                               "hits", "selected", "evictions", "submitted", "wait")}
    for result, capture in results:
        client = capture.client
        totals["calls"] += client.calls
        totals["sim"] += client.time_in_calls
        for m in result.metrics:
            totals["executed"] += m.transfers_executed
            totals["skipped"] += m.transfers_skipped
            totals["waited"] += m.transfers_waited
        family = "repro_policy_catalog_events_total"
        events = client.service.snapshot()["metrics"][family]
        totals["hits"] += events[f'{family}{{event="hits"}}']
        totals["selected"] += events[f'{family}{{event="selected"}}']
        totals["evictions"] += events[f'{family}{{event="evictions"}}']
        totals["submitted"] += client.service.stats["transfers_submitted"]
        totals["wait"] += capture.admission_wait
    out["policy.client.calls"] = totals["calls"] / units
    out["policy.client.sim_overhead_s"] = totals["sim"] / units
    out["engine.executed"] = totals["executed"] / units
    out["engine.skipped"] = totals["skipped"] / units
    out["engine.waited"] = totals["waited"] / units
    out["datacatalog.hits"] = totals["hits"] / units
    out["datacatalog.selected"] = totals["selected"] / units
    out["datacatalog.evictions"] = totals["evictions"] / units
    out["datacatalog.hit_ratio"] = (
        totals["hits"] / totals["submitted"] if totals["submitted"] else 0.0
    )
    out["tenancy.admission_wait_sim_s"] = totals["wait"] / units
    return out
