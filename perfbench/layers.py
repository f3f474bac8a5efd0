"""Per-layer spans around the program's public entry points.

:func:`traced` installs a span (or, for calls too hot for a span, a
counter) around each layer boundary the in-process workloads cross, and
removes them on exit.  Layer names follow the program's modules.
:func:`service_metrics` turns the recorded spans into the per-layer
metrics of the policy service, its rule engine and its provenance.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

from spans import Recorder, median

#: Policy-service entry points whose spans the per-layer metrics report.
SERVICE_CALLS = (
    "submit_transfers", "complete_transfers", "submit_cleanups", "complete_cleanups",
)


def _batch_items(args, kwargs) -> int:
    # submit_*(self, workflow, job, items) -- the batch is the fourth argument
    batch = args[3] if len(args) > 3 else kwargs.get("transfers", kwargs.get("files", ()))
    return len(batch)


def _done_items(args, kwargs) -> int:
    # complete_transfers(self, done=(), failed=())
    done = args[1] if len(args) > 1 else kwargs.get("done", ())
    failed = args[2] if len(args) > 2 else kwargs.get("failed", ())
    return len(done) + len(failed)


def _id_items(args, kwargs) -> int:
    # complete_cleanups(self, ids)
    return len(args[1] if len(args) > 1 else kwargs.get("ids", ()))


@contextmanager
def traced(recorder: Recorder):
    """Record spans around every in-process layer boundary."""
    from repro.des.core import Environment
    from repro.engine.dagman import DAGMan
    from repro.net.flows import FlowNetwork
    from repro.planner.planner import Planner
    from repro.policy import provenance, service
    from repro.rules.engine import Session

    items = {
        "submit_transfers": _batch_items,
        "submit_cleanups": _batch_items,
        "complete_transfers": _done_items,
        "complete_cleanups": _id_items,
    }
    with ExitStack() as stack:
        for call in SERVICE_CALLS:
            stack.enter_context(recorder.wrap(
                service.PolicyService, call, f"policy.service.{call}", items=items[call]
            ))
        stack.enter_context(recorder.wrap(
            Session, "fire_all", "rules.fire_all",
            result=lambda fired: {"firings": fired},
        ))
        # Provenance helpers are wrapped where policy.service binds them.
        for name in ("attribute_firings", "attribute_firings_by_ref", "ledger_snapshot"):
            stack.enter_context(recorder.wrap(service, name, "policy.provenance"))
        stack.enter_context(recorder.wrap(provenance.DecisionLog, "add", "policy.provenance"))
        stack.enter_context(recorder.wrap(Planner, "plan", "planner.plan"))
        stack.enter_context(recorder.wrap(Environment, "run", "des.run"))
        stack.enter_context(recorder.tally(Environment, "step", "des.events"))
        stack.enter_context(recorder.wrap(FlowNetwork, "start_transfer", "net.start_transfer"))
        stack.enter_context(_dagman_retries(DAGMan, recorder))
        yield recorder


@contextmanager
def _dagman_retries(dagman_cls, recorder: Recorder):
    """Count job retries from each finished DAG run's job records."""
    original = dagman_cls.__dict__["run"]
    recorder.counts.setdefault("engine.retries", 0)

    def run(self, *args, **kwargs):
        result = yield from original(self, *args, **kwargs)
        for record in result.records.values():
            recorder.count("engine.retries", max(0, record.attempts - 1))
        return result

    dagman_cls.run = run
    try:
        yield
    finally:
        dagman_cls.run = original


def service_metrics(recorder: Recorder, units: int, batch_sizes=()) -> dict:
    """policy.service.*, rules.* and policy.provenance.* per unit of work.

    ``batch_sizes`` names the submit batch sizes that get their own
    ``ms_per_item.b<N>`` entry; the ratio compares the largest observed
    batch size with the smallest.
    """
    out: dict = {}
    items_total = 0
    for call in SERVICE_CALLS:
        spans = recorder.named(f"policy.service.{call}")
        items = sum(s.attrs.get("items", 0) for s in spans)
        out[f"policy.service.{call}.calls"] = len(spans) / units
        out[f"policy.service.{call}.busy_s"] = sum(s.end - s.start for s in spans) / units
        out[f"policy.service.{call}.items_per_call"] = items / len(spans) if spans else 0.0
        if call.startswith("submit"):
            items_total += items

    by_size: dict[int, list[float]] = {}
    for s in recorder.named("policy.service.submit_transfers"):
        n = s.attrs.get("items", 0)
        if n:
            by_size.setdefault(n, []).append((s.end - s.start) * 1000.0 / n)
    for n in batch_sizes:
        out[f"policy.service.submit_transfers.ms_per_item.b{n}"] = (
            median(by_size[n]) if n in by_size else 0.0
        )
    if by_size:
        out["policy.service.ms_per_item_ratio"] = (
            median(by_size[max(by_size)]) / median(by_size[min(by_size)])
        )

    fire = recorder.named("rules.fire_all")
    firings = sum(s.attrs.get("firings", 0) for s in fire)
    out["rules.fire_all_busy_s"] = sum(s.end - s.start for s in fire) / units
    out["rules.firings"] = firings / units
    out["rules.firings_per_item"] = firings / items_total if items_total else 0.0

    out["policy.provenance.busy_s"] = recorder.busy("policy.provenance") / units
    submit_busy = recorder.busy("policy.service.submit_transfers")
    in_submit = recorder.under("policy.provenance", "policy.service.submit_transfers")
    out["policy.provenance.share_of_submit"] = (
        sum(s.end - s.start for s in in_submit) / submit_busy if submit_busy else 0.0
    )
    return out
