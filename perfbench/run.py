#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload montage_ensemble --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and drives the program in
``src/`` through its public entry points with default settings.  The
seed only generates the workload's inputs.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` records spans around each layer's
entry points and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("montage_ensemble", "bulk_stage", "rest_durable")
#: Measured and printed on every run, but not gated: on every workload they
#: carry the same wall time as ``items_per_s`` with another numerator.
PRINTED_ONLY = {"run_wall_s": "s", "req_per_s": "req/s"}


def peak_rss_mb(pid="self") -> float:
    """The process's peak resident set size (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def defaults_stamp() -> dict:
    """The defaults a result ran under, so a flipped default shows as such."""
    from repro.experiments import ExperimentConfig
    from repro.policy import PolicyService

    return {
        "rule_engine": inspect.signature(PolicyService).parameters["engine"].default,
        "experiment_engine": ExperimentConfig().engine,
        "experiment_shards": ExperimentConfig().shards,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Recorder, highest_reportable

    recorder = Recorder()
    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, args.seconds, bool(args.trace), recorder)

    stamp = defaults_stamp()
    stamp.update(outcome.get("stamp", {}))
    metrics = dict(outcome["metrics"])
    metrics.setdefault("peak_rss_mb", peak_rss_mb())
    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: float(outcome["layers"].get(m["name"], 0.0)) for m in wanted}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                    "defaults": stamp})
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: float(metrics[m["name"]]) for m in wanted}

    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("defaults " + json.dumps(stamp, sort_keys=True))
    for key, value in outcome.get("summary", {}).items():
        print(f"  {key} = {value}")
    print(f"  error_rate = {failed / attempted:.6g} failed/attempted "
          f"({failed} of {attempted})")
    tail = highest_reportable(outcome["samples"])
    print(f"  latency samples = {outcome['samples']} "
          f"(highest percentile with >= 10 samples beyond it: p{tail})")
    for problem in outcome["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    if not args.trace:
        for name, unit in PRINTED_ONLY.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
