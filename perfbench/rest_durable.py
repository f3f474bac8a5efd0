"""rest_durable: the served, durable deployment under two closed-loop clients.

``repro serve --shards 2 --journal-root <dir>`` runs as a subprocess with
every other flag at its default.  Two keep-alive HTTP clients (one per
tenant, each registered with a stream cap) run a closed loop, as PTT
callers that wait for each reply do.  One unit of work is one workflow
lifetime: bind the workflow to the tenant, submit a 4-file transfer
batch over 8 source sites, read one decision back through
``/policy/explain/<tid>``, ask ``/policy/staging`` about a file, complete
the transfers, submit and complete their cleanups, and unregister.

The seed picks file names, sizes and source sites; every lifetime makes
the same eight requests.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Recorder, median, percentile

SHARDS = 2
CLIENTS = 2
FILES_PER_BATCH = 4
SOURCE_SITES = 8
TENANT_STREAM_CAP = 64
SETUP_REPEATS = 5
BANNER = re.compile(r"\((?P<policy>[^,]+), (?P<engine>\S+) engine, (?P<frontend>\S+) frontend, "
                    r"(?P<flavor>[^)]+)\) listening on (?P<url>http://\S+)")
ROUTES = {
    "/policy/transfers": "transfers",
    "/policy/transfers/complete": "transfers_complete",
    "/policy/cleanups": "cleanups",
    "/policy/cleanups/complete": "cleanups_complete",
    "/policy/workflows/unregister": "workflows_unregister",
    "/policy/tenants/bind": "tenants_bind",
    "/policy/staging": "staging",
}


class Server:
    """One ``repro serve`` subprocess and its journal directory."""

    def __init__(self, root: Path, journal: Path):
        self.journal = journal
        shutil.rmtree(journal, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--shards", str(SHARDS), "--journal-root", str(journal)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = BANNER.search(line)
            if match is None:
                raise RuntimeError(f"unexpected server banner: {line!r}")
            self.banner = match.groupdict()
            self.host, port = match["url"][len("http://"):].rsplit(":", 1)
            self.port = int(port)
            self._await_status()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_status(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = Client(self).call("GET", "/policy/status")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not answer /policy/status")
            time.sleep(0.01)

    def metrics(self) -> list[tuple[str, dict, float]]:
        status, body = Client(self).call("GET", "/policy/metrics", raw=True)
        if status != 200:
            raise RuntimeError(f"/policy/metrics answered {status}")
        return parse_prometheus(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()
        shutil.rmtree(self.journal, ignore_errors=True)


class Client:
    """One keep-alive connection; every call returns (status, document)."""

    def __init__(self, server: Server):
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        self.request_id = None

    def call(self, method: str, path: str, doc=None, raw: bool = False):
        body = None if doc is None else json.dumps(doc).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body, headers)
        resp = self.conn.getresponse()
        data = resp.read()
        self.request_id = resp.getheader("X-Repro-Request-Id")
        if raw:
            return resp.status, data.decode()
        return resp.status, json.loads(data) if data else None

    def close(self) -> None:
        self.conn.close()


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        pairs = dict(re.findall(r'(\w+)="([^"]*)"', labels))
        samples.append((name, pairs, float(value)))
    return samples


def total(samples, name: str, **labels) -> float:
    return sum(v for n, ls, v in samples
               if n == name and all(ls.get(k) == want for k, want in labels.items()))


class Inputs:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.tag = f"{rng.randrange(1 << 32):08x}"
        self.sources = [f"gsiftp://site{k}-{self.tag}/data" for k in range(SOURCE_SITES)]
        self.rng_seed = rng.randrange(1 << 30)

    def batch(self, rng: random.Random, wf: str) -> list[dict]:
        specs = []
        for i in range(FILES_PER_BATCH):
            lfn = f"{wf}/f{i}"
            specs.append({
                "lfn": lfn,
                "src_url": f"{rng.choice(self.sources)}/{lfn}",
                "dst_url": f"gsiftp://obelix/scratch/{lfn}",
                "nbytes": float(rng.randrange(1, 100) * 1e6),
            })
        return specs


class Load:
    """Shared tallies of the closed-loop clients."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.by_route: dict[str, list[float]] = {}
        self.lifetimes: list[float] = []
        self.requests = 0
        self.items = 0
        self.completed = {"complete_transfers": 0, "complete_cleanups": 0}
        self.problems: list[str] = []
        self.failed_lifetimes = 0
        self.tids: set[int] = set()


def lifetime(client: Client, inputs: Inputs, rng, tenant: str, wf: str,
             load: Load, recorder) -> None:
    problems: list[str] = []
    latencies: list[tuple[str, float]] = []

    def call(method, path, doc=None):
        route = ROUTES.get(path, "explain")
        span = recorder.begin(f"policy.rest.{route}") if recorder else None
        t0 = time.perf_counter()
        status, reply = client.call(method, path, doc)
        latencies.append((route, time.perf_counter() - t0))
        if span is not None:
            span.rid = client.request_id
            recorder.end(span, status=status)
        if status != 200:
            problems.append(f"{method} {path} answered {status}: {reply}")
        return reply if status == 200 else None

    t0 = time.perf_counter()
    call("POST", "/policy/tenants/bind", {"workflow": wf, "tenant": tenant})
    specs = inputs.batch(rng, wf)
    reply = call("POST", "/policy/transfers", {"workflow": wf, "job": "stage", "transfers": specs})
    advice = reply["advice"] if reply else []
    tids = [a["tid"] for a in advice]
    approved = [a for a in advice if a["action"] == "transfer"]
    if len(advice) != len(specs):
        problems.append(f"{wf}: {len(advice)} advice for {len(specs)} files")
    if approved:
        tid = approved[0]["tid"]
        record = call("GET", f"/policy/explain/{tid}")
        if record is not None and record.get("tid") != tid:
            problems.append(f"explain/{tid} returned tid {record.get('tid')}")
    call("POST", "/policy/staging", {"lfn": specs[0]["lfn"], "url": specs[0]["dst_url"]})
    call("POST", "/policy/transfers/complete", {"done": [a["tid"] for a in approved]})
    files = [{"lfn": a["lfn"], "url": a["dst_url"]} for a in approved]
    reply = call("POST", "/policy/cleanups", {"workflow": wf, "job": "cleanup", "files": files})
    deletes = [c["cid"] for c in (reply["advice"] if reply else []) if c["action"] == "delete"]
    call("POST", "/policy/cleanups/complete", {"ids": deletes})
    call("POST", "/policy/workflows/unregister", {"workflow": wf})
    wall = time.perf_counter() - t0

    with load.lock:
        duplicate = load.tids.intersection(tids)
        if duplicate or len(set(tids)) != len(tids):
            problems.append(f"{wf}: transfer ids reused: {sorted(duplicate)}")
        load.tids.update(tids)
        load.lifetimes.append(wall)
        load.requests += len(latencies)
        load.items += len(specs) + len(files)
        load.completed["complete_transfers"] += len(approved)
        load.completed["complete_cleanups"] += len(deletes)
        for route, latency in latencies:
            load.latencies.append(latency)
            load.by_route.setdefault(route, []).append(latency)
        load.problems += problems
        load.failed_lifetimes += bool(problems)


def drive(server: Server, inputs: Inputs, seconds: float, phase: str,
          recorder=None, journal_watch=None) -> tuple[Load, float]:
    """Run the closed loop for ``seconds``; returns the tallies and wall time."""
    load = Load()
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        client = Client(server)
        rng = random.Random(inputs.rng_seed * 31 + index)
        tenant = f"tenant{index}"
        try:
            life = 0
            while not load.lifetimes or time.perf_counter() < deadline:
                wf = f"{phase}-c{index}-wf{life}"
                lifetime(client, inputs, rng, tenant, wf, load, recorder)
                if journal_watch is not None and index == 0:
                    journal_watch.poll()
                life += 1
        except BaseException as exc:  # reported by the caller; a thread must not die silently
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return load, wall


class JournalWatch:
    """Snapshots and WAL bytes seen in the shards' journal directories."""

    def __init__(self, journal: Path):
        self.dirs = [journal / f"shard-{i}" for i in range(SHARDS)]
        self.snapshots = 0
        self.wal_bytes = 0
        self._state = [self._stat(d) for d in self.dirs]

    @staticmethod
    def _stat(d: Path):
        try:
            snap = (d / "snapshot.json").stat()
            snap_id = (snap.st_ino, snap.st_mtime_ns)
        except FileNotFoundError:
            snap_id = None
        try:
            size = (d / "journal.jsonl").stat().st_size
        except FileNotFoundError:
            size = 0
        return snap_id, size

    def poll(self) -> None:
        for i, d in enumerate(self.dirs):
            snap_id, size = self._stat(d)
            old_snap, old_size = self._state[i]
            if snap_id != old_snap:
                self.snapshots += 1
                self.wal_bytes += size      # the WAL restarted at the snapshot
            else:
                self.wal_bytes += max(0, size - old_size)
            self._state[i] = (snap_id, size)


def start(root: Path, journal: Path) -> tuple[float, Server]:
    """Start the server SETUP_REPEATS times; keep the last one."""
    times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(root, journal)
        times.append(server.setup_s)
    return median(times), server


def register_tenants(server: Server) -> None:
    client = Client(server)
    try:
        for index in range(CLIENTS):
            status, reply = client.call("POST", "/policy/tenants", {
                "tenant": f"tenant{index}", "weight": float(index + 1),
                "max_streams": TENANT_STREAM_CAP,
            })
            if status != 200:
                raise RuntimeError(f"tenant registration answered {status}: {reply}")
    finally:
        client.close()


def run(seed: int, seconds: float, trace: bool, recorder: Recorder) -> dict:
    from run import OUT_DIR, ROOT, peak_rss_mb

    inputs = Inputs(seed)
    OUT_DIR.mkdir(exist_ok=True)
    journal = OUT_DIR / f"journal-{os.getpid()}"
    setup_s, server = start(ROOT, journal)
    try:
        register_tenants(server)
        if trace:
            untraced, untraced_wall = drive(server, inputs, seconds / 2, "u")
            before = server.metrics()
            watch = JournalWatch(journal)
            load, wall = drive(server, inputs, seconds / 2, "t", recorder, watch)
            after = server.metrics()
            layers = _layers(load, before, after, watch)
            layers["obs.tracing_overhead_pct"] = (
                (untraced.requests / untraced_wall) / (load.requests / wall) - 1.0
            ) * 100.0
            loads = [untraced, load]
        else:
            load, wall = drive(server, inputs, seconds, "u")
            loads = [load]
        rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    latencies = load.latencies
    out = {
        "attempted": sum(len(x.lifetimes) for x in loads),
        "failed": sum(x.failed_lifetimes for x in loads),
        "problems": [p for x in loads for p in x.problems],
        "samples": len(latencies),
        "stamp": {"rest_frontend": server.banner["frontend"],
                  "served_engine": server.banner["engine"],
                  "shards": server.banner["flavor"]},
        "summary": {"requests": load.requests, "lifetimes": len(load.lifetimes),
                    "clients": CLIENTS},
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "run_wall_s": median(load.lifetimes),
            "items_per_s": load.items / wall,
            "req_per_s": load.requests / wall,
            "latency_p50_ms": percentile(latencies, 50) * 1000.0,
            "latency_p99_ms": percentile(latencies, 99) * 1000.0,
        },
    }
    if trace:
        out["layers"] = layers
    return out


def _layers(load: Load, before, after, watch: JournalWatch) -> dict:
    def delta(name, **labels):
        return total(after, name, **labels) - total(before, name, **labels)

    units = len(load.lifetimes)
    out: dict = {}
    for route in (*ROUTES.values(), "explain"):
        samples = load.by_route.get(route)
        out[f"policy.rest.route_ms_p50.{route}"] = median(samples) * 1000.0 if samples else 0.0
    shard_seconds = 0.0
    for call in ("submit_transfers", "complete_transfers", "submit_cleanups",
                 "complete_cleanups"):
        calls = delta("repro_policy_calls_total", call=call)
        busy = delta("repro_policy_call_seconds_sum", call=call)
        shard_seconds += busy
        out[f"policy.service.{call}.calls"] = calls / units
        out[f"policy.service.{call}.busy_s"] = busy / units
        if call in load.completed:
            out[f"policy.service.{call}.items_per_call"] = (
                load.completed[call] / calls if calls else 0.0
            )
    batches = delta("repro_policy_batch_size_count", kind="transfers")
    out["policy.service.submit_transfers.items_per_call"] = (
        delta("repro_policy_batch_size_sum", kind="transfers") / batches if batches else 0.0
    )
    batches = delta("repro_policy_batch_size_count", kind="cleanups")
    out["policy.service.submit_cleanups.items_per_call"] = (
        delta("repro_policy_batch_size_sum", kind="cleanups") / batches if batches else 0.0
    )
    out["rules.firings"] = delta("repro_policy_rule_firings_total") / units
    out["policy.rest.overhead_ms_mean"] = (
        (sum(load.latencies) - shard_seconds) / load.requests * 1000.0
    )
    # The router counts sub-batches for the two submit calls only.
    requests = (delta("repro_policy_router_requests_total", call="submit_transfers")
                + delta("repro_policy_router_requests_total", call="submit_cleanups"))
    out["policy.sharding.dispatch_per_request"] = (
        delta("repro_policy_router_shard_dispatch_total") / requests if requests else 0.0
    )
    out["policy.journal.commits"] = delta("repro_policy_journal_commits_total") / units
    out["policy.journal.commit_busy_s"] = (
        delta("repro_policy_journal_commit_seconds_sum") / units
    )
    watch.poll()
    out["policy.journal.snapshots"] = watch.snapshots / units
    out["policy.journal.wal_bytes"] = watch.wal_bytes / units
    return out
