"""fleet-mixed: served runs through a coordinator and one node.

The coordinator (``repro coordinator``) and one node (``repro serve
--coordinator``, one worker process) run as subprocesses, as a user
would start them.  Two client threads, one per core, drive them in a
closed loop: each submits its next request only after the previous one
has its result.  Cache hits are answered by the POST itself; a miss is
followed on its SSE stream to the terminal event and then fetched.

After the timed window every miss is replayed in this process with
``run_scenario`` and must equal the served result; every hit must equal
the served result of the pool request it repeats, itself replayed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench.inputs import FleetMix, FleetOp, fleet_mix
from perfbench.layers import OP_LAYER, Harvest, SpanLog, instrument
from perfbench.measure import (
    ReferenceSampler, median, peak_rss_mb, speed_factor, timing_summary,
)

CLIENTS = 2
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
JOB_TIMEOUT_S = 60.0
# Hits timed node-direct and through the coordinator, alternately, for
# the admit and route hops of a traced run.
ADMIT_PROBES = 60
TERMINAL_STATES = ("done", "failed", "cancelled", "expired")


class FleetError(RuntimeError):
    """The fleet could not be started or stopped."""


def _env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _wait_for_line(proc: subprocess.Popen, log_path: str, prefix: str,
                   deadline: float) -> str:
    """The first line of ``log_path`` starting with ``prefix``."""
    while time.monotonic() < deadline:
        with open(log_path) as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line
        if proc.poll() is not None:
            raise FleetError(f"{prefix!r} process exited early; see {log_path}")
        time.sleep(0.01)
    raise FleetError(f"no {prefix!r} line within {READY_TIMEOUT_S}s")


def _url_in(line: str) -> str:
    return next(word for word in line.split() if word.startswith("http://"))


class Fleet:
    """A coordinator and one registered node, as subprocesses."""

    def __init__(self, root: str, work_dir: str, cache_dir: str):
        self.root = root
        self.work_dir = work_dir
        self.cache_dir = cache_dir
        self.procs: List[subprocess.Popen] = []
        self.coord_url = ""
        self.node_url = ""

    def _spawn(self, name: str, args: List[str]) -> Tuple[subprocess.Popen, str]:
        log_path = os.path.join(self.work_dir, f"{name}.log")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=self.root, env=_env(self.root),
                stdout=log, stderr=subprocess.STDOUT,
            )
        self.procs.append(proc)
        return proc, log_path

    def start(self) -> float:
        """Start both processes; returns seconds until the node is routable."""
        from repro.serve.client import ServeClient

        t0 = time.perf_counter()
        deadline = time.monotonic() + READY_TIMEOUT_S
        coord, coord_log = self._spawn("coordinator", [
            "coordinator", "--port", "0", "--heartbeat-timeout", "30",
        ])
        self.coord_url = _url_in(_wait_for_line(
            coord, coord_log, "repro-fleet coordinator on", deadline
        ))
        node, node_log = self._spawn("node", [
            "serve", "--port", "0", "--workers", "1",
            "--coordinator", self.coord_url, "--node-id", "bench-node",
            "--cache-dir", self.cache_dir, "--heartbeat-every", "1",
            "--drain-grace", "5",
        ])
        self.node_url = _url_in(_wait_for_line(
            node, node_log, "repro-serve listening on", deadline
        ))
        coordinator = ServeClient(self.coord_url, timeout_s=5.0)
        while coordinator.healthz().get("nodes_alive", 0) < 1:
            if time.monotonic() > deadline:
                raise FleetError("node never registered with the coordinator")
            time.sleep(0.01)
        return time.perf_counter() - t0

    def server_rss_mb(self) -> float:
        return peak_rss_mb(proc.pid for proc in self.procs)

    def stop(self) -> None:
        """SIGTERM the node, then the coordinator; wait for both to exit."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()


@dataclass
class JobRecord:
    op: FleetOp
    ok: bool = False
    rejected: bool = False
    error: Optional[str] = None
    latency_s: float = 0.0
    done_at: float = 0.0
    cache_hit: Optional[bool] = None
    result: Optional[dict] = None
    spans: Dict[str, Optional[float]] = field(default_factory=dict)
    delivery_s: Optional[float] = None


def submit_and_wait(client, op: FleetOp) -> JobRecord:
    """One closed-loop operation: submit, then wait for the result."""
    from repro.serve.client import QueueFullError, ServeError

    record = JobRecord(op)
    t0 = time.perf_counter()
    try:
        doc = client.submit(op.request)
        if doc["state"] in ("queued", "running"):
            delivered = None
            for event, _ in client.events(doc["id"], timeout_s=JOB_TIMEOUT_S):
                if event in TERMINAL_STATES:
                    delivered = time.monotonic()
            doc = client.get(doc["id"])
            if delivered is not None and doc.get("finished_at") is not None:
                # Both clocks are CLOCK_MONOTONIC: the node stamps
                # finished_at with its event loop's time.monotonic().
                record.delivery_s = delivered - doc["finished_at"]
    except QueueFullError:
        record.rejected = True
        return record
    except (ServeError, OSError, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.done_at = time.perf_counter()
    record.latency_s = record.done_at - t0
    if doc.get("state") != "done":
        record.error = f"job ended {doc.get('state')}: {doc.get('error')}"
        return record
    record.ok = True
    record.cache_hit = bool(doc.get("cache_hit"))
    record.result = doc.get("result")
    record.spans = doc.get("spans") or {}
    return record


def run_window(coord_url: str, ops: List[FleetOp], seconds: float
               ) -> Tuple[List[JobRecord], float]:
    """``CLIENTS`` closed-loop clients until ``seconds`` have passed."""
    from repro.serve.client import ServeClient

    records: List[Optional[JobRecord]] = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()
    deadline = start + seconds

    def client_main() -> None:
        client = ServeClient(coord_url, timeout_s=JOB_TIMEOUT_S)
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                if index >= len(ops):
                    return
                cursor[0] += 1
            try:
                records[index] = submit_and_wait(client, ops[index])
            except Exception as exc:  # keep the loop going; count it failed
                records[index] = JobRecord(
                    ops[index], error=f"{type(exc).__name__}: {exc}"
                )

    threads = [threading.Thread(target=client_main) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
        if thread.is_alive():
            raise FleetError("a client thread did not finish")
    done = [r for r in records if r is not None]
    end = max((r.done_at for r in done if r.ok), default=time.perf_counter())
    return done, end - start


def admit_probe(fleet: Fleet, pool: List[dict]) -> Dict[str, List[float]]:
    """Time cached submissions node-direct and via the coordinator."""
    from repro.serve.client import ServeClient

    targets = {
        "node": ServeClient(fleet.node_url, timeout_s=JOB_TIMEOUT_S),
        "coordinator": ServeClient(fleet.coord_url, timeout_s=JOB_TIMEOUT_S),
    }
    times: Dict[str, List[float]] = {name: [] for name in targets}
    for i in range(ADMIT_PROBES):
        for name, client in targets.items():
            t0 = time.perf_counter()
            doc = client.submit(pool[i % len(pool)])
            times[name].append(time.perf_counter() - t0)
            if doc.get("state") != "done" or not doc.get("cache_hit"):
                raise FleetError(f"admit probe via {name} was not a cache hit")
    return times


def replay(request: dict) -> Tuple[dict, float]:
    """Run ``request`` in-process; returns (JSON-form result, simulated ms)."""
    from repro.devices.specs import get_device
    from repro.experiments.scenarios import run_scenario
    from repro.serve.spec import RunRequest

    spec = RunRequest.from_dict(request)
    result = run_scenario(
        spec.scenario, policy=spec.policy, spec=get_device(spec.device),
        bg_case=spec.bg_case, bg_count=spec.bg_count, seconds=spec.seconds,
        settle_s=spec.settle_s, seed=spec.seed,
    )
    return json.loads(json.dumps(result.to_dict())), result.system.sim.now


@dataclass
class FleetRun:
    setup_s: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    records: List[JobRecord] = field(default_factory=list)
    window_s: float = 0.0
    server_rss_mb: float = 0.0
    node_stats: dict = field(default_factory=dict)
    admit: Dict[str, List[float]] = field(default_factory=dict)
    miss_sim_ms: List[float] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)
    mix: Optional[FleetMix] = None
    pool_results: List[dict] = field(default_factory=list)
    traced_harvest: Optional[Harvest] = None
    traced_events: int = 0

    @property
    def hits(self) -> List[JobRecord]:
        return [r for r in self.records if r.ok and r.op.expect_hit]

    @property
    def misses(self) -> List[JobRecord]:
        return [r for r in self.records if r.ok and not r.op.expect_hit]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok) + len(self.wrong)


def session(root: str, seed: int, seconds: float, setups: int,
            probe_admit: bool) -> FleetRun:
    """Start the fleet ``setups`` times, keep the last, run the window."""
    from repro.serve.client import ServeClient

    mix = fleet_mix(seed)
    run = FleetRun()
    work_root = os.path.join(root, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="fleet-", dir=work_root)
    sampler = ReferenceSampler(root)
    try:
        for attempt in range(setups):
            fleet = Fleet(root, work_dir, os.path.join(work_dir, "cache"))
            try:
                run.setup_s.append(fleet.start())
            except BaseException:
                fleet.stop()
                raise
            if attempt < setups - 1:
                fleet.stop()
        try:
            warm = ServeClient(fleet.coord_url, timeout_s=JOB_TIMEOUT_S)
            pool_served = [submit_and_wait(warm, FleetOp(-1, req, False))
                           for req in mix.pool]
            for record in pool_served:
                if not record.ok:
                    raise FleetError(f"pool warm-up failed: {record.error}")
            run.records, run.window_s = run_window(
                fleet.coord_url, mix.ops, seconds
            )
            run.references = sampler.stop()
            if probe_admit:
                run.admit = admit_probe(fleet, mix.pool)
            run.node_stats = ServeClient(fleet.node_url).stats()
            run.server_rss_mb = fleet.server_rss_mb()
        finally:
            fleet.stop()
    finally:
        if not run.references:
            sampler.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    run.pool_results = [r.result for r in pool_served]
    run.mix = mix
    return run


def verify(run: FleetRun, log: Optional[SpanLog] = None) -> float:
    """Replay every pool request and miss; returns the replay wall time.

    With ``log`` the replays are traced (the per-layer pass), and only
    the wall time is returned: outputs were already checked untraced.
    """
    harvest = Harvest()
    traced = log is not None
    events = 0
    t0 = time.perf_counter()
    reference: Dict[str, dict] = {}
    with instrument(harvest, log):
        for request, served in zip(run.mix.pool, run.pool_results):
            key = json.dumps(request, sort_keys=True)
            expected, _ = _replay(request, log)
            events += harvest.finish()[1]
            if not traced and served != expected:
                run.wrong.append(f"pool {key}: served result differs")
            reference[key] = expected
        sim_ms = []
        for record in run.misses:
            expected, ms = _replay(record.op.request, log)
            events += harvest.finish()[1]
            sim_ms.append(ms)
            if not traced and record.result != expected:
                run.wrong.append(f"miss {record.op.index}: served result differs")
    elapsed = time.perf_counter() - t0
    if traced:
        run.traced_harvest = harvest
        run.traced_events = events
        return elapsed
    run.miss_sim_ms = sim_ms
    for record in run.hits:
        key = json.dumps(record.op.request, sort_keys=True)
        if record.result != reference[key]:
            run.wrong.append(f"hit {record.op.index}: served result differs")
    for record in run.records:
        if record.ok and record.cache_hit != record.op.expect_hit:
            run.wrong.append(
                f"op {record.op.index}: expected "
                f"{'a hit' if record.op.expect_hit else 'a miss'}, "
                f"cache_hit={record.cache_hit}"
            )
    return elapsed


def _replay(request: dict, log: Optional[SpanLog]):
    if log is None:
        return replay(request)
    return log.run("op:replay", OP_LAYER, replay, request)


def end_to_end(run: FleetRun) -> Dict[str, float]:
    """Gated metrics; timings in reference seconds (see measure.py).

    The reference loop is timed by a helper process for the whole
    session: timed in this process it would fight the clients for the GIL.
    """
    factor = speed_factor(run.references)
    misses = run.misses
    exec_s = sum(r.spans["exec_s"] for r in misses)
    miss_p50_ms = timing_summary([r.latency_s for r in misses])["p50_ms"]
    return {
        "setup_s": median(run.setup_s) * factor,
        "sim_ms_per_wall_s": sum(run.miss_sim_ms) / (exec_s * factor),
        "ops_per_s": sum(1 for r in run.records if r.ok) / (
            run.window_s * factor
        ),
        "op_p50_ms": miss_p50_ms * factor,
        "peak_rss_mb": run.server_rss_mb,
    }


def details(run: FleetRun) -> Dict[str, object]:
    """Per-path fleet figures in wall time, with sample counts."""
    exec_s = sum(r.spans["exec_s"] for r in run.misses)
    return {
        "jobs_per_s": sum(1 for r in run.records if r.ok) / run.window_s,
        "sim_ms_per_wall_s": sum(run.miss_sim_ms) / exec_s,
        "speed_factor": speed_factor(run.references),
        "hit": timing_summary([r.latency_s for r in run.hits]),
        "miss": timing_summary([r.latency_s for r in run.misses]),
        "server_rss_mb": run.server_rss_mb,
        "setup_s": median(run.setup_s),
    }


def serve_layer_metrics(run: FleetRun) -> Dict[str, float]:
    """The serve and fleet hops of a run with an admit probe."""
    misses = run.misses

    def p50_ms(values_s):
        return timing_summary(values_s)["p50_ms"]

    node_p50 = p50_ms(run.admit["node"])
    jobs = run.node_stats["jobs"]
    return {
        "serve.exec_ms": p50_ms([r.spans["exec_s"] for r in misses]),
        "serve.queue_wait_ms": p50_ms([r.spans["queue_wait_s"] for r in misses]),
        "serve.store_ms": p50_ms([r.spans["store_s"] for r in misses]),
        "serve.delivery_ms": p50_ms(
            [r.delivery_s for r in misses if r.delivery_s is not None]
        ),
        "serve.admit_ms": node_p50,
        "fleet.route_ms": p50_ms(run.admit["coordinator"]) - node_p50,
        "serve.cache_hit_ratio": jobs["cache_hits"] / jobs["submitted_total"],
        "serve.rejected": sum(1 for r in run.records if r.rejected),
        "fleet.misroutes": run.node_stats["fleet"]["misrouted_total"],
    }
