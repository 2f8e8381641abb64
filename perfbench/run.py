#!/usr/bin/env python3
"""The repository benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload sim-matrix --seed 1 --seconds 20 --trace 0

Workloads (``--seed`` generates their inputs; see ``inputs.py``):

* ``sim-matrix`` — S-A..S-D x {LRU+CFS, Ice} on the P20 with BG apps,
  serial ``run_scenario`` calls: memory-exhausted, kernel-heavy.
* ``usage-trace`` — Table 2's P20 users through ``simulate_user``:
  launch/use/idle sessions, scheduler- and RNG-heavy, little reclaim.
* ``fleet-mixed`` — a coordinator and a one-worker node as
  subprocesses, two closed-loop clients, half cache hits and half
  short BG-null misses (``fleetwork.py``).

With ``--trace 0`` the end-to-end metrics are measured untraced; their
timings are in reference seconds, which cancel the host's speed drift
(``measure.py``), and the raw wall figures are printed beside them.
With ``--trace 1`` a separate traced pass gives the per-layer metrics
(``layers.py``) and the tracing overhead.  Every simulator output is
checked (``fingerprint.json`` or an in-process replay); the last line
of stdout is one JSON object, and the exit code is 1 if any operation
failed or produced a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-matrix", "usage-trace", "fleet-mixed")
SIM_SETUP_REPEATS = 5
# The fleet session a traced simulator run adds for the serve metrics.
PROBE_SECONDS = 3.0

# Gated metrics, the same on every workload.  Their timings are in
# reference seconds (measure.py); the unscaled wall figures are printed
# beside them as "wall.*" lines.
END_TO_END = {
    "setup_s": "s",
    "sim_ms_per_wall_s": "ms/s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

# Cold start of a simulator user: a fresh interpreter importing the
# simulator and building one device with the app catalog installed.
SIM_SETUP_CODE = """
from repro.apps.catalog import catalog_apps
from repro.devices.specs import get_device
from repro.experiments.scenarios import run_scenario
from repro.experiments.user_study import simulate_user
from repro.system import MobileSystem
MobileSystem(spec=get_device("P20")).install_apps(catalog_apps())
"""


def per_layer_metrics() -> dict:
    """Per-layer metric name -> (unit, which direction is better)."""
    from perfbench.layers import LAYERS

    table = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", "lower")
        table[f"{layer}.self_share"] = ("ratio", "lower")
    for name in (
        "kernel.faults", "kernel.pgscan", "kernel.pgsteal",
        "storage.zram_stores", "storage.zram_loads",
        "storage.flash_read_pages", "sched.ticks", "sched.idle_ticks",
        "sim.engine.events", "core.freezes", "core.thaws",
        "serve.rejected", "fleet.misroutes",
    ):
        table[name] = ("count", "lower")
    for name in ("android.frames", "android.launches"):
        table[name] = ("count", "higher")
    for name in ("kernel.reclaim_efficiency", "serve.cache_hit_ratio"):
        table[name] = ("ratio", "higher")
    for name in ("kernel.refault_ratio", "trace.overhead"):
        table[name] = ("ratio", "lower")
    for name in ("serve.exec_ms", "serve.queue_wait_ms", "serve.store_ms",
                 "serve.admit_ms", "fleet.route_ms", "serve.delivery_ms"):
        table[name] = ("ms", "lower")
    return table


def sim_setup_times() -> list:
    """Wall seconds of each cold start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    times = []
    for _ in range(SIM_SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SIM_SETUP_CODE], cwd=ROOT,
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def reference_scaled(measure_all) -> dict:
    """Wall times from ``measure_all()`` and the same in reference seconds."""
    from perfbench.measure import reference_loop, speed_factor

    before = reference_loop()
    wall = measure_all()
    factor = speed_factor([before, reference_loop()])
    return {"wall": wall, "scaled": [t * factor for t in wall]}


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import fleetwork, simwork
    from perfbench.measure import median

    if not trace:
        setup = reference_scaled(sim_setup_times)
        run, metrics, raw = simwork.measure(workload, seed, seconds)
        metrics["setup_s"] = median(setup["scaled"])
        report = [
            _failed_frac(run.attempted, run.failed),
            ("wall.sim_ms_per_wall_s", raw["sim_ms_per_wall_s"], "ms/s",
             "unscaled"),
            *_timing_lines("wall.op", raw["op"]),
            ("wall.setup_s", median(setup["wall"]), "s",
             f"median of {SIM_SETUP_REPEATS}"),
            ("passes", len(run.pass_bounds), "count", ""),
        ]
        return _outcome(run.attempted, run.failed, run.mismatches, metrics,
                        report, {workload: run.attempted}, clients=1)
    run, metrics, log = simwork.trace_run(workload, seed)
    log.write(os.path.join(_work_dir(), f"spans-{workload}.tsv"))
    probe = fleetwork.session(ROOT, seed, PROBE_SECONDS, 1, probe_admit=True)
    fleetwork.verify(probe)
    metrics.update(fleetwork.serve_layer_metrics(probe))
    attempted = run.attempted + probe.attempted
    failed = run.failed + probe.failed
    report = [_failed_frac(attempted, failed), *_span_lines(log)]
    return _outcome(attempted, failed, run.mismatches + probe.wrong, metrics,
                    report,
                    {workload: run.attempted, "fleet-probe": probe.attempted},
                    clients=1)


def run_fleet(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import fleetwork, simwork
    from perfbench.layers import SpanLog

    setups = 1 if trace else fleetwork.SETUP_REPEATS
    run = fleetwork.session(ROOT, seed, seconds, setups, probe_admit=trace)
    plain_s = fleetwork.verify(run)
    errors = [r.error for r in run.records if r.error] + run.wrong
    ops = {"fleet-mixed": run.attempted, "hits": len(run.hits),
           "misses": len(run.misses)}
    failed_frac = _failed_frac(run.attempted, run.failed)
    if not trace:
        detail = fleetwork.details(run)
        report = [
            failed_frac,
            ("jobs_per_s", detail["jobs_per_s"], "1/s", "wall"),
            *_timing_lines("hit", detail["hit"]),
            *_timing_lines("miss", detail["miss"]),
            ("server_rss_mb", detail["server_rss_mb"], "MB",
             "coordinator + node + worker"),
            ("wall.sim_ms_per_wall_s", detail["sim_ms_per_wall_s"], "ms/s",
             "unscaled"),
            ("wall.setup_s", detail["setup_s"], "s",
             f"median of {fleetwork.SETUP_REPEATS}"),
            ("speed_factor", detail["speed_factor"], "ratio",
             "reference s per wall s"),
        ]
        return _outcome(run.attempted, run.failed, errors,
                        fleetwork.end_to_end(run), report, ops,
                        clients=fleetwork.CLIENTS)
    log = SpanLog()
    traced_s = fleetwork.verify(run, log)
    log.write(os.path.join(_work_dir(), "spans-fleet-mixed.tsv"))
    metrics = simwork.layer_metrics(log, run.traced_harvest,
                                    run.traced_events, traced_s)
    metrics["trace.overhead"] = traced_s / plain_s
    metrics.update(fleetwork.serve_layer_metrics(run))
    return _outcome(run.attempted, run.failed, errors, metrics,
                    [failed_frac, *_span_lines(log)], ops,
                    clients=fleetwork.CLIENTS)


def _failed_frac(attempted: int, failed: int) -> tuple:
    return ("failed_frac", failed / attempted, "ratio",
            f"{failed} of {attempted} failed, refused or wrong")


def _timing_lines(prefix: str, summary: dict) -> list:
    """p50 and p95 lines; p95 is n/a without ten samples beyond it."""
    note = f"n={summary['n']}"
    return [(f"{prefix}_p50_ms", summary["p50_ms"], "ms", note),
            (f"{prefix}_p95_ms", summary["p95_ms"], "ms", note)]


def _span_lines(log) -> list:
    return [("spans", log.span_count, "count",
             f"{len(log.start)} kept in the spans file")]


def _work_dir() -> str:
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def _outcome(attempted, failed, errors, metrics, report, ops, clients):
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "report": report, "ops": ops,
            "clients": clients}


def render(workload: str, args, outcome: dict, units: dict) -> dict:
    from perfbench.measure import host_record

    host = host_record(args.seed, outcome["clients"], outcome["ops"])
    print(f"# perfbench {workload} trace={args.trace} host={json.dumps(host)}")
    for error in outcome["errors"][:20]:
        print(f"# FAILED {error}")
    print("# also measured (not gated):")
    for name, value, unit, note in outcome["report"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>16s} {unit:6s} {note}")
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print("# gated by BENCHMARK.json:")
    metrics = {}
    for name, unit in units.items():
        value = float(outcome["metrics"][name])
        print(f"{name:32s} {value:>16.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprint", action="store_true",
                        help="re-record fingerprint.json from the current "
                             "simulator (an intended output change only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if args.write_fingerprint:
        from perfbench import simwork

        simwork.write_fingerprint()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    if args.workload == "fleet-mixed":
        outcome = run_fleet(args.seed, args.seconds, trace)
    else:
        outcome = run_sim(args.workload, args.seed, args.seconds, trace)
    if trace:
        units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
    else:
        units = END_TO_END
    result = render(args.workload, args, outcome, units)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
