"""sim-matrix and usage-trace: serial simulator runs in this process.

Each operation is one public call into the simulator (``run_scenario``
for a matrix cell, ``simulate_user`` for a usage trace), timed from
outside.  Its paper-facing outputs are compared with the committed
``fingerprint.json``; any difference counts the operation as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.layers import OP_LAYER, Harvest, SpanLog, instrument
from perfbench.measure import (
    REFERENCE_S, median, own_peak_rss_mb, reference_loop, timing_summary,
)

FINGERPRINT_PATH = os.path.join(os.path.dirname(__file__), "fingerprint.json")

CELL_OUTPUTS = (
    "fps", "ria", "frames_completed", "frames_dropped", "launch_ms",
    "refault", "refault_fg", "refault_bg", "reclaim", "pswpin", "pswpout",
    "lmk_kills", "frozen_apps",
)


def run_cell(cell: Dict[str, object]) -> Dict[str, object]:
    from repro.devices.specs import get_device
    from repro.experiments.scenarios import run_scenario

    result = run_scenario(
        cell["scenario"],
        policy=cell["policy"],
        spec=get_device(inputs.MATRIX_DEVICE),
        bg_case=inputs.MATRIX_BG_CASE,
        seconds=inputs.MATRIX_SECONDS,
        seed=cell["seed"],
    )
    return {name: getattr(result, name) for name in CELL_OUTPUTS}


def run_trace(trace: Dict[str, object]) -> Dict[str, object]:
    from repro.experiments.user_study import STUDY_USERS, simulate_user

    user = next(u for u in STUDY_USERS if u.user_id == trace["user"])
    result = simulate_user(
        dataclasses.replace(user, seed=trace["seed"]),
        days=inputs.TRACE_DAYS,
        day_minutes=inputs.TRACE_DAY_MINUTES,
    )
    return {
        "days": [
            [day.evicted, day.refaulted, day.refault_bg, day.refault_fg]
            for day in result.days
        ],
    }


Workload = Tuple[Callable[[int], List[dict]], Callable[[dict], str],
                 Callable[[dict], Dict[str, object]]]

WORKLOADS: Dict[str, Workload] = {
    "sim-matrix": (inputs.sim_matrix_inputs, inputs.cell_key, run_cell),
    "usage-trace": (inputs.usage_trace_inputs, inputs.trace_key, run_trace),
}


def fingerprint_params() -> Dict[str, object]:
    """The generator settings a fingerprint is valid for."""
    return {
        name: value for name, value in vars(inputs).items()
        if name.startswith(("SIM_", "MATRIX_", "TRACE_", "HELD_OUT_"))
    }


def load_fingerprint(path: str = FINGERPRINT_PATH) -> Dict[str, object]:
    with open(path) as handle:
        doc = json.load(handle)
    params = json.loads(json.dumps(fingerprint_params()))
    if doc.get("params") != params:
        raise ValueError(
            f"{path} was made with other generator settings; regenerate "
            "it with --write-fingerprint only if the change is intended"
        )
    return doc


class SimRun:
    """What one or more passes over a workload's inputs measured."""

    def __init__(self) -> None:
        self.durations_s: List[float] = []
        # The same, in reference seconds (see measure.py).
        self.ref_durations_s: List[float] = []
        self.sim_ms: List[float] = []
        self.events: List[int] = []
        self.pass_bounds: List[Tuple[int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def run_pass(self, workload: str, ops: List[dict], expected: Dict,
                 harvest: Harvest, log: Optional[SpanLog] = None) -> None:
        _, key_of, run = WORKLOADS[workload]
        first = len(self.durations_s)
        before = reference_loop()
        for op in ops:
            key = key_of(op)
            t0 = time.perf_counter()
            if log is None:
                outputs = run(op)
            else:
                outputs = log.run(f"op:{workload}", OP_LAYER, run, op)
            elapsed = time.perf_counter() - t0
            after = reference_loop()
            self.ref_durations_s.append(
                elapsed * REFERENCE_S * 2.0 / (before + after)
            )
            before = after
            sim_ms, events = harvest.finish()
            outputs["events_executed"] = events
            self.durations_s.append(elapsed)
            self.sim_ms.append(sim_ms)
            self.events.append(events)
            self.attempted += 1
            outputs = json.loads(json.dumps(outputs))
            want = expected.get(key)
            if outputs != want:
                self.failed += 1
                self.mismatches.append(describe_mismatch(key, want, outputs))
        self.pass_bounds.append((first, len(self.durations_s)))

    def wall_s(self) -> float:
        return sum(self.durations_s)

    def pass_rates(self, durations: List[float]
                   ) -> Tuple[List[float], List[float]]:
        """Per pass: simulated ms per second, operations per second."""
        sim_rates, op_rates = [], []
        for lo, hi in self.pass_bounds:
            wall = sum(durations[lo:hi])
            sim_rates.append(sum(self.sim_ms[lo:hi]) / wall)
            op_rates.append((hi - lo) / wall)
        return sim_rates, op_rates


def describe_mismatch(key: str, want, got) -> str:
    if want is None:
        return f"{key}: no fingerprint entry"
    fields = sorted(
        name for name in set(want) | set(got) if want.get(name) != got.get(name)
    )
    return "; ".join(
        f"{key}.{name}: expected {want.get(name)!r}, got {got.get(name)!r}"
        for name in fields
    )


def measure(workload: str, seed: int, seconds: float
            ) -> Tuple[SimRun, dict, dict]:
    """Whole passes over the seeded inputs until ``seconds`` have passed."""
    make_inputs, _, _ = WORKLOADS[workload]
    ops = make_inputs(seed)
    expected = load_fingerprint()[workload]
    run = SimRun()
    harvest = Harvest()
    with instrument(harvest):
        start = time.perf_counter()
        while not run.pass_bounds or time.perf_counter() - start < seconds:
            # Each pass starts from a collected heap, so the peak RSS does
            # not grow with the number of passes a fast host fits in.
            gc.collect()
            run.run_pass(workload, ops, expected, harvest)
    sim_rates, op_rates = run.pass_rates(run.ref_durations_s)
    raw_sim_rates, raw_op_rates = run.pass_rates(run.durations_s)
    metrics = {
        "sim_ms_per_wall_s": median(sim_rates),
        "ops_per_s": median(op_rates),
        "op_p50_ms": median(run.ref_durations_s) * 1000.0,
        "peak_rss_mb": own_peak_rss_mb(),
    }
    raw = {
        "sim_ms_per_wall_s": median(raw_sim_rates),
        "ops_per_s": median(raw_op_rates),
        "op": timing_summary(run.durations_s),
    }
    return run, metrics, raw


def layer_metrics(log: SpanLog, harvest: Harvest, events: int,
                  traced_wall_s: float) -> Dict[str, float]:
    """The simulator's per-layer metrics from one traced pass."""
    out: Dict[str, float] = {}
    for layer, seconds in log.self_times().items():
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.self_share"] = seconds / traced_wall_s
    counters = harvest.counters
    calls = log.call_counts()
    scanned, stolen = counters["kernel.pgscan"], counters["kernel.pgsteal"]
    out.update({
        "kernel.faults": counters["kernel.faults"],
        "kernel.pgscan": scanned,
        "kernel.pgsteal": stolen,
        # Both ratios read 0 when the pass reclaimed nothing.
        "kernel.reclaim_efficiency": stolen / scanned if scanned else 0.0,
        "kernel.refault_ratio": (
            counters["kernel.refaults"] / stolen if stolen else 0.0
        ),
        "storage.zram_stores": counters["storage.zram_stores"],
        "storage.zram_loads": counters["storage.zram_loads"],
        "storage.flash_read_pages": counters["storage.flash_read_pages"],
        "sched.ticks": calls.get("CfsScheduler.tick", 0),
        "sched.idle_ticks": counters["sched.idle_ticks"],
        "sim.engine.events": events,
        "android.frames": calls.get("FrameStats.record_frame", 0),
        "android.launches": calls.get("ActivityManager.launch", 0),
        "core.freezes": counters["core.freezes"],
        "core.thaws": counters["core.thaws"],
    })
    return out


def traced_pass(workload: str, ops: List[dict], expected: Dict
                ) -> Tuple[SimRun, SpanLog, Harvest, float]:
    """One untraced and one traced pass over ``ops``.

    Returns the traced pass's run, spans and counters, and the tracing
    overhead: traced wall time over untraced wall time of the same work.
    """
    plain = SimRun()
    harvest = Harvest()
    with instrument(harvest):
        plain.run_pass(workload, ops, expected, harvest)
    traced = SimRun()
    log = SpanLog()
    harvest = Harvest()
    with instrument(harvest, log):
        traced.run_pass(workload, ops, expected, harvest, log)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.mismatches = plain.mismatches + traced.mismatches
    return traced, log, harvest, traced.wall_s() / plain.wall_s()


def trace_run(workload: str, seed: int) -> Tuple[SimRun, Dict[str, float], SpanLog]:
    make_inputs, _, _ = WORKLOADS[workload]
    ops = make_inputs(seed)
    expected = load_fingerprint()[workload]
    run, log, harvest, overhead = traced_pass(workload, ops, expected)
    metrics = layer_metrics(log, harvest, sum(run.events), run.wall_s())
    metrics["trace.overhead"] = overhead
    return run, metrics, log


def write_fingerprint(path: str = FINGERPRINT_PATH) -> None:
    """Run every fingerprinted operation once and record its outputs."""
    doc: Dict[str, object] = {"params": fingerprint_params()}
    for workload, (make_inputs, key_of, run) in WORKLOADS.items():
        entries = {}
        harvest = Harvest()
        with instrument(harvest):
            for op in sorted(make_inputs(0), key=key_of):
                outputs = run(op)
                outputs["events_executed"] = harvest.finish()[1]
                entries[key_of(op)] = outputs
        doc[workload] = entries
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")

