"""Self-tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import inputs, run, simwork  # noqa: E402
from perfbench.layers import (  # noqa: E402
    ENTRY_POINTS, LAYERS, Harvest, SpanLog, instrument, resolve,
)
from perfbench.measure import MIN_TAIL_SAMPLES, timing_summary  # noqa: E402
from repro.metrics.stats import percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_are_valid():
    per_layer = run.per_layer_metrics()
    units = list(run.END_TO_END.items())
    units += [(name, unit) for name, (unit, _) in per_layer.items()]
    for name, unit in units:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    doc = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]
    } == per_layer
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_same_seed_same_fleet_mix():
    a, b = inputs.fleet_mix(7, ops=400), inputs.fleet_mix(7, ops=400)
    assert a == b
    assert inputs.fleet_mix(8, ops=400) != a


def test_fleet_mix_hits_repeat_the_pool_and_misses_are_fresh():
    mix = inputs.fleet_mix(3, ops=2000)
    keys = lambda req: json.dumps(req, sort_keys=True)  # noqa: E731
    pool = {keys(req) for req in mix.pool}
    seen = set(pool)
    hits = 0
    for op in mix.ops:
        if op.expect_hit:
            hits += 1
            assert keys(op.request) in pool
        else:
            assert keys(op.request) not in seen
            seen.add(keys(op.request))
    assert hits * 2 == len(mix.ops)


def test_sim_inputs_cover_every_fingerprinted_op_in_seeded_order():
    fingerprint = simwork.load_fingerprint()
    for workload, (make, key_of, _) in simwork.WORKLOADS.items():
        ops = make(5)
        assert ops == make(5)
        assert ops != make(6)
        assert sorted(map(key_of, ops)) == sorted(fingerprint[workload])


def test_changed_fingerprint_counts_as_failure():
    cell = {"scenario": "S-A", "policy": "Ice", "seed": inputs.SIM_SEEDS[0]}
    key = inputs.cell_key(cell)
    expected = simwork.load_fingerprint()["sim-matrix"]
    altered = {key: dict(expected[key], refault=expected[key]["refault"] + 1)}
    good, bad = simwork.SimRun(), simwork.SimRun()
    harvest = Harvest()
    with instrument(harvest):
        good.run_pass("sim-matrix", [cell], expected, harvest)
        bad.run_pass("sim-matrix", [cell], altered, harvest)
    assert (good.attempted, good.failed) == (1, 0)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "refault" in bad.mismatches[0]


def test_command_fails_on_altered_fingerprint(tmp_path):
    """The whole command exits nonzero when an output differs."""
    bench = tmp_path / "perfbench"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = bench / "fingerprint.json"
    doc = json.loads(path.read_text())
    entry = doc["sim-matrix"]["S-B/LRU+CFS/42"]
    entry["fps"] = entry["fps"] + 0.5
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-matrix",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 16
    assert "S-B/LRU+CFS/42.fps" in proc.stdout


def test_command_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-matrix"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timing_summary_uses_the_repo_percentile():
    values = [0.001 * (i % 37 + 1) for i in range(150)]
    summary = timing_summary(values)
    assert summary["n"] == 150
    assert summary["p50_ms"] == percentile([v * 1000 for v in values], 50)


def test_p95_needs_ten_samples_beyond_it():
    # With n distinct samples, n - 1 - floor(0.95 * (n - 1)) lie beyond
    # the p95: 9 at n = 181, 10 at n = 182.
    assert timing_summary([0.001 * i for i in range(1, 182)])["p95_ms"] is None
    summary = timing_summary([0.001 * i for i in range(1, 183)])
    assert summary["n"] == 182
    beyond = [i for i in range(1, 183) if i > summary["p95_ms"]]
    assert len(beyond) == MIN_TAIL_SAMPLES
    # Ties at the top leave fewer samples strictly beyond the p95.
    tied = [0.001] * 150 + [0.002] * 60
    assert timing_summary(tied)["p95_ms"] is None
    assert timing_summary([])["p50_ms"] is None


def test_self_time_is_span_time_minus_children():
    log = SpanLog()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    traced_leaf = log.wrap(leaf, "leaf", "storage")
    traced_middle = log.wrap(middle, "middle", "kernel")
    log.run("top", "experiments", traced_middle)
    selfs = log.self_times()
    assert log.call_counts() == {"leaf": 2, "middle": 1, "top": 1}
    assert selfs["storage"] >= 0.004
    assert 0.001 <= selfs["kernel"] < selfs["storage"]
    assert sum(selfs.values()) == pytest.approx(log.top_s[0], abs=1e-9)
    stored = log.stored_self_times()
    for layer in LAYERS:
        assert stored[layer] == pytest.approx(selfs[layer], abs=1e-9)
    assert list(log.parent) == [-1, 0, 1, 1]


def test_span_store_is_capped_but_self_time_is_not():
    log = SpanLog(cap=3)
    tick = log.wrap(lambda: None, "tick", "sched")
    for _ in range(10):
        tick()
    assert len(log.start) == 3
    assert log.span_count == 10


def test_instrument_restores_every_entry_point():
    before = {}
    for entries in ENTRY_POINTS.values():
        for entry in entries:
            owner, attr = resolve(entry)
            before[entry] = vars(owner)[attr]
    with instrument(Harvest(), SpanLog()):
        owner, attr = resolve(ENTRY_POINTS["sched"][0])
        assert vars(owner)[attr] is not before[ENTRY_POINTS["sched"][0]]
    for entry, original in before.items():
        owner, attr = resolve(entry)
        assert vars(owner)[attr] is original


def test_tracing_leaves_outputs_unchanged():
    cell = {"scenario": "S-D", "policy": "Ice", "seed": inputs.SIM_SEEDS[1]}
    expected = simwork.load_fingerprint()["sim-matrix"]
    traced, log, harvest, overhead = simwork.traced_pass(
        "sim-matrix", [cell], expected
    )
    assert traced.failed == 0 and traced.attempted == 2
    assert overhead > 1.0
    metrics = simwork.layer_metrics(log, harvest, sum(traced.events),
                                    traced.wall_s())
    assert metrics["kernel.pgscan"] >= metrics["kernel.pgsteal"] > 0
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == (
        pytest.approx(log.top_s[0])
    )
