"""Loadtest internals: mix determinism, percentiles, knee, M/M/k model."""

import pytest

from repro.fleet.loadtest import (
    LoadtestConfig,
    _latency_doc,
    _priority_class,
    find_knee,
    generate_mix,
    mmk_model,
)
from repro.metrics.stats import percentile


# ----------------------------------------------------------------------
# Mix generation
# ----------------------------------------------------------------------
def test_mix_is_deterministic_per_seed():
    config = LoadtestConfig(requests=50, seed=7)
    assert generate_mix(config) == generate_mix(config)
    assert generate_mix(config) != generate_mix(
        LoadtestConfig(requests=50, seed=8)
    )


def test_mix_salt_uniquifies_sweep_levels():
    config = LoadtestConfig(requests=30, seed=7)
    plain = generate_mix(config)
    salted = generate_mix(config, salt="sweep-4")
    seeds = {p["seed"] for p in plain}
    salted_seeds = {p["seed"] for p in salted}
    assert seeds.isdisjoint(salted_seeds)


def test_mix_contains_duplicates_and_valid_fields():
    config = LoadtestConfig(
        requests=200, seed=3, duplicate_fraction=0.5,
        tenants=("a", "b"),
    )
    mix = generate_mix(config)
    assert len(mix) == 200
    # Duplicate fraction 0.5 must produce real duplicate content
    # addresses (tenant/priority are options, not content).
    cores = [
        (p["scenario"], p["bg_case"], p["seconds"], p["seed"]) for p in mix
    ]
    assert len(set(cores)) < len(cores)
    for payload in mix:
        assert payload["tenant"] in ("a", "b")
        assert payload["priority"] in (5, 10, 20)


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def test_latency_doc_uses_metrics_percentile():
    samples = [0.5, 0.125, 2.0, 0.25, 1.0, 0.75, 4.0]
    doc = _latency_doc(samples)
    for key, pct in (("p50_s", 50), ("p95_s", 95), ("p99_s", 99)):
        assert doc[key] == round(percentile(samples, pct), 4)
    assert doc["p95_s"] == 3.4  # interpolated between 2.0 and 4.0
    assert _latency_doc([4.2])["p99_s"] == 4.2
    assert _latency_doc([])["p50_s"] == 0.0


def test_latency_doc_shape():
    doc = _latency_doc([0.3, 0.1, 0.2])
    assert doc["count"] == 3
    assert doc["p50_s"] == 0.2
    assert doc["mean_s"] == pytest.approx(0.2)


def test_priority_class_mapping():
    assert _priority_class(5) == "high"
    assert _priority_class(10) == "normal"
    assert _priority_class(20) == "low"
    assert _priority_class("nonsense") == "normal"


# ----------------------------------------------------------------------
# Knee detection
# ----------------------------------------------------------------------
def test_find_knee_picks_last_scaling_level():
    sweep = [
        {"concurrency": 1, "throughput_rps": 2.0},
        {"concurrency": 2, "throughput_rps": 3.9},   # +95%
        {"concurrency": 4, "throughput_rps": 7.0},   # +79%
        {"concurrency": 8, "throughput_rps": 7.3},   # +4% — past the knee
        {"concurrency": 16, "throughput_rps": 7.1},
    ]
    assert find_knee(sweep) == 4


def test_find_knee_degenerate_inputs():
    assert find_knee([]) is None
    assert find_knee([{"concurrency": 2, "throughput_rps": 5.0}]) == 2


# ----------------------------------------------------------------------
# M/M/k model
# ----------------------------------------------------------------------
def test_mmk_model_unloaded_system_approaches_service_time():
    # At 1% utilization nobody queues: E[T] ~= 1/mu.
    model = mmk_model(k=4, lambda_rps=0.04, mean_service_s=1.0)
    assert model["rho"] == pytest.approx(0.01)
    assert model["p_wait"] < 1e-4
    assert model["expected_e2e_s"] == pytest.approx(1.0, rel=1e-3)


def test_mmk_model_single_server_matches_mm1():
    # For k=1, Erlang-C reduces to M/M/1: P_wait = rho and
    # E[T] = 1/(mu - lambda).
    model = mmk_model(k=1, lambda_rps=0.5, mean_service_s=1.0)
    assert model["p_wait"] == pytest.approx(0.5)
    assert model["expected_e2e_s"] == pytest.approx(2.0)


def test_mmk_model_queueing_grows_with_load():
    light = mmk_model(k=2, lambda_rps=0.5, mean_service_s=1.0)
    heavy = mmk_model(k=2, lambda_rps=1.8, mean_service_s=1.0)
    assert heavy["p_wait"] > light["p_wait"]
    assert heavy["expected_e2e_s"] > light["expected_e2e_s"]
    assert 0.0 <= light["p_wait"] <= 1.0


def test_mmk_model_saturation_and_degenerate_inputs():
    saturated = mmk_model(k=2, lambda_rps=3.0, mean_service_s=1.0)
    assert saturated["saturated"] is True
    assert "expected_e2e_s" not in saturated
    assert mmk_model(k=0, lambda_rps=1.0, mean_service_s=1.0) is None
    assert mmk_model(k=2, lambda_rps=0.0, mean_service_s=1.0) is None
    assert mmk_model(k=2, lambda_rps=1.0, mean_service_s=None) is None
