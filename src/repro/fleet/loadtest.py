"""``repro loadtest`` — synthetic RunRequest mixes against a fleet.

Replays a deterministic, seeded mix of submissions (tenants,
priorities, work sizes, deliberate duplicates for cache hits) against
a coordinator or a single serve node with a closed-loop client pool,
and emits a schema-versioned ``LOADTEST_<date>.json`` artifact:
throughput, per-priority-class p50/p95/p99, lost/duplicate accounting,
an optional knee-of-curve concurrency sweep, and a cross-check of the
measured latencies against an M/M/k processor-sharing queue model
(Pellegrini 2020 uses the same family of models to validate replayed
request-clone latencies; the gem5 reproducibility methodology is why
the artifact is versioned and re-runnable rather than a console dump).

The model: with ``k`` workers, arrival rate ``λ`` (measured), and mean
service time ``1/μ`` (measured over cache-miss executions), Erlang-C
gives the probability an arrival waits,

    P_wait = (a^k / k!) / ((1-ρ) Σ_{i<k} a^i/i! + a^k/k!),  a = λ/μ

and the expected sojourn time ``E[T] = 1/μ + P_wait / (kμ - λ)``.
A measured-to-model ratio near 1 says the fleet queues like an ideal
processor-sharing cluster; a large ratio localizes overhead in the
control plane rather than the workers.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.stats import percentile
from repro.serve.client import QueueFullError, ServeClient, ServeError
from repro.serve.spec import SPEC_VERSION

LOADTEST_SCHEMA_VERSION = 1

# Work sizes in simulated seconds (~260 sim-s per wall-s on a dev
# box): a mix of quick probes and meatier runs.
_WORK_SIZES = (20.0, 60.0, 120.0)
_PRIORITIES = (5, 10, 20)  # one per class: high / normal / low


@dataclass
class LoadtestConfig:
    base_url: str = "http://127.0.0.1:8090"
    requests: int = 200
    concurrency: int = 8
    seed: int = 42
    tenants: Sequence[str] = ("tenant-a", "tenant-b", "tenant-c")
    # Fraction of submissions that deliberately duplicate an earlier
    # one, exercising the content-addressed store (and, on a fleet,
    # cross-node cache answers).
    duplicate_fraction: float = 0.25
    # Concurrency levels for the knee-of-curve sweep ([] = skip).
    sweep: Sequence[int] = ()
    sweep_requests: int = 60
    wait_timeout_s: float = 300.0
    # Retries for 429 backpressure while submitting (the sweep pushes
    # levels past the knee on purpose, so rejections are expected).
    submit_retries: int = 6


def generate_mix(config: LoadtestConfig, salt: str = "") -> List[dict]:
    """A deterministic submission mix: same seed, same requests.

    ``salt`` uniquifies scenarios across sweep levels so each level
    measures compute, not the previous level's cache.
    """
    rng = random.Random(config.seed)
    payloads: List[dict] = []
    for i in range(config.requests):
        if payloads and rng.random() < config.duplicate_fraction:
            base = dict(rng.choice(payloads))
        else:
            base = {
                "scenario": "S-A",
                "bg_case": "bg-null",
                "seconds": rng.choice(_WORK_SIZES),
                "seed": 1000 + config.seed * 10000 + i + hash_salt(salt),
            }
        base["tenant"] = rng.choice(list(config.tenants))
        base["priority"] = rng.choice(_PRIORITIES)
        payloads.append(base)
    return payloads


def hash_salt(salt: str) -> int:
    """Small deterministic offset per sweep level (stable across runs)."""
    return sum(ord(c) * 131 ** n for n, c in enumerate(salt)) % 1_000_000


# ----------------------------------------------------------------------
# Closed-loop replay
# ----------------------------------------------------------------------
@dataclass
class _Record:
    payload: dict
    job_id: Optional[str] = None
    state: Optional[str] = None
    cache_hit: bool = False
    e2e_s: Optional[float] = None
    error: Optional[str] = None
    rejected: int = 0  # 429s absorbed before admission


def run_level(
    config: LoadtestConfig, payloads: List[dict], concurrency: int
) -> dict:
    """Replay ``payloads`` with ``concurrency`` closed-loop clients."""
    records = [_Record(payload=p) for p in payloads]
    cursor = {"next": 0}
    lock = threading.Lock()

    def worker() -> None:
        client = ServeClient(config.base_url, timeout_s=config.wait_timeout_s)
        while True:
            with lock:
                index = cursor["next"]
                if index >= len(records):
                    return
                cursor["next"] = index + 1
            record = records[index]
            start = time.monotonic()
            try:
                job = client.submit(
                    record.payload, retries=config.submit_retries
                )
                record.job_id = job["id"]
                if job["state"] in ("queued", "running"):
                    job = client.wait(
                        job["id"], timeout_s=config.wait_timeout_s
                    )
                record.state = job["state"]
                record.cache_hit = bool(
                    job.get("cache_hit") or job.get("cached")
                )
                record.e2e_s = time.monotonic() - start
            except (QueueFullError, ServeError, TimeoutError, OSError) as exc:
                record.error = f"{type(exc).__name__}: {exc}"

    started = time.monotonic()
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = max(1e-9, time.monotonic() - started)

    done = [r for r in records if r.state == "done"]
    # Lost = admitted (we hold a job id) but never reached a terminal
    # snapshot; errors before admission are client-visible rejections,
    # not losses.
    lost = [
        r for r in records
        if r.job_id is not None
        and r.state not in ("done", "failed", "cancelled", "expired")
    ]
    ids = [r.job_id for r in records if r.job_id is not None]
    by_class: Dict[str, List[float]] = {}
    for r in done:
        cls = _priority_class(r.payload.get("priority", 10))
        by_class.setdefault(cls, []).append(r.e2e_s)
    return {
        "concurrency": concurrency,
        "requests": len(records),
        "completed": len(done),
        "failed": sum(1 for r in records if r.state == "failed"),
        "lost": len(lost),
        "duplicated": len(ids) - len(set(ids)),
        "errors": sum(1 for r in records if r.error is not None),
        "cache_hits": sum(1 for r in done if r.cache_hit),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(done) / wall_s, 3),
        "by_priority": {
            cls: _latency_doc(samples)
            for cls, samples in sorted(by_class.items())
        },
        "mean_e2e_s": _mean([r.e2e_s for r in done]),
        "miss_mean_e2e_s": _mean(
            [r.e2e_s for r in done if not r.cache_hit]
        ),
        "_records": records,  # stripped before serialization
    }


def _priority_class(priority: int) -> str:
    try:
        priority = int(priority)
    except (TypeError, ValueError):
        priority = 10
    if priority < 10:
        return "high"
    if priority == 10:
        return "normal"
    return "low"


def _mean(samples: List[Optional[float]]) -> Optional[float]:
    values = [s for s in samples if s is not None]
    return round(sum(values) / len(values), 4) if values else None


def _latency_doc(samples: List[float]) -> dict:
    return {
        "count": len(samples),
        "mean_s": _mean(samples),
        "p50_s": round(percentile(samples, 50), 4),
        "p95_s": round(percentile(samples, 95), 4),
        "p99_s": round(percentile(samples, 99), 4),
    }


# ----------------------------------------------------------------------
# M/M/k processor-sharing model
# ----------------------------------------------------------------------
def mmk_model(
    k: int, lambda_rps: float, mean_service_s: float
) -> Optional[dict]:
    """Erlang-C sojourn time for k servers; None when inputs degenerate.

    Saturated (ρ >= 1) systems have no steady state — the model doc
    says so explicitly instead of reporting a negative wait.
    """
    if k <= 0 or lambda_rps <= 0 or not mean_service_s:
        return None
    mu = 1.0 / mean_service_s
    a = lambda_rps / mu  # offered load in erlangs
    rho = a / k
    doc = {
        "kind": "mmk-processor-sharing",
        "k": k,
        "lambda_rps": round(lambda_rps, 4),
        "mean_service_s": round(mean_service_s, 4),
        "rho": round(rho, 4),
    }
    if rho >= 1.0:
        doc["saturated"] = True
        return doc
    # Erlang-C via the stable iterative form.
    term = 1.0
    inv_sum = 1.0  # i = 0 term
    for i in range(1, k):
        term *= a / i
        inv_sum += term
    term *= a / k
    p_wait = term / ((1.0 - rho) * inv_sum + term)
    expected = mean_service_s + p_wait / (k * mu - lambda_rps)
    doc.update({
        "p_wait": round(p_wait, 4),
        "expected_e2e_s": round(expected, 4),
    })
    return doc


def find_knee(sweep_results: List[dict], gain: float = 0.10) -> Optional[int]:
    """Last concurrency level that still bought ``gain`` more throughput.

    Past the knee, added concurrency only deepens queues (latency grows,
    throughput plateaus) — the sweep's reason to exist.
    """
    knee = None
    previous = 0.0
    for level in sweep_results:
        if previous <= 0 or level["throughput_rps"] >= previous * (1 + gain):
            knee = level["concurrency"]
        previous = level["throughput_rps"]
    return knee


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_loadtest(config: LoadtestConfig) -> dict:
    """Full loadtest: main level, optional sweep, model cross-check."""
    client = ServeClient(config.base_url)
    health = client.healthz()
    role = health.get("role", "node")
    workers = _fleet_workers(client, role)

    payloads = generate_mix(config)
    main = run_level(config, payloads, config.concurrency)
    records = main.pop("_records")

    sweep_docs: List[dict] = []
    for level in config.sweep:
        level_config = LoadtestConfig(
            **{**config.__dict__, "requests": config.sweep_requests}
        )
        level_payloads = generate_mix(level_config, salt=f"sweep-{level}")
        doc = run_level(level_config, level_payloads, level)
        doc.pop("_records")
        sweep_docs.append(doc)

    # Model the cache-miss subset: hits never touch a worker, so the
    # queue model's λ and service time both exclude them.
    misses = [
        r for r in records if r.state == "done" and not r.cache_hit
    ]
    miss_lambda = len(misses) / main["wall_s"]
    model = mmk_model(workers, miss_lambda, _service_time_estimate(records))
    measured = main["miss_mean_e2e_s"]
    if model is not None and measured and model.get("expected_e2e_s"):
        model["measured_e2e_s"] = measured
        model["measured_over_model"] = round(
            measured / model["expected_e2e_s"], 3
        )

    return {
        "schema_version": LOADTEST_SCHEMA_VERSION,
        "kind": "repro-loadtest",
        "spec_version": SPEC_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "target": {
            "base_url": config.base_url,
            "role": role,
            "workers": workers,
        },
        "config": {
            "requests": config.requests,
            "concurrency": config.concurrency,
            "seed": config.seed,
            "tenants": list(config.tenants),
            "duplicate_fraction": config.duplicate_fraction,
            "sweep": list(config.sweep),
            "sweep_requests": config.sweep_requests,
        },
        "results": main,
        "sweep": sweep_docs,
        "knee_concurrency": find_knee(sweep_docs) if sweep_docs else None,
        "model": model,
    }


def _service_time_estimate(records: List[_Record]) -> Optional[float]:
    """Mean service time ≈ fastest-quartile miss e2e (queue-wait-free).

    The loadtest sees sojourn times, not bare service times; the
    quickest misses waited least, so their mean approximates 1/μ
    without needing server-side exec histograms from every node.
    """
    samples = sorted(
        r.e2e_s for r in records
        if r.state == "done" and not r.cache_hit and r.e2e_s is not None
    )
    if not samples:
        return None
    quartile = samples[: max(1, len(samples) // 4)]
    return sum(quartile) / len(quartile)


def _fleet_workers(client: ServeClient, role: str) -> int:
    """Total worker slots behind the target (fleet-wide on a coordinator)."""
    try:
        stats = client.stats()
    except ServeError:
        return 1
    if role == "coordinator":
        return sum(
            node.get("workers", 1)
            for node in stats.get("nodes", [])
            if node.get("alive")
        ) or 1
    return stats.get("workers", {}).get("size", 1)


def config_from_args(args: argparse.Namespace) -> LoadtestConfig:
    sweep: Sequence[int] = ()
    if args.sweep:
        sweep = tuple(
            int(level) for level in args.sweep.split(",") if level.strip()
        )
    return LoadtestConfig(
        base_url=args.url,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        tenants=tuple(args.tenants.split(",")) if args.tenants
        else ("tenant-a", "tenant-b", "tenant-c"),
        duplicate_fraction=args.duplicate_fraction,
        sweep=sweep,
        sweep_requests=args.sweep_requests,
        wait_timeout_s=args.wait_timeout_s,
    )


def main(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    report = run_loadtest(config)
    out_path = args.out
    if out_path is None:
        date = time.strftime("%Y-%m-%d", time.gmtime())
        out_path = f"LOADTEST_{date}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    results = report["results"]
    print(
        f"loadtest: {results['completed']}/{results['requests']} done, "
        f"{results['lost']} lost, {results['duplicated']} duplicated, "
        f"{results['cache_hits']} cache hits, "
        f"{results['throughput_rps']} req/s -> {out_path}",
        file=sys.stderr,
    )
    if report.get("knee_concurrency") is not None:
        print(
            f"loadtest: knee of curve at concurrency "
            f"{report['knee_concurrency']}",
            file=sys.stderr,
        )
    if results["lost"] or results["duplicated"]:
        return 1  # the fleet's core promise broke; fail loudly
    return 0
