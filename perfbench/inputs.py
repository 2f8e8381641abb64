"""Seeded input generators: the only thing the program sees of ``--seed``.

Every generator is a pure function of the seed, so the same seed gives
the same inputs in any process.  The simulator's own seeds come from a
fixed, fingerprinted set (``SIM_SEEDS`` and each user's Table 2 seed
plus a held-out one), so every simulator output a run produces can be
checked against ``fingerprint.json``; ``--seed`` orders the work.  The
fleet mix draws fresh simulator seeds from ``--seed``: its misses are
checked by replaying them in-process instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

# `repro bench`'s default seed and one seed held out from tuning.
SIM_SEEDS = (42, 1042)

# sim-matrix: the paper's memory-exhausted regime (§6.1): all four
# scenarios under the baseline and under Ice on the P20 with BG apps.
MATRIX_SCENARIOS = ("S-A", "S-B", "S-C", "S-D")
MATRIX_POLICIES = ("LRU+CFS", "Ice")
MATRIX_DEVICE = "P20"
MATRIX_BG_CASE = "bg-apps"
MATRIX_SECONDS = 10.0

# usage-trace: Table 2's two P20 users.  Three compressed days are
# the shortest trace in which memory fills and refaults start.
TRACE_USERS = ("User-1", "User-2")
TRACE_DAYS = 3
TRACE_DAY_MINUTES = 1.5
HELD_OUT_USER_SEED_OFFSET = 1000

# fleet-mixed: short BG-null runs, half of them exact repeats of a pool
# with one request of each kind.
FLEET_SCENARIOS = ("S-A", "S-C")
FLEET_POLICIES = ("LRU+CFS", "Ice")
FLEET_SECONDS = (2.0, 3.0)
FLEET_OPS = 5000


def sim_matrix_inputs(seed: int) -> List[Dict[str, object]]:
    """Every (scenario, policy, sim seed) cell once, in a seeded order."""
    cells = [
        {"scenario": scenario, "policy": policy, "seed": sim_seed}
        for scenario in MATRIX_SCENARIOS
        for policy in MATRIX_POLICIES
        for sim_seed in SIM_SEEDS
    ]
    random.Random(seed).shuffle(cells)
    return cells


def cell_key(cell: Dict[str, object]) -> str:
    return f"{cell['scenario']}/{cell['policy']}/{cell['seed']}"


def usage_trace_inputs(seed: int) -> List[Dict[str, object]]:
    """Each user at its Table 2 seed and at a held-out seed, seeded order."""
    from repro.experiments.user_study import STUDY_USERS

    table_seeds = {user.user_id: user.seed for user in STUDY_USERS}
    traces = [
        {"user": user, "seed": table_seeds[user] + offset}
        for user in TRACE_USERS
        for offset in (0, HELD_OUT_USER_SEED_OFFSET)
    ]
    random.Random(seed).shuffle(traces)
    return traces


def trace_key(trace: Dict[str, object]) -> str:
    return f"{trace['user']}/{trace['seed']}"


@dataclass(frozen=True)
class FleetOp:
    """One client submission: a ``RunRequest`` body and what it should hit."""

    index: int
    request: Dict[str, object]
    expect_hit: bool


@dataclass(frozen=True)
class FleetMix:
    pool: List[Dict[str, object]]
    ops: List[FleetOp]


def fleet_mix(seed: int, ops: int = FLEET_OPS) -> FleetMix:
    """A pool of requests to warm the cache with, then ``ops`` submissions.

    A hit repeats a pool request exactly; a miss is a request no earlier
    submission made (its simulator seed is fresh), so it must run.  The
    submissions come in rounds, each holding every pool request once
    and one miss of every (scenario, policy, seconds) kind, shuffled: any
    prefix a run gets through then has the same mix, whatever the seed.
    """
    rng = random.Random(seed)
    used_seeds = set()
    kinds = [
        (scenario, policy, seconds)
        for scenario in FLEET_SCENARIOS
        for policy in FLEET_POLICIES
        for seconds in FLEET_SECONDS
    ]

    def fresh_request(kind) -> Dict[str, object]:
        sim_seed = rng.randrange(1, 2 ** 31)
        while sim_seed in used_seeds:
            sim_seed = rng.randrange(1, 2 ** 31)
        used_seeds.add(sim_seed)
        scenario, policy, seconds = kind
        return {
            "scenario": scenario,
            "policy": policy,
            "device": MATRIX_DEVICE,
            "bg_case": "bg-null",
            "seconds": seconds,
            "seed": sim_seed,
        }

    pool = [fresh_request(kind) for kind in kinds]
    sequence: List[FleetOp] = []
    while len(sequence) < ops:
        round_ops = [(request, True) for request in pool]
        round_ops += [(fresh_request(kind), False) for kind in kinds]
        rng.shuffle(round_ops)
        for request, hit in round_ops[: ops - len(sequence)]:
            sequence.append(FleetOp(len(sequence), request, hit))
    return FleetMix(pool=pool, ops=sequence)
