"""The repository benchmark: seeded workloads, checked outputs, layer traces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``run.py`` for the
workloads and metrics.
"""
