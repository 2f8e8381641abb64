"""Timing summaries, host-speed reference, memory readings, host record.

Every percentile here is ``repro.metrics.stats.percentile`` (linear
interpolation), the one definition the repository's BENCH artifacts use.

The shared hosts this benchmark runs on drift in speed by 15-35% over
tens of seconds to minutes, for everything at once (a fixed pure-Python
loop drifts with the simulator).  So the gated timings are expressed in
reference seconds: wall seconds scaled by ``REFERENCE_S`` over the CPU
time a fixed loop (:func:`reference_loop`, no repository code) takes
right then.  A change to the repository cannot move the loop, so it
moves the scaled timings as it moves the raw ones; the raw wall timings
are printed too.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.stats import percentile

# A tail percentile is reported only when at least this many samples
# lie beyond it; with fewer, one slow sample moves it arbitrarily.
MIN_TAIL_SAMPLES = 10


# Nominal duration of one reference loop: a reference second is the
# time in which this loop would run 1 / REFERENCE_S times.
REFERENCE_S = 0.003
REFERENCE_ITERATIONS = 20_000


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value += step
        return self.value


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """CPU seconds this thread takes for a fixed mix of calls and dict ops.

    CPU time, not wall time, so that waiting for a core other processes
    hold is not counted.  The cyclic GC is held off for the loop:
    otherwise a collection of the garbage the last simulation left would
    land in it, and the loop would time the simulator's heap.
    """
    counter = _Counter()
    table: Dict[int, int] = {}
    items: List[int] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        for i in range(iterations):
            key = i & 63
            table[key] = table.get(key, 0) + counter.bump(i & 7)
            items.append(key)
            if len(items) > 64:
                items.clear()
        return time.thread_time() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(reference_times: Sequence[float]) -> float:
    """Reference seconds per wall second, from reference-loop timings."""
    return REFERENCE_S / median(reference_times)


class ReferenceSampler:
    """Times the reference loop in a helper process, for multi-process work.

    A loop timed in the benchmark process while its client threads run
    would fight them for the GIL; a helper process times it beside the
    work instead, every ``interval_s``, until :meth:`stop`.
    """

    def __init__(self, root: str, interval_s: float = 0.25):
        code = (
            "import sys; sys.path[:0] = [{root!r}, {src!r}]\n"
            "from perfbench.measure import _sample_forever\n"
            "_sample_forever({interval!r})\n"
        ).format(root=root, src=os.path.join(root, "src"), interval=interval_s)
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )

    def stop(self) -> List[float]:
        """Stop the helper; returns every loop time it measured."""
        self._proc.terminate()
        out, _ = self._proc.communicate(timeout=10)
        return [float(line) for line in out.split()]


def _sample_forever(interval_s: float) -> None:
    while True:
        print(reference_loop(), flush=True)
        time.sleep(interval_s)


def samples_beyond(values: Sequence[float], value: float) -> int:
    return sum(1 for v in values if v > value)


def timing_summary(values_s: Sequence[float]) -> Dict[str, object]:
    """``{"n", "p50_ms", "p95_ms"}``; ``p95_ms`` is None when unsupported."""
    values_ms = [v * 1000.0 for v in values_s]
    p95: Optional[float] = None
    if values_ms:
        candidate = percentile(values_ms, 95.0)
        if samples_beyond(values_ms, candidate) >= MIN_TAIL_SAMPLES:
            p95 = candidate
    return {
        "n": len(values_ms),
        "p50_ms": percentile(values_ms, 50.0) if values_ms else None,
        "p95_ms": p95,
    }


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _descendants(pid: int) -> List[int]:
    out: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            with open(f"/proc/{parent}/task/{parent}/children") as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            children = []
        out.extend(children)
        stack.extend(children)
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` of ``pids`` and all their descendants, in MB."""
    total_kb = 0
    seen = set()
    for pid in pids:
        for member in [pid] + _descendants(pid):
            if member in seen:
                continue
            seen.add(member)
            try:
                with open(f"/proc/{member}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue  # exited between listing and reading
    return total_kb / 1024.0


def host_record(seed: int, clients: int, op_counts: Dict[str, int]) -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "client_threads": clients,
        "seed": seed,
        "operations": op_counts,
    }
