"""Per-layer tracing from outside the simulator.

The simulator is not instrumented for this benchmark.  Instead, a traced
run replaces each layer's entry points (a fixed table below) with a thin
wrapper that records a span: which function, its start and end on
``time.perf_counter``, and the span that was open when it was called.
Spans are kept in memory (the first ``SpanLog.cap`` of them) and written
out at the end.  A layer's self time is the duration of its spans minus
the part covered by their child spans, so the self times of all layers
add up to the traced wall time exactly.

Counts are read at the same boundaries: span counts for calls
(scheduler ticks, launches, frames), and the kernel's own counters
(vmstat, zram, flash, freezer) harvested from every ``MobileSystem``
before it zeroes them and when its operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# Layer -> entry points, as "module:Class.attr" or "module:function".
# A missing name is an error: a rename in the simulator must show here,
# not silently move that layer's time into its caller.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": (
        "repro.sim.engine:Simulator.run_until",
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.step",
    ),
    "sched": (
        "repro.sched.cfs:CfsScheduler.tick",
        "repro.sched.cfs:CfsScheduler.add_task",
        "repro.sched.cfs:CfsScheduler.remove_task",
        "repro.sched.cfs:CfsScheduler.freeze_pid",
        "repro.sched.cfs:CfsScheduler.thaw_pid",
        "repro.sched.task:QueueBody.run",
    ),
    "kernel": (
        "repro.kernel.page_fault:PageFaultHandler.handle",
        "repro.kernel.page_fault:PageFaultHandler.handle_id",
        "repro.kernel.reclaim:Kswapd.run_quantum",
        "repro.kernel.mm:MemoryManager.shrink",
        "repro.kernel.mm:MemoryManager.make_resident_id",
        "repro.kernel.mm:MemoryManager.make_resident_bulk_ids",
        "repro.kernel.mm:MemoryManager.release_process_ids",
        "repro.kernel.freezer:Freezer.freeze",
        "repro.kernel.freezer:Freezer.thaw",
    ),
    "storage": (
        "repro.storage.zram:ZramDevice.store",
        "repro.storage.zram:ZramDevice.load",
        "repro.storage.zram:ZramDevice.discard",
        "repro.storage.flash:FlashDevice.read",
        "repro.storage.flash:FlashDevice.write",
        "repro.storage.block:BlockQueue.submit",
    ),
    "android": (
        "repro.android.activity_manager:ActivityManager.launch",
        "repro.android.activity_manager:ActivityManager.on_app_killed",
        "repro.android.render:FrameEngine.start",
        "repro.android.render:FrameEngine.stop",
        "repro.android.render:FrameEngine._on_vsync",
        "repro.android.render:FrameEngine._frame_touch",
        "repro.android.render:FrameEngine._alloc_burst",
        "repro.android.render:FrameStats.record_frame",
        "repro.android.render:FrameStats.record_drop",
        "repro.android.lmk:LowMemoryKiller._psi_tick",
        "repro.android.lmk:LowMemoryKiller.kill_one",
        "repro.android.services:FrameworkLoad._issue_bursts",
    ),
    "apps": (
        "repro.apps.behavior:submit_touch",
        "repro.apps.behavior:BackgroundBehavior.start",
        "repro.apps.behavior:BackgroundBehavior._burst",
        "repro.apps.behavior:BackgroundBehavior._gc_cycle",
        "repro.apps.behavior:BackgroundBehavior._service_wakeup",
        "repro.apps.behavior:BackgroundBehavior._buggy_spin",
        "repro.apps.behavior:PageSampler.sample_ids",
        "repro.apps.behavior:PageSampler.sample_burst_ids",
        "repro.apps.behavior:PageSampler.sample_gc_ids",
    ),
    "core": (
        "repro.core.ice:IcePolicy.attach",
        "repro.core.ice:IcePolicy._on_refault",
        "repro.core.ice:IcePolicy._on_app_frozen",
        "repro.core.ice:IcePolicy._freeze_uid",
        "repro.core.ice:IcePolicy._thaw_uid",
        "repro.core.ice:IcePolicy.on_app_started",
        "repro.core.ice:IcePolicy.on_app_killed",
        "repro.core.ice:IcePolicy.on_foreground_change",
        "repro.core.ice:IcePolicy.before_launch",
        "repro.core.rpf:RefaultDrivenFreezer.handle_refault",
        "repro.core.mdt:MemoryAwareThawing._begin_epoch",
        "repro.core.mdt:MemoryAwareThawing._begin_thaw",
        # The policy hooks, whose base-class versions are the LRU+CFS
        # policy: with them the layer does work on every workload.
        # reclaim_protect and sched_pick_key are left alone: MobileSystem
        # compares them by identity to pick its fast paths.
        "repro.policies.base:ManagementPolicy.before_launch",
        "repro.policies.base:ManagementPolicy.on_foreground_change",
        "repro.policies.base:ManagementPolicy.on_app_started",
        "repro.policies.base:ManagementPolicy.on_app_killed",
    ),
    "obs": (
        "repro.obs.psi:PsiMonitor.record",
        "repro.obs.psi:PsiMonitor.tick",
        "repro.obs.psi:PsiTrigger.check",
    ),
    "system": (
        "repro.system:MobileSystem.install_apps",
        "repro.system:MobileSystem.launch",
        "repro.system:MobileSystem.kill_app",
        "repro.system:MobileSystem.run",
        "repro.system:MobileSystem.run_ms",
        "repro.system:MobileSystem.run_until_complete",
        "repro.system:MobileSystem.touch_pages",
        "repro.system:MobileSystem.touch_ids",
        "repro.system:MobileSystem.allocate_pages",
        "repro.system:MobileSystem.allocate_ids",
        "repro.system:_KswapdBody.run",
    ),
    "sim.rng": (
        "repro.sim.rng:RngStream.randint",
        "repro.sim.rng:RngStream.gauss",
        "repro.sim.rng:RngStream.lognormvariate",
        "repro.sim.rng:RngStream.sample",
        "repro.sim.rng:RngStream.shuffle",
        "repro.sim.rng:RngStream.zipf_index",
    ),
}

# RngStream binds its hottest draws to the underlying random.Random as
# instance attributes in __init__; those are wrapped per instance.
RNG_INSTANCE_DRAWS = ("random", "choice", "uniform", "expovariate", "randbelow")

# The layer that owns the benchmark's own top-level span (one per
# run_scenario / simulate_user call): time in it that no wrapped entry
# point covers is the experiment driver's own.
OP_LAYER = "experiments"

LAYERS = tuple(ENTRY_POINTS) + (OP_LAYER,)

# Counters harvested from each MobileSystem: name -> getter.  Scanned and
# reclaimed pages are summed from MemoryManager.shrink's results instead
# (see _count_reclaim): vmstat.pgscan is never incremented.
SYSTEM_COUNTERS: Dict[str, Callable[[object], int]] = {
    "kernel.faults": lambda s: s.mm.vmstat.pgfault,
    "kernel.refaults": lambda s: s.mm.vmstat.refault_total,
    "storage.zram_stores": lambda s: s.zram.stores,
    "storage.zram_loads": lambda s: s.zram.loads,
    "storage.flash_read_pages": lambda s: s.flash.stats.read_pages,
}


def resolve(entry: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> ``(owner, attr)``; raises if absent."""
    module_name, _, path = entry.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if attr not in vars(owner):
        raise AttributeError(f"entry point {entry} not found")
    return owner, attr


class SpanLog:
    """The spans of one traced run.

    Each span's self time (its duration minus the time its child spans
    cover) is added to its name's total when it closes, so per-layer
    self times are exact however many spans there are.  The first
    ``cap`` spans are also kept, as parallel arrays, to be written out
    at the end: span ``i`` has name ``names[name_ix[i]]``, its caller's
    index ``parent[i]`` (-1 at top level) and ``start[i]``/``end[i]`` in
    ``perf_counter`` seconds.  A traced pass makes millions of spans
    (mostly RNG draws), so keeping all of them would cost hundreds of MB.
    """

    def __init__(self, cap: int = 200_000) -> None:
        self.cap = cap
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.top_s = [0.0]
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Per open span: its stored index (-1 past the cap) and the time
        # its closed children covered so far.
        self._open: List[int] = []
        self._child: List[float] = []

    def name_id(self, name: str, layer: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return ix

    @property
    def span_count(self) -> int:
        return sum(self.calls)

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return ``fn`` wrapped so each call records one span."""
        ix = self.name_id(name, layer)
        self_s, calls, top_s = self.self_s, self.calls, self.top_s
        name_ix, parent, start, end = (
            self.name_ix, self.parent, self.start, self.end
        )
        open_, child = self._open, self._child
        cap = self.cap
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            if i < cap:
                name_ix.append(ix)
                parent.append(open_[-1] if open_ else -1)
                start.append(0.0)
                end.append(0.0)
            else:
                i = -1
            open_.append(i)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                duration = t1 - t0
                self_s[ix] += duration - child.pop()
                calls[ix] += 1
                open_.pop()
                if child:
                    child[-1] += duration
                else:
                    top_s[0] += duration
                if i >= 0:
                    start[i] = t0
                    end[i] = t1

        return traced

    def run(self, name: str, layer: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside one span named ``name``."""
        return self.wrap(fn, name, layer)(*args)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer (every layer present)."""
        out = {layer: 0.0 for layer in LAYERS}
        for ix, seconds in enumerate(self.self_s):
            out[self.name_layer[ix]] += seconds
        return out

    def stored_self_times(self) -> Dict[str, float]:
        """:meth:`self_times` recomputed from the stored spans alone.

        Equal to :meth:`self_times` (up to float rounding) when no span
        fell past the cap; the self-tests check that.
        """
        n = len(self.start)
        start, end, parent, name_ix = (
            self.start, self.end, self.parent, self.name_ix
        )
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {layer: 0.0 for layer in LAYERS}
        layers = self.name_layer
        for i in range(n):
            out[layers[name_ix[i]]] += end[i] - start[i] - covered[i]
        return out

    def call_counts(self) -> Dict[str, int]:
        """Span count per entry-point name."""
        return dict(zip(self.names, self.calls))

    def write(self, path: str) -> None:
        """Write the stored spans, one tab-separated line each."""
        names, layers = self.names, self.name_layer
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            handle.write(
                f"# {len(self.start)} of {self.span_count} spans kept\n"
                "span\tparent\tname\tlayer\tstart_s\tend_s\n"
            )
            for i in range(len(self.start)):
                ix = self.name_ix[i]
                handle.write(
                    f"{i}\t{self.parent[i]}\t{names[ix]}\t{layers[ix]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


class Harvest:
    """Per-operation facts read from every ``MobileSystem`` an op builds."""

    def __init__(self) -> None:
        self.systems: List[object] = []
        self.counters: Dict[str, int] = {name: 0 for name in SYSTEM_COUNTERS}
        self.counters.update({
            "core.freezes": 0, "core.thaws": 0, "sched.idle_ticks": 0,
            "kernel.pgscan": 0, "kernel.pgsteal": 0,
        })

    def add_counters(self, system) -> None:
        for name, read in SYSTEM_COUNTERS.items():
            self.counters[name] += read(system)

    def finish(self) -> Tuple[float, int]:
        """Fold in the op's systems; returns their ``(sim_ms, events)``."""
        sim_ms, events = 0.0, 0
        for system in self.systems:
            self.add_counters(system)
            self.counters["core.freezes"] += system.freezer.freeze_count
            self.counters["core.thaws"] += system.freezer.thaw_count
            sim_ms += system.sim.now
            events += system.sim.events_executed
        self.systems.clear()
        return sim_ms, events


def _patch(owner, attr: str, value, saved: list) -> None:
    saved.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(harvest: Harvest, log: Optional[SpanLog] = None):
    """Capture systems into ``harvest``; with ``log``, also trace layers.

    Without a log only ``MobileSystem.__init__`` and
    ``reset_measurements`` are wrapped (once per system and window), so
    an untraced run keeps the simulator's own speed.
    """
    from repro.sim.rng import RngStream
    from repro.system import MobileSystem

    saved: list = []
    init = MobileSystem.__init__
    reset = MobileSystem.reset_measurements

    @functools.wraps(init)
    def captured_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        harvest.systems.append(self)

    @functools.wraps(reset)
    def harvested_reset(self):
        harvest.add_counters(self)
        reset(self)

    try:
        if log is not None:
            # Wrap __init__ for the span first so the capture sits
            # outside it and sees the finished system.
            init = log.wrap(init, "MobileSystem.__init__", "system")
            for layer, entries in ENTRY_POINTS.items():
                for entry in entries:
                    owner, attr = resolve(entry)
                    fn = vars(owner)[attr]
                    hook = COUNTING_HOOKS.get(entry)
                    if hook is not None:
                        fn = hook(fn, harvest.counters)
                    _patch(owner, attr, log.wrap(fn, entry.split(":")[1],
                                                 layer), saved)
            rng_init = RngStream.__init__

            @functools.wraps(rng_init)
            def traced_rng_init(self, *args, **kwargs):
                rng_init(self, *args, **kwargs)
                for draw in RNG_INSTANCE_DRAWS:
                    setattr(self, draw, log.wrap(
                        getattr(self, draw), f"RngStream.{draw}", "sim.rng"
                    ))

            _patch(RngStream, "__init__", traced_rng_init, saved)
        _patch(MobileSystem, "__init__", captured_init, saved)
        _patch(MobileSystem, "reset_measurements", harvested_reset, saved)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _count_idle_ticks(tick: Callable, counters: Dict[str, int]) -> Callable:
    """Count quanta in which ``stats.busy_ms_total`` did not advance."""

    @functools.wraps(tick)
    def counted(self, now):
        stats = self.stats
        before = stats.busy_ms_total
        busy = tick(self, now)
        if stats.busy_ms_total == before:
            counters["sched.idle_ticks"] += 1
        return busy

    return counted


def _count_reclaim(shrink: Callable, counters: Dict[str, int]) -> Callable:
    """Sum scanned and reclaimed pages over every reclaim pass."""

    @functools.wraps(shrink)
    def counted(self, *args, **kwargs):
        result = shrink(self, *args, **kwargs)
        counters["kernel.pgscan"] += result.scanned
        counters["kernel.pgsteal"] += result.reclaimed
        return result

    return counted


COUNTING_HOOKS = {
    "repro.sched.cfs:CfsScheduler.tick": _count_idle_ticks,
    "repro.kernel.mm:MemoryManager.shrink": _count_reclaim,
}
