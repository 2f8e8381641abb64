"""The memory manager: allocation, watermarks, eviction, reclaim.

This is the junction where the paper's problem lives.  Free memory is
``managed - resident - zram_pool``; when it drops below the **low**
watermark kswapd is woken (asynchronous background reclaim), and when an
allocation finds it below the **min** watermark the allocating task
performs **direct reclaim** itself — non-preemptively, which is the
priority-inversion path of §2.2.3(2): a foreground frame-rendering task
can be stuck reclaiming pages that background refaults keep pulling
back.

Eviction routes anonymous pages to ZRAM (compression CPU charged to the
reclaiming context) and dirty file pages to flash write-back (device
occupancy charged to the block queue); clean file pages are dropped.
Every eviction installs a shadow entry so the next touch registers as a
refault.

The API takes raw slab ids (``make_resident_id``, ``release_id``,
``release_process_ids``, ...): allocation, the reclaim loop and eviction
are flag-column bit ops, with no view objects.  ``Page`` views appear
only at the policy boundary, in the ``reclaim_protect`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.devices.specs import DeviceSpec
from repro.kernel.lru import LruKind, LruLists
from repro.kernel.page import Page
from repro.kernel.slab import DIRTY, KIND_FILE, PAGE_SLAB, PRESENT, REFERENCED
from repro.kernel.vmstat import VmStat
from repro.kernel.workingset import SHADOW_ENTRY_BYTES, WorkingSet
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice, ZramFullError
from repro.trace.tracer import DIRECT_RECLAIM_TID, KERNEL_PID


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after reclaim.

    The Android layer catches this and invokes the low-memory killer.
    """


@dataclass(slots=True)
class ReclaimResult:
    """Outcome of one reclaim pass."""

    reclaimed: int = 0
    scanned: int = 0
    cpu_ms: float = 0.0
    io_wait_ms: float = 0.0
    zram_full: bool = False

    def merge(self, other: "ReclaimResult") -> None:
        self.reclaimed += other.reclaimed
        self.scanned += other.scanned
        self.cpu_ms += other.cpu_ms
        self.io_wait_ms += other.io_wait_ms
        self.zram_full = self.zram_full or other.zram_full


@dataclass(slots=True)
class AllocationOutcome:
    """Cost of making pages resident (charged to the allocating task)."""

    pages: int = 0
    stall_ms: float = 0.0  # direct-reclaim time, non-preemptive
    direct_reclaims: int = 0


# CPU cost model (ms per page) for the reclaim path.  Includes LRU lock
# contention, rmap walks and PTE teardown on a mobile-class SoC, where
# sustained reclaim throughput is on the order of 100 MB/s — a few
# thousand (simulated) pages per second here.  This is the regime in
# which bursty BG refault storms outlast the watermark band and push
# foreground allocations into direct reclaim (the paper's §2.2.3(2)
# priority-inversion path); one 32-page direct-reclaim batch costs
# ~10 ms, i.e. a missed vsync.
SCAN_COST_MS = 0.030
EVICT_COST_MS = 0.400
DIRECT_RECLAIM_BATCH = 16
# Rough all-in cost of reclaiming one page (scan + unmap + compress),
# used by kswapd to size its per-quantum batches.
PAGE_RECLAIM_COST_EST_MS = 1.0
# Allocator slow-path contention while reclaim is churning: zone/LRU
# lock contention, allocation retries and compaction interference make
# every allocation slower when free memory sits inside the watermark
# band.  Charged per page, capped per call (bulk allocations amortise
# lock acquisitions).
ALLOC_CONTENTION_LOW_MS = 6.0   # free in [min, low): kswapd fighting inflow
ALLOC_CONTENTION_HIGH_MS = 0.3  # free in [low, high): mild churn
ALLOC_CONTENTION_CAP_MS = 30.0


class MemoryManager:
    """Watermark-driven physical-memory manager for one device."""

    def __init__(
        self,
        spec: DeviceSpec,
        zram: ZramDevice,
        flash: FlashDevice,
        clock: Callable[[], float],
    ):
        self.spec = spec
        self.zram = zram
        self.flash = flash
        self.clock = clock
        # Optional direct simulator reference (set by the system layer):
        # hot paths read ``sim.now`` as an attribute instead of paying a
        # Python frame for the ``clock`` lambda on every fault/eviction.
        self.sim = None
        self.lru = LruLists()
        self.vmstat = VmStat()
        self.workingset = WorkingSet(vmstat=self.vmstat)
        # Spec-derived constants, cached once: DeviceSpec is frozen and
        # these sit on the watermark-check hot path.
        self._managed_pages = spec.managed_pages
        self._wm_min = spec.min_watermark_pages
        self._wm_low = spec.low_watermark_pages
        self._wm_high = spec.high_watermark_pages
        # Free memory is maintained incrementally: residency changes go
        # through the ``resident_pages`` setter and ZRAM pool changes
        # arrive via the device's ``on_change`` observer, so ``free_pages``
        # is a plain attribute read instead of a recomputation.
        self._resident_pages = 0
        self._pool_charge = 0
        self._free_pages = self._managed_pages
        zram.on_change = self._on_zram_change
        self._on_zram_change(zram.stored_pages)
        # Policy hooks (set by the active management policy):
        # protect-from-reclaim predicate (Acclaim's FAE).  ``None`` keeps
        # the reclaim scan free of per-page view construction.
        self.reclaim_protect: Optional[Callable[[Page], bool]] = None
        # ... and the kswapd wakeup callback (wired by the system layer).
        self.kswapd_waker: Optional[Callable[[], None]] = None
        # Set by the ActivityManager so refaults can be classified FG/BG.
        self.foreground_uid: Optional[int] = None
        # Optional tracing hook (repro.trace.Tracer); None when disabled.
        self.tracer = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _on_zram_change(self, stored: int) -> None:
        """ZRAM observer: fold the pool charge delta into free memory."""
        charge = int(stored / self.zram.compression_ratio)
        if charge != self._pool_charge:
            self._free_pages += self._pool_charge - charge
            self._pool_charge = charge

    @property
    def managed_pages(self) -> int:
        return self._managed_pages

    @property
    def resident_pages(self) -> int:
        return self._resident_pages

    @resident_pages.setter
    def resident_pages(self, value: int) -> None:
        self._free_pages += self._resident_pages - value
        self._resident_pages = value

    @property
    def free_pages(self) -> int:
        return self._free_pages

    @property
    def below_low(self) -> bool:
        return self._free_pages < self._wm_low

    @property
    def below_high(self) -> bool:
        return self._free_pages < self._wm_high

    @property
    def available_pages(self) -> int:
        """The MDT formula's S_am: free plus easily-droppable file pages."""
        return self._free_pages + self.lru.inactive_file

    def memory_pressure(self) -> float:
        """0 (idle) .. 1+ (thrashing): high-watermark over availability."""
        available = max(1, self.available_pages)
        return self.spec.high_watermark_pages / available

    # ------------------------------------------------------------------
    # Allocation / residency
    # ------------------------------------------------------------------
    def make_resident_id(self, i: int, active: bool = False) -> AllocationOutcome:
        """Bring page ``i`` into memory; may trigger direct reclaim."""
        outcome = AllocationOutcome()
        flags = PAGE_SLAB.flags
        if flags[i] & PRESENT:
            return outcome
        if self._free_pages <= self._wm_min:
            self._ensure_headroom(outcome)
        # The young bit is set by actual CPU accesses, not by allocation:
        # a freshly-allocated page that is never touched again must look
        # cold to the LRU scan.
        flags[i] = (flags[i] | PRESENT) & ~REFERENCED & 0xFF
        self._resident_pages += 1
        self._free_pages -= 1
        self.vmstat.pgalloc += 1
        self.lru.add_id(i, active)
        outcome.pages = 1
        self._charge_contention(outcome, 1)
        self._check_watermarks()
        return outcome

    def make_resident_bulk_ids(
        self, ids: Iterable[int], active: bool = False
    ) -> AllocationOutcome:
        """Fault-in / allocate a batch of pages — the footprint/launch
        hot path.

        The free/resident counters and the pgalloc vmstat run in locals
        and are written back in one shot; reclaim (which reads and
        mutates the real counters) forces a sync around each
        ``_ensure_headroom`` call, so the observable counter values at
        every reclaim entry and at return are identical to the
        per-page-update version.
        """
        outcome = AllocationOutcome()
        flags = PAGE_SLAB.flags
        lru_add = self.lru.add_id
        wm_min = self._wm_min
        free = self._free_pages
        resident = self._resident_pages
        pages = 0
        for i in ids:
            f = flags[i]
            if f & PRESENT:
                continue
            if free <= wm_min:
                self._free_pages = free
                self._resident_pages = resident
                self._ensure_headroom(outcome)
                free = self._free_pages
                resident = self._resident_pages
                f = flags[i]
            flags[i] = (f | PRESENT) & ~REFERENCED & 0xFF
            resident += 1
            free -= 1
            pages += 1
            lru_add(i, active)
        self._free_pages = free
        self._resident_pages = resident
        self.vmstat.pgalloc += pages
        outcome.pages = pages
        self._charge_contention(outcome, pages)
        self._check_watermarks()
        return outcome

    def _charge_contention(self, outcome: AllocationOutcome, pages: int) -> None:
        """Allocator slow-path latency while reclaim churns (§2.2.3(2)):
        the non-preemptive reclaim machinery slows every allocator down,
        foreground render threads included."""
        free = self._free_pages
        if pages <= 0 or free >= self._wm_high:
            return
        if free < self._wm_low:
            per_page = ALLOC_CONTENTION_LOW_MS
        else:
            per_page = ALLOC_CONTENTION_HIGH_MS
        stall = min(ALLOC_CONTENTION_CAP_MS, per_page * pages)
        outcome.stall_ms += stall
        self.vmstat.alloc_stall_ms += stall

    def release_id(self, i: int) -> None:
        """A resident page leaves memory without eviction (free/unmap)."""
        flags = PAGE_SLAB.flags
        if not flags[i] & PRESENT:
            return
        flags[i] &= ~PRESENT & 0xFF
        self.lru.discard_id(i)
        self._resident_pages -= 1
        self._free_pages += 1
        self.vmstat.pgfree += 1

    def discard_page_id(self, i: int) -> None:
        """Drop one page entirely: free it if resident, otherwise clear
        its swap slot / shadow entry (transient-allocation teardown)."""
        slab = PAGE_SLAB
        if slab.flags[i] & PRESENT:
            self.release_id(i)
        elif slab.shadow[i]:
            if slab.kind[i] != KIND_FILE:
                self.zram.discard(i)
            self.workingset.drop_shadow_id(i)

    def release_process_ids(self, ids: Iterable[int]) -> int:
        """Tear down a dead process: free resident pages, drop zram slots
        and shadow entries.  Returns the number of resident pages freed."""
        flags = PAGE_SLAB.flags
        freed = 0
        discard = self.discard_page_id
        for i in ids:
            if flags[i] & PRESENT:
                freed += 1
            discard(i)
        return freed

    def _ensure_headroom(self, outcome: AllocationOutcome) -> None:
        """Direct-reclaim until a page can be allocated (§2.2.3(2)).

        The stall is charged to ``outcome`` — the caller's timeline —
        because direct reclaim is non-preemptive.
        """
        # Like the kernel's try_to_free_pages loop: the allocating
        # context reclaims, non-preemptively, until the min watermark is
        # restored.  A deep deficit (a background refault storm just
        # faulted in hundreds of pages) is paid for by whoever allocates
        # next — including the foreground render thread.
        attempts = 0
        stall_entry = outcome.stall_ms
        reclaimed_total = 0
        while self._free_pages <= self._wm_min and attempts < 32:
            result = self.shrink(DIRECT_RECLAIM_BATCH, direct=True)
            outcome.stall_ms += result.cpu_ms + result.io_wait_ms
            outcome.direct_reclaims += 1
            reclaimed_total += result.reclaimed
            self.vmstat.direct_reclaim_entries += 1
            self.vmstat.direct_reclaim_stall_ms += result.cpu_ms + result.io_wait_ms
            attempts += 1
            if result.reclaimed == 0:
                if self.free_pages <= 0:
                    self.vmstat.oom_kills += 1
                    raise OutOfMemoryError(
                        f"allocation failed: free={self.free_pages}, "
                        f"resident={self.resident_pages}/{self.managed_pages}"
                    )
                break
        tracer = self.tracer
        if tracer is not None and attempts:
            stall = outcome.stall_ms - stall_entry
            tracer.complete(
                "direct_reclaim", KERNEL_PID, DIRECT_RECLAIM_TID,
                start_ms=self.clock(), dur_ms=stall,
                args={"reclaimed": reclaimed_total, "entries": attempts},
                cat="reclaim",
            )
            tracer.histogram("direct_reclaim_stall_ms").add(stall)
        if self.free_pages <= 0:
            self.vmstat.oom_kills += 1
            raise OutOfMemoryError(
                f"allocation failed: free={self.free_pages}, "
                f"resident={self.resident_pages}/{self.managed_pages}"
            )

    def _check_watermarks(self) -> None:
        if self._free_pages < self._wm_low and self.kswapd_waker is not None:
            self.kswapd_waker()

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------
    def shrink(self, nr_to_reclaim: int, direct: bool = False) -> ReclaimResult:
        """Reclaim up to ``nr_to_reclaim`` pages from the inactive lists.

        Balances anon vs file proportionally to list sizes (with anon
        capped by ZRAM room), ages the active lists when the inactive
        lists run dry, and honours the policy protect hook.
        """
        result = ReclaimResult()
        remaining = nr_to_reclaim
        rounds = 0
        while remaining > 0 and rounds < 4:
            rounds += 1
            progress = self._shrink_round(remaining, result)
            if progress == 0:
                break
            remaining -= progress
        vmstat = self.vmstat
        vmstat.pgscan += result.scanned
        if direct:
            vmstat.pgsteal_direct += result.reclaimed
        else:
            vmstat.pgsteal_kswapd += result.reclaimed
        return result

    def _shrink_round(self, target: int, result: ReclaimResult) -> int:
        # Refill inactive lists by aging active ones when needed.
        lru = self.lru
        for inactive, active in (
            (LruKind.INACTIVE_ANON, LruKind.ACTIVE_ANON),
            (LruKind.INACTIVE_FILE, LruKind.ACTIVE_FILE),
        ):
            if lru.needs_aging(inactive):
                aged = lru.age_active(active, budget=target * 2)
                result.scanned += aged
                result.cpu_ms += aged * SCAN_COST_MS

        anon_avail = lru.inactive_anon
        file_avail = lru.inactive_file
        total_avail = anon_avail + file_avail
        if total_avail == 0:
            return 0
        anon_share = int(round(target * anon_avail / total_avail))
        if not self.zram.has_room(1):
            anon_share = 0
            result.zram_full = True
        anon_share = min(anon_share, self.zram.free_slots)
        file_share = target - anon_share

        reclaimed = 0
        reclaimed += self._evict_from(LruKind.INACTIVE_ANON, anon_share, result)
        reclaimed += self._evict_from(LruKind.INACTIVE_FILE, file_share, result)
        return reclaimed

    def _evict_from(self, kind: LruKind, count: int, result: ReclaimResult) -> int:
        if count <= 0:
            return 0
        lru = self.lru
        victims, scanned = lru.scan_inactive_ids(
            kind, budget=count * 2, protect=self.reclaim_protect
        )
        # scan_inactive removes victims from the list; only `count` of
        # them are evicted this round, the rest rotate back (still cold).
        if len(victims) > count:
            for extra in victims[count:]:
                lru.add_id(extra, False)
            del victims[count:]
        # Charge the pages actually scanned — an exhausted list scans
        # fewer than the 2x budget.
        result.scanned += scanned
        result.cpu_ms += scanned * SCAN_COST_MS
        if not victims:
            return 0
        # Per-victim eviction with the whole chain inlined
        # (_evict_page_id, zram.store + its on_change observer, and
        # workingset.record_eviction_id): the reclaim loop is the
        # second-hottest path after the fault loop, and each of those
        # frames fired once per evicted page.  Counter/float-op order
        # matches the unfused chain exactly.
        slab = PAGE_SLAB
        kind_col = slab.kind
        flags = slab.flags
        shadow = slab.shadow
        evictions_col = slab.evictions
        vmstat = self.vmstat
        ws = self.workingset
        budget = ws.shadow_budget_bytes
        zram = self.zram
        zram_slots = zram._slots
        zram_capacity = zram.capacity_pages
        ratio = zram.compression_ratio
        anon_cost = EVICT_COST_MS + zram.compress_ms
        sim = self.sim
        now = sim.now if sim is not None else self.clock()
        cpu_ms = result.cpu_ms
        evicted = 0
        dirty_batch = 0
        for index, i in enumerate(victims):
            if kind_col[i] == KIND_FILE:
                f = flags[i]
                vmstat.pgsteal_file += 1
                if f & DIRTY:
                    vmstat.pgsteal_file_dirty += 1
                    dirty_batch += 1
                # Dirty pages are queued for write-back below, so the
                # page is clean afterwards.
                flags[i] = f & ~(PRESENT | REFERENCED | DIRTY) & 0xFF
                cpu_ms += EVICT_COST_MS
            else:
                # Inline zram.store, with the full-device case handled
                # as a branch instead of a raise/catch pair.
                if len(zram_slots) >= zram_capacity:
                    zram.failed_stores += 1
                    # Put this and the remaining victims back; anon
                    # reclaim is over for this round.
                    for leftover in victims[index:]:
                        lru.add_id(leftover, True)
                    result.zram_full = True
                    break
                if i in zram_slots:
                    raise ValueError(f"zram slot {i} already occupied")
                zram_slots.add(i)
                zram.stores += 1
                # Inline the on_change observer (_on_zram_change).
                charge = int(len(zram_slots) / ratio)
                if charge != self._pool_charge:
                    self._free_pages += self._pool_charge - charge
                    self._pool_charge = charge
                vmstat.pswpout += 1
                vmstat.pgsteal_anon += 1
                flags[i] &= ~(PRESENT | REFERENCED) & 0xFF
                cpu_ms += anon_cost
            self._resident_pages -= 1
            self._free_pages += 1
            # Inline workingset.record_eviction_id.
            clock = ws.eviction_clock + 1
            ws.eviction_clock = clock
            if not shadow[i]:
                ws.shadow_entries += 1
            shadow[i] = clock
            evictions_col[i] += 1
            if budget is not None and ws.shadow_entries * SHADOW_ENTRY_BYTES > budget:
                ws._shed_oldest()
            evicted += 1
        result.cpu_ms = cpu_ms
        if dirty_batch:
            # Write-back is asynchronous: it occupies the flash queue but
            # the reclaiming context does not wait for completion.
            self.flash.write(now, dirty_batch)
            vmstat.fileback_writeout += dirty_batch
        result.reclaimed += evicted
        return evicted

    def _evict_page_id(self, i: int) -> float:
        """Evict one page already removed from the LRU.  Returns CPU ms."""
        cost = EVICT_COST_MS
        slab = PAGE_SLAB
        vmstat = self.vmstat
        is_file = slab.kind[i] == KIND_FILE
        if not is_file:
            cost += self.zram.store(i)  # may raise ZramFullError
            vmstat.pswpout += 1
            vmstat.pgsteal_anon += 1
        else:
            vmstat.pgsteal_file += 1
            if slab.flags[i] & DIRTY:
                vmstat.pgsteal_file_dirty += 1
        flags = slab.flags
        if is_file:
            # present/referenced cleared; dirty pages were queued for
            # write-back by the caller, so the page is clean afterwards.
            flags[i] &= ~(PRESENT | REFERENCED | DIRTY) & 0xFF
        else:
            flags[i] &= ~(PRESENT | REFERENCED) & 0xFF
        self._resident_pages -= 1
        self._free_pages += 1
        self.workingset.record_eviction_id(i)
        return cost
