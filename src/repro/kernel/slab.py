"""Struct-of-arrays slab backing all kernel page state.

CPython objects are expensive on the fault/reclaim hot path: every
``Page`` used to be a 14-slot object (~200 bytes) whose attribute reads
each cost a dict-free but still interpreted ``LOAD_ATTR``.  At 100k+
simulated events per second the allocator, the LRU lists, and the fault
loop together touch millions of page fields per wall-second, so the
object overhead dominated the profile (see BENCH_2026-08-05.json and
ROADMAP item 3).

This module rebuilds that state the way the kernel itself lays out
``struct page``: one global **slab** of parallel columns indexed by the
integer page id.

* ``kind``/``heap``/``flags``/``lru`` are ``bytearray`` columns — one
  byte per page, C-speed indexing, no boxing.
* ``lru_prev``/``lru_next`` are int columns forming the intrusive
  doubly-linked LRU lists (:mod:`repro.kernel.lru` owns the head/tail
  cursors; id 0 is the null link, which is why real ids start at 1).
* ``shadow``/``evictions``/``refaults`` are int columns for workingset
  bookkeeping (shadow clock 0 means "no shadow entry").
* ``owner`` holds the owning process reference (duck-typed, as before).

Integer ids are the kernel's only API: the LRU lists, the memory
manager, the workingset and the fault path all take and return ids.
``Page`` (:mod:`repro.kernel.page`) is a *view*: a one-slot object
holding only ``page_id`` whose properties read and write these columns.
Views exist only at the policy boundary — the ``reclaim_protect`` hook,
``RefaultEvent.page`` and the ``all_pages()`` iterators used by procfs
and the Figure 4 study.  They are cached per id (``views``) so the same
id always yields the same object, which policies may key on.

The slab is process-global, mirroring the pre-existing global page-id
counter: ``reset_page_ids()`` (called at the top of every scenario run)
clears the columns **in place**, so aliases held by long-lived
structures stay valid.  Multiple coexisting systems are safe for the
same reason multiple systems were safe with the global id counter:
their id ranges are disjoint, so their link columns never interfere.

Transient pages (frame-churn allocations that used to be garbage
collected) are recycled through an explicit free list — columns would
otherwise grow without bound over a long run.  Freed ids must be fully
retired first (not resident, not on an LRU list, no zram slot).
"""

from __future__ import annotations

from typing import List, Optional

# --- flag bits (``flags`` column) -------------------------------------
PRESENT = 0x01  # _PAGE_PRESENT
DIRTY = 0x02
REFERENCED = 0x04  # PTE young bit
HOT = 0x08  # working-set nucleus marker

# --- kind codes (``kind`` column) -------------------------------------
KIND_ANON = 0
KIND_FILE = 1

# --- heap codes (``heap`` column) -------------------------------------
HEAP_NONE = 0
HEAP_JAVA = 1
HEAP_NATIVE = 2

# --- lru codes (``lru`` column); 0 = not on any list ------------------
LRU_NONE = 0
LRU_ACTIVE_ANON = 1
LRU_INACTIVE_ANON = 2
LRU_ACTIVE_FILE = 3
LRU_INACTIVE_FILE = 4


class PageSlab:
    """Columnar storage for every page in the process.

    All columns are indexed by page id.  Index 0 is a permanent
    sentinel (the null link of the intrusive lists); live ids start at
    ``reset(start)``'s ``start`` (default 1).
    """

    __slots__ = (
        "kind",
        "heap",
        "flags",
        "lru",
        "lru_prev",
        "lru_next",
        "shadow",
        "evictions",
        "refaults",
        "owner",
        "views",
        "free_list",
        "_next_id",
    )

    def __init__(self) -> None:
        self.kind = bytearray()
        self.heap = bytearray()
        self.flags = bytearray()
        self.lru = bytearray()
        self.lru_prev: List[int] = []
        self.lru_next: List[int] = []
        self.shadow: List[int] = []
        self.evictions: List[int] = []
        self.refaults: List[int] = []
        self.owner: List[object] = []
        # id -> Page view cache (identity-preserving thin objects).
        self.views: dict = {}
        # Recycled ids (fully-retired transient pages), LIFO.
        self.free_list: List[int] = []
        self._next_id = 0
        self.reset(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self, start: int = 1) -> None:
        """Clear all columns in place and restart ids at ``start``.

        In-place (``del col[:]`` / ``.clear()``) so column aliases held
        by :class:`~repro.kernel.lru.LruLists` and friends survive — a
        fresh scenario run simply sees empty columns.
        """
        if start < 1:
            raise ValueError(f"page ids start at 1 (got start={start})")
        del self.kind[:]
        del self.heap[:]
        del self.flags[:]
        del self.lru[:]
        del self.lru_prev[:]
        del self.lru_next[:]
        del self.shadow[:]
        del self.evictions[:]
        del self.refaults[:]
        del self.owner[:]
        self.views.clear()
        del self.free_list[:]
        # Sentinel slots for 0..start-1 (id 0 is the null link).
        pad = b"\x00" * start
        self.kind += pad
        self.heap += pad
        self.flags += pad
        self.lru += pad
        zeros = [0] * start
        self.lru_prev += zeros
        self.lru_next += zeros
        self.shadow += zeros
        self.evictions += zeros
        self.refaults += zeros
        self.owner += [None] * start
        self._next_id = start

    def __len__(self) -> int:
        """Number of live ids (allocated minus recycled)."""
        return self._next_id - 1 - len(self.free_list)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(
        self,
        kind_code: int,
        heap_code: int,
        flag_bits: int = 0,
        owner: object = None,
    ) -> int:
        """Allocate one page slot; returns its id."""
        free = self.free_list
        if free:
            i = free.pop()
            self.kind[i] = kind_code
            self.heap[i] = heap_code
            self.flags[i] = flag_bits
            self.owner[i] = owner
            return i
        i = self._next_id
        self._next_id = i + 1
        self.kind.append(kind_code)
        self.heap.append(heap_code)
        self.flags.append(flag_bits)
        self.lru.append(0)
        self.lru_prev.append(0)
        self.lru_next.append(0)
        self.shadow.append(0)
        self.evictions.append(0)
        self.refaults.append(0)
        self.owner.append(owner)
        return i

    def alloc_block(
        self,
        count: int,
        kind_code: int,
        heap_code: int,
        owner: object = None,
        flag_bits: int = 0,
    ) -> range:
        """Allocate ``count`` contiguous slots in one shot.

        This is the bulk path for process-footprint construction: every
        column grows by one C-level extend instead of ``count`` Python
        loop iterations.  The free list is deliberately not consulted —
        block ids must be contiguous.  Returns the ``range`` of new ids.
        """
        if count <= 0:
            return range(0, 0)
        first = self._next_id
        self._next_id = first + count
        self.kind += bytes([kind_code]) * count
        self.heap += bytes([heap_code]) * count
        self.flags += bytes([flag_bits]) * count
        pad = b"\x00" * count
        self.lru += pad
        zeros = [0] * count
        self.lru_prev += zeros
        self.lru_next += zeros
        self.shadow += zeros
        self.evictions += zeros
        self.refaults += zeros
        self.owner += [owner] * count
        return range(first, first + count)

    def free(self, i: int) -> None:
        """Recycle a fully-retired id (transient-page teardown).

        The caller must have already made the page non-resident, taken
        it off any LRU list, and dropped its zram slot / shadow entry.
        """
        self.flags[i] = 0
        self.shadow[i] = 0
        self.evictions[i] = 0
        self.refaults[i] = 0
        self.owner[i] = None
        self.views.pop(i, None)
        self.free_list.append(i)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def view(self, i: int):
        """The cached :class:`~repro.kernel.page.Page` view for ``i``."""
        page = self.views.get(i)
        if page is None:
            page = _VIEW_TYPE.__new__(_VIEW_TYPE)
            page.page_id = i
            self.views[i] = page
        return page


# The Page class registers itself here on import (avoids a circular
# import: page.py imports the slab, not the other way around).
_VIEW_TYPE: Optional[type] = None


def register_view_type(cls: type) -> None:
    global _VIEW_TYPE
    _VIEW_TYPE = cls


#: The process-global slab.  Reset by ``repro.kernel.page.reset_page_ids``
#: at the top of every scenario run.
PAGE_SLAB = PageSlab()
