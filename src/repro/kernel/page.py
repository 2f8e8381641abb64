"""Pages and page flags.

Two reclaimable page kinds exist, mirroring §2.1 of the paper:

* **Anonymous pages** hold runtime data.  On reclaim they are compressed
  into ZRAM.  For the Figure 4 categorization study each anonymous page
  is further tagged with the heap it belongs to (Java heap vs native
  heap).
* **File-backed pages** map segments of files on flash.  Dirty ones are
  written back on reclaim; clean ones are dropped and re-read on
  refault.

A page models one *virtual* page of one process; ``present`` plays the
role of the PTE ``_PAGE_PRESENT`` bit (bit-0, §4.2.1).  When a page is
evicted, :class:`~repro.kernel.workingset.WorkingSet` stores a shadow
entry in ``shadow_eviction_clock`` so the subsequent fault can be
recognised as a refault.

The page state itself lives in the columnar
:data:`~repro.kernel.slab.PAGE_SLAB`; :class:`Page` is a one-slot
*view* object whose properties read and write the columns (the slab
caches one view per id).  The kernel API takes raw ids; views are only
handed to policy code and whole-table reports.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.kernel import slab as _slab
from repro.kernel.slab import (
    DIRTY,
    HEAP_JAVA,
    HEAP_NATIVE,
    HEAP_NONE,
    HOT,
    KIND_FILE,
    PAGE_SLAB,
    PRESENT,
    REFERENCED,
)


def reset_page_ids(start: int = 1) -> None:
    """Restart the global page-id sequence (and clear the slab).

    Called at the top of every scenario run so a run's id stream never
    depends on what executed earlier in the process — a serial benchmark
    matrix and a process-pool worker hand out identical ids.
    """
    PAGE_SLAB.reset(start)


class PageKind(enum.Enum):
    ANON = "anon"
    FILE = "file"

    # Identity hash: members are singletons, and these enums key hot
    # dicts (page tables, vmstat breakdowns).
    __hash__ = object.__hash__


class HeapKind(enum.Enum):
    """Sub-categorisation of anonymous pages (paper §3.2 / Figure 4)."""

    NONE = "none"  # file-backed pages
    JAVA = "java"  # ART-managed Java heap
    NATIVE = "native"  # malloc/free native heap

    __hash__ = object.__hash__


# Code <-> enum mapping tables (index = slab column byte).
KIND_BY_CODE = (PageKind.ANON, PageKind.FILE)
HEAP_BY_CODE = (HeapKind.NONE, HeapKind.JAVA, HeapKind.NATIVE)
HEAP_CODE = {
    HeapKind.NONE: HEAP_NONE,
    HeapKind.JAVA: HEAP_JAVA,
    HeapKind.NATIVE: HEAP_NATIVE,
}


class Page:
    """One virtual page of one process (a view over the slab)."""

    __slots__ = ("page_id",)

    def __init__(
        self,
        kind: PageKind,
        owner: object,
        heap: HeapKind = HeapKind.NONE,
        dirty: bool = False,
        hot: bool = False,
    ):
        if kind is PageKind.FILE:
            if heap is not HeapKind.NONE:
                raise ValueError("file-backed pages have no heap kind")
        elif heap is HeapKind.NONE:
            raise ValueError("anonymous pages must be tagged JAVA or NATIVE")
        flag_bits = (DIRTY if dirty else 0) | (HOT if hot else 0)
        slab = PAGE_SLAB
        i = slab.alloc(
            1 if kind is PageKind.FILE else 0,
            HEAP_CODE[heap],
            flag_bits,
            owner,
        )
        self.page_id = i
        slab.views[i] = self

    # --- immutable identity -------------------------------------------
    @property
    def kind(self) -> PageKind:
        return KIND_BY_CODE[PAGE_SLAB.kind[self.page_id]]

    @property
    def is_anon(self) -> bool:
        return PAGE_SLAB.kind[self.page_id] != KIND_FILE

    @property
    def is_file(self) -> bool:
        return PAGE_SLAB.kind[self.page_id] == KIND_FILE

    @property
    def heap(self) -> HeapKind:
        return HEAP_BY_CODE[PAGE_SLAB.heap[self.page_id]]

    # --- owner ---------------------------------------------------------
    @property
    def owner(self) -> object:
        return PAGE_SLAB.owner[self.page_id]

    @owner.setter
    def owner(self, value: object) -> None:
        PAGE_SLAB.owner[self.page_id] = value

    # --- flag bits ------------------------------------------------------
    @property
    def present(self) -> bool:
        return bool(PAGE_SLAB.flags[self.page_id] & PRESENT)

    @present.setter
    def present(self, value: bool) -> None:
        i = self.page_id
        flags = PAGE_SLAB.flags
        if value:
            flags[i] |= PRESENT
        else:
            flags[i] &= ~PRESENT & 0xFF

    @property
    def dirty(self) -> bool:
        return bool(PAGE_SLAB.flags[self.page_id] & DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        i = self.page_id
        flags = PAGE_SLAB.flags
        if value:
            flags[i] |= DIRTY
        else:
            flags[i] &= ~DIRTY & 0xFF

    @property
    def referenced(self) -> bool:
        return bool(PAGE_SLAB.flags[self.page_id] & REFERENCED)

    @referenced.setter
    def referenced(self, value: bool) -> None:
        i = self.page_id
        flags = PAGE_SLAB.flags
        if value:
            flags[i] |= REFERENCED
        else:
            flags[i] &= ~REFERENCED & 0xFF

    @property
    def hot(self) -> bool:
        return bool(PAGE_SLAB.flags[self.page_id] & HOT)

    @hot.setter
    def hot(self, value: bool) -> None:
        i = self.page_id
        flags = PAGE_SLAB.flags
        if value:
            flags[i] |= HOT
        else:
            flags[i] &= ~HOT & 0xFF

    # --- LRU membership -------------------------------------------------
    @property
    def lru(self):
        code = PAGE_SLAB.lru[self.page_id]
        if not code:
            return None
        from repro.kernel.lru import KIND_BY_LRU_CODE

        return KIND_BY_LRU_CODE[code]

    @lru.setter
    def lru(self, value) -> None:
        if value is None:
            PAGE_SLAB.lru[self.page_id] = 0
        else:
            from repro.kernel.lru import LRU_CODE_BY_KIND

            PAGE_SLAB.lru[self.page_id] = LRU_CODE_BY_KIND[value]

    # --- workingset bookkeeping -----------------------------------------
    @property
    def shadow_eviction_clock(self) -> Optional[int]:
        clock = PAGE_SLAB.shadow[self.page_id]
        return clock if clock else None

    @shadow_eviction_clock.setter
    def shadow_eviction_clock(self, value: Optional[int]) -> None:
        PAGE_SLAB.shadow[self.page_id] = 0 if value is None else value

    @property
    def evictions(self) -> int:
        return PAGE_SLAB.evictions[self.page_id]

    @evictions.setter
    def evictions(self, value: int) -> None:
        PAGE_SLAB.evictions[self.page_id] = value

    @property
    def refaults(self) -> int:
        return PAGE_SLAB.refaults[self.page_id]

    @refaults.setter
    def refaults(self, value: int) -> None:
        PAGE_SLAB.refaults[self.page_id] = value

    @property
    def was_evicted(self) -> bool:
        """True when a shadow entry exists (next fault is a refault)."""
        return PAGE_SLAB.shadow[self.page_id] != 0

    def mark_accessed(self, write: bool = False) -> None:
        """Record a CPU access to a present page (sets the young bit)."""
        i = self.page_id
        slab = PAGE_SLAB
        if write and slab.kind[i] == KIND_FILE:
            slab.flags[i] |= REFERENCED | DIRTY
        else:
            slab.flags[i] |= REFERENCED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (
                ("P", self.present),
                ("D", self.dirty),
                ("R", self.referenced),
                ("S", self.was_evicted),
            )
            if on
        )
        return f"<Page {self.page_id} {self.kind.value}/{self.heap.value} {flags}>"


_slab.register_view_type(Page)
