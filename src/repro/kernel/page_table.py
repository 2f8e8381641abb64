"""Per-process page tables.

A :class:`PageTable` owns the process's pages grouped by segment.  The
fault handler consults ``page.present`` (the ``_PAGE_PRESENT`` analogue)
and, as in the kernel, the page-fault path can resolve the faulting
process directly from the table that the virtual address belongs to —
this is how RPF attributes a refault to a process (§4.2.1, "Process
selection").

Segments store **page ids** (ints into :data:`~repro.kernel.slab.PAGE_SLAB`)
rather than view objects; ``all_pages`` materialises views only for
the consumers that need ``Page`` semantics (procfs, the Figure 4
categorisation).  ``build_block`` is the construction path: a process
footprint of N pages becomes one slab block allocation instead of N
``Page.__init__`` calls.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.kernel.page import HEAP_CODE, HeapKind, Page, PageKind
from repro.kernel.slab import DIRTY, HOT, PAGE_SLAB, PRESENT


class Segment:
    """A named group of pages (java heap, native heap, file mappings)."""

    __slots__ = ("name", "ids")

    def __init__(self, name: str):
        self.name = name
        self.ids: List[int] = []

    def __len__(self) -> int:
        return len(self.ids)

    def resident(self) -> int:
        flags = PAGE_SLAB.flags
        return sum(1 for i in self.ids if flags[i] & PRESENT)


class PageTable:
    """All virtual pages of one process, grouped into segments."""

    JAVA_HEAP = "java_heap"
    NATIVE_HEAP = "native_heap"
    FILE_MAP = "file_map"

    def __init__(self, owner: object):
        self.owner = owner
        self.segments: Dict[str, Segment] = {
            self.JAVA_HEAP: Segment(self.JAVA_HEAP),
            self.NATIVE_HEAP: Segment(self.NATIVE_HEAP),
            self.FILE_MAP: Segment(self.FILE_MAP),
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _segment_name(self, kind: PageKind, heap: HeapKind) -> str:
        if kind is PageKind.FILE:
            return self.FILE_MAP
        if heap is HeapKind.JAVA:
            return self.JAVA_HEAP
        return self.NATIVE_HEAP

    def build_block(
        self,
        count: int,
        kind: PageKind,
        heap: HeapKind,
        dirty: bool = False,
        hot: bool = False,
    ) -> range:
        """Bulk-create ``count`` identical pages; returns their id range.

        One slab block allocation and one list extend — the footprint
        construction fast path (no view objects are built).
        """
        if kind is PageKind.FILE:
            if heap is not HeapKind.NONE:
                raise ValueError("file-backed pages have no heap kind")
        elif heap is HeapKind.NONE:
            raise ValueError("anonymous pages must be tagged JAVA or NATIVE")
        flag_bits = (DIRTY if dirty else 0) | (HOT if hot else 0)
        ids = PAGE_SLAB.alloc_block(
            count,
            1 if kind is PageKind.FILE else 0,
            HEAP_CODE[heap],
            owner=self.owner,
            flag_bits=flag_bits,
        )
        self.segments[self._segment_name(kind, heap)].ids.extend(ids)
        return ids

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_pages(self) -> Iterator[Page]:
        view = PAGE_SLAB.view
        for segment in self.segments.values():
            for i in segment.ids:
                yield view(i)

    def all_page_ids(self) -> List[int]:
        java, native, file_map = (
            self.segments[self.JAVA_HEAP].ids,
            self.segments[self.NATIVE_HEAP].ids,
            self.segments[self.FILE_MAP].ids,
        )
        return java + native + file_map

    def ids_of(self, segment_name: str) -> List[int]:
        return self.segments[segment_name].ids

    @property
    def total_pages(self) -> int:
        return sum(len(segment) for segment in self.segments.values())

    @property
    def resident_pages(self) -> int:
        return sum(segment.resident() for segment in self.segments.values())

    @property
    def evicted_pages(self) -> int:
        flags = PAGE_SLAB.flags
        shadow = PAGE_SLAB.shadow
        count = 0
        for segment in self.segments.values():
            for i in segment.ids:
                if not flags[i] & PRESENT and shadow[i]:
                    count += 1
        return count

    def resident_by_segment(self) -> Dict[str, int]:
        return {name: segment.resident() for name, segment in self.segments.items()}
