"""Active/inactive LRU page lists with second-chance aging.

Mirrors the Linux MM layout the paper's baseline ("LRU [22]") uses:
four lists — ``{active, inactive} x {anon, file}``.  New pages enter the
inactive list; a reference observed during an inactive scan promotes
the page to the active list (second chance); active scans age pages
back down to keep the inactive list stocked.  Reclaim consumes victims
from the cold end of the inactive lists.

The lists are **intrusive doubly-linked lists** over the slab's
``lru_prev``/``lru_next`` id columns (the Linux ``struct page.lru``
idiom): membership moves are a handful of int-column writes, with no
per-node allocation and no ``OrderedDict`` hashing.  Each
:class:`LruLists` instance owns only the head/tail/size cursors; the
link columns are shared through :data:`~repro.kernel.slab.PAGE_SLAB`
(safe because a page is on at most one list, and coexisting systems use
disjoint id ranges).

Orientation matches the previous ``OrderedDict`` implementation: the
**cold** end is the head (FIFO order of insertion), the hot end is the
tail.  Scans pop from the head and re-insert survivors at the tail, so
orderings — and therefore eviction choices and every downstream paper
metric — are bit-identical to the object-backed version.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, List, Optional, Tuple

from repro.kernel.page import Page
from repro.kernel.slab import (
    KIND_FILE,
    LRU_ACTIVE_ANON,
    LRU_ACTIVE_FILE,
    LRU_INACTIVE_ANON,
    LRU_INACTIVE_FILE,
    PAGE_SLAB,
    REFERENCED,
)


class LruKind(enum.Enum):
    ACTIVE_ANON = "active_anon"
    INACTIVE_ANON = "inactive_anon"
    ACTIVE_FILE = "active_file"
    INACTIVE_FILE = "inactive_file"

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash but skips a Python-level __hash__ frame on every
    # LRU-list dict operation.
    __hash__ = object.__hash__


# Slab ``lru`` column code <-> LruKind (index 0 = not on any list).
KIND_BY_LRU_CODE = (
    None,
    LruKind.ACTIVE_ANON,
    LruKind.INACTIVE_ANON,
    LruKind.ACTIVE_FILE,
    LruKind.INACTIVE_FILE,
)
LRU_CODE_BY_KIND = {
    LruKind.ACTIVE_ANON: LRU_ACTIVE_ANON,
    LruKind.INACTIVE_ANON: LRU_INACTIVE_ANON,
    LruKind.ACTIVE_FILE: LRU_ACTIVE_FILE,
    LruKind.INACTIVE_FILE: LRU_INACTIVE_FILE,
}

# Module-level column aliases: ``PageSlab.reset`` clears the columns in
# place (never rebinds them), so these stay valid across scenario runs
# and save an attribute hop on every list operation.
_KIND = PAGE_SLAB.kind
_LRU = PAGE_SLAB.lru
_PREV = PAGE_SLAB.lru_prev
_NEXT = PAGE_SLAB.lru_next


class LruLists:
    """The four Linux-style page LRU lists (intrusive, id-indexed)."""

    __slots__ = ("_head", "_tail", "_size")

    def __init__(self) -> None:
        # Indexed by lru code 1..4; slot 0 unused.
        self._head = [0, 0, 0, 0, 0]
        self._tail = [0, 0, 0, 0, 0]
        self._size = [0, 0, 0, 0, 0]

    # ------------------------------------------------------------------
    # Link primitives
    # ------------------------------------------------------------------
    def _unlink_id(self, i: int, code: int) -> None:
        prev = _PREV[i]
        nxt = _NEXT[i]
        if prev:
            _NEXT[prev] = nxt
        else:
            self._head[code] = nxt
        if nxt:
            _PREV[nxt] = prev
        else:
            self._tail[code] = prev
        _LRU[i] = 0
        self._size[code] -= 1

    def _linked_here(self, i: int, code: int) -> bool:
        """Best-effort check that ``i``'s links are consistent with
        *this* instance's cursors (diagnoses slab/view desync)."""
        slab = PAGE_SLAB
        prev = slab.lru_prev[i]
        nxt = slab.lru_next[i]
        if prev:
            if slab.lru_next[prev] != i:
                return False
        elif self._head[code] != i:
            return False
        if nxt:
            if slab.lru_prev[nxt] != i:
                return False
        elif self._tail[code] != i:
            return False
        return True

    def _remove_checked(self, i: int, code: int) -> None:
        if not self._linked_here(i, code):
            slab = PAGE_SLAB
            raise ValueError(
                f"page {i} claims membership in {KIND_BY_LRU_CODE[code]} "
                f"but that list does not contain it (slab/view desync: "
                f"prev={slab.lru_prev[i]}, next={slab.lru_next[i]}, "
                f"head={self._head[code]}, tail={self._tail[code]})"
            )
        self._unlink_id(i, code)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_id(self, i: int, active: bool = False) -> None:
        """Insert page ``i`` at the hot end of its (in)active list."""
        code = _LRU[i]
        if code:
            raise ValueError(f"page {i} already on {KIND_BY_LRU_CODE[code]}")
        # anon -> codes 1/2, file -> codes 3/4.  The append is inlined:
        # this is the single most-called LRU operation (every
        # allocation, fault, and rotate-back funnels through it).
        code = (1 if active else 2) + (2 if _KIND[i] == KIND_FILE else 0)
        tail = self._tail[code]
        _PREV[i] = tail
        _NEXT[i] = 0
        if tail:
            _NEXT[tail] = i
        else:
            self._head[code] = i
        self._tail[code] = i
        _LRU[i] = code
        self._size[code] += 1

    def remove_id(self, i: int) -> None:
        """Take page ``i`` off whatever list it is on (eviction, unmap).

        Raises a :class:`ValueError` naming the *specific* inconsistency:
        a page that is on no list at all is a plain double-remove, while
        a page whose slab membership byte claims a list that does not
        actually contain it indicates corrupted links (slab/view
        desync) and gets a distinct message.
        """
        code = PAGE_SLAB.lru[i]
        if not code:
            raise ValueError(f"page {i} not on any LRU list")
        self._remove_checked(i, code)

    def discard_id(self, i: int) -> None:
        """Remove if present; no-op otherwise (process teardown)."""
        code = PAGE_SLAB.lru[i]
        if code:
            self._unlink_id(i, code)

    def scan_inactive_ids(
        self,
        kind: LruKind,
        budget: int,
        protect: Optional[Callable[[Page], bool]] = None,
    ) -> Tuple[List[int], int]:
        """Scan up to ``budget`` cold inactive pages; return eviction victims.

        Implements second chance: referenced pages are activated instead
        of evicted.  ``protect`` is the policy hook (Acclaim's FAE): a
        protected page is rotated back rather than selected.  Victims are
        *removed* from the list; the caller must either evict them or
        re-add them.

        Returns ``(victims, scanned)`` — ``scanned`` is the number of
        pages actually examined, which is less than ``budget`` when the
        list runs dry (callers charge scan CPU from it).

        This is the reclaim hot path: it pops from the cold end with
        inline link surgery, and survivors are re-appended at the tail,
        exactly matching the ``OrderedDict`` pop-front/insert-back order
        of the object-backed implementation.
        """
        if kind not in (LruKind.INACTIVE_ANON, LruKind.INACTIVE_FILE):
            raise ValueError(f"scan_inactive on non-inactive list {kind}")
        code = LRU_CODE_BY_KIND[kind]
        active_code = code - 1
        victims: List[int] = []
        scanned = 0
        slab = PAGE_SLAB
        flags = slab.flags
        lru_next = slab.lru_next
        lru_prev = slab.lru_prev
        lru_col = slab.lru
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        append = victims.append
        view = slab.view
        while scanned < budget:
            i = head_cur[code]
            if not i:
                break
            # Inline pop-head.
            nxt = lru_next[i]
            head_cur[code] = nxt
            if nxt:
                lru_prev[nxt] = 0
            else:
                tail_cur[code] = 0
            size_cur[code] -= 1
            scanned += 1
            f = flags[i]
            if f & REFERENCED:
                # Second chance: promote to the hot end of the active
                # list (inline append — this loop is the reclaim core).
                flags[i] = f & ~REFERENCED & 0xFF
                tail = tail_cur[active_code]
                lru_prev[i] = tail
                lru_next[i] = 0
                if tail:
                    lru_next[tail] = i
                else:
                    head_cur[active_code] = i
                tail_cur[active_code] = i
                lru_col[i] = active_code
                size_cur[active_code] += 1
                continue
            if protect is not None and protect(view(i)):
                # Rotate back to the hot end of this list (inline append).
                tail = tail_cur[code]
                lru_prev[i] = tail
                lru_next[i] = 0
                if tail:
                    lru_next[tail] = i
                else:
                    head_cur[code] = i
                tail_cur[code] = i
                lru_col[i] = code
                size_cur[code] += 1
                continue
            lru_col[i] = 0
            append(i)
        return victims, scanned

    def age_active(self, kind: LruKind, budget: int) -> int:
        """Move up to ``budget`` cold unreferenced active pages to inactive.

        Referenced pages get their young bit cleared and rotate to the
        hot end (they survive this aging round).  Returns the number of
        pages demoted.
        """
        if kind not in (LruKind.ACTIVE_ANON, LruKind.ACTIVE_FILE):
            raise ValueError(f"age_active on non-active list {kind}")
        code = LRU_CODE_BY_KIND[kind]
        inactive_code = code + 1
        demoted = 0
        scanned = 0
        slab = PAGE_SLAB
        flags = slab.flags
        lru_next = slab.lru_next
        lru_prev = slab.lru_prev
        lru_col = slab.lru
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        while scanned < budget:
            i = head_cur[code]
            if not i:
                break
            nxt = lru_next[i]
            head_cur[code] = nxt
            if nxt:
                lru_prev[nxt] = 0
            else:
                tail_cur[code] = 0
            size_cur[code] -= 1
            scanned += 1
            f = flags[i]
            if f & REFERENCED:
                flags[i] = f & ~REFERENCED & 0xFF
                dest = code  # rotate back (survives this aging round)
            else:
                dest = inactive_code
                demoted += 1
            # Inline append at the hot end of ``dest``.
            tail = tail_cur[dest]
            lru_prev[i] = tail
            lru_next[i] = 0
            if tail:
                lru_next[tail] = i
            else:
                head_cur[dest] = i
            tail_cur[dest] = i
            lru_col[i] = dest
            size_cur[dest] += 1
        return demoted

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def size(self, kind: LruKind) -> int:
        return self._size[LRU_CODE_BY_KIND[kind]]

    @property
    def inactive_anon(self) -> int:
        return self._size[LRU_INACTIVE_ANON]

    @property
    def active_anon(self) -> int:
        return self._size[LRU_ACTIVE_ANON]

    @property
    def inactive_file(self) -> int:
        return self._size[LRU_INACTIVE_FILE]

    @property
    def active_file(self) -> int:
        return self._size[LRU_ACTIVE_FILE]

    @property
    def total(self) -> int:
        sizes = self._size
        return sizes[1] + sizes[2] + sizes[3] + sizes[4]

    def iter_ids(self, kind: LruKind) -> Iterator[int]:
        """Cold-to-hot iteration; do not mutate the list while iterating."""
        lru_next = PAGE_SLAB.lru_next
        i = self._head[LRU_CODE_BY_KIND[kind]]
        while i:
            yield i
            i = lru_next[i]

    def needs_aging(self, kind_inactive: LruKind) -> bool:
        """Linux keeps inactive:active near 1:2 for anon and 1:1 for file;
        we age the active list when inactive falls below that share."""
        sizes = self._size
        if kind_inactive is LruKind.INACTIVE_ANON:
            return sizes[LRU_INACTIVE_ANON] * 2 < sizes[LRU_ACTIVE_ANON]
        return sizes[LRU_INACTIVE_FILE] < sizes[LRU_ACTIVE_FILE]
