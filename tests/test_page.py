"""Tests for pages and page tables."""

import pytest

from repro.kernel.page import HeapKind, Page, PageKind
from repro.kernel.page_table import PageTable
from repro.kernel.slab import PAGE_SLAB


def make_anon(heap=HeapKind.NATIVE, **kw):
    return Page(kind=PageKind.ANON, owner=None, heap=heap, **kw)


def make_file(**kw):
    return Page(kind=PageKind.FILE, owner=None, **kw)


def test_page_ids_unique():
    a, b = make_anon(), make_anon()
    assert a.page_id != b.page_id


def test_anon_requires_heap_kind():
    with pytest.raises(ValueError):
        Page(kind=PageKind.ANON, owner=None, heap=HeapKind.NONE)


def test_file_rejects_heap_kind():
    with pytest.raises(ValueError):
        Page(kind=PageKind.FILE, owner=None, heap=HeapKind.JAVA)


def test_new_page_not_present():
    page = make_anon()
    assert not page.present
    assert not page.was_evicted


def test_mark_accessed_sets_young_bit():
    page = make_anon()
    page.mark_accessed()
    assert page.referenced


def test_write_access_dirties_file_page():
    page = make_file()
    page.mark_accessed(write=True)
    assert page.dirty


def test_write_access_does_not_dirty_anon():
    page = make_anon()
    page.mark_accessed(write=True)
    assert not page.dirty


def test_shadow_entry_marks_eviction():
    page = make_anon()
    page.shadow_eviction_clock = 17
    assert page.was_evicted


# ----------------------------------------------------------------------
# PageTable
# ----------------------------------------------------------------------
def build_one(table, kind, heap):
    """One page built through ``build_block``, returned as its view."""
    (i,) = table.build_block(1, kind, heap)
    return PAGE_SLAB.view(i)


def test_build_page_lands_in_correct_segment():
    table = PageTable(owner=None)
    anon_j = table.build_block(1, PageKind.ANON, HeapKind.JAVA)[0]
    anon_n = table.build_block(1, PageKind.ANON, HeapKind.NATIVE)[0]
    filep = table.build_block(1, PageKind.FILE, HeapKind.NONE)[0]
    assert table.ids_of(PageTable.JAVA_HEAP) == [anon_j]
    assert table.ids_of(PageTable.NATIVE_HEAP) == [anon_n]
    assert table.ids_of(PageTable.FILE_MAP) == [filep]


def test_build_block_rejects_mismatched_heap():
    table = PageTable(owner=None)
    with pytest.raises(ValueError):
        table.build_block(2, PageKind.FILE, HeapKind.JAVA)
    with pytest.raises(ValueError):
        table.build_block(2, PageKind.ANON, HeapKind.NONE)
    assert table.total_pages == 0


def test_total_and_resident_counts():
    table = PageTable(owner=None)
    pages = [build_one(table, PageKind.ANON, HeapKind.JAVA) for _ in range(5)]
    assert table.total_pages == 5
    assert table.resident_pages == 0
    pages[0].present = True
    pages[1].present = True
    assert table.resident_pages == 2


def test_evicted_pages_counts_shadowed_only():
    table = PageTable(owner=None)
    a = build_one(table, PageKind.ANON, HeapKind.JAVA)
    b = build_one(table, PageKind.ANON, HeapKind.JAVA)
    a.shadow_eviction_clock = 3
    assert table.evicted_pages == 1
    b.present = True
    assert table.evicted_pages == 1


def test_resident_by_segment():
    table = PageTable(owner=None)
    build_one(table, PageKind.FILE, HeapKind.NONE).present = True
    build_one(table, PageKind.ANON, HeapKind.NATIVE)
    counts = table.resident_by_segment()
    assert counts[PageTable.FILE_MAP] == 1
    assert counts[PageTable.NATIVE_HEAP] == 0


def test_all_pages_iterates_everything():
    table = PageTable(owner=None)
    table.build_block(1, PageKind.FILE, HeapKind.NONE)
    table.build_block(2, PageKind.ANON, HeapKind.NATIVE)
    table.build_block(1, PageKind.ANON, HeapKind.JAVA)
    # java -> native -> file, the order per-process reclaim walks.
    ids = table.all_page_ids()
    assert ids == (
        table.ids_of(PageTable.JAVA_HEAP)
        + table.ids_of(PageTable.NATIVE_HEAP)
        + table.ids_of(PageTable.FILE_MAP)
    )
    assert len(ids) == 4
    assert [page.page_id for page in table.all_pages()] == ids
