"""Tests for the per-process reclaim feature (Figure 4 methodology)."""

from repro.kernel.page import HeapKind, PageKind
from repro.kernel.page_table import PageTable
from repro.kernel.proc_reclaim import PerProcessReclaim

from tests.conftest import make_pages, page_ids


def test_reclaims_all_resident_pages(mm):
    reclaim = PerProcessReclaim(mm)
    pages = make_pages(10)
    mm.make_resident_bulk_ids(page_ids(pages))
    result = reclaim.reclaim_ids(page_ids(pages))
    assert result.reclaimed == 10
    assert all(not page.present for page in pages)
    assert all(page.was_evicted for page in pages)


def test_skips_non_resident_pages(mm):
    reclaim = PerProcessReclaim(mm)
    pages = make_pages(5)
    mm.make_resident_bulk_ids(page_ids(pages[:2]))
    result = reclaim.reclaim_ids(page_ids(pages))
    assert result.reclaimed == 2


def test_dirty_file_pages_written_back(mm):
    reclaim = PerProcessReclaim(mm)
    pages = make_pages(4, kind=PageKind.FILE, dirty=True)
    mm.make_resident_bulk_ids(page_ids(pages))
    reclaim.reclaim_ids(page_ids(pages))
    assert mm.flash.stats.write_pages == 4
    assert mm.vmstat.fileback_writeout == 4


def test_counts_as_direct_reclaim(mm):
    reclaim = PerProcessReclaim(mm)
    pages = make_pages(3)
    mm.make_resident_bulk_ids(page_ids(pages))
    reclaim.reclaim_ids(page_ids(pages))
    assert mm.vmstat.pgsteal_direct == 3


def test_zram_full_leaves_pages_resident(mm):
    reclaim = PerProcessReclaim(mm)
    pages = make_pages(mm.zram.capacity_pages + 10)
    mm.make_resident_bulk_ids(page_ids(pages))
    result = reclaim.reclaim_ids(page_ids(pages))
    assert result.zram_full
    assert result.reclaimed == mm.zram.capacity_pages
    still_resident = [page for page in pages if page.present]
    assert len(still_resident) == 10


def test_reclaim_whole_page_table(mm):
    reclaim = PerProcessReclaim(mm)
    table = PageTable(owner=None)
    table.build_block(3, PageKind.ANON, HeapKind.JAVA)
    table.build_block(3, PageKind.FILE, HeapKind.NONE)
    mm.make_resident_bulk_ids(table.all_page_ids())
    result = reclaim.reclaim_process(table)
    assert result.reclaimed == 6
    assert table.resident_pages == 0
