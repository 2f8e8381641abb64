"""Tests for the active/inactive LRU lists."""

import pytest

from repro.kernel.lru import LruKind, LruLists
from repro.kernel.page import HeapKind, Page, PageKind


def anon():
    return Page(kind=PageKind.ANON, owner=None, heap=HeapKind.NATIVE)


def filep():
    return Page(kind=PageKind.FILE, owner=None)


def test_add_defaults_to_inactive():
    lru = LruLists()
    a, f = anon(), filep()
    lru.add_id(a.page_id)
    lru.add_id(f.page_id)
    assert a.lru is LruKind.INACTIVE_ANON
    assert f.lru is LruKind.INACTIVE_FILE


def test_add_active():
    lru = LruLists()
    a = anon()
    lru.add_id(a.page_id, active=True)
    assert a.lru is LruKind.ACTIVE_ANON


def test_double_add_rejected():
    lru = LruLists()
    a = anon()
    lru.add_id(a.page_id)
    with pytest.raises(ValueError):
        lru.add_id(a.page_id)


def test_remove_clears_membership():
    lru = LruLists()
    a = anon()
    lru.add_id(a.page_id)
    lru.remove_id(a.page_id)
    assert a.lru is None
    assert lru.total == 0


def test_remove_unlisted_rejected():
    with pytest.raises(ValueError):
        LruLists().remove_id(anon().page_id)


def test_discard_is_noop_for_unlisted():
    LruLists().discard_id(anon().page_id)  # must not raise


def test_activate_moves_to_active():
    # Promotion outside a scan is remove + re-add on the active list.
    lru = LruLists()
    a = anon()
    lru.add_id(a.page_id)
    lru.remove_id(a.page_id)
    lru.add_id(a.page_id, active=True)
    assert a.lru is LruKind.ACTIVE_ANON
    assert lru.active_anon == 1
    assert lru.inactive_anon == 0


def test_deactivate_moves_to_inactive():
    lru = LruLists()
    a = anon()
    lru.add_id(a.page_id, active=True)
    lru.remove_id(a.page_id)
    lru.add_id(a.page_id)
    assert a.lru is LruKind.INACTIVE_ANON


def test_coldest_is_fifo_order():
    lru = LruLists()
    first, second = anon(), anon()
    lru.add_id(first.page_id)
    lru.add_id(second.page_id)
    assert list(lru.iter_ids(LruKind.INACTIVE_ANON)) == [
        first.page_id, second.page_id
    ]


def test_rotate_moves_to_hot_end():
    lru = LruLists()
    first, second = anon(), anon()
    lru.add_id(first.page_id)
    lru.add_id(second.page_id)
    lru.remove_id(first.page_id)
    lru.add_id(first.page_id)
    assert next(lru.iter_ids(LruKind.INACTIVE_ANON)) == second.page_id


def test_scan_inactive_empty_list():
    assert LruLists().scan_inactive_ids(LruKind.INACTIVE_FILE, budget=4) == ([], 0)


def test_scan_inactive_returns_unreferenced_victims():
    lru = LruLists()
    pages = [anon() for _ in range(4)]
    for page in pages:
        lru.add_id(page.page_id)
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=4)
    assert victims == [page.page_id for page in pages]
    assert scanned == 4
    assert all(page.lru is None for page in pages)


def test_scan_inactive_gives_second_chance():
    lru = LruLists()
    hot, cold = anon(), anon()
    lru.add_id(hot.page_id)
    lru.add_id(cold.page_id)
    hot.referenced = True
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=2)
    assert victims == [cold.page_id]
    assert scanned == 2
    assert hot.lru is LruKind.ACTIVE_ANON
    assert not hot.referenced  # young bit cleared


def test_scan_inactive_respects_protect_hook():
    lru = LruLists()
    protected, normal = anon(), anon()
    lru.add_id(protected.page_id)
    lru.add_id(normal.page_id)
    victims, scanned = lru.scan_inactive_ids(
        LruKind.INACTIVE_ANON, budget=2, protect=lambda p: p is protected
    )
    assert victims == [normal.page_id]
    assert scanned == 2
    assert protected.lru is LruKind.INACTIVE_ANON


def test_scan_inactive_budget_limits_scanning():
    lru = LruLists()
    pages = [anon() for _ in range(10)]
    for page in pages:
        lru.add_id(page.page_id)
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=3)
    assert victims == [page.page_id for page in pages[:3]]
    assert scanned == 3


def test_scan_inactive_on_active_list_rejected():
    with pytest.raises(ValueError):
        LruLists().scan_inactive_ids(LruKind.ACTIVE_ANON, budget=1)


def test_age_active_demotes_unreferenced():
    lru = LruLists()
    referenced, idle = anon(), anon()
    lru.add_id(referenced.page_id, active=True)
    lru.add_id(idle.page_id, active=True)
    referenced.referenced = True
    demoted = lru.age_active(LruKind.ACTIVE_ANON, budget=2)
    assert demoted == 1
    assert idle.lru is LruKind.INACTIVE_ANON
    assert referenced.lru is LruKind.ACTIVE_ANON
    assert not referenced.referenced


def test_age_active_on_inactive_list_rejected():
    with pytest.raises(ValueError):
        LruLists().age_active(LruKind.INACTIVE_ANON, budget=1)


def test_needs_aging_anon_ratio():
    lru = LruLists()
    for _ in range(4):
        lru.add_id(anon().page_id, active=True)
    assert lru.needs_aging(LruKind.INACTIVE_ANON)
    for _ in range(3):
        lru.add_id(anon().page_id)
    assert not lru.needs_aging(LruKind.INACTIVE_ANON)


def test_sizes_and_total():
    lru = LruLists()
    lru.add_id(anon().page_id)
    lru.add_id(anon().page_id, active=True)
    lru.add_id(filep().page_id)
    assert lru.inactive_anon == 1
    assert lru.active_anon == 1
    assert lru.inactive_file == 1
    assert lru.active_file == 0
    assert lru.total == 3


def test_remove_names_double_remove_and_desync_apart():
    lru, other = LruLists(), LruLists()
    a = anon()
    with pytest.raises(ValueError, match="not on any LRU list"):
        lru.remove_id(a.page_id)
    other.add_id(a.page_id)
    # Its slab byte says inactive_anon, but ``lru``'s list does not hold it.
    with pytest.raises(ValueError, match="slab/view desync"):
        lru.remove_id(a.page_id)
    other.remove_id(a.page_id)
