"""Tests for shadow entries and refault events."""

from repro.kernel.page import HeapKind, Page, PageKind
from repro.kernel.workingset import WorkingSet


def anon():
    return Page(kind=PageKind.ANON, owner=None, heap=HeapKind.JAVA)


def refault(ws, page, now_ms=0.0, pid=1, uid=1, foreground=False):
    """Resolve a fault on ``page``; return the published event or None."""
    seen = []
    ws.subscribe(seen.append)
    try:
        distance = ws.check_refault_id(now_ms, page.page_id, pid, uid, foreground)
    finally:
        ws.unsubscribe(seen.append)
    assert len(seen) == (1 if distance >= 0 else 0)
    if not seen:
        return None
    assert seen[0].refault_distance == distance
    assert seen[0].page is page
    return seen[0]


def test_eviction_installs_shadow_entry():
    ws = WorkingSet()
    page = anon()
    ws.record_eviction_id(page.page_id)
    assert page.was_evicted
    assert page.evictions == 1


def test_first_touch_is_not_refault():
    ws = WorkingSet()
    page = anon()
    assert ws.check_refault_id(0.0, page.page_id, pid=1, uid=2, foreground=False) == -1
    assert refault(ws, page, pid=1, uid=2) is None


def test_refault_detected_and_shadow_cleared():
    ws = WorkingSet()
    page = anon()
    ws.record_eviction_id(page.page_id)
    event = refault(ws, page, now_ms=5.0, pid=1, uid=2, foreground=False)
    assert event is not None
    assert event.time_ms == 5.0
    assert event.pid == 1
    assert event.uid == 2
    assert event.background
    assert not page.was_evicted
    assert page.refaults == 1


def test_refault_distance_counts_interleaved_evictions():
    ws = WorkingSet()
    target = anon()
    ws.record_eviction_id(target.page_id)
    for _ in range(5):
        ws.record_eviction_id(anon().page_id)
    event = refault(ws, target, foreground=True)
    assert event.refault_distance == 5


def test_immediate_refault_distance_zero():
    ws = WorkingSet()
    page = anon()
    ws.record_eviction_id(page.page_id)
    assert ws.check_refault_id(0.0, page.page_id, pid=1, uid=1, foreground=True) == 0


def test_observers_receive_events():
    ws = WorkingSet()
    seen = []
    ws.subscribe(seen.append)
    page = anon()
    ws.record_eviction_id(page.page_id)
    ws.check_refault_id(1.0, page.page_id, pid=9, uid=9, foreground=False)
    assert len(seen) == 1
    assert seen[0].pid == 9


def test_unsubscribe_stops_delivery():
    ws = WorkingSet()
    seen = []
    ws.subscribe(seen.append)
    ws.unsubscribe(seen.append)
    page = anon()
    ws.record_eviction_id(page.page_id)
    ws.check_refault_id(1.0, page.page_id, pid=9, uid=9, foreground=False)
    assert seen == []


def test_drop_shadow_forgets_eviction():
    ws = WorkingSet()
    page = anon()
    ws.record_eviction_id(page.page_id)
    ws.drop_shadow_id(page.page_id)
    assert refault(ws, page, foreground=True) is None


def test_foreground_flag_propagates():
    ws = WorkingSet()
    page = anon()
    ws.record_eviction_id(page.page_id)
    event = refault(ws, page, foreground=True)
    assert event.foreground and not event.background
