"""Tests for applications, processes, and oom_adj."""

import pytest

from repro.android.app import Application, AppState, Process
from repro.android.oom_adj import (
    ADJ_FOREGROUND,
    ADJ_PERCEPTIBLE,
    CACHED_APP_MIN_ADJ,
    cached_adj,
    is_whitelisted_score,
)
from repro.apps.catalog import get_profile
from repro.apps.profiles import AppCategory, AppProfile
from repro.kernel.slab import DIRTY, HOT, PAGE_SLAB


def make_app(**overrides) -> Application:
    profile = get_profile("WhatsApp")
    return Application(profile)


# ----------------------------------------------------------------------
# oom_adj
# ----------------------------------------------------------------------
def test_cached_adj_ordering():
    assert cached_adj(0) == CACHED_APP_MIN_ADJ
    assert cached_adj(1) > cached_adj(0)


def test_cached_adj_capped():
    assert cached_adj(1000) == 999


def test_cached_adj_negative_rank_rejected():
    with pytest.raises(ValueError):
        cached_adj(-1)


def test_whitelist_score_rule():
    assert is_whitelisted_score(ADJ_FOREGROUND)
    assert is_whitelisted_score(ADJ_PERCEPTIBLE)
    assert not is_whitelisted_score(ADJ_PERCEPTIBLE + 1)
    assert not is_whitelisted_score(CACHED_APP_MIN_ADJ)


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------
def test_uids_unique_and_android_range():
    a, b = make_app(), make_app()
    assert a.uid != b.uid
    assert a.uid >= 10000


def test_new_app_is_stopped_and_dead():
    app = make_app()
    assert app.state is AppState.STOPPED
    assert not app.alive
    assert app.pids == []


def test_adj_by_state():
    app = make_app()
    app.state = AppState.FOREGROUND
    assert app.adj == ADJ_FOREGROUND
    app.state = AppState.CACHED
    app.recency_rank = 2
    assert app.adj == cached_adj(2)


def test_perceptible_app_keeps_adj_200_in_bg():
    app = make_app()
    app.perceptible = True
    app.state = AppState.CACHED
    assert app.adj == ADJ_PERCEPTIBLE


def test_main_process_lookup():
    app = make_app()
    aux = Process("aux", app, main=False)
    main = Process("main", app, main=True)
    app.processes = [aux, main]
    assert app.main_process is main
    assert set(app.pids) == {aux.pid, main.pid}


def test_process_uid_follows_app():
    app = make_app()
    process = Process("p", app)
    assert process.uid == app.uid


def test_build_footprint_counts_and_hotness():
    app = make_app()
    process = Process("p", app, main=True)
    process.build_footprint(
        java_pages=10, native_pages=20, file_pages=30,
        hot_frac=0.5, file_dirty_frac=0.1,
    )
    table = process.page_table
    assert len(table.ids_of("java_heap")) == 10
    assert len(table.ids_of("native_heap")) == 20
    assert len(table.ids_of("file_map")) == 30
    flags = PAGE_SLAB.flags
    hot_java = sum(1 for i in table.ids_of("java_heap") if flags[i] & HOT)
    assert hot_java == 5
    dirty_file = sum(1 for i in table.ids_of("file_map") if flags[i] & DIRTY)
    assert dirty_file == 3


def test_resident_pages_aggregates_processes():
    app = make_app()
    p1 = Process("a", app, main=True)
    p1.build_footprint(4, 0, 0, hot_frac=0.0, file_dirty_frac=0.0)
    app.processes = [p1]
    for page in p1.page_table.all_pages():
        page.present = True
    assert app.resident_pages() == 4
    assert app.total_pages() == 4
