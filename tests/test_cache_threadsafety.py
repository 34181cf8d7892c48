"""Concurrency stress tests for the shared caches and the cgen loader.

The in-process dispatcher (:mod:`repro.core.parallel`) runs shard
threads against one :class:`PlanCache` and one :class:`ProgramCache`.
These tests hammer each from many threads and assert the exact
invariants the executor relies on: counters stay consistent (hits +
misses == requests), the LRU bound holds, and cold keys build **once**
(single-flight) no matter how many threads race on them.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import cgen
from repro.core.plan import PlanCache
from repro.core.program import ProgramCache


def _run_threads(count: int, target) -> None:
    """Start ``count`` threads on ``target(slot)`` behind one barrier."""
    barrier = threading.Barrier(count)

    def runner(slot: int) -> None:
        barrier.wait()
        target(slot)

    threads = [
        threading.Thread(target=runner, args=(slot,)) for slot in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# --------------------------------------------------------------- PlanCache


class TestPlanCacheConcurrency:
    def test_relevance_single_flight(self):
        cache = PlanCache()
        builds: list[int] = []
        results: list[np.ndarray | None] = [None] * 8

        def compute():
            builds.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return np.arange(6.0)

        def hammer(slot: int) -> None:
            results[slot] = cache.relevance(("shared",), compute)

        _run_threads(8, hammer)
        assert len(builds) == 1
        # Every thread got the *same* stored array, read-only.
        assert len({id(r) for r in results}) == 1
        assert not results[0].flags.writeable
        stats = cache.stats
        assert stats.relevance_misses == 1
        assert stats.relevance_hits == 7
        assert stats.relevance_hits + stats.relevance_misses == 8

    def test_layer_plan_single_flight_shares_relevance(self):
        cache = PlanCache()
        relevance_builds: list[int] = []
        plan_builds: list[int] = []

        def compute():
            relevance_builds.append(threading.get_ident())
            time.sleep(0.01)
            return np.ones(4)

        def build_plan(relevance):
            plan_builds.append(threading.get_ident())
            time.sleep(0.01)
            return ("plan", float(relevance.sum()))

        def hammer(slot: int) -> None:
            cache.layer_plan(("plan-key",), ("rel-key",), compute, build_plan)

        _run_threads(8, hammer)
        assert len(relevance_builds) == 1
        assert len(plan_builds) == 1
        assert cache.stats.plan_misses == 1
        assert cache.stats.plan_hits == 7
        assert cache.stats.relevance_misses == 1

    def test_leader_failure_elects_next_leader(self):
        cache = PlanCache()
        attempts: list[int] = []
        failures: list[BaseException] = []
        lock = threading.Lock()

        def compute():
            with lock:
                attempts.append(threading.get_ident())
                first = len(attempts) == 1
            time.sleep(0.01)
            if first:
                raise RuntimeError("leader died")
            return np.zeros(3)

        def hammer(slot: int) -> None:
            try:
                cache.relevance(("flaky",), compute)
            except RuntimeError as exc:
                failures.append(exc)

        _run_threads(6, hammer)
        # Exactly one thread saw the failure; a successor rebuilt and
        # served everyone else.
        assert len(failures) == 1
        assert len(attempts) == 2
        assert cache.stats.relevance_misses == 1
        assert cache.stats.relevance_hits == 4

    def test_lru_bound_holds_under_concurrent_inserts(self):
        cache = PlanCache(max_entries=8)
        requests_per_thread = 40

        def hammer(slot: int) -> None:
            for i in range(requests_per_thread):
                key = ("rel", (slot * 7 + i) % 24)
                value = cache.relevance(key, lambda: np.full(2, float(slot)))
                assert value.shape == (2,)

        _run_threads(6, hammer)
        assert len(cache._relevance) <= 8
        stats = cache.stats
        assert stats.relevance_hits + stats.relevance_misses == 6 * requests_per_thread
        assert stats.evictions > 0
        # No pending events leak once every flight lands.
        assert not cache._pending

    def test_concurrent_distinct_keys_all_build(self):
        cache = PlanCache()

        def hammer(slot: int) -> None:
            cache.relevance(("solo", slot), lambda: np.full(3, float(slot)))

        _run_threads(8, hammer)
        assert cache.stats.relevance_misses == 8
        assert cache.stats.relevance_hits == 0
        for slot in range(8):
            value = cache.relevance(("solo", slot), lambda: np.zeros(3))
            assert value[0] == float(slot)


# ------------------------------------------------------------ ProgramCache


class TestProgramCacheConcurrency:
    def test_single_flight_builds_once(self):
        cache = ProgramCache()
        builds: list[int] = []
        results: list[object] = [None] * 10

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.02)
            return object()

        def hammer(slot: int) -> None:
            results[slot] = cache.get(("prog",), build)

        _run_threads(10, hammer)
        assert len(builds) == 1
        assert len({id(r) for r in results}) == 1
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 9

    def test_lru_bound_and_counters_under_churn(self):
        cache = ProgramCache(max_entries=4)
        requests_per_thread = 30

        def hammer(slot: int) -> None:
            for i in range(requests_per_thread):
                key = ("churn", (slot * 5 + i) % 12)
                assert cache.get(key, lambda k=key: ("built", k)) == ("built", key)

        _run_threads(6, hammer)
        assert len(cache) <= 4
        stats = cache.stats
        assert stats.hits + stats.misses == 6 * requests_per_thread
        assert stats.evictions >= stats.misses - 4

    def test_build_failure_releases_key(self):
        cache = ProgramCache()

        with pytest.raises(ValueError, match="bad build"):
            cache.get(("fail",), lambda: (_ for _ in ()).throw(ValueError("bad build")))
        # The key is not poisoned: the next get builds cleanly.
        assert cache.get(("fail",), lambda: "ok") == "ok"
        assert cache.stats.misses == 1


# ------------------------------------------------------------- cgen loader


class TestCgenCacheDir:
    def test_build_dir_honors_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path / "cgen-cache"))
        build_dir = cgen._build_dir("deadbeef")
        assert build_dir.parent == tmp_path / "cgen-cache"
        assert build_dir.name == "repro-cgen-deadbeef"

    def test_build_dir_defaults_to_tmpdir(self, monkeypatch):
        import tempfile
        from pathlib import Path

        monkeypatch.delenv("REPRO_CGEN_CACHE", raising=False)
        build_dir = cgen._build_dir("cafe")
        assert build_dir.parent == Path(tempfile.gettempdir())

    def test_concurrent_load_library_returns_one_handle(self):
        if not cgen.compiler_available():
            pytest.skip("no C toolchain in this environment")
        handles: list[object] = [None] * 6

        def hammer(slot: int) -> None:
            handles[slot] = cgen.load_library()

        _run_threads(6, hammer)
        assert len({id(h) for h in handles}) == 1
