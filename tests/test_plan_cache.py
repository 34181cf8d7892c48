"""Unit tests of the structural plan cache and its reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import format_cache_stats
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.plan import (
    PlanCache,
    PlanCacheStats,
    fingerprint_array,
    fingerprint_weights,
)
from repro.errors import ConfigurationError
from repro.nn.network import LSTMNetwork
from tests.grading import assert_bytes_equal, assert_plans_equal


@pytest.fixture
def network() -> LSTMNetwork:
    config = LSTMConfig(hidden_size=16, num_layers=2, seq_length=10, input_size=12)
    return LSTMNetwork(config, 30, 3, seed=4)


@pytest.fixture
def tokens(network) -> np.ndarray:
    rng = np.random.default_rng(9)
    return rng.integers(0, 30, size=(5, network.config.seq_length))


def combined_config(**overrides) -> ExecutionConfig:
    defaults = dict(
        mode=ExecutionMode.COMBINED, alpha_inter=100.0, alpha_intra=0.3, mts=3
    )
    defaults.update(overrides)
    return ExecutionConfig(**defaults)


class TestFingerprints:
    def test_array_fingerprint_is_content_addressed(self):
        a = np.arange(12.0).reshape(3, 4)
        assert fingerprint_array(a) == fingerprint_array(a.copy())
        assert fingerprint_array(a) != fingerprint_array(a + 1)
        # Same bytes, different shape must not collide.
        assert fingerprint_array(a) != fingerprint_array(a.reshape(4, 3))

    def test_array_fingerprint_handles_views(self):
        a = np.arange(24.0).reshape(4, 6)
        assert fingerprint_array(a[:, ::2]) == fingerprint_array(
            np.ascontiguousarray(a[:, ::2])
        )

    def test_weights_fingerprint_memoized_and_distinct(self, network):
        w0 = network.layers[0].weights
        w1 = network.layers[1].weights
        first = fingerprint_weights(w0)
        assert fingerprint_weights(w0) is first  # memoized on the object
        assert fingerprint_weights(w0) != fingerprint_weights(w1)


class TestPlanCacheStore:
    def test_relevance_hit_miss_counters(self):
        cache = PlanCache()
        calls = []

        def compute():
            calls.append(1)
            return np.arange(4.0)

        first = cache.relevance("k", compute)
        second = cache.relevance("k", compute)
        assert np.array_equal(first, second)
        assert len(calls) == 1
        assert cache.stats.relevance_misses == 1
        assert cache.stats.relevance_hits == 1
        assert cache.stats.relevance_hit_rate == 0.5

    def test_cached_relevance_is_read_only(self):
        cache = PlanCache()
        value = cache.relevance("k", lambda: np.arange(4.0))
        with pytest.raises(ValueError):
            value[0] = 99.0

    def test_plan_miss_falls_through_to_relevance_store(self):
        cache = PlanCache()
        relevance_calls = []
        plan_calls = []

        def compute():
            relevance_calls.append(1)
            return np.arange(3.0)

        def build(relevance):
            plan_calls.append(1)
            return ("plan", tuple(relevance))

        cache.layer_plan(("p", 1.0), "rel", compute, build)
        # Different threshold -> plan miss, but the relevance is reused.
        cache.layer_plan(("p", 2.0), "rel", compute, build)
        assert len(relevance_calls) == 1
        assert len(plan_calls) == 2
        assert cache.stats.plan_misses == 2
        assert cache.stats.relevance_hits == 1

    def test_lru_eviction_counts_and_bounds(self):
        cache = PlanCache(max_entries=2)
        for i in range(4):
            cache.relevance(i, lambda i=i: np.array([float(i)]))
        assert cache.stats.evictions == 2
        # Oldest entries were dropped; newest survive.
        assert np.array_equal(cache.relevance(3, lambda: np.array([-1.0])), [3.0])
        assert np.array_equal(cache.relevance(0, lambda: np.array([-1.0])), [-1.0])

    def test_clear_and_reset_stats(self):
        cache = PlanCache()
        cache.relevance("k", lambda: np.arange(2.0))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.relevance_misses == 1
        cache.reset_stats()
        assert cache.stats.relevance_misses == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_entries=0)


class TestResidentBytes:
    def test_nbytes_counts_each_array_once(self):
        from repro.core.breakpoints import divide_layer
        from repro.core.plan import CachedLayerPlan
        from repro.core.tissue import align_tissues

        cache = PlanCache()
        assert cache.nbytes == 0

        def build(relevance):
            return CachedLayerPlan.from_schedule(
                relevance, [3], align_tissues(divide_layer(8, [3]), 2)
            )

        plan = cache.layer_plan(("p", 1.0), "rel", lambda: np.arange(8.0), build)
        vectors = plan.subs.nbytes + plan.ts.nbytes + plan.offsets.nbytes
        assert cache.nbytes == plan.relevance.nbytes + vectors  # the shared array once
        cache.layer_plan(("p", 2.0), "rel", lambda: np.arange(8.0), build)
        assert cache.nbytes == plan.relevance.nbytes + 2 * vectors
        assert cache.token_rows.nbytes == 0
        cache.clear()
        assert cache.nbytes == 0

    def test_fresh_token_soak_reaches_a_flat_footprint(self):
        """Real traffic never repeats a batch, so every request adds plans
        that never hit: the default bound — chosen from what an entry
        weighs — must turn that into a plateau."""
        from repro.config import AppConfig, TaskFamily
        from repro.nn.model_zoo import build_calibrated_network

        model = LSTMConfig(hidden_size=8, num_layers=2, seq_length=6, input_size=8)
        app = AppConfig(
            name="SOAK",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=30,
            num_classes=3,
        )
        network = build_calibrated_network(app, seed=2)
        cache = PlanCache()
        assert 4096 <= cache.max_entries <= 8192
        # At serving geometry (T ~ 86) an entry weighs ~6 KB all told.
        assert 16 << 20 <= cache.max_entries * 6 * 1024 <= 64 << 20
        executor = LSTMExecutor(network, combined_config(alpha_inter=40.0), plan_cache=cache)
        rng = np.random.default_rng(3)
        per_request = 8  # layer 0's plans; layers >= 1 are not cached
        requests = 700
        assert requests * per_request > cache.max_entries
        footprint = []  # nbytes after every tenth request
        for request in range(requests):
            executor.run_batch(rng.integers(0, 30, size=(8, model.seq_length)))
            if request % 10 == 9:
                footprint.append(cache.nbytes)
        stats = cache.stats
        assert stats.plan_hits == 0 and stats.evictions > 0
        assert len(cache) == 2 * cache.max_entries
        full = cache.max_entries // per_request // 10 + 1  # first sample at the bound
        plateau = footprint[full:]
        assert len(plateau) >= 10
        # Entries differ by a few index-vector elements, so flat means a
        # band, not a constant; growth would be ~30 KB per sample.
        assert max(plateau) - min(plateau) < 0.02 * max(plateau)
        assert footprint[full // 2] < 0.6 * plateau[0]  # it did grow on the way there


class TestExecutorIntegration:
    """Only layer 0 plans through the cache: its input is a function of
    the token ids. Layers >= 1 plan uncached from their own projections."""

    def test_repeat_run_hits_plan_store(self, network, tokens):
        cache = PlanCache()
        executor = LSTMExecutor(network, combined_config(), plan_cache=cache)
        executor.run_batch(tokens)
        lookups = tokens.shape[0]  # one per sequence, layer 0 only
        assert cache.stats.plan_misses == lookups
        executor.run_batch(tokens)
        assert cache.stats.plan_hits == lookups
        assert cache.stats.plan_requests == 2 * lookups

    def test_cache_shared_across_executors_and_thresholds(self, network, tokens):
        cache = PlanCache()
        batch = tokens.shape[0]
        first = LSTMExecutor(network, combined_config(), plan_cache=cache)
        first.run_batch(tokens)
        misses = cache.stats.relevance_misses
        assert misses == batch
        # New executor, different inter threshold: every plan misses, but
        # layer 0 sees the same embeddings, so its relevance is served from
        # cache. Deeper layers never reach the cache.
        second = LSTMExecutor(
            network, combined_config(alpha_inter=500.0), plan_cache=cache
        )
        second.run_batch(tokens)
        assert cache.stats.relevance_hits == batch
        assert cache.stats.relevance_misses == misses
        assert cache.stats.plan_hits == 0
        assert len(cache) == 3 * batch  # batch relevance arrays, 2 x batch plans

    def test_plans_are_not_keyed_on_the_gpu_spec(self, network, tokens):
        """Plans never read the simulated GPU: a plan built under TX1 is
        served under M40 and equals a fresh one."""
        from repro.gpu.specs import TESLA_M40, TEGRA_X1

        cache = PlanCache()
        tx1 = LSTMExecutor(network, combined_config(spec=TEGRA_X1), plan_cache=cache)
        tx1.run_batch(tokens)
        m40_config = combined_config(spec=TESLA_M40)
        served = LSTMExecutor(network, m40_config, plan_cache=cache).run_batch(tokens)
        assert cache.stats.plan_hits == tokens.shape[0]
        fresh = LSTMExecutor(network, m40_config).run_batch(tokens)
        assert_plans_equal(served.plans, fresh.plans)
        assert_bytes_equal(served.logits, fresh.logits)

    def test_exact_relevance_variant_does_not_collide(self, network, tokens):
        cache = PlanCache()
        LSTMExecutor(network, combined_config(), plan_cache=cache).run_batch(tokens)
        misses = cache.stats.relevance_misses
        LSTMExecutor(
            network, combined_config(use_exact_relevance=True), plan_cache=cache
        ).run_batch(tokens)
        assert cache.stats.relevance_misses == 2 * misses

    def test_inter_mode_uses_cache_too(self, network, tokens):
        cache = PlanCache()
        config = ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=100.0, mts=3)
        executor = LSTMExecutor(network, config, plan_cache=cache)
        executor.run_batch(tokens)
        executor.run_batch(tokens)
        assert cache.stats.plan_hits == tokens.shape[0]

    def test_baseline_mode_never_touches_cache(self, network, tokens):
        cache = PlanCache()
        config = ExecutionConfig(mode=ExecutionMode.BASELINE)
        LSTMExecutor(network, config, plan_cache=cache).run_batch(tokens)
        assert cache.stats.plan_requests == 0
        assert cache.stats.relevance_requests == 0


class TestReporting:
    def test_format_cache_stats_renders_counters(self):
        stats = PlanCacheStats(
            relevance_hits=3, relevance_misses=1, plan_hits=4, plan_misses=4
        )
        text = format_cache_stats(stats)
        assert "relevance" in text
        assert "75.0%" in text
        assert "50.0%" in text
        assert "evictions: 0" in text

    def test_stats_as_dict_round_trip(self):
        stats = PlanCacheStats(plan_hits=2, plan_misses=2)
        d = stats.as_dict()
        assert d["plan_hit_rate"] == 0.5
        assert d["relevance_hit_rate"] == 0.0
