"""Property-based invariants across the optimization stack.

These tests draw random thresholds/geometries (hypothesis) and assert the
structural guarantees every execution must satisfy regardless of the knob
settings: plans partition the layer, skipping reduces monotonically,
traces account bytes consistently, and determinism holds end to end.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import AppConfig, LSTMConfig, TaskFamily
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import TEGRA_X1
from repro.nn.model_zoo import build_calibrated_network

CFG = AppConfig(
    name="PROP",
    family=TaskFamily.SENTIMENT_CLASSIFICATION,
    model=LSTMConfig(hidden_size=20, num_layers=2, seq_length=9, input_size=16),
    vocab_size=40,
    num_classes=2,
)
NETWORK = build_calibrated_network(CFG, seed=13)
TOKENS = np.random.default_rng(77).integers(0, 40, size=(3, 9))

slow_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(mode, **kwargs):
    executor = LSTMExecutor(NETWORK, ExecutionConfig(mode=mode, **kwargs))
    return executor, executor.run_batch(TOKENS)


class TestPlanInvariants:
    @given(st.floats(0.0, 1e4), st.integers(1, 6))
    @slow_settings
    def test_inter_plans_always_partition(self, alpha, mts):
        _, result = run(ExecutionMode.INTER, alpha_inter=alpha, mts=mts)
        for plan in result.plans:
            for record in plan.layers:
                record.validate()
                assert (record.tissue_sizes <= mts).all()

    @given(st.floats(0.0, 0.5))
    @slow_settings
    def test_intra_skip_fraction_bounded(self, alpha):
        _, result = run(ExecutionMode.INTRA, alpha_intra=alpha)
        for plan in result.plans:
            assert 0.0 <= plan.mean_skip_fraction <= 1.0

    @given(st.floats(0.0, 1e4), st.floats(0.0, 0.5), st.integers(1, 6))
    @slow_settings
    def test_combined_plans_always_partition(self, a_inter, a_intra, mts):
        _, result = run(
            ExecutionMode.COMBINED, alpha_inter=a_inter, alpha_intra=a_intra, mts=mts
        )
        for plan in result.plans:
            for record in plan.layers:
                record.validate()

    @given(st.floats(0.0, 1e4), st.floats(0.0, 0.5))
    @slow_settings
    def test_outputs_always_finite_and_bounded(self, a_inter, a_intra):
        _, result = run(
            ExecutionMode.COMBINED, alpha_inter=a_inter, alpha_intra=a_intra
        )
        assert np.all(np.isfinite(result.logits))
        for hs in result.layer_outputs:
            assert np.all(np.abs(hs) <= 1.0)


class TestTraceInvariants:
    @given(st.floats(0.0, 1e4), st.floats(0.0, 0.5))
    @slow_settings
    def test_every_plan_yields_a_simulatable_trace(self, a_inter, a_intra):
        executor, result = run(
            ExecutionMode.COMBINED, alpha_inter=a_inter, alpha_intra=a_intra
        )
        sim = TimingSimulator(TEGRA_X1)
        trace = sim.run_trace(executor.kernel_trace(result.plans[0], TEGRA_X1))
        assert trace.total_time > 0
        assert trace.total_energy > 0
        assert trace.total_dram_bytes >= 0

    @given(st.floats(0.05, 0.5))
    @slow_settings
    def test_more_skipping_never_increases_weight_traffic(self, alpha):
        def fic_bytes(a):
            executor, result = run(ExecutionMode.INTRA, alpha_intra=a)
            kernels = executor.kernel_trace(result.plans[0], TEGRA_X1)
            return sum(k.weight_bytes for k in kernels if (k.weight_id or "").startswith("Ufic"))

        assert fic_bytes(alpha) >= fic_bytes(min(0.5, alpha + 0.1)) - 1e-6


class TestDeterminism:
    def test_end_to_end_repeatability(self):
        _, a = run(ExecutionMode.COMBINED, alpha_inter=100.0, alpha_intra=0.2)
        _, b = run(ExecutionMode.COMBINED, alpha_inter=100.0, alpha_intra=0.2)
        np.testing.assert_array_equal(a.logits, b.logits)
        assert a.plans[0].total_breakpoints == b.plans[0].total_breakpoints

    def test_simulator_repeatability(self):
        executor, result = run(ExecutionMode.BASELINE)
        sim = TimingSimulator(TEGRA_X1)
        t1 = sim.run_trace(executor.kernel_trace(result.plans[0], TEGRA_X1)).total_time
        t2 = sim.run_trace(executor.kernel_trace(result.plans[0], TEGRA_X1)).total_time
        assert t1 == t2
