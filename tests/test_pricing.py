"""Execution vs pricing: one execution, priced under any GPU and DRS style.

The GPU model and the DRS style change no host bit, so
:meth:`OptimizedLSTM.price` re-prices a kept outcome without running the
batch again, and must give exactly what separate runs give.
"""

import warnings

import numpy as np
import pytest

from repro.core import executor as executor_module
from repro.core.executor import ExecutionMode, LSTMExecutor
from repro.core.pipeline import OptimizedLSTM
from repro.core.trace_builder import build_kernel_trace
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.simulator import TimingSimulator
from repro.gpu.specs import TEGRA_X1, TESLA_M40

SPECS = (TEGRA_X1, TESLA_M40)
STYLES = ("hardware", "software")


@pytest.fixture
def count_run_batch(monkeypatch):
    """A list that grows by one per ``LSTMExecutor.run_batch`` call."""
    calls = []
    run_batch = LSTMExecutor.run_batch

    def counted(self, *args, **kwargs):
        calls.append(self.config.mode)
        return run_batch(self, *args, **kwargs)

    monkeypatch.setattr(LSTMExecutor, "run_batch", counted)
    return calls


def separate_pricing(app, outcome, tokens, spec, drs_style):
    """A second execution of ``outcome.config`` on its own executor, traced
    straight through :func:`build_kernel_trace` (no ``price``)."""
    config = outcome.config
    executor = LSTMExecutor(
        app.network, config, predicted_links=app.calibration.predicted_links
    )
    simulator = TimingSimulator(spec)
    pruned = config.mode is ExecutionMode.ZERO_PRUNE
    traces = [
        simulator.run_trace(
            build_kernel_trace(
                plan,
                spec,
                inter=config.inter_active,
                intra=config.intra_active,
                drs_style=drs_style,
                zero_prune_kept=executor.pruning_kept_fraction if pruned else None,
                precision=config.precision,
            )
        )
        for plan in executor.run_batch(tokens).plans
    ]
    return traces


class TestPriceEqualsSeparateRuns:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_one_execution_every_hardware_model(
        self, tiny_app, tiny_tokens, mode, count_run_batch
    ):
        outcome = tiny_app.run(tiny_tokens, mode=mode, threshold_index=5)
        priced = {
            (spec.name, style): tiny_app.price(outcome, spec, style, keep_traces=True)
            for spec in SPECS
            for style in STYLES
        }
        assert count_run_batch == [mode]
        for spec in SPECS:
            for style in STYLES:
                got = priced[spec.name, style]
                traces = separate_pricing(tiny_app, outcome, tiny_tokens, spec, style)
                assert got.traces == traces
                assert got.times.tolist() == [t.total_time for t in traces]
                assert got.energies.tolist() == [t.total_energy for t in traces]
                assert got.logits is outcome.logits and got.plans is outcome.plans

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_price_equals_an_app_built_for_the_gpu(self, tiny_app, tiny_tokens, mode):
        outcome = tiny_app.run(tiny_tokens, mode=mode, threshold_index=5)
        server = OptimizedLSTM(tiny_app.network, spec=TESLA_M40)
        server.calibration = tiny_app.calibration
        separate = server.run(tiny_tokens, mode=mode, threshold_index=5, keep_traces=True)
        repriced = tiny_app.price(outcome, TESLA_M40, keep_traces=True)
        assert repriced.times.tolist() == separate.times.tolist()
        assert repriced.energies.tolist() == separate.energies.tolist()
        assert repriced.traces == separate.traces
        # Priced back on the app's own GPU, the outcome is the run's.
        home = tiny_app.price(repriced)
        assert home.times.tolist() == outcome.times.tolist()
        assert home.energies.tolist() == outcome.energies.tolist()

    def test_hardware_model_never_reaches_the_executor_cache(self, tiny_app, tiny_tokens):
        outcome = tiny_app.run(tiny_tokens, mode=ExecutionMode.COMBINED, threshold_index=5)
        built = tiny_app.executor_cache.stats.misses
        for spec in SPECS:
            for style in STYLES:
                tiny_app.price(outcome, spec, style)
        assert tiny_app.executor_cache.stats.misses == built


class TestOutcomeFields:
    def test_means_are_read_from_the_plans(self, tiny_app, tiny_tokens):
        outcome = tiny_app.run(tiny_tokens, mode=ExecutionMode.COMBINED, threshold_index=5)
        plans = outcome.plans
        assert outcome.mode is ExecutionMode.COMBINED
        assert outcome.config == tiny_app.execution_config(
            ExecutionMode.COMBINED, threshold_index=5
        )
        assert outcome.mean_tissue_size == float(
            np.mean([p.mean_tissue_size for p in plans])
        )
        assert outcome.mean_skip_fraction == float(
            np.mean([p.mean_skip_fraction for p in plans])
        )
        assert outcome.mean_breakpoints == float(
            np.mean([p.total_breakpoints for p in plans])
        )


class TestRefusals:
    @pytest.mark.parametrize("mode", [ExecutionMode.BASELINE, ExecutionMode.COMBINED])
    def test_empty_batch_is_refused(self, tiny_app, tiny_tokens, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="empty batch"):
                tiny_app.run(tiny_tokens[:0], mode=mode, threshold_index=5)

    def test_unknown_drs_style_is_refused_before_any_trace(
        self, tiny_app, tiny_tokens, monkeypatch
    ):
        outcome = tiny_app.run(tiny_tokens, mode=ExecutionMode.INTRA, threshold_index=5)
        executor = LSTMExecutor(tiny_app.network, outcome.config)

        def no_trace(*args, **kwargs):
            raise AssertionError("a trace was built")

        monkeypatch.setattr(executor_module, "build_kernel_trace", no_trace)
        with pytest.raises(ConfigurationError, match="quantum"):
            tiny_app.price(outcome, drs_style="quantum")
        with pytest.raises(ConfigurationError, match="quantum"):
            executor.kernel_trace(outcome.plans[0], TEGRA_X1, drs_style="quantum")


def test_large_gpu_ablation_prices_one_execution(tiny_app, monkeypatch, count_run_batch):
    """The M40 ablation runs the batch once and re-prices it; it never
    repoints the app at another GPU."""
    from repro.bench.harness import ExperimentContext, ablation_large_gpu
    from repro.workloads.apps import Workload
    from repro.workloads.datasets import build_dataset

    ctx = ExperimentContext()
    dataset = build_dataset(tiny_app, 4, seed=1, confidence_keep=0.6)
    ctx._workloads["MR"] = Workload(tiny_app, dataset, "MR")
    count_run_batch.clear()

    def frozen(self, name, value):
        raise AssertionError(f"OptimizedLSTM.{name} assigned during the ablation")

    monkeypatch.setattr(OptimizedLSTM, "__setattr__", frozen)
    data, _ = ablation_large_gpu(ctx, "MR")
    assert count_run_batch == [ExecutionMode.BASELINE]
    assert data["mobile"] >= data["server"] > 0.0
