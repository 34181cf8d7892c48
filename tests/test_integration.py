"""End-to-end integration tests on a small-but-realistic application.

Uses a scaled-down calibrated model (large enough that the united matrix
exceeds the L2, so the memory phenomena actually appear) and checks the
paper's qualitative claims hold through the whole stack.
"""

import pytest

from repro.config import AppConfig, LSTMConfig, TaskFamily
from repro.core.executor import ExecutionMode
from repro.core.pipeline import OptimizedLSTM
from repro.workloads.apps import Workload, build_workload
from repro.workloads.datasets import build_dataset


@pytest.fixture(scope="module")
def small_real_app():
    """H=144 -> united matrix ~332 KB > L2 effective capacity (192 KB)."""
    cfg = AppConfig(
        name="SMALL",
        family=TaskFamily.SENTIMENT_CLASSIFICATION,
        model=LSTMConfig(hidden_size=144, num_layers=2, seq_length=30),
        vocab_size=500,
        num_classes=2,
    )
    app = OptimizedLSTM.from_app(cfg, seed=0)
    app.calibrate(num_sequences=6)
    return app


@pytest.fixture(scope="module")
def tokens(small_real_app):
    return small_real_app.sample_tokens(12, seed=3)


@pytest.fixture(scope="module")
def baseline(small_real_app, tokens):
    return small_real_app.run(tokens, mode=ExecutionMode.BASELINE, keep_traces=True)


class TestMemoryBottleneck:
    def test_sgemv_dominates_baseline(self, baseline):
        """Section III: Sgemv is >90 % of baseline layer time."""
        assert baseline.traces[0].time_fraction("sgemv") > 0.80

    def test_offchip_saturated_onchip_idle(self, baseline):
        """Fig. 6's contrast."""
        trace = baseline.traces[0]
        assert trace.mean_utilization("dram", "sgemv") > 0.9
        assert trace.mean_utilization("onchip", "sgemv") < 0.4

    def test_stalls_are_offchip(self, baseline):
        """Fig. 4: off-chip memory dominates Sgemv stalls."""
        stalls = baseline.traces[0].stall_breakdown("sgemv")
        assert stalls["off_chip_memory"] > 0.6


class TestOptimizations:
    def test_inter_reduces_weight_traffic(self, small_real_app, tokens, baseline):
        inter = small_real_app.run(
            tokens, mode=ExecutionMode.INTER, threshold_index=10, keep_traces=True
        )
        assert inter.traces[0].total_dram_bytes < baseline.traces[0].total_dram_bytes

    def test_inter_speedup_positive(self, small_real_app, tokens, baseline):
        inter = small_real_app.run(tokens, mode=ExecutionMode.INTER, threshold_index=10)
        assert inter.speedup_vs(baseline) > 1.1

    def test_intra_speedup_and_accuracy(self, small_real_app, tokens, baseline):
        intra = small_real_app.run(tokens, mode=ExecutionMode.INTRA, threshold_index=3)
        assert intra.speedup_vs(baseline) > 1.0
        assert intra.agreement_with(baseline) > 0.7
        assert intra.mean_skip_fraction > 0.2

    def test_combined_beats_both_at_max(self, small_real_app, tokens, baseline):
        inter = small_real_app.run(tokens, mode=ExecutionMode.INTER, threshold_index=10)
        intra = small_real_app.run(tokens, mode=ExecutionMode.INTRA, threshold_index=10)
        combined = small_real_app.run(
            tokens, mode=ExecutionMode.COMBINED, threshold_index=10
        )
        assert combined.speedup_vs(baseline) > inter.speedup_vs(baseline)
        assert combined.speedup_vs(baseline) > intra.speedup_vs(baseline)

    def test_combined_less_than_sum(self, small_real_app, tokens, baseline):
        """The overlap effect: combined gains < product of the parts."""
        inter = small_real_app.run(tokens, mode=ExecutionMode.INTER, threshold_index=8)
        intra = small_real_app.run(tokens, mode=ExecutionMode.INTRA, threshold_index=8)
        combined = small_real_app.run(
            tokens, mode=ExecutionMode.COMBINED, threshold_index=8
        )
        assert (
            combined.speedup_vs(baseline)
            < inter.speedup_vs(baseline) * intra.speedup_vs(baseline)
        )

    def test_energy_saving_accompanies_speedup(self, small_real_app, tokens, baseline):
        combined = small_real_app.run(
            tokens, mode=ExecutionMode.COMBINED, threshold_index=8
        )
        assert combined.energy_saving_vs(baseline) > 0.2

    def test_speedup_monotone_in_threshold(self, small_real_app, tokens, baseline):
        speedups = [
            small_real_app.run(
                tokens, mode=ExecutionMode.COMBINED, threshold_index=i
            ).speedup_vs(baseline)
            for i in (2, 6, 10)
        ]
        assert speedups[0] < speedups[1] < speedups[2]

    def test_hardware_drs_beats_software(self, small_real_app, tokens, baseline):
        hw = small_real_app.run(tokens, mode=ExecutionMode.INTRA, threshold_index=6)
        sw = small_real_app.price(hw, drs_style="software")
        assert hw.speedup_vs(baseline) > sw.speedup_vs(baseline)
        # One execution priced twice — only the execution efficiency differs.
        assert sw.logits is hw.logits
        assert hw.agreement_with(sw) == 1.0

    def test_zero_pruning_slower_than_baseline(self, small_real_app, tokens, baseline):
        pruned = small_real_app.run(tokens, mode=ExecutionMode.ZERO_PRUNE)
        assert pruned.speedup_vs(baseline) < 1.0


class TestWorkloadEndToEnd:
    def test_workload_dataset_and_sweep(self, small_real_app):
        dataset = build_dataset(small_real_app, 10, seed=4, confidence_keep=0.6)
        workload = Workload(small_real_app, dataset, "SMALL")
        sweep = workload.threshold_sweep(ExecutionMode.COMBINED, indices=[0, 5, 10])
        assert sweep[0].speedup == pytest.approx(1.0)
        assert sweep[0].accuracy == 1.0
        assert sweep[2].speedup > sweep[1].speedup > 1.0
        ao = Workload.ao_index(sweep)
        assert 0 <= ao < 3

    def test_build_workload_mr_smoke(self):
        """One real Table II workload built end to end (the smallest)."""
        workload = build_workload("MR", seed=1, num_sequences=12, calibration_sequences=4)
        ev = workload.evaluate(ExecutionMode.COMBINED, threshold_index=5)
        assert ev.speedup > 1.0
        assert 0.8 <= ev.accuracy <= 1.0
