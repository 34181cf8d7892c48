"""Tests for the mode executor — the numerical heart of the reproduction.

The key invariants: every optimized mode with its thresholds at zero is
numerically identical to the baseline; the baseline and intra executors
match the cell-level oracle (``lstm_cell_step``); and the combined mode
degenerates to the inter / intra modes when the other knob is off.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import get_app
from repro.core import executor as executor_module
from repro.core import program as program_module
from repro.core.context_prediction import PredictedLink
from repro.core.executor import (
    ExecutionConfig,
    ExecutionMode,
    LSTMExecutor,
)
from repro.core.pipeline import OptimizedLSTM
from repro.core.plan import PlanCache
from repro.core.reference import ReferenceExecutor
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.specs import TEGRA_X1
from repro.nn.activations import sigmoid
from repro.nn.lstm_cell import GATE_ORDER, CellState, input_projections, lstm_cell_step
from tests.conftest import TINY_HIDDEN, TINY_VOCAB, make_executor
from tests.grading import assert_graded, assert_meets_grade, assert_plans_equal, row_of


class TestConfig:
    def test_mode_flags(self):
        assert ExecutionConfig(mode=ExecutionMode.COMBINED).inter_active
        assert ExecutionConfig(mode=ExecutionMode.COMBINED).intra_active
        assert not ExecutionConfig(mode=ExecutionMode.INTER).intra_active
        assert not ExecutionConfig(mode=ExecutionMode.INTRA).inter_active
        assert not ExecutionConfig(mode=ExecutionMode.BASELINE).inter_active

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(alpha_inter=-1.0)
        for nan in ({"alpha_inter": float("nan")}, {"alpha_intra": float("nan")}):
            with pytest.raises(ConfigurationError):
                ExecutionConfig(mode=ExecutionMode.INTRA, **nan)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(mts=0)


def cell_loop_logits(network, tokens: np.ndarray, alpha: float) -> np.ndarray:
    """Logits of one sequence through the cell-level oracle: whole-layer
    ``input_projections`` and one :func:`~repro.nn.lstm_cell.lstm_cell_step`
    per timestep, with true row slicing for the DRS mask (``o`` first, as
    Algorithm 3 does) when ``alpha > 0``. Independent of every executor."""
    xs = network.embed(tokens)
    for layer in network.layers:
        w = layer.weights
        proj = input_projections(w, xs)
        state = CellState.zeros(w.hidden_size)
        hs = []
        for t in range(xs.shape[0]):
            step_proj = {g: proj[g][t] for g in GATE_ORDER}
            mask = None
            if alpha > 0.0:
                mask = sigmoid(step_proj["o"] + w.u_o @ state.h + w.b_o) < alpha
            state, _ = lstm_cell_step(w, step_proj, state, skip_rows=mask)
            hs.append(state.h)
        xs = np.asarray(hs)
    return network.head_logits(network.pool_top(xs))


def assert_matches_cell_loop(network, tokens: np.ndarray, mode: ExecutionMode, alpha: float):
    result = make_executor(network, mode, alpha_intra=alpha).run_batch(tokens)
    for b, row in enumerate(tokens):
        np.testing.assert_allclose(
            result.logits[b], cell_loop_logits(network, row, alpha), atol=1e-10
        )


class TestBaseline:
    def test_matches_reference_forward(self, tiny_network, tiny_tokens):
        """The alpha = 0 case of the cell-level check below."""
        assert_matches_cell_loop(tiny_network, tiny_tokens, ExecutionMode.BASELINE, 0.0)

    def test_plans_are_singleton_tissues(self, tiny_network, tiny_tokens):
        result = make_executor(tiny_network).run_batch(tiny_tokens)
        for plan in result.plans:
            for record in plan.layers:
                record.validate()
                assert (record.tissue_sizes == 1).all()
                assert record.breakpoints == []

    def test_collect_states(self, tiny_network, tiny_tokens):
        result = make_executor(tiny_network).run_batch(tiny_tokens, collect_states=True)
        assert len(result.layer_states) == tiny_network.num_layers
        assert result.layer_states[0].shape == result.layer_outputs[0].shape

    def test_rejects_1d_tokens(self, tiny_network, tiny_tokens):
        with pytest.raises(ShapeError):
            make_executor(tiny_network).run_batch(tiny_tokens[0])

    @pytest.mark.parametrize(
        "bad", [-1, TINY_VOCAB, 1.5, True], ids=["negative", "oov", "float", "bool"]
    )
    def test_rejects_token_ids_outside_the_vocabulary(self, tiny_network, tiny_tokens, bad):
        """``embedding[tokens]`` would wrap a negative id to the last row,
        read a boolean as a mask, and raise a bare IndexError on the rest."""
        tokens = tiny_tokens.astype(type(bad))
        tokens[1, 3] = bad
        executor = make_executor(tiny_network)
        states = np.zeros((tiny_network.num_layers, *tokens.shape[:1], TINY_HIDDEN))
        with pytest.raises(ShapeError, match="token id out of vocabulary range"):
            executor.run_batch(tokens)
        with pytest.raises(ShapeError, match="token id out of vocabulary range"):
            executor.run_stream(tokens, states, states.copy())
        assert not states.any()


#: Every mode with both of its levels live, so the degenerate shapes reach
#: planning, the wave schedule and the DRS statistics.
LIVE_THRESHOLDS = {"alpha_inter": 50.0, "alpha_intra": 0.4, "mts": 3}


@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
class TestDegenerateShapes:
    def test_rejects_zero_length_sequences(self, tiny_network, mode):
        """``(B, 0)`` used to return NaN logits under a numpy RuntimeWarning
        (stepwise modes) or raise ``PlanError`` (INTER / COMBINED)."""
        executor = make_executor(tiny_network, mode, **LIVE_THRESHOLDS)
        tokens = np.zeros((3, 0), dtype=int)
        with pytest.raises(ShapeError, match="T >= 1"):
            executor.run_batch(tokens)
        states = np.zeros((tiny_network.num_layers, 3, TINY_HIDDEN))
        if not executor.config.inter_active:  # else run_stream refuses the mode first
            with pytest.raises(ShapeError, match="T >= 1"):
                executor.run_stream(tokens, states, states.copy())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_batch_is_legal(self, tiny_network, tiny_tokens, mode, threads):
        executor = make_executor(tiny_network, mode, threads=threads, **LIVE_THRESHOLDS)
        seq_len = tiny_tokens.shape[1]
        with np.errstate(all="raise"):
            result = executor.run_batch(tiny_tokens[:0])
        assert result.logits.shape == (0, tiny_network.num_classes)
        assert result.plans == []
        assert [h.shape for h in result.layer_outputs] == [
            (0, seq_len, TINY_HIDDEN)
        ] * tiny_network.num_layers
        # The empty run leaves the cached programs' neighbours untouched.
        full = executor.run_batch(tiny_tokens)
        fresh = make_executor(
            tiny_network, mode, threads=threads, **LIVE_THRESHOLDS
        ).run_batch(tiny_tokens)
        assert np.array_equal(full.logits, fresh.logits)


class TestIntra:
    def test_alpha_zero_equals_baseline(self, tiny_network, tiny_tokens):
        base = make_executor(tiny_network).run_batch(tiny_tokens)
        intra = make_executor(
            tiny_network, ExecutionMode.INTRA, alpha_intra=0.0
        ).run_batch(tiny_tokens)
        np.testing.assert_allclose(intra.logits, base.logits, atol=1e-12)

    def test_skip_semantics_match_reference_cell(self, calibrated_network, tiny_tokens):
        """Batched masked-matmul numerics == sliced-weight row skipping."""
        assert_matches_cell_loop(
            calibrated_network, tiny_tokens[:1], ExecutionMode.INTRA, 0.1
        )

    def test_records_skip_fractions(self, calibrated_network, tiny_tokens):
        executor = make_executor(
            calibrated_network, ExecutionMode.INTRA, alpha_intra=0.2
        )
        result = executor.run_batch(tiny_tokens)
        fractions = [p.mean_skip_fraction for p in result.plans]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert any(f > 0.0 for f in fractions)

    def test_higher_alpha_skips_more(self, calibrated_network, tiny_tokens):
        low = make_executor(
            calibrated_network, ExecutionMode.INTRA, alpha_intra=0.05
        ).run_batch(tiny_tokens)
        high = make_executor(
            calibrated_network, ExecutionMode.INTRA, alpha_intra=0.4
        ).run_batch(tiny_tokens)
        assert (
            np.mean([p.mean_skip_fraction for p in high.plans])
            >= np.mean([p.mean_skip_fraction for p in low.plans])
        )


class TestInter:
    def test_epsilon_alpha_equals_baseline(self, calibrated_network, tiny_tokens):
        base = make_executor(calibrated_network).run_batch(tiny_tokens)
        inter = make_executor(
            calibrated_network, ExecutionMode.INTER, alpha_inter=1e-300
        ).run_batch(tiny_tokens)
        np.testing.assert_allclose(inter.logits, base.logits, atol=1e-12)

    def test_relevance_recorded(self, calibrated_network, tiny_tokens):
        inter = make_executor(
            calibrated_network, ExecutionMode.INTER, alpha_inter=1e-300
        ).run_batch(tiny_tokens)
        for plan in inter.plans:
            for record in plan.layers:
                assert record.relevance is not None
                assert record.relevance.shape == (record.seq_length,)

    def test_breaking_everything_uses_predicted_link(self, calibrated_network, tiny_tokens):
        """With every link broken, each cell starts from the predicted
        link, so the recurrence contributes nothing sequence-specific."""
        hidden = calibrated_network.config.hidden_size
        link = PredictedLink(
            h_bar=np.full(hidden, 0.1), c_bar=np.full(hidden, 0.2)
        )
        config = ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1e12)
        executor = LSTMExecutor(
            calibrated_network,
            config,
            predicted_links=[link] * calibrated_network.num_layers,
        )
        result = executor.run_batch(tiny_tokens)
        for plan in result.plans:
            rec = plan.layers[0]
            assert len(rec.breakpoints) == rec.seq_length - 1

    def test_plans_valid_and_tissues_capped(self, calibrated_network, tiny_tokens):
        mts = 3
        executor = make_executor(
            calibrated_network, ExecutionMode.INTER, alpha_inter=1e12, mts=mts
        )
        result = executor.run_batch(tiny_tokens)
        for plan in result.plans:
            for record in plan.layers:
                record.validate()
                assert (record.tissue_sizes <= mts).all()

    def test_predicted_link_count_validated(self, calibrated_network):
        with pytest.raises(ConfigurationError):
            LSTMExecutor(
                calibrated_network,
                ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1.0),
                predicted_links=[PredictedLink.zeros(calibrated_network.config.hidden_size)],
            )


class TestCombined:
    def test_reduces_to_inter_when_alpha_intra_zero(self, calibrated_network, tiny_tokens):
        alpha = 100.0
        inter = make_executor(
            calibrated_network, ExecutionMode.INTER, alpha_inter=alpha
        ).run_batch(tiny_tokens)
        combined = make_executor(
            calibrated_network,
            ExecutionMode.COMBINED,
            alpha_inter=alpha,
            alpha_intra=0.0,
        ).run_batch(tiny_tokens)
        np.testing.assert_allclose(combined.logits, inter.logits, atol=1e-10)

    def test_reduces_to_intra_when_alpha_inter_zero(self, calibrated_network, tiny_tokens):
        alpha = 0.15
        intra = make_executor(
            calibrated_network, ExecutionMode.INTRA, alpha_intra=alpha
        ).run_batch(tiny_tokens)
        combined = make_executor(
            calibrated_network,
            ExecutionMode.COMBINED,
            alpha_inter=0.0,
            alpha_intra=alpha,
        ).run_batch(tiny_tokens)
        np.testing.assert_allclose(combined.logits, intra.logits, atol=1e-10)

    def test_tissue_skip_is_intersection(self, calibrated_network, tiny_tokens):
        """A multi-cell tissue can never skip more rows than the stingiest
        of its cells (the shared-load constraint)."""
        combined = make_executor(
            calibrated_network,
            ExecutionMode.COMBINED,
            alpha_inter=1e12,
            alpha_intra=0.3,
            mts=4,
        ).run_batch(tiny_tokens)
        intra = make_executor(
            calibrated_network, ExecutionMode.INTRA, alpha_intra=0.3
        ).run_batch(tiny_tokens)
        assert (
            np.mean([p.mean_skip_fraction for p in combined.plans])
            <= np.mean([p.mean_skip_fraction for p in intra.plans]) + 1e-9
        )

    def test_plans_valid(self, calibrated_network, tiny_tokens):
        result = make_executor(
            calibrated_network,
            ExecutionMode.COMBINED,
            alpha_inter=1e12,
            alpha_intra=0.2,
            mts=3,
        ).run_batch(tiny_tokens)
        for plan in result.plans:
            for record in plan.layers:
                record.validate()


class TestZeroPrune:
    def test_prunes_and_runs(self, tiny_network, tiny_tokens):
        executor = make_executor(tiny_network, ExecutionMode.ZERO_PRUNE)
        assert executor.pruning_kept_fraction == pytest.approx(
            1.0 - executor_module.ZERO_PRUNE_FRACTION, abs=0.02
        )
        result = executor.run_batch(tiny_tokens)
        assert result.logits.shape == (tiny_tokens.shape[0], tiny_network.num_classes)

    def test_zero_fraction_matches_baseline(self, tiny_network, tiny_tokens, monkeypatch):
        base = make_executor(tiny_network).run_batch(tiny_tokens)
        monkeypatch.setattr(executor_module, "ZERO_PRUNE_FRACTION", 0.0)
        pruned = make_executor(tiny_network, ExecutionMode.ZERO_PRUNE).run_batch(tiny_tokens)
        np.testing.assert_allclose(pruned.logits, base.logits, atol=1e-12)

    def test_pruning_perturbs_outputs(self, tiny_network, tiny_tokens):
        base = make_executor(tiny_network).run_batch(tiny_tokens)
        pruned = make_executor(tiny_network, ExecutionMode.ZERO_PRUNE).run_batch(tiny_tokens)
        assert not np.allclose(pruned.logits, base.logits)


class TestKernelTraces:
    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            (ExecutionMode.BASELINE, {}),
            (ExecutionMode.INTER, {"alpha_inter": 1e12}),
            (ExecutionMode.INTRA, {"alpha_intra": 0.2}),
            (ExecutionMode.COMBINED, {"alpha_inter": 1e12, "alpha_intra": 0.2}),
            (ExecutionMode.ZERO_PRUNE, {}),
        ],
    )
    def test_every_mode_produces_a_trace(self, calibrated_network, tiny_tokens, mode, kwargs):
        executor = make_executor(calibrated_network, mode, **kwargs)
        result = executor.run_batch(tiny_tokens[:1])
        kernels = executor.kernel_trace(result.plans[0], TEGRA_X1)
        assert len(kernels) > 0
        names = {k.name for k in kernels}
        assert "sgemm" in names  # the per-layer Sgemm(W, x) is always there

    def test_intra_trace_has_algorithm3_kernels(self, calibrated_network, tiny_tokens):
        executor = make_executor(calibrated_network, ExecutionMode.INTRA, alpha_intra=0.2)
        result = executor.run_batch(tiny_tokens[:1])
        names = [k.name for k in executor.kernel_trace(result.plans[0], TEGRA_X1)]
        assert "drs" in names

    def test_inter_trace_has_relevance_kernel(self, calibrated_network, tiny_tokens):
        executor = make_executor(calibrated_network, ExecutionMode.INTER, alpha_inter=1e-300)
        result = executor.run_batch(tiny_tokens[:1])
        names = [k.name for k in executor.kernel_trace(result.plans[0], TEGRA_X1)]
        assert "relevance" in names


class TestPartialWarp:
    """Hidden sizes that are not a multiple of the 32-lane warp size.

    The trailing partial warp must be weighted by its real lane count:
    the old unweighted mean could report a warp-level skip fraction above
    the row-level one, which made software-DRS efficiencies exceed 1 and
    KernelLaunch validation blow up (regression: hidden_size=48).
    """

    @pytest.fixture
    def network48(self):
        from repro.config import LSTMConfig
        from repro.nn.network import LSTMNetwork

        config = LSTMConfig(hidden_size=48, num_layers=2, seq_length=10, input_size=20)
        return LSTMNetwork(config, vocab_size=60, num_classes=3, seed=9)

    def test_fractions_agree_with_cta_model(self):
        from repro.core.plan import warp_skip_fractions
        from repro.gpu.cta import software_drs_penalties

        rng = np.random.default_rng(17)
        for hidden in (33, 48, 64, 90):
            masks = rng.random((5, hidden)) < 0.6
            batched = warp_skip_fractions(masks)
            for row, mask in zip(batched, masks):
                assert row == warp_skip_fractions(mask)  # batched = one mask at a time
                assert row <= mask.mean() + 1e-12
                warp, gather, _ = software_drs_penalties(float(mask.mean()), float(row))
                assert warp <= 1.0 and gather <= 1.0

    def test_trailing_warp_weighted_by_lanes(self):
        from repro.core.plan import warp_skip_fractions

        # hidden=48: rows 32..47 trivial -> row skip 1/3, and the whole
        # 16-lane tail warp skips, so the warp-level fraction is also 1/3
        # (the buggy unweighted mean said 0.5).
        mask = np.zeros((1, 48), bool)
        mask[0, 32:] = True
        assert warp_skip_fractions(mask)[0] == pytest.approx(1 / 3)

    def test_software_drs_trace_simulates(self, network48):
        from repro.gpu.simulator import TimingSimulator

        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 60, size=(3, 10))
        executor = make_executor(network48, ExecutionMode.INTRA, alpha_intra=0.6)
        result = executor.run_batch(tokens)
        simulator = TimingSimulator()
        for plan in result.plans:
            kernels = executor.kernel_trace(plan, TEGRA_X1, drs_style="software")
            for kernel in kernels:
                assert 0.0 < kernel.warp_efficiency <= 1.0
                assert 0.0 < kernel.gather_efficiency <= 1.0
            summary = simulator.run_trace(kernels)
            assert summary.total_time > 0.0

    def test_batched_matches_reference(self, network48):
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 60, size=(3, 10))
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.4)
        batched = LSTMExecutor(network48, config).run_batch(tokens)
        reference = ReferenceExecutor(network48, config).run_batch(tokens)
        # BLAS accumulation order differs at non-power-of-two widths, so
        # equality holds only to machine epsilon here (unlike hidden=64).
        np.testing.assert_allclose(batched.logits, reference.logits, atol=1e-12)


class TestPlanRecordFormat:
    """A record is its schedule plus two per-tissue arrays; a layer's
    records share one read-only array per statistic and cross a pickle
    boundary (the fleet pipe) unchanged."""

    @pytest.mark.parametrize(
        "mode, knobs",
        [
            (ExecutionMode.COMBINED, {"alpha_inter": 100.0, "alpha_intra": 0.15}),
            (ExecutionMode.INTRA, {"alpha_intra": 0.15}),
            (ExecutionMode.INTER, {"alpha_inter": 100.0}),
        ],
        ids=["combined", "intra", "inter"],
    )
    def test_views_of_one_array_per_layer_and_pickles(
        self, calibrated_network, tiny_tokens, mode, knobs
    ):
        import pickle

        result = make_executor(calibrated_network, mode, **knobs).run_batch(tiny_tokens)
        for layer in range(calibrated_network.num_layers):
            records = [plan.layers[layer] for plan in result.plans]
            for stat in ("skip", "warp"):
                arrays = [getattr(record, stat) for record in records]
                assert len({id(array.base) for array in arrays}) == 1
                for array, record in zip(arrays, records):
                    assert np.shares_memory(array, arrays[0].base)
                    assert not array.flags.writeable
                    assert array.dtype == np.float64
                    assert array.shape == (record.num_tissues,)
        if mode is not ExecutionMode.INTER:
            assert any(plan.mean_skip_fraction > 0.0 for plan in result.plans)
        restored = pickle.loads(pickle.dumps(result.plans))
        assert_plans_equal(restored, result.plans)
        for mine, theirs in zip(restored, result.plans):
            assert mine.mean_skip_fraction == theirs.mean_skip_fraction


class TestServingGeometry:
    """The declared oracle grade at ``H = 256`` (BABI, calibrated links,
    threshold set 5, batch 8) — hypothesis only draws ``H <= 24`` — and,
    for the weight-slab path, at ``H = 512`` and ``H = 650``."""

    @pytest.fixture(scope="class")
    def babi(self):
        app = OptimizedLSTM.from_app("BABI", seed=0)
        app.calibrate()
        net = app.network
        tokens = np.random.default_rng(11).integers(
            0, net.vocab_size, size=(8, net.config.seq_length)
        )
        return app, tokens

    @staticmethod
    def executor(app, mode, **kwargs):
        return LSTMExecutor(
            app.network,
            app.execution_config(mode, threshold_index=5, **kwargs),
            predicted_links=app.calibration.predicted_links,
        )

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    def test_oracle_grade_and_thread_invariance(self, babi, mode):
        app, tokens = babi
        serial = self.executor(app, mode)
        out = serial.run_batch(tokens)
        ref = ReferenceExecutor(
            app.network, serial.config, predicted_links=app.calibration.predicted_links
        ).run_batch(tokens)
        if serial.exact:
            assert np.array_equal(out.logits, ref.logits)
        else:
            assert_graded(out, ref)
        threaded = self.executor(app, mode, threads=2).run_batch(tokens)
        assert "dispatch_wall_s" in threaded.timings
        assert "dispatch_wall_s" not in out.timings
        assert_meets_grade(threaded, out, serial.exact)

    def test_combined_shard_of_unlike_plans_equals_solo_runs(self, babi):
        """The wave walk steps unlike plans together — here one shard holds
        plans from 15 to 86 tissues — and each sequence alone plans the
        same and computes the same, to the graded tier."""
        app, tokens = babi
        executor = self.executor(app, ExecutionMode.COMBINED)
        out = executor.run_batch(tokens)
        tissue_counts = {rec.num_tissues for plan in out.plans for rec in plan.layers}
        assert min(tissue_counts) == 15 and max(tissue_counts) == tokens.shape[1] == 86
        for layer in range(app.network.num_layers):
            assert len({plan.layers[layer].num_tissues for plan in out.plans}) > 1
        for b in range(tokens.shape[0]):
            assert_graded(executor.run_batch(tokens[b : b + 1]), row_of(out, b))

    @pytest.mark.parametrize(
        "mode",
        [ExecutionMode.BASELINE, ExecutionMode.INTRA, ExecutionMode.ZERO_PRUNE],
        ids=lambda m: m.value,
    )
    def test_run_stream_thread_invariance(self, babi, mode):
        app, tokens = babi
        net = app.network
        shape = (net.num_layers, tokens.shape[0], net.config.hidden_size)
        resident = {}
        outputs = {}
        for threads in (1, 2):
            executor = self.executor(app, mode, threads=threads)
            h, c = np.zeros(shape), np.zeros(shape)
            outputs[threads] = [
                executor.run_stream(tokens[:, start : start + 4], h, c)
                for start in (0, 4, 8)
            ]
            resident[threads] = (h, c)
        for chunk_1, chunk_2 in zip(outputs[1], outputs[2]):
            assert np.array_equal(chunk_1, chunk_2)
        assert np.array_equal(resident[1][0], resident[2][0])
        assert np.array_equal(resident[1][1], resident[2][1])
        assert resident[1][0].any()

    @pytest.mark.parametrize(
        "app_name, batch", [("IMDB", 4), ("PTB", 2)], ids=["h512-b4", "h650-b2"]
    )
    def test_exact_modes_take_weight_slabs_bit_identically(self, app_name, batch, monkeypatch):
        """Calibrated gate blocks above ``SLAB_MIN_BYTES`` (IMDB's 2 MiB,
        PTB's 3.3 MiB, whose H % 64 != 0 leaves a remainder slab) take the
        slab path in both products, and the four exact modes still equal
        the reference in logits, layer outputs and plans."""
        base = get_app(app_name)
        app = OptimizedLSTM.from_app(
            dataclasses.replace(base, model=base.model.scaled(seq_length=10)), seed=0
        )
        app.calibrate()
        tokens = app.sample_tokens(batch, seed=21)
        lifted = []
        bounds = program_module.slab_bounds
        monkeypatch.setattr(
            program_module, "slab_bounds", lambda height: lifted.append(height) or bounds(height)
        )
        for mode in ExecutionMode:
            if mode is ExecutionMode.COMBINED:
                continue
            lifted.clear()
            executor = self.executor(app, mode)
            out = executor.run_batch(tokens)
            ref = ReferenceExecutor(
                app.network, executor.config, predicted_links=app.calibration.predicted_links
            ).run_batch(tokens)
            assert_meets_grade(out, ref, exact=True)
            hidden = app.network.config.hidden_size
            # One slabbed lift per layer (layer 0's is the distinct-token
            # projection) and one slabbed recurrence per layer program.
            assert lifted == [hidden] * (2 * app.network.num_layers)
            programs = [entry for _, entry in executor.program_cache.items()]
            assert len(programs) == app.network.num_layers
            assert all(program._cut > 0 for program in programs)


class PlantedFault(Exception):
    """Raised by a test between a layer's projection and its execution."""


class TestFaultBetweenProjectAndExecute:
    """Layer 1 has projected its inputs (into the slot's workspace, and its
    relevance into the plan cache when there is one) when planning raises.
    The executor's next run must not see any of that half-finished state."""

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "plan-cache"])
    @pytest.mark.parametrize(
        "mode", [ExecutionMode.INTER, ExecutionMode.COMBINED], ids=lambda m: m.value
    )
    def test_next_run_equals_a_fresh_executor(
        self, calibrated_network, tiny_tokens, mode, cached, monkeypatch
    ):
        probe = make_executor(calibrated_network, ExecutionMode.INTER, alpha_inter=1e-300)
        relevance = np.concatenate(
            [plan.layers[1].relevance for plan in probe.run_batch(tiny_tokens).plans]
        )
        config = ExecutionConfig(
            mode=mode, alpha_inter=float(np.median(relevance)), alpha_intra=0.3, mts=3
        )

        def make():
            return LSTMExecutor(
                calibrated_network, config, plan_cache=PlanCache() if cached else None
            )

        executor = make()
        build_plan = executor._build_plan

        def planted(layer_index, *args):
            if layer_index == 1:
                raise PlantedFault("after layer 1's projection")
            return build_plan(layer_index, *args)

        monkeypatch.setattr(executor, "_build_plan", planted)
        with pytest.raises(PlantedFault):
            executor.run_batch(tiny_tokens)
        monkeypatch.undo()

        result = executor.run_batch(tiny_tokens)
        fresh = make().run_batch(tiny_tokens)
        assert_meets_grade(result, fresh, exact=True)
        assert any(rec.breakpoints for plan in result.plans for rec in plan.layers)
        if mode is ExecutionMode.INTER:
            reference = ReferenceExecutor(calibrated_network, config).run_batch(tiny_tokens)
            assert_meets_grade(result, reference, exact=True)
