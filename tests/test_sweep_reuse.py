"""A sweep pays once: what :class:`OptimizedLSTM` keeps between runs.

Four properties:

* **Memo bit-identity.** Layer-0 projections served through the
  distinct-token memo (:class:`~repro.core.plan.TokenRowMemo`) equal
  :func:`~repro.core.program.project_rows` on the embedded batch, bit for
  bit, whatever the previous call left behind — and the memo never holds
  more than one call's distinct rows.
* **Sweep equivalence.** Runs through one reused app equal runs through a
  fresh app each, in every observable; a second sweep builds, prunes and
  compiles nothing.
* **No stale state.** A second ``calibrate()`` and an in-place weight
  update followed by ``invalidate_weight_fingerprints`` both reach fresh
  executors and fresh token rows, and an exact mode never plans from the
  relevance a graded COMBINED run computed.
* **Layer-0 keys.** Layer 0 plans are keyed on token ids plus the
  embedding's fingerprint, layers >= 1 are not cached: ``run_batch``
  hashes no layer input, and an embedding edit plus
  ``invalidate_weight_fingerprints`` re-plans layer 0.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import AppConfig, LSTMConfig, TaskFamily  # noqa: E402
from repro.core import executor as executor_module  # noqa: E402
from repro.core import pipeline as pipeline_module  # noqa: E402
from repro.core import plan as plan_module  # noqa: E402
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor  # noqa: E402
from repro.core.pipeline import OptimizedLSTM  # noqa: E402
from repro.core.plan import PlanCache, invalidate_weight_fingerprints  # noqa: E402
from repro.core.program import project_rows  # noqa: E402
from repro.core.reference import ReferenceExecutor  # noqa: E402
from repro.nn.model_zoo import build_calibrated_network  # noqa: E402
from repro.nn.network import LSTMNetwork  # noqa: E402

from tests.grading import assert_bytes_equal, assert_meets_grade  # noqa: E402

VOCAB = 23
HIDDEN = 16
EMBED = 12


def make_network(seed: int = 4, layers: int = 2) -> LSTMNetwork:
    config = LSTMConfig(hidden_size=HIDDEN, num_layers=layers, seq_length=9, input_size=EMBED)
    return LSTMNetwork(config, VOCAB, 3, seed=seed)


def direct_projection(network: LSTMNetwork, tokens: np.ndarray) -> np.ndarray:
    """``project_rows`` on the embedded batch: ``(4, B, T, H)``."""
    weights = network.layers[0].weights
    out = np.empty((4,) + tokens.shape + (HIDDEN,))
    w_ops = [weights.w[k * HIDDEN : (k + 1) * HIDDEN].T for k in range(4)]
    project_rows(network.embedding[tokens], w_ops, out)
    return out


def memo_projection(executor: LSTMExecutor, tokens: np.ndarray) -> np.ndarray:
    rows, index, _ = executor._token_rows(tokens)
    return rows[:, index]


#: A call sequence: ids drawn from a small vocabulary (repeats inside a
#: batch and partial overlap between consecutive calls are the norm) at a
#: shape that changes from call to call.
call_shapes = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 9), st.integers(1, VOCAB)),
    min_size=2,
    max_size=6,
)


class TestMemoBitIdentity:
    @given(seed=st.integers(0, 2**16), calls=call_shapes)
    @settings(max_examples=40, deadline=None)
    def test_served_rows_equal_direct_projection(self, seed, calls):
        network = make_network()
        cache = PlanCache()
        executor = LSTMExecutor(network, ExecutionConfig(), plan_cache=cache)
        rng = np.random.default_rng(seed)
        for batch, seq_len, vocab in calls:
            tokens = rng.integers(0, vocab, size=(batch, seq_len))
            if tokens.size == 1:  # projects through its program, see below
                assert executor._token_rows(tokens) is None
                continue
            rows, index, _ = executor._token_rows(tokens)
            assert np.array_equal(rows[:, index], direct_projection(network, tokens))
            # One call deep: the rows of this or of one earlier call's
            # distinct ids, never an accumulation.
            assert rows.shape[1] <= max(b * t for b, t, _ in calls)

    def test_a_repeated_batch_projects_nothing(self):
        network = make_network()
        cache = PlanCache()
        tokens = np.random.default_rng(0).integers(0, VOCAB, size=(3, 9))
        distinct = np.unique(tokens).size
        for mode in (ExecutionMode.BASELINE, ExecutionMode.ZERO_PRUNE, ExecutionMode.INTRA):
            # ZERO_PRUNE shares W with the other modes, so it hits too.
            config = ExecutionConfig(mode=mode, alpha_intra=0.3)
            LSTMExecutor(network, config, plan_cache=cache).run_batch(tokens)
        assert cache.token_rows.projected == distinct
        # A subset of the previous call's ids is a pure gather as well.
        LSTMExecutor(network, ExecutionConfig(), plan_cache=cache).run_batch(tokens[:1, :4])
        assert cache.token_rows.projected == distinct

    def test_a_one_token_call_leaves_the_memo_alone(self):
        # A streamed LM tick has nothing to share: it takes the program's
        # own projection, and the previous call's rows stay where they are.
        network = make_network()
        cache = PlanCache()
        executor = LSTMExecutor(network, ExecutionConfig(), plan_cache=cache)
        tokens = np.random.default_rng(6).integers(0, VOCAB, size=(3, 9))
        executor.run_batch(tokens)
        projected = cache.token_rows.projected
        reference = ReferenceExecutor(network, ExecutionConfig())
        h = np.zeros((2, 1, HIDDEN))
        c = np.zeros((2, 1, HIDDEN))
        streamed = [executor.run_stream(tokens[:1, t : t + 1], h, c) for t in range(9)]
        expected = reference.run_batch(tokens[:1]).layer_outputs[-1]
        assert np.array_equal(np.concatenate(streamed, axis=1), expected)
        one = executor.run_batch(np.array([[VOCAB - 1]]))
        assert np.array_equal(one.logits, reference.run_batch(np.array([[VOCAB - 1]])).logits)
        assert cache.token_rows.projected == projected
        executor.run_batch(tokens)  # still a pure gather
        assert cache.token_rows.projected == projected

    def test_another_w_replaces_the_entry(self):
        network = make_network()
        cache = PlanCache()
        tokens = np.random.default_rng(1).integers(0, VOCAB, size=(2, 9))
        fp64 = LSTMExecutor(network, ExecutionConfig(), plan_cache=cache)
        int8 = LSTMExecutor(network, ExecutionConfig(precision="int8"), plan_cache=cache)
        first = memo_projection(fp64, tokens)
        quantized = memo_projection(int8, tokens)
        assert not np.array_equal(first, quantized)
        assert np.array_equal(memo_projection(fp64, tokens), first)
        assert cache.token_rows.projected == 3 * np.unique(tokens).size

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_threads_and_shapes_match_the_reference(self, mode):
        network = make_network()
        cache = PlanCache()
        rng = np.random.default_rng(5)
        config = ExecutionConfig(mode=mode, alpha_inter=50.0, alpha_intra=0.3, mts=3)
        reference = ReferenceExecutor(network, config)
        for threads, shape in ((1, (4, 9)), (2, (4, 9)), (2, (5, 6)), (1, (1, 3))):
            tokens = rng.integers(0, VOCAB, size=shape)
            threaded = ExecutionConfig(**{**config.__dict__, "threads": threads})
            executor = LSTMExecutor(network, threaded, plan_cache=cache)
            out = executor.run_batch(tokens)
            assert_meets_grade(out, reference.run_batch(tokens), executor.exact)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_stream_chunks_match_one_contiguous_run(self, threads):
        network = make_network()
        config = ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.3, threads=threads)
        executor = LSTMExecutor(network, config, plan_cache=PlanCache())
        tokens = np.random.default_rng(7).integers(0, VOCAB, size=(3, 9))
        whole = executor.run_batch(tokens).layer_outputs[-1]
        h = np.zeros((2, 3, HIDDEN))
        c = np.zeros((2, 3, HIDDEN))
        chunks = [executor.run_stream(tokens[:, lo:hi], h, c) for lo, hi in ((0, 4), (4, 5), (5, 9))]
        assert np.array_equal(np.concatenate(chunks, axis=1), whole)

    def test_rows_follow_a_weight_update(self):
        network = make_network()
        cache = PlanCache()
        tokens = np.random.default_rng(2).integers(0, VOCAB, size=(2, 9))
        before = memo_projection(LSTMExecutor(network, ExecutionConfig(), plan_cache=cache), tokens)
        network.layers[0].weights.w *= 1.5
        network.embedding += 0.25
        invalidate_weight_fingerprints(network)
        after = memo_projection(LSTMExecutor(network, ExecutionConfig(), plan_cache=cache), tokens)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, direct_projection(network, tokens))

    def test_holds_one_calls_rows_however_many_calls_ran(self):
        network = make_network()
        executor = LSTMExecutor(network, ExecutionConfig(), plan_cache=PlanCache())
        rng = np.random.default_rng(3)
        executor.run_batch(rng.integers(0, VOCAB, size=(4, 9)))  # programs warm
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                executor.run_batch(rng.integers(0, VOCAB, size=(4, 9)))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The entry may have been swapped for another call's; twenty
        # calls' worth of rows would be 20x this.
        assert held <= 2 * VOCAB * 4 * HIDDEN * 8


def fresh_app(app: OptimizedLSTM) -> OptimizedLSTM:
    """A new app over the same (read-only) network and calibration."""
    fresh = OptimizedLSTM(app.network, spec=app.spec)
    fresh.calibration = app.calibration
    return fresh


def assert_outcomes_equal(a, b) -> None:
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.energies, b.energies)
    assert len(a.traces) == len(b.traces) == a.logits.shape[0]
    assert a.traces == b.traces
    for plan_a, plan_b in zip(a.result.plans, b.result.plans):
        for rec_a, rec_b in zip(plan_a.layers, plan_b.layers):
            assert rec_a.breakpoints == rec_b.breakpoints
            assert rec_a.sublayer_lengths == rec_b.sublayer_lengths
            assert rec_a.tissue_cells() == rec_b.tissue_cells()
            assert_bytes_equal(rec_a.skip, rec_b.skip)
            assert_bytes_equal(rec_a.warp, rec_b.warp)
            assert (rec_a.relevance is None) == (rec_b.relevance is None)
            if rec_a.relevance is not None:
                assert np.array_equal(rec_a.relevance, rec_b.relevance)


SWEEP = [(mode, "fp64") for mode in ExecutionMode] + [(ExecutionMode.COMBINED, "int8")]


class TestSweepEquivalence:
    def test_reused_app_equals_a_fresh_app_per_run(self, tiny_app, tiny_tokens):
        for mode, precision in SWEEP:
            kwargs = dict(
                mode=mode, threshold_index=3, precision=precision,
                keep_traces=True, keep_result=True,
            )
            assert_outcomes_equal(
                tiny_app.run(tiny_tokens, **kwargs),
                fresh_app(tiny_app).run(tiny_tokens, **kwargs),
            )

    def test_second_sweep_builds_prunes_and_compiles_nothing(
        self, tiny_app, tiny_tokens, monkeypatch
    ):
        pruned = []
        real_prune = executor_module.prune_cell_weights

        def counting_prune(*args, **kwargs):
            pruned.append(args)
            return real_prune(*args, **kwargs)

        monkeypatch.setattr(executor_module, "prune_cell_weights", counting_prune)
        built = tiny_app.executor_cache.stats

        def sweep(tokens):
            return [
                tiny_app.run(tokens, mode=mode, threshold_index=3, precision=precision, keep_result=True)
                for mode, precision in SWEEP
            ]

        sweep(tiny_tokens)
        assert built.misses == len(tiny_app.executor_cache) == len(SWEEP)  # one per config
        assert len(pruned) == tiny_app.network.num_layers
        del pruned[:]
        projected = tiny_app.plan_cache.token_rows.projected
        fresh_tokens = tiny_app.sample_tokens(tiny_tokens.shape[0], seed=99)
        outcomes = sweep(fresh_tokens)
        assert built.misses == len(SWEEP) and pruned == []
        assert all(o.result.timings["compile_wall_s"] == 0.0 for o in outcomes)
        # fp64 modes share one projection of the new ids; int8 has its own W.
        assert tiny_app.plan_cache.token_rows.projected - projected <= 2 * np.unique(fresh_tokens).size

    @pytest.mark.parametrize("precision", ["int8", "fp16"])
    def test_a_quantized_sweep_holds_one_dequantized_copy(self, precision):
        """Executors of one precision over one weight set run on the same
        ``QuantizedCell`` objects: a second threshold set costs kilobytes,
        not another fp64 copy of every ``W`` and ``U``."""
        config = LSTMConfig(hidden_size=96, num_layers=2, seq_length=9, input_size=96)
        app = OptimizedLSTM(LSTMNetwork(config, VOCAB, 3, seed=4))
        app.calibrate(num_sequences=4)
        tokens = app.sample_tokens(3, seed=5)
        run = dict(mode=ExecutionMode.COMBINED, precision=precision, keep_result=True, keep_traces=True)
        first = app.run(tokens, threshold_index=3, **run)
        block_bytes = app.network.layers[0].weights.u.nbytes
        kept = app.executor_cache.nbytes
        assert kept > 2 * config.num_layers * block_bytes  # dequantized W and U, plus codes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            second_config = app.execution_config(
                ExecutionMode.COMBINED, threshold_index=6, precision=precision
            )
            second_executor = app._executor_for(second_config)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024 < block_bytes
        second = app.run(tokens, threshold_index=6, **run)
        first_executor = app._executor_for(
            app.execution_config(ExecutionMode.COMBINED, threshold_index=3, precision=precision)
        )
        assert app.executor_cache.stats.misses == 2
        assert first_executor is not second_executor
        for mine, theirs in zip(first_executor._united, second_executor._united):
            assert np.shares_memory(mine.u, theirs.u) and np.shares_memory(mine.w, theirs.w)
        assert app.executor_cache.nbytes == kept  # counted once
        for outcome, index in ((first, 3), (second, 6)):
            assert_outcomes_equal(outcome, fresh_app(app).run(tokens, threshold_index=index, **run))
        # Another weight set shares nothing: ZERO_PRUNE quantizes its own pruning.
        app.run(tokens, mode=ExecutionMode.ZERO_PRUNE, precision=precision)
        pruned = app._executor_for(
            app.execution_config(ExecutionMode.ZERO_PRUNE, precision=precision)
        )
        assert not np.shares_memory(pruned._united[0].u, first_executor._united[0].u)
        assert app.executor_cache.nbytes > kept + config.num_layers * block_bytes

    def test_the_executor_store_is_bounded(self, tiny_app, tiny_tokens):
        for k in range(pipeline_module._MAX_EXECUTORS + 3):
            tiny_app.run(tiny_tokens, mode=ExecutionMode.ZERO_PRUNE, zero_prune_fraction=0.05 * k)
        assert len(tiny_app.executor_cache) == pipeline_module._MAX_EXECUTORS


class TestNoStaleState:
    def test_recalibration_reaches_fresh_executors(self, tiny_app, tiny_tokens):
        kwargs = dict(mode=ExecutionMode.COMBINED, alpha_inter=50.0, alpha_intra=0.3)
        tiny_app.run(tiny_tokens, **kwargs)
        # Same MTS, so the config is unchanged: only the links differ.
        tiny_app.calibrate(tokens=tiny_app.sample_tokens(6, seed=17), mts=tiny_app.calibration.mts)
        outcome = tiny_app.run(tiny_tokens, keep_result=True, keep_traces=True, **kwargs)
        assert tiny_app.executor_cache.stats.misses == 2
        assert_outcomes_equal(
            outcome,
            fresh_app(tiny_app).run(tiny_tokens, keep_result=True, keep_traces=True, **kwargs),
        )

    def test_weight_nudge_reaches_fresh_executors_and_rows(self, tiny_app, tiny_tokens):
        network = tiny_app.network
        config = tiny_app.execution_config(ExecutionMode.ZERO_PRUNE)
        tiny_app.run(tiny_tokens, mode=ExecutionMode.ZERO_PRUNE)
        cached = tiny_app._executor_for(config)
        assert tiny_app.executor_cache.stats.misses == 1
        for layer in network.layers:
            layer.weights.u *= 1.25
        network.layers[0].weights.w *= 0.75
        invalidate_weight_fingerprints(network)
        outcome = tiny_app.run(tiny_tokens, mode=ExecutionMode.ZERO_PRUNE)
        fresh = OptimizedLSTM(network, spec=tiny_app.spec).run(
            tiny_tokens, mode=ExecutionMode.ZERO_PRUNE
        )
        assert np.array_equal(outcome.logits, fresh.logits)
        # The kept executor still holds the U it pruned before the nudge.
        assert not np.array_equal(outcome.logits, cached.run_batch(tiny_tokens).logits)
        assert tiny_app.executor_cache.stats.misses == 2
        reference = ReferenceExecutor(network, config)
        assert np.array_equal(outcome.logits, reference.run_batch(tiny_tokens).logits)

    def test_exact_modes_never_read_graded_relevance(self):
        """COMBINED plans layers >= 1 from GEMM-projected rows. Given the
        same layer-1 input, a later INTER run through the same plan cache
        must still plan from its own exact rows, not from COMBINED's: only
        layer 0, whose rows are exact in every mode, is cached."""
        model = LSTMConfig(hidden_size=24, num_layers=2, seq_length=12, input_size=20)
        app = AppConfig(
            name="GRADED",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=60,
            num_classes=3,
        )
        network = build_calibrated_network(app, seed=5)
        tokens = np.random.default_rng(1).integers(0, app.vocab_size, size=(1, 12))
        cache = PlanCache()
        combined = LSTMExecutor(
            network, ExecutionConfig(mode=ExecutionMode.COMBINED), plan_cache=cache
        ).run_batch(tokens)
        inter_config = ExecutionConfig(mode=ExecutionMode.INTER)
        expected = ReferenceExecutor(network, inter_config).run_batch(tokens)
        # The case this guards: one layer-1 input, two layer-1 relevances.
        assert np.array_equal(combined.layer_outputs[0], expected.layer_outputs[0])
        graded = combined.plans[0].layers[1].relevance
        assert not np.array_equal(graded, expected.plans[0].layers[1].relevance)
        inter = LSTMExecutor(network, inter_config, plan_cache=cache).run_batch(tokens)
        assert np.array_equal(
            inter.plans[0].layers[1].relevance, expected.plans[0].layers[1].relevance
        )
        # Layer 0's keys are shared; layer 1 never reaches the cache.
        assert (cache.stats.plan_hits, cache.stats.relevance_misses) == (1, 1)


class TestLayerZeroKeys:
    """Layer 0's relevance is keyed on token ids plus the embedding's
    fingerprint, not on a digest of the embedded rows; layers >= 1 are
    planned uncached, so no layer input is ever hashed."""

    @staticmethod
    def make(network: LSTMNetwork, mode: ExecutionMode):
        config = ExecutionConfig(mode=mode, alpha_inter=200.0, mts=3)
        cache = PlanCache()
        return config, cache, LSTMExecutor(network, config, plan_cache=cache)

    @pytest.mark.parametrize("mode", [ExecutionMode.INTER, ExecutionMode.COMBINED])
    def test_layer_zero_inputs_are_never_hashed(self, mode, monkeypatch, calibrated_network):
        """``run_batch`` hashes no layer input, at layer 0 or above."""
        network = calibrated_network
        _, cache, executor = self.make(network, mode)
        rng = np.random.default_rng(3)
        executor.run_batch(rng.integers(0, 60, size=(4, 12)))  # memoize w/link digests
        hashed = []
        real = executor_module.fingerprint_array

        def recording(array):
            hashed.append(np.array(array))
            return real(array)

        monkeypatch.setattr(executor_module, "fingerprint_array", recording)
        monkeypatch.setattr(plan_module, "fingerprint_array", recording)
        requests = cache.stats.plan_requests
        executor.run_batch(rng.integers(0, 60, size=(4, 12)))
        assert hashed == []
        assert cache.stats.plan_requests - requests == 4  # layer 0's, one per sequence

    def test_an_embedding_edit_replans_layer_zero(self, calibrated_network):
        network = calibrated_network
        config, cache, executor = self.make(network, ExecutionMode.INTER)
        tokens = np.random.default_rng(4).integers(0, 60, size=(3, 12))
        executor.run_batch(tokens)
        misses = cache.stats.relevance_misses
        executor.run_batch(tokens)
        assert cache.stats.relevance_misses == misses  # all served
        network.embedding[tokens[0, 5]] *= -1.5
        invalidate_weight_fingerprints(network)
        result = executor.run_batch(tokens)
        assert cache.stats.relevance_misses > misses
        assert_meets_grade(
            result, ReferenceExecutor(network, config).run_batch(tokens), executor.exact
        )
