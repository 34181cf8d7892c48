"""Property-based equivalence: batched executor vs the frozen seed walk.

Two families of properties, both over all five execution modes, each at
the oracle grade :func:`repro.core.backends.is_exact` assigns
(``tests/grading.py``):

* **Batched vs reference.** :class:`repro.core.executor.LSTMExecutor`
  (united-gate GEMMs, wave-walked combined mode, optional plan cache,
  compiled programs) against :class:`repro.core.reference.ReferenceExecutor`
  — the seed arithmetic with the disclosed GEMV lift. The stepwise modes
  are exact: bit-identical logits, per-layer ``h_t`` trajectories and
  plan records. COMBINED is graded: its waves and layer >= 1 input
  projections are real GEMMs.

* **Per-sequence vs batched.** Running each sequence alone must reproduce
  the batch run. The stepwise recurrences and the pooled head run as
  stacked per-row GEMVs (:func:`repro.core.executor._row_gemv`), so each
  sequence's arithmetic is independent of the batch composition, bit for
  bit. COMBINED's wave GEMM changes shape with the batch around a
  sequence, so a solo run meets the batch run at the graded tier.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import AppConfig, LSTMConfig, TaskFamily  # noqa: E402
from repro.core.context_prediction import PredictedLink  # noqa: E402
from repro.core.executor import (  # noqa: E402
    ExecutionConfig,
    ExecutionMode,
    LSTMExecutor,
)
from repro.core.plan import PlanCache  # noqa: E402
from repro.core.reference import ReferenceExecutor  # noqa: E402
from repro.nn.model_zoo import build_calibrated_network  # noqa: E402
from repro.nn.network import LSTMNetwork  # noqa: E402

from tests.grading import (  # noqa: E402
    assert_graded,
    assert_meets_grade,
    assert_plans_equal,
    row_of,
)

VOCAB = 40
CLASSES = 4


@st.composite
def executor_cases(draw):
    """A small random network + batch + mode + thresholds + links."""
    hidden = draw(st.sampled_from([8, 16, 24]))
    num_layers = draw(st.integers(1, 2))
    seq_length = draw(st.integers(4, 14))
    batch = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(list(ExecutionMode)))
    seed = draw(st.integers(0, 2**16))
    # Thresholds spanning "no effect" to "everything divides / skips".
    alpha_inter = draw(st.sampled_from([0.0, 1.0, 50.0, 500.0, 1e12]))
    alpha_intra = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    mts = draw(st.integers(1, 6))
    use_links = draw(st.booleans())

    config = LSTMConfig(
        hidden_size=hidden,
        num_layers=num_layers,
        seq_length=seq_length,
        input_size=draw(st.sampled_from([hidden, 12])),
    )
    network = LSTMNetwork(config, VOCAB, CLASSES, seed=seed % 97)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, VOCAB, size=(batch, seq_length))
    links = None
    if use_links:
        links = [
            PredictedLink(
                h_bar=np.tanh(rng.normal(size=hidden)),
                c_bar=rng.normal(size=hidden),
            )
            for _ in range(num_layers)
        ]
    exec_config = ExecutionConfig(
        mode=mode,
        alpha_inter=alpha_inter,
        alpha_intra=alpha_intra,
        mts=mts,
        use_exact_relevance=draw(st.booleans()),
    )
    return network, tokens, exec_config, links


class TestBatchedMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(case=executor_cases())
    def test_bit_identical_outputs_and_plans(self, case):
        network, tokens, config, links = case
        batched = LSTMExecutor(network, config, predicted_links=links)
        reference = ReferenceExecutor(network, config, predicted_links=links)
        out_b = batched.run_batch(tokens)
        out_r = reference.run_batch(tokens)
        assert_meets_grade(out_b, out_r, batched.exact)

    @settings(max_examples=15, deadline=None)
    @given(case=executor_cases())
    def test_plan_cache_does_not_change_results(self, case):
        network, tokens, config, links = case
        cache = PlanCache()
        uncached = LSTMExecutor(network, config, predicted_links=links)
        cached = LSTMExecutor(network, config, predicted_links=links, plan_cache=cache)
        out_u = uncached.run_batch(tokens)
        out_c1 = cached.run_batch(tokens)
        out_c2 = cached.run_batch(tokens)  # second run served from cache
        assert np.array_equal(out_u.logits, out_c1.logits)
        assert np.array_equal(out_c1.logits, out_c2.logits)
        assert_plans_equal(out_u.plans, out_c1.plans)
        assert_plans_equal(out_c1.plans, out_c2.plans)
        if config.mode in (ExecutionMode.INTER, ExecutionMode.COMBINED):
            # Layer 0 alone goes through the cache: one lookup per
            # sequence per run, the second run's all hits.
            assert cache.stats.plan_requests == 2 * tokens.shape[0]
            assert cache.stats.plan_hits >= tokens.shape[0]


class TestMixedDivisionBatch:
    """One shard whose plans differ as much as plans can.

    The random networks above saturate Algorithm 2 (every link scores the
    same), so a drawn batch is all-undivided or all-fully-divided. On a
    calibrated network a layer-0 link's relevance is a function of the
    token it enters, which lets the batch be built: only strong-link
    tokens, only weak-link tokens, and runs of both — with ``alpha_inter``
    between the two token groups' relevance ranges.
    """

    def test_undivided_partly_and_fully_divided_in_one_batch(self):
        seq_length = 12
        model = LSTMConfig(hidden_size=24, num_layers=2, seq_length=seq_length, input_size=20)
        app = AppConfig(
            name="MIXED",
            family=TaskFamily.SENTIMENT_CLASSIFICATION,
            model=model,
            vocab_size=60,
            num_classes=3,
        )
        network = build_calibrated_network(app, seed=5)
        probe = LSTMExecutor(
            network, ExecutionConfig(mode=ExecutionMode.INTER, alpha_inter=1.0)
        ).run_batch(np.tile(np.arange(app.vocab_size)[:, None], (1, seq_length)))
        token_relevance = np.array([plan.layers[0].relevance[1] for plan in probe.plans])
        ranked = np.argsort(token_relevance)
        weak, strong = ranked[:15], ranked[-15:]
        alpha_inter = (token_relevance[weak].max() + token_relevance[strong].min()) / 2

        rng = np.random.default_rng(21)
        runs = np.arange(seq_length) % 5 < 3  # strong, strong, strong, weak, weak, ...
        tokens = np.stack(
            [
                rng.choice(strong, seq_length),
                np.where(runs, rng.choice(strong, seq_length), rng.choice(weak, seq_length)),
                rng.choice(weak, seq_length),
            ]
        )
        links = [
            PredictedLink(
                h_bar=np.tanh(rng.normal(size=model.hidden_size)),
                c_bar=rng.normal(size=model.hidden_size),
            )
            for _ in range(model.num_layers)
        ]
        config = ExecutionConfig(
            mode=ExecutionMode.COMBINED, alpha_inter=alpha_inter, alpha_intra=0.4, mts=3
        )
        out = LSTMExecutor(network, config, predicted_links=links).run_batch(tokens)
        ref = ReferenceExecutor(network, config, predicted_links=links).run_batch(tokens)

        divisions = [len(plan.layers[0].breakpoints) for plan in out.plans]
        assert divisions[0] == 0 and divisions[2] == seq_length - 1
        assert 0 < divisions[1] < seq_length - 1
        assert any(plan.layers[0].skip.any() for plan in out.plans)  # DRS really is on
        assert_graded(out, ref)


class TestPerSequenceMatchesBatch:
    @settings(max_examples=30, deadline=None)
    @given(case=executor_cases())
    def test_each_sequence_alone_reproduces_the_batch(self, case):
        network, tokens, config, links = case
        executor = LSTMExecutor(network, config, predicted_links=links)
        batch_out = executor.run_batch(tokens)
        for b in range(tokens.shape[0]):
            solo = executor.run_batch(tokens[b : b + 1])
            # The exact modes are batch-composition-invariant: the stepwise
            # recurrences and the pooled head run as stacked per-row GEMVs,
            # so trajectories, plan floats and logits are all bit-exact.
            assert_meets_grade(solo, row_of(batch_out, b), executor.exact)
