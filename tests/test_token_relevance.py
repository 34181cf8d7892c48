"""Layer 0's relevance is scored once per distinct token id.

Algorithm 2 scores a link from the input projection ``W x_t``, ``b`` and
``U``'s row ranges alone, so at layer 0 a link's relevance is a function of
the token id. The executor scores the token memo's distinct-id rows once
per call (:meth:`~repro.core.executor.LSTMExecutor._token_rows`) and each
sequence gathers its values. Two properties, over repeated ids, NaN and
inf embedding rows and hidden sizes that are not a multiple of four:

* **Per id equals per sequence.** The gathered values equal a
  per-sequence ``(T, H)`` relevance pass byte for byte, in both variants
  (:func:`~repro.core.relevance.relevance_values`,
  :func:`~repro.core.relevance.exact_relevance_values`), also when the
  previous call left some of the ids and their scores behind.
* **Cache-transparent plans.** In INTER and COMBINED, plans through a
  :class:`~repro.core.plan.PlanCache` (cold and served) equal plans
  without one byte for byte, and equal
  :class:`~repro.core.reference.ReferenceExecutor`'s at the mode's grade.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import AppConfig, LSTMConfig, TaskFamily  # noqa: E402
from repro.core.backends import GRADED_ATOL  # noqa: E402
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor  # noqa: E402
from repro.core.plan import PlanCache, invalidate_weight_fingerprints  # noqa: E402
from repro.core.program import project_rows  # noqa: E402
from repro.core.reference import ReferenceExecutor  # noqa: E402
from repro.core.relevance import exact_relevance_values, relevance_values  # noqa: E402
from repro.nn.lstm_cell import GATE_ORDER  # noqa: E402
from repro.nn.model_zoo import build_calibrated_network  # noqa: E402

from tests.grading import assert_bytes_equal, assert_plans_equal  # noqa: E402

VOCAB = 12  # small: ids repeat inside a batch and between calls

#: A poisoned row turns its products non-finite; numpy says so, by design.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def make_network(hidden: int, seed: int, poison: list[float]):
    """A calibrated two-layer network (its links score apart, unlike a
    random network's) with ``poison`` written into embedding rows 0, 1, …"""
    model = LSTMConfig(hidden_size=hidden, num_layers=2, seq_length=9, input_size=10)
    app = AppConfig(
        name="TOKREL",
        family=TaskFamily.SENTIMENT_CLASSIFICATION,
        model=model,
        vocab_size=VOCAB,
        num_classes=3,
    )
    network = build_calibrated_network(app, seed=seed)
    for row, value in enumerate(poison):
        network.embedding[row] = value
    invalidate_weight_fingerprints(network)
    return network


def per_sequence_relevance(network, tokens: np.ndarray, exact: bool) -> np.ndarray:
    """One ``(T, H)`` relevance pass per sequence: ``(B, T)``."""
    weights = network.layers[0].weights
    hidden = weights.hidden_size
    proj = np.empty((4,) + tokens.shape + (hidden,))
    w_ops = [weights.w[k * hidden : (k + 1) * hidden].T for k in range(4)]
    project_rows(network.embedding[tokens], w_ops, proj)
    fn = exact_relevance_values if exact else relevance_values
    return np.stack([fn(weights, dict(zip(GATE_ORDER, proj[:, b]))) for b in range(len(tokens))])


cases = st.fixed_dictionaries(
    {
        "hidden": st.sampled_from([5, 6, 7, 9, 13, 16]),
        "seed": st.integers(0, 50),
        "poison": st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
        "calls": st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**16)),
            min_size=2,
            max_size=4,
        ),
        # Per call: first let an unscored mode fill the memo with every id,
        # so the scored call finds a wider entry, its own key partial or
        # absent.
        "widen": st.lists(st.booleans(), min_size=4, max_size=4),
    }
)


class TestPerIdRelevance:
    @given(case=cases)
    @settings(max_examples=30, deadline=None)
    def test_gathered_values_equal_a_per_sequence_pass(self, case):
        network = make_network(case["hidden"], case["seed"], case["poison"])
        cache = PlanCache()
        executors = {
            exact: LSTMExecutor(
                network,
                ExecutionConfig(mode=ExecutionMode.INTER, use_exact_relevance=exact),
                plan_cache=cache,
            )
            for exact in (False, True)
        }
        unscored = LSTMExecutor(network, ExecutionConfig(), plan_cache=cache)
        for (batch, seq_len, seed), widen in zip(case["calls"], case["widen"]):
            tokens = np.random.default_rng(seed).integers(0, VOCAB, size=(batch, seq_len))
            if tokens.size == 1:  # projects and plans through its program
                continue
            if widen:
                assert unscored._token_rows(np.arange(VOCAB)[None])[2] is None
            # Both variants score the same entry; the second finds the
            # first's scores beside its own key and leaves them.
            for exact, executor in executors.items():
                rows, index, values = executor._token_rows(tokens)
                expected = per_sequence_relevance(network, tokens, exact)
                for b in range(batch):
                    assert_bytes_equal(values[index[b]], expected[b])


PLAN_MODES = [ExecutionMode.INTER, ExecutionMode.COMBINED]


class TestCacheTransparentPlans:
    @pytest.mark.parametrize("mode", PLAN_MODES)
    @given(
        case=cases,
        alpha_inter=st.sampled_from([0.0, 40.0, 90.0, 1e12]),
        mts=st.integers(1, 4),
        exact_relevance=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_plans_equal_uncached_and_reference(
        self, mode, case, alpha_inter, mts, exact_relevance
    ):
        network = make_network(case["hidden"], case["seed"], case["poison"])
        config = ExecutionConfig(
            mode=mode,
            alpha_inter=alpha_inter,
            alpha_intra=0.3,
            mts=mts,
            use_exact_relevance=exact_relevance,
        )
        cached = LSTMExecutor(network, config, plan_cache=PlanCache())
        uncached = LSTMExecutor(network, config)
        reference = ReferenceExecutor(network, config)
        atol = 0.0 if cached.exact else GRADED_ATOL
        for batch, seq_len, seed in case["calls"]:
            tokens = np.random.default_rng(seed).integers(0, VOCAB, size=(batch, seq_len))
            cold = cached.run_batch(tokens)
            served = cached.run_batch(tokens)
            plain = uncached.run_batch(tokens)
            assert_plans_equal(cold.plans, plain.plans)
            assert_plans_equal(served.plans, plain.plans)
            assert_plans_equal(cold.plans, reference.run_batch(tokens).plans, atol)


class TestConcurrentScoring:
    def test_threads_sharing_one_memo_read_their_own_scores(self):
        """Entries are immutable once published: callers racing to store
        rows and scores only race for which entry survives, so every call
        reads values equal to its own per-sequence pass."""
        import sys
        import threading

        network = make_network(13, 3, [np.nan])
        cache = PlanCache()
        expected = {
            exact: per_sequence_relevance(network, np.arange(VOCAB)[None], exact)[0]
            for exact in (False, True)
        }
        failures: list[BaseException] = []

        def worker(slot: int) -> None:
            exact = bool(slot % 2)
            config = ExecutionConfig(mode=ExecutionMode.INTER, use_exact_relevance=exact)
            executor = LSTMExecutor(network, config, plan_cache=cache)
            rng = np.random.default_rng(slot)
            try:
                for _ in range(150):
                    vocab = int(rng.integers(2, VOCAB + 1))
                    tokens = rng.integers(0, vocab, size=(2, 5))
                    rows, index, values = executor._token_rows(tokens)
                    assert_bytes_equal(values[index], expected[exact][tokens])
            except BaseException as error:  # re-raised on the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if failures:
            raise failures[0]
