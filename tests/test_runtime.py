"""Property and lifecycle tests of the sharded serving runtime.

The runtime's numerics contract: every dispatched group executes
bit-identically to :meth:`repro.core.executor.LSTMExecutor.run_batch` on
that group in the calling process — shared-memory weight views, the
process boundary, and the worker count change no bits — and grouping is
a pure function of ``(network, config, tokens)``, so fleet outputs are
identical at any parallelism. ``workers=0`` must reproduce the worker
path exactly. Lifecycle: the weight arena tears down cleanly (no leaked
``/dev/shm`` segments), the bounded queue raises
:class:`~repro.errors.BackpressureError` when full, a bad token id is the
caller's :class:`~repro.errors.ShapeError` and leaves the fleet serving,
and per-worker run records merge into one schema-valid fleet record.

Worker processes spawn per test, so the cross-process tests use one
fixed mid-size workload per mode instead of hypothesis-sized fleets;
hypothesis drives the (cheap, in-process) ``workers=0`` fallback and the
shard-split grouping properties.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import LSTMConfig  # noqa: E402
from repro.core.executor import (  # noqa: E402
    ExecutionConfig,
    ExecutionMode,
    LSTMExecutor,
)
from repro.errors import (  # noqa: E402
    BackpressureError,
    ConfigurationError,
    RuntimeStateError,
    ShapeError,
)
from repro.nn.network import LSTMNetwork  # noqa: E402
from repro.obs import Recorder, merge_run_records, validate_run_dict  # noqa: E402
from repro.runtime import (  # noqa: E402
    InferenceRuntime,
    WeightArena,
    leaked_segments,
    plan_dispatch,
)
from tests.grading import assert_plans_equal  # noqa: E402

VOCAB = 50
CLASSES = 4

MODE_CONFIGS = {
    ExecutionMode.BASELINE: ExecutionConfig(mode=ExecutionMode.BASELINE),
    ExecutionMode.INTER: ExecutionConfig(
        mode=ExecutionMode.INTER, alpha_inter=50.0, mts=3
    ),
    ExecutionMode.INTRA: ExecutionConfig(mode=ExecutionMode.INTRA, alpha_intra=0.5),
    ExecutionMode.COMBINED: ExecutionConfig(
        mode=ExecutionMode.COMBINED, alpha_inter=50.0, alpha_intra=0.5, mts=3
    ),
    ExecutionMode.ZERO_PRUNE: ExecutionConfig(mode=ExecutionMode.ZERO_PRUNE),
}


def build_workload(
    hidden: int = 24, layers: int = 2, seq: int = 12, batch: int = 7, seed: int = 5
):
    config = LSTMConfig(hidden_size=hidden, num_layers=layers, seq_length=seq,
                        input_size=hidden)
    network = LSTMNetwork(config, VOCAB, CLASSES, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, VOCAB, size=(batch, seq))
    return network, tokens


def groupwise_expected(network, exec_config, tokens, max_batch):
    """Executor logits/plans per dispatch group, scattered to request order."""
    executor = LSTMExecutor(network, exec_config)
    logits = None
    plans = [None] * tokens.shape[0]
    for group in plan_dispatch(tokens, max_batch):
        out = executor.run_batch(group.tokens)
        if logits is None:
            logits = np.empty((tokens.shape[0],) + out.logits.shape[1:],
                              dtype=out.logits.dtype)
        for row, index in enumerate(group.indices):
            logits[index] = out.logits[row]
            plans[index] = out.plans[row]
    return logits, plans


@st.composite
def runtime_cases(draw):
    """Small workload + mode + shard split for the in-process properties."""
    hidden = draw(st.sampled_from([8, 16]))
    layers = draw(st.integers(1, 2))
    seq = draw(st.integers(4, 10))
    batch = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**10))
    mode = draw(st.sampled_from(list(ExecutionMode)))
    max_batch = draw(st.integers(1, 6))
    network, tokens = build_workload(hidden, layers, seq, batch, seed)
    return network, tokens, MODE_CONFIGS[mode], max_batch


class TestSynchronousFallback:
    @settings(max_examples=25, deadline=None)
    @given(case=runtime_cases())
    def test_workers0_matches_groupwise_executor(self, case):
        network, tokens, exec_config, max_batch = case
        with InferenceRuntime(
            network, exec_config, workers=0, max_batch=max_batch
        ) as runtime:
            fleet = runtime.run_batch(tokens)
        expected_logits, expected_plans = groupwise_expected(
            network, exec_config, tokens, max_batch
        )
        assert np.array_equal(fleet.logits, expected_logits)
        assert_plans_equal(fleet.plans, expected_plans)

    @settings(max_examples=15, deadline=None)
    @given(case=runtime_cases())
    def test_grouping_covers_batch_exactly_once(self, case):
        _, tokens, _, max_batch = case
        groups = plan_dispatch(tokens, max_batch)
        covered = [i for g in groups for i in g.indices]
        assert covered == list(range(tokens.shape[0]))  # FIFO, length-only
        for group in groups[:-1]:
            assert len(group.indices) == max_batch
        for group in groups:
            assert 1 <= len(group.indices) <= max_batch
            assert np.array_equal(group.tokens, tokens[list(group.indices)])


class TestFleetBitIdentity:
    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    def test_two_workers_match_groupwise_executor(self, mode):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[mode]
        with InferenceRuntime(
            network, exec_config, workers=2, max_batch=3
        ) as runtime:
            fleet = runtime.run_batch(tokens)
        expected_logits, expected_plans = groupwise_expected(
            network, exec_config, tokens, max_batch=3
        )
        assert np.array_equal(fleet.logits, expected_logits)
        assert_plans_equal(fleet.plans, expected_plans)
        assert leaked_segments() == []

    def test_worker_count_does_not_change_bits(self):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.COMBINED]
        outputs = []
        for workers in (0, 1, 2):
            with InferenceRuntime(
                network, exec_config, workers=workers, max_batch=3
            ) as runtime:
                outputs.append(runtime.run_batch(tokens))
        for fleet in outputs[1:]:
            assert np.array_equal(fleet.logits, outputs[0].logits)
            assert_plans_equal(fleet.plans, outputs[0].plans)


class TestArena:
    def test_attached_network_is_bit_identical_and_read_only(self):
        network, tokens = build_workload(batch=3)
        exec_config = MODE_CONFIGS[ExecutionMode.COMBINED]
        expected = LSTMExecutor(network, exec_config).run_batch(tokens)
        with WeightArena.publish(network) as arena:
            attached = arena.network()
            with pytest.raises((ValueError, RuntimeError)):
                attached.embedding[0, 0] = 1.0
            out = LSTMExecutor(attached, exec_config).run_batch(tokens)
            assert np.array_equal(out.logits, expected.logits)
            assert_plans_equal(out.plans, expected.plans)
        assert leaked_segments() == []

    def test_publish_unlink_leaves_no_segment(self):
        network, _ = build_workload(batch=1)
        arena = WeightArena.publish(network)
        name = arena.manifest.shm_name
        assert any(name in leaked for leaked in leaked_segments())
        arena.close()
        arena.unlink()
        assert leaked_segments() == []


class TestBackpressure:
    def test_nonblocking_submit_raises_when_queue_full(self):
        network, tokens = build_workload(batch=6)
        exec_config = MODE_CONFIGS[ExecutionMode.BASELINE]
        # In-flight is counted parent-side (dispatched, not yet collected),
        # so a slow worker is not required for determinism — but the dwell
        # keeps results from racing into the buffer during submit.
        with InferenceRuntime(
            network,
            exec_config,
            workers=1,
            max_batch=2,
            queue_depth=2,
            dwell_s=0.05,
        ) as runtime:
            groups = plan_dispatch(tokens, runtime.max_batch)
            assert len(groups) == 3
            runtime.submit(groups[0], block=False)
            runtime.submit(groups[1], block=False)
            with pytest.raises(BackpressureError):
                runtime.submit(groups[2], block=False)
            runtime.collect(1)  # frees a slot
            runtime.submit(groups[2], block=False)
            runtime.collect(2)

    def test_bad_token_id_is_the_callers_error_not_a_dead_worker(self):
        """An out-of-vocabulary id used to reach a worker, whose ShapeError
        ended its loop and took the whole fleet down with it."""
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.BASELINE]
        bad = tokens.copy()
        bad[1, 3] = VOCAB
        with InferenceRuntime(network, exec_config, workers=2, max_batch=3) as runtime:
            with pytest.raises(ShapeError, match="vocabulary"):
                runtime.run_batch(bad)
            fleet = runtime.run_batch(tokens)
        expected_logits, _ = groupwise_expected(network, exec_config, tokens, max_batch=3)
        assert np.array_equal(fleet.logits, expected_logits)
        assert leaked_segments() == []

    def test_lifecycle_errors(self):
        network, tokens = build_workload(batch=2)
        runtime = InferenceRuntime(network, MODE_CONFIGS[ExecutionMode.BASELINE])
        with pytest.raises(RuntimeStateError):
            runtime.run_batch(tokens)
        runtime.start()
        runtime.run_batch(tokens)
        runtime.close()
        with pytest.raises(RuntimeStateError):
            runtime.run_batch(tokens)


class TestFleetRecords:
    def test_fleet_record_merges_and_validates(self):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.COMBINED]
        recorder = Recorder()
        with InferenceRuntime(
            network, exec_config, workers=2, max_batch=3, recorder=recorder
        ) as runtime:
            fleet = runtime.run_batch(tokens)
        assert fleet.record is not None
        assert len(recorder.records) == 1
        record = recorder.last()
        assert record.label == "fleet"
        assert record.batch == tokens.shape[0]
        assert [seq.seq_index for seq in record.sequences] == list(
            range(tokens.shape[0])
        )
        validate_run_dict(record.to_dict())

    def test_workers0_record_matches_schema_and_batch(self):
        network, tokens = build_workload(batch=4)
        recorder = Recorder()
        with InferenceRuntime(
            network,
            MODE_CONFIGS[ExecutionMode.INTER],
            workers=0,
            max_batch=2,
            recorder=recorder,
        ) as runtime:
            runtime.run_batch(tokens)
        record = recorder.last()
        assert record.batch == tokens.shape[0]
        validate_run_dict(record.to_dict())

    def test_merge_rejects_mismatched_records(self):
        network, tokens = build_workload(batch=2)
        records = []
        for mode in (ExecutionMode.BASELINE, ExecutionMode.INTRA):
            recorder = Recorder()
            LSTMExecutor(
                network, MODE_CONFIGS[mode], recorder=recorder
            ).run_batch(tokens)
            records.append(recorder.last())
        with pytest.raises(ConfigurationError):
            merge_run_records(records)
        with pytest.raises(ConfigurationError):
            merge_run_records([])

    def test_merge_reindexes_when_asked(self):
        network, tokens = build_workload(batch=3)
        config = MODE_CONFIGS[ExecutionMode.BASELINE]
        records = []
        for _ in range(2):
            recorder = Recorder()
            LSTMExecutor(network, config, recorder=recorder).run_batch(tokens)
            records.append(recorder.last())
        merged = merge_run_records(records, reindex=True)
        assert merged.batch == 2 * tokens.shape[0]
        assert [seq.seq_index for seq in merged.sequences] == list(
            range(2 * tokens.shape[0])
        )
        validate_run_dict(merged.to_dict())
