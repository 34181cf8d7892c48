"""Threaded dispatch: sharding, the pool, and executor bit-identity.

The contract under test is the one ``ExecutionConfig.threads`` sells:
``threads=1`` is byte-for-byte today's serial path, and ``threads>1``
shards batch rows over a persistent pool without changing a single bit
of any exact-tier output — for full-sequence batches and for the
streaming step path (whose hidden/cell state views are written in
place). COMBINED's wave GEMM changes shape with the shard, so its
threaded runs meet the serial one at the graded tier.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.parallel import (
    DispatchStats,
    ThreadedDispatcher,
    get_dispatcher,
    shard_slices,
)
from repro.errors import ConfigurationError

from tests.conftest import TINY_VOCAB
from tests.grading import assert_graded

MODES = {
    "baseline": {},
    "inter": {"alpha_inter": 1e12, "mts": 4},
    "intra": {"alpha_intra": 0.3},
    "combined": {"alpha_inter": 1e12, "alpha_intra": 0.3, "mts": 4},
    "zero_prune": {},
}


def _config(mode: str, threads: int = 1, **extra) -> ExecutionConfig:
    kwargs = dict(MODES[mode])
    kwargs.update(extra)
    return ExecutionConfig(mode=ExecutionMode(mode), threads=threads, **kwargs)


# ----------------------------------------------------------- shard_slices


class TestShardSlices:
    def test_covers_range_in_order_without_overlap(self):
        for n in (1, 2, 5, 7, 16, 33):
            for parts in (1, 2, 3, 4, 8):
                slices = shard_slices(n, parts)
                rows = [i for s in slices for i in range(s.start, s.stop)]
                assert rows == list(range(n))

    def test_balanced_within_one(self):
        slices = shard_slices(10, 4)
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) - min(sizes) <= 1
        # Larger shards come first so the pool's tail is the small ones.
        assert sizes == sorted(sizes, reverse=True)

    def test_parts_clamp_to_n(self):
        assert len(shard_slices(2, 8)) == 2
        assert shard_slices(0, 4) == []

    def test_negative_n_raises(self):
        with pytest.raises(ConfigurationError):
            shard_slices(-1, 2)


# ----------------------------------------------------- ThreadedDispatcher


class TestThreadedDispatcher:
    def test_results_in_submission_order(self):
        dispatcher = ThreadedDispatcher(3)
        try:
            values, stats = dispatcher.map([lambda i=i: i * i for i in range(20)])
            assert values == [i * i for i in range(20)]
            assert isinstance(stats, DispatchStats)
            assert stats.units == 20
            assert stats.threads == 3
            assert stats.dispatch_wall_s >= 0.0
            assert stats.busy_s >= 0.0
            assert len(stats.unit_busy_s) == 20
        finally:
            dispatcher.close()

    def test_work_actually_crosses_threads(self):
        dispatcher = ThreadedDispatcher(2)
        try:
            idents, _ = dispatcher.map(
                [threading.get_ident for _ in range(8)]
            )
            assert threading.get_ident() not in idents
        finally:
            dispatcher.close()

    def test_first_exception_propagates_after_drain(self):
        dispatcher = ThreadedDispatcher(2)
        done = []

        def boom():
            raise ValueError("unit failed")

        try:
            with pytest.raises(ValueError, match="unit failed"):
                dispatcher.map([boom] + [lambda: done.append(1) for _ in range(6)])
            # The pool drained the remaining units before re-raising, so
            # it is immediately reusable.
            assert len(done) == 6
            values, _ = dispatcher.map([lambda: 7])
            assert values == [7]
        finally:
            dispatcher.close()

    def test_timing_keys_schema(self):
        stats = DispatchStats(threads=2, units=0)
        assert set(stats.timing_keys()) == {
            "dispatch_wall_s", "queue_wait_s", "thread_busy_s",
        }

    def test_get_dispatcher_reuses_pool(self):
        assert get_dispatcher(3) is get_dispatcher(3)
        assert get_dispatcher(2) is not get_dispatcher(3)


# ------------------------------------------------------- config plumbing


class TestConfigValidation:
    def test_threads_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(mode=ExecutionMode.BASELINE, threads=0)


# ------------------------------------------------------ run_batch identity


class TestRunBatchBitIdentity:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_threaded_matches_serial(self, tiny_network, rng, mode, threads):
        tokens = rng.integers(0, TINY_VOCAB, size=(7, tiny_network.config.seq_length))
        executor = LSTMExecutor(tiny_network, _config(mode))
        serial = executor.run_batch(tokens)
        out = LSTMExecutor(tiny_network, _config(mode, threads)).run_batch(tokens)
        if executor.exact:
            np.testing.assert_array_equal(out.logits, serial.logits)
        else:
            assert_graded(out, serial)
        assert len(out.plans) == len(serial.plans)
        assert [p.total_breakpoints for p in out.plans] == [
            p.total_breakpoints for p in serial.plans
        ]

    def test_threads_beyond_batch(self, tiny_network, rng):
        tokens = rng.integers(0, TINY_VOCAB, size=(2, tiny_network.config.seq_length))
        serial = LSTMExecutor(tiny_network, _config("combined")).run_batch(tokens)
        out = LSTMExecutor(tiny_network, _config("combined", 8)).run_batch(tokens)
        assert_graded(out, serial)

    def test_batch_of_one_stays_serial(self, tiny_network, rng):
        tokens = rng.integers(0, TINY_VOCAB, size=(1, tiny_network.config.seq_length))
        out = LSTMExecutor(tiny_network, _config("combined", 4)).run_batch(tokens)
        # The serial path keeps layer_outputs populated.
        assert out.layer_outputs
        assert "dispatch_wall_s" not in out.timings

    def test_parallel_timings_present(self, tiny_network, rng):
        tokens = rng.integers(0, TINY_VOCAB, size=(6, tiny_network.config.seq_length))
        out = LSTMExecutor(tiny_network, _config("combined", 3)).run_batch(tokens)
        for key in ("exec_wall_s", "plan_wall_s", "compile_wall_s",
                    "dispatch_wall_s", "queue_wait_s", "thread_busy_s"):
            assert key in out.timings
        assert out.timings["thread_busy_s"] > 0.0

    def test_collect_states_falls_back_to_serial(self, tiny_network, rng):
        tokens = rng.integers(0, TINY_VOCAB, size=(5, tiny_network.config.seq_length))
        serial = LSTMExecutor(tiny_network, _config("baseline")).run_batch(
            tokens, collect_states=True
        )
        out = LSTMExecutor(tiny_network, _config("baseline", 4)).run_batch(
            tokens, collect_states=True
        )
        np.testing.assert_array_equal(out.logits, serial.logits)
        assert len(out.layer_states) == len(serial.layer_states)
        for got, want in zip(out.layer_states, serial.layer_states):
            np.testing.assert_array_equal(got, want)


# ------------------------------------------------------ run_stream identity


class TestRunStreamBitIdentity:
    @pytest.mark.parametrize("mode", ["baseline", "intra", "zero_prune"])
    def test_threaded_stream_matches_serial(self, tiny_network, rng, mode):
        layers = tiny_network.config.num_layers
        hidden = tiny_network.config.hidden_size
        batch = 6
        serial_ex = LSTMExecutor(tiny_network, _config(mode))
        par_ex = LSTMExecutor(tiny_network, _config(mode, 4))
        h_s = np.zeros((layers, batch, hidden))
        c_s = np.zeros((layers, batch, hidden))
        h_p = h_s.copy()
        c_p = c_s.copy()
        for _ in range(3):
            tokens = rng.integers(0, TINY_VOCAB, size=(batch, 4))
            out_s = serial_ex.run_stream(tokens, h_s, c_s)
            out_p = par_ex.run_stream(tokens, h_p, c_p)
            np.testing.assert_array_equal(out_p, out_s)
            np.testing.assert_array_equal(h_p, h_s)
            np.testing.assert_array_equal(c_p, c_s)

    def test_single_row_stream_stays_serial(self, tiny_network, rng):
        layers = tiny_network.config.num_layers
        hidden = tiny_network.config.hidden_size
        ex = LSTMExecutor(tiny_network, _config("baseline", 4))
        h = np.zeros((layers, 1, hidden))
        c = np.zeros((layers, 1, hidden))
        out = ex.run_stream(rng.integers(0, TINY_VOCAB, size=(1, 4)), h, c)
        assert out.shape[0] == 1


# ----------------------------------------------------------- observability


class TestRecorderAttribution:
    def test_threaded_record_carries_dispatch_timing(self, tiny_network, rng):
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        executor = LSTMExecutor(
            tiny_network, _config("combined", 3), recorder=recorder
        )
        tokens = rng.integers(0, TINY_VOCAB, size=(6, tiny_network.config.seq_length))
        executor.run_batch(tokens)
        record = recorder.last()
        assert record.config["threads"] == 3
        for key in ("dispatch_wall_s", "queue_wait_s", "thread_busy_s"):
            assert key in record.timing
        assert record.batch == 6
        # Every row's structural plan is observed exactly once, no matter
        # which shard executed it.
        assert len(record.sequences) == 6

    def test_record_schema_valid_with_threads(self, tiny_network, rng):
        from repro.obs.record import RunRecord
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        executor = LSTMExecutor(
            tiny_network, _config("baseline", 2), recorder=recorder
        )
        tokens = rng.integers(0, TINY_VOCAB, size=(4, tiny_network.config.seq_length))
        executor.run_batch(tokens)
        round_tripped = RunRecord.from_dict(recorder.last().to_dict())
        assert round_tripped.timing["dispatch_wall_s"] >= 0.0


# ----------------------------------------------------------- pipeline knob


class TestPipelineThreads:
    def test_run_threads_bit_identical(self, tiny_app):
        tokens = tiny_app.sample_tokens(6, seed=9)
        serial = tiny_app.run(
            tokens, mode=ExecutionMode.COMBINED, threshold_index=2, keep_result=True
        )
        threaded = tiny_app.run(
            tokens, mode=ExecutionMode.COMBINED, threshold_index=2, threads=4,
            keep_result=True,
        )
        assert_graded(threaded.result, serial.result)

    def test_run_records_threads(self, tiny_app):
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        tokens = tiny_app.sample_tokens(4, seed=9)
        tiny_app.run(
            tokens, mode=ExecutionMode.BASELINE, threads=2, recorder=recorder
        )
        assert recorder.last().config["threads"] == 2
