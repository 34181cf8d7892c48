"""Property, lifecycle and failure tests of the fleet policy.

The fleet's numerics contract: every shard executes bit-identically to
:meth:`repro.core.executor.LSTMExecutor.run_batch` on that shard in the
calling process — a forked worker runs the parent's own executor, so the
process boundary and the worker count change no bits — and a tick's shards
are consecutive ``max_batch``-row slices of its FIFO batch, so a sequence's
logits and its per-sequence record are the same at any parallelism.
``workers=0`` must reproduce the worker path exactly. Lifecycle: ``close``
leaves no worker process behind, a bad token id is the caller's
:class:`~repro.errors.ShapeError` and leaves the fleet serving, a worker
killed mid-shard fails the tick at once, a worker forked after the parent
ran a threaded executor still answers, and per-shard run records merge
into schema-valid tick and window records. (Admission, shedding and
open-loop replay are the serving core's, checked in ``test_serving.py``.)

Worker processes fork per test, so the cross-process tests use one fixed
mid-size workload per mode instead of hypothesis-sized fleets; hypothesis
drives the (cheap, in-process) ``workers=0`` fleet.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time

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
    ConfigurationError,
    RuntimeStateError,
    ShapeError,
)
from repro.nn.network import LSTMNetwork  # noqa: E402
from repro.obs import Recorder, merge_run_records, validate_run_dict  # noqa: E402
from repro.runtime import FleetServer  # noqa: E402

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


def serve(network, exec_config, tokens, **kwargs):
    """Serve a ``(B, T)`` batch through a fleet's door; returns the logits in
    request order, the merged window record and the tick reports."""
    with FleetServer(network, exec_config, recorder=Recorder(), **kwargs) as fleet:
        tickets = [fleet.submit(f"r{i}", row, now=0.0) for i, row in enumerate(tokens)]
        reports = fleet.drain(now=0.0)
        record = fleet.merged_record()
    return np.stack([ticket.result.logits for ticket in tickets]), record, reports


def groupwise_expected(network, exec_config, tokens, max_batch):
    """Executor logits and per-sequence observations over consecutive shards."""
    recorder = Recorder()
    executor = LSTMExecutor(network, exec_config, recorder=recorder)
    logits, sequences = [], []
    for start in range(0, tokens.shape[0], max_batch):
        logits.append(executor.run_batch(tokens[start : start + max_batch]).logits)
        for seq in recorder.last().sequences:
            seq.seq_index += start
            sequences.append(seq)
    return np.concatenate(logits), sequences


@st.composite
def runtime_cases(draw):
    """Small workload + mode + shard size for the in-process properties."""
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
        logits, record, _ = serve(network, exec_config, tokens, max_batch=max_batch)
        expected_logits, expected_sequences = groupwise_expected(
            network, exec_config, tokens, max_batch
        )
        assert np.array_equal(logits, expected_logits)
        assert record.sequences == expected_sequences

    @settings(max_examples=15, deadline=None)
    @given(case=runtime_cases())
    def test_grouping_covers_batch_exactly_once(self, case):
        network, tokens, exec_config, max_batch = case
        _, record, reports = serve(network, exec_config, tokens, max_batch=max_batch)
        batches = [report.batch for report in reports]
        assert sum(batches) == tokens.shape[0]  # FIFO, length-only
        assert all(batch == max_batch for batch in batches[:-1])
        assert 1 <= batches[-1] <= max_batch
        assert [seq.seq_index for seq in record.sequences] == list(range(tokens.shape[0]))


class TestFleetBitIdentity:
    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    def test_two_workers_match_groupwise_executor(self, mode):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[mode]
        logits, record, _ = serve(network, exec_config, tokens, workers=2, max_batch=3)
        expected_logits, expected_sequences = groupwise_expected(
            network, exec_config, tokens, max_batch=3
        )
        assert np.array_equal(logits, expected_logits)
        assert record.sequences == expected_sequences
        assert multiprocessing.active_children() == []

    def test_worker_count_does_not_change_bits(self):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.COMBINED]
        outputs = [
            serve(network, exec_config, tokens, workers=workers, max_batch=3)
            for workers in (0, 1, 2)
        ]
        for logits, record, _ in outputs[1:]:
            assert np.array_equal(logits, outputs[0][0])
            assert record.sequences == outputs[0][1].sequences

    def test_int8_worker_matches_in_process_executor(self):
        """A quantized fleet through a forked worker: the worker runs the
        parent's quantized cells, byte-identical to quantizing in process."""
        network, tokens = build_workload()
        exec_config = ExecutionConfig(mode=ExecutionMode.BASELINE, precision="int8")
        logits, _, _ = serve(network, exec_config, tokens, workers=1, max_batch=3)
        expected, _ = groupwise_expected(network, exec_config, tokens, max_batch=3)
        assert np.array_equal(logits, expected)
        assert multiprocessing.active_children() == []


class TestForkedWorkers:
    def test_threaded_fleet_after_a_threaded_run_in_the_parent(self, monkeypatch):
        """A forked worker inherits the parent's dispatcher registry but not
        its pool threads: without the at-fork reset in
        ``repro.core.parallel`` the worker's shard waits on threads that do
        not exist and the tick fails after ``result_timeout_s``."""
        monkeypatch.setattr(FleetServer, "result_timeout_s", 30.0)
        network, tokens = build_workload()
        exec_config = dataclasses.replace(MODE_CONFIGS[ExecutionMode.BASELINE], threads=2)
        # Runs the threads=2 pool in this process before the fleet forks.
        expected, _ = groupwise_expected(network, exec_config, tokens, max_batch=3)
        logits, _, _ = serve(network, exec_config, tokens, workers=2, max_batch=3)
        assert np.array_equal(logits, expected)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_parent_dies(self):
        """Fork copies the parent's pipe ends into every worker; a worker
        that kept them open would never see EOF and outlive a killed
        parent."""
        script = (
            "import os, signal\n"
            "from repro.config import LSTMConfig\n"
            "from repro.core.executor import ExecutionConfig\n"
            "from repro.nn.network import LSTMNetwork\n"
            "from repro.runtime import FleetServer\n"
            "config = LSTMConfig(hidden_size=8, num_layers=1, seq_length=4, input_size=8)\n"
            "network = LSTMNetwork(config, 20, 3, seed=1)\n"
            "fleet = FleetServer(network, ExecutionConfig(), workers=2)\n"
            "print(*[process.pid for process in fleet._processes], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        parent.wait(timeout=60)

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        parent.stdout.close()
        assert len(pids) == 2 and orphans == []


class TestBackpressure:
    def test_bad_token_id_is_the_callers_error_not_a_dead_worker(self):
        """An out-of-vocabulary id used to reach a worker, whose ShapeError
        ended its loop and took the whole fleet down with it."""
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.BASELINE]
        with FleetServer(network, exec_config, workers=2, max_batch=3) as fleet:
            with pytest.raises(ShapeError, match="vocabulary"):
                fleet.submit("bad", np.array([1, 2, VOCAB]), now=0.0)
            tickets = [fleet.submit(f"r{i}", row, now=0.0) for i, row in enumerate(tokens)]
            fleet.drain(now=0.0)
        expected_logits, _ = groupwise_expected(network, exec_config, tokens, max_batch=3)
        assert np.array_equal(np.stack([t.result.logits for t in tickets]), expected_logits)
        assert multiprocessing.active_children() == []

    def test_lifecycle_errors(self):
        network, tokens = build_workload(batch=2)
        config = MODE_CONFIGS[ExecutionMode.BASELINE]
        for bad in ({"workers": -1}, {"max_batch": 0}, {"queue_limit": 0}):
            with pytest.raises(ConfigurationError):
                FleetServer(network, config, **bad)
        fleet = FleetServer(network, config)
        fleet.submit("a", tokens[0], now=0.0)
        fleet.tick(now=0.0)
        fleet.close()
        fleet.submit("b", tokens[1], now=0.0)
        with pytest.raises(RuntimeStateError, match="closed"):
            fleet.tick(now=0.0)
        assert fleet.queue_depth == 1  # refused before anything was dequeued


class TestWorkerDeath:
    def test_sigkill_mid_shard_fails_the_tick_at_once(self, monkeypatch):
        """A killed worker used to surface only after ``result_timeout_s``
        (300 s by default) as "no shard result"; the gather now also waits
        on the process sentinels."""
        network, tokens = build_workload(hidden=64, seq=64, batch=8)
        fleet = FleetServer(network, MODE_CONFIGS[ExecutionMode.BASELINE], workers=2,
                            max_batch=4)
        gather = fleet._gather

        def kill_then_gather(*args):
            os.kill(fleet._processes[1].pid, signal.SIGKILL)  # shards are in flight
            return gather(*args)

        monkeypatch.setattr(fleet, "_gather", kill_then_gather)
        for i, row in enumerate(tokens):
            fleet.submit(f"r{i}", row, now=0.0)
        start = time.monotonic()
        with pytest.raises(RuntimeStateError, match="worker 1 died"):
            fleet.tick(now=0.0)
        assert time.monotonic() - start < 10.0
        assert multiprocessing.active_children() == []
        assert all(not process.is_alive() for process in fleet._processes)
        with pytest.raises(RuntimeStateError, match="closed"):
            fleet.tick(now=0.0)


class TestFleetRecords:
    def test_fleet_record_merges_and_validates(self):
        network, tokens = build_workload()
        exec_config = MODE_CONFIGS[ExecutionMode.COMBINED]
        recorder = Recorder()
        with FleetServer(
            network, exec_config, workers=2, max_batch=3, recorder=recorder
        ) as fleet:
            for i, row in enumerate(tokens):
                fleet.submit(f"r{i}", row, now=0.0)
            reports = fleet.drain(now=0.0)
            record = fleet.merged_record()
        assert [r.batch for r in reports] == [6, 1]  # two shards of 3, then one row
        assert [r.label for r in recorder.records] == ["fleet-tick", "fleet-tick"]
        for tick_record in recorder.records:
            validate_run_dict(tick_record.to_dict())
        assert record.label == "fleet"
        assert record.batch == tokens.shape[0]
        assert [seq.seq_index for seq in record.sequences] == list(
            range(tokens.shape[0])
        )
        validate_run_dict(record.to_dict())

    def test_workers0_record_matches_schema_and_batch(self):
        network, tokens = build_workload(batch=4)
        _, record, _ = serve(network, MODE_CONFIGS[ExecutionMode.INTER], tokens,
                             max_batch=2)
        assert record.batch == tokens.shape[0]
        assert record.timing["ticks"] == 2.0
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
