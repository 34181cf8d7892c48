"""Streaming serving: bit-identity, session lifecycle, backpressure, records.

The contracts of :mod:`repro.runtime.streaming`:

* **Bit-identity.** A session served in any chunking under any batch
  composition equals the frozen
  :class:`~repro.core.reference.ReferenceExecutor` running the full
  sequence contiguously — per-timestep and pooled heads, every
  streamable mode.

* **Session lifecycle.** Resident state survives between arrivals; LRU
  capacity eviction and TTL idle-sweep drop only idle sessions, a
  returning evicted session restarts from zeroed state, and busy
  sessions are pinned (a full table of them sheds instead).

* **Deterministic backpressure.** Admission beyond the queue bound sheds
  all-or-nothing with :class:`~repro.errors.BackpressureError`; the same
  submit/tick history always sheds the same requests (checked for every
  policy in ``tests/test_serving.py``).

* **Observability.** Tick records and the merged serving-window record
  are schema-valid ``repro.obs/run/v1`` documents carrying the
  ``queue_wait_s`` / ``ticks`` timing keys.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.reference import ReferenceExecutor
from repro.errors import BackpressureError, ConfigurationError, ShapeError
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.obs.schema import validate_run_dict
from repro.runtime import (
    LoadSpec,
    ServingTicket,
    StreamingServer,
    generate_arrivals,
    run_open_loop,
)

VOCAB = 29
CLASSES = 3
HIDDEN = 12
LAYERS = 2
HEAD_POOL = 3

STREAM_MODES = {
    "baseline": {"mode": ExecutionMode.BASELINE},
    "intra": {"mode": ExecutionMode.INTRA, "alpha_intra": 0.4},
    "zero_prune": {"mode": ExecutionMode.ZERO_PRUNE},
}


def make_network(per_timestep_head: bool, seed: int = 5) -> LSTMNetwork:
    config = LSTMConfig(
        hidden_size=HIDDEN, num_layers=LAYERS, seq_length=16, input_size=HIDDEN
    )
    return LSTMNetwork(
        config,
        vocab_size=VOCAB,
        num_classes=CLASSES,
        seed=seed,
        per_timestep_head=per_timestep_head,
        head_pool=1 if per_timestep_head else HEAD_POOL,
    )


def make_server(network: LSTMNetwork, mode: str = "baseline", **kwargs) -> StreamingServer:
    defaults = dict(
        max_batch=4,
        chunk_len=4,
        queue_limit=1000,
        max_sessions=32,
        session_ttl_s=1e9,
        clock=lambda: 0.0,
    )
    defaults.update(kwargs)
    return StreamingServer(network, ExecutionConfig(**STREAM_MODES[mode]), **defaults)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------- bit-identity


class TestBitIdentity:
    @pytest.mark.parametrize("mode", sorted(STREAM_MODES))
    @pytest.mark.parametrize("per_ts", [True, False], ids=["per-timestep", "pooled"])
    def test_random_chunking_matches_contiguous_reference(self, mode, per_ts):
        """Any chunking, any batch mix == the full-sequence frozen oracle."""
        network = make_network(per_timestep_head=per_ts)
        config = ExecutionConfig(**STREAM_MODES[mode])
        reference = ReferenceExecutor(network, config)
        rng = np.random.default_rng(17)
        # Length 2 < head_pool exercises the partially-filled pooled window.
        sessions = {
            f"s{i}": rng.integers(0, VOCAB, size=length)
            for i, length in enumerate([2, 5, 9, 16, 13])
        }
        server = make_server(network, mode)
        tickets = {sid: [] for sid in sessions}
        cursor = dict.fromkeys(sessions, 0)
        live = sorted(sessions)
        while live:
            sid = live[int(rng.integers(len(live)))]
            tokens = sessions[sid]
            take = min(int(rng.integers(1, 5)), len(tokens) - cursor[sid])
            tickets[sid].append(
                server.submit(sid, tokens[cursor[sid] : cursor[sid] + take], now=0.0)
            )
            cursor[sid] += take
            if cursor[sid] == len(tokens):
                live.remove(sid)
            if rng.random() < 0.5:
                server.tick(now=0.0)
        server.drain(now=0.0)

        for sid, tokens in sessions.items():
            expected = reference.run_batch(tokens[None]).logits[0]
            if per_ts:
                streamed = np.concatenate(
                    [t.result.logits for t in tickets[sid]], axis=0
                )
            else:
                streamed = tickets[sid][-1].result.logits
            assert np.array_equal(streamed, expected), sid

    def test_single_step_submissions_match_reference(self):
        """The pure online shape: one token per submission, every tick."""
        network = make_network(per_timestep_head=True)
        config = ExecutionConfig(**STREAM_MODES["intra"])
        reference = ReferenceExecutor(network, config)
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, VOCAB, size=10)
        server = make_server(network, "intra", chunk_len=1)
        logits = []
        for token in tokens:
            ticket = server.submit("s", np.array([token]), now=0.0)
            server.tick(now=0.0)
            logits.append(ticket.result.logits)
        streamed = np.concatenate(logits, axis=0)
        assert np.array_equal(streamed, reference.run_batch(tokens[None]).logits[0])


# ----------------------------------------------------------- session lifecycle


class TestSessionLifecycle:
    def test_lru_eviction_and_fresh_readmission(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(9)
        tokens = rng.integers(0, VOCAB, size=4)
        clock = FakeClock()
        server = make_server(network, max_sessions=2, clock=clock)

        first = server.submit("a", tokens)
        server.tick()
        clock.now = 1.0
        server.submit("b", tokens)
        server.tick()
        clock.now = 2.0
        server.submit("c", tokens)  # table full -> evicts idle LRU "a"
        server.tick()
        assert "a" not in server.sessions
        assert "b" in server.sessions and "c" in server.sessions
        assert server.sessions.lru_evictions == 1

        clock.now = 3.0
        again = server.submit("a", tokens)  # re-admitted from zeroed state
        server.tick()
        assert np.array_equal(again.result.logits, first.result.logits)

    def test_lru_evictions_reach_the_stats(self):
        network = make_network(per_timestep_head=True)
        tokens = np.random.default_rng(9).integers(0, VOCAB, size=4)
        server = make_server(network, max_sessions=2)
        for now, session in enumerate("abc"):
            server.submit(session, tokens, now=float(now))
            server.tick(now=float(now))
        stats = server.stats.as_dict(server.max_batch)
        assert stats["lru_evictions"] == 1
        assert stats["ttl_evictions"] == 0

    def test_resident_state_survives_between_arrivals(self):
        """The second arrival continues the first one's state, not zeros."""
        network = make_network(per_timestep_head=True)
        config = ExecutionConfig(**STREAM_MODES["baseline"])
        rng = np.random.default_rng(29)
        tokens = rng.integers(0, VOCAB, size=8)
        server = make_server(network)
        server.submit("s", tokens[:4], now=0.0)
        server.tick(now=0.0)
        second = server.submit("s", tokens[4:], now=0.0)
        server.tick(now=0.0)
        full = ReferenceExecutor(network, config).run_batch(tokens[None]).logits[0]
        assert np.array_equal(second.result.logits, full[4:])
        assert not np.array_equal(
            second.result.logits,
            ReferenceExecutor(network, config).run_batch(tokens[4:][None]).logits[0],
        )

    def test_ttl_sweep_evicts_idle_sessions(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(9)
        clock = FakeClock()
        server = make_server(network, session_ttl_s=10.0, clock=clock)
        server.submit("idle", rng.integers(0, VOCAB, size=2))
        server.tick()
        assert "idle" in server.sessions
        clock.now = 11.0
        report = server.tick()  # empty queue still sweeps
        assert report.ttl_evictions == 1
        assert "idle" not in server.sessions
        assert server.stats.ttl_evictions == 1

    def test_ttl_sweep_stops_at_the_first_fresh_session(self):
        """Regression: the sweep used to scan every resident session on
        every tick. The table is in last-active order, so the walk visits
        the expired front and the first fresh session, nothing else."""
        from repro.runtime.streaming import SessionTable

        table = SessionTable(
            num_layers=1, hidden=2, head_pool=1, max_sessions=8192, ttl_s=10.0
        )
        table.get_or_admit("expired", now=0.0)
        for n in range(4096):
            table.get_or_admit(f"fresh-{n}", now=100.0)

        visited = []

        class Counted(type(table._sessions)):
            def items(self):
                for item in super().items():
                    visited.append(item[0])
                    yield item

        table._sessions = Counted(table._sessions)
        assert table.sweep_ttl(now=101.0) == 1
        assert visited == ["expired", "fresh-0"]
        assert "expired" not in table and len(table) == 4096
        assert table.ttl_evictions == 1

    def test_ttl_sweep_passes_over_pinned_sessions(self):
        """A session with queued work at the old end neither gets evicted
        nor hides the expired idle sessions behind it."""
        from repro.runtime.streaming import SessionTable

        table = SessionTable(
            num_layers=1, hidden=2, head_pool=1, max_sessions=8, ttl_s=10.0
        )
        table.get_or_admit("pinned", now=0.0).pending = 1
        table.get_or_admit("idle", now=1.0)
        table.get_or_admit("fresh", now=100.0)
        assert table.sweep_ttl(now=101.0) == 1
        assert "pinned" in table and "fresh" in table and "idle" not in table

    @pytest.mark.parametrize("ttl_s", [float("nan"), float("inf")])
    def test_non_finite_ttl_rejected(self, ttl_s):
        """A NaN TTL passed a ``<= 0`` check and then evicted every idle
        session at the next sweep, so a returning session restarted from
        zeroed state."""
        from repro.runtime.streaming import SessionTable

        with pytest.raises(ConfigurationError, match="ttl_s"):
            SessionTable(num_layers=1, hidden=2, head_pool=1, max_sessions=8, ttl_s=ttl_s)
        with pytest.raises(ConfigurationError, match="ttl_s"):
            make_server(make_network(per_timestep_head=True), session_ttl_s=ttl_s)

    def test_busy_sessions_are_pinned(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(9)
        server = make_server(network, max_sessions=1)
        server.submit("busy", rng.integers(0, VOCAB, size=4), now=0.0)
        with pytest.raises(BackpressureError):
            server.submit("other", rng.integers(0, VOCAB, size=4), now=0.0)
        server.tick(now=0.0)  # "busy" drains and unpins
        server.submit("other", rng.integers(0, VOCAB, size=4), now=0.0)


# --------------------------------------------------------------- backpressure


class TestBackpressure:
    def test_shedding_is_all_or_nothing(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(4)
        server = make_server(network, chunk_len=1, queue_limit=3)
        with pytest.raises(BackpressureError):
            server.submit("s", rng.integers(0, VOCAB, size=4), now=0.0)  # needs 4
        assert server.queue_depth == 0  # nothing partially enqueued
        assert server.stats.shed == 4
        server.submit("s", rng.integers(0, VOCAB, size=3), now=0.0)  # fits
        assert server.queue_depth == 3

    def test_session_table_shed_counts_chunks(self):
        """A full-table shed counts its chunks like a queue shed."""
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(9)
        server = make_server(network, max_sessions=1)
        server.submit("busy", rng.integers(0, VOCAB, size=4), now=0.0)
        assert server.stats.shed == 0
        with pytest.raises(BackpressureError):
            server.submit("other", rng.integers(0, VOCAB, size=8), now=0.0)
        assert server.stats.shed == 2  # the shed submission's 2 chunks
        assert server.queue_depth == 1  # only "busy"'s chunk remains


# ------------------------------------------------------------- ticket merging


class TestTicketMerge:
    def _ticket(self, n_chunks: int, per_timestep: bool) -> ServingTicket:
        return ServingTicket(
            "s", 0.0, n_parts=n_chunks, n_tokens=3 * n_chunks, per_timestep=per_timestep
        )

    def test_pooled_merge_reads_highest_chunk_index(self):
        """Pooled result is the *last* chunk's logits by index, not by
        completion order."""
        ticket = self._ticket(3, per_timestep=False)
        first, middle, last = (np.full((1, 2), v) for v in (0.0, 1.0, 2.0))
        assert ticket._complete(last, 1.0, 2) is None
        assert ticket._complete(first, 1.0, 0) is None
        result = ticket._complete(middle, 1.0, 1)
        assert result is not None
        assert np.array_equal(result.logits, last)

    def test_per_timestep_merge_orders_by_chunk_index(self):
        ticket = self._ticket(3, per_timestep=True)
        parts = [np.full((2, 2), v) for v in (0.0, 1.0, 2.0)]
        ticket._complete(parts[1], 1.0, 1)
        ticket._complete(parts[2], 1.0, 2)
        result = ticket._complete(parts[0], 1.0, 0)
        assert np.array_equal(result.logits, np.concatenate(parts, axis=0))

    def test_multi_chunk_pooled_submission_matches_reference(self):
        """One pooled-head submission spanning several chunks resolves to
        the full-sequence pooled logits."""
        network = make_network(per_timestep_head=False)
        config = ExecutionConfig(**STREAM_MODES["baseline"])
        rng = np.random.default_rng(31)
        tokens = rng.integers(0, VOCAB, size=10)  # 3 chunks at chunk_len=4
        server = make_server(network)
        ticket = server.submit("s", tokens, now=0.0)
        server.drain(now=0.0)
        expected = ReferenceExecutor(network, config).run_batch(tokens[None]).logits[0]
        assert np.array_equal(ticket.result.logits, expected)


# ------------------------------------------------------------- tick batching


class TestTickBatching:
    def test_head_chunk_sets_length_and_sessions_serialize(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(6)
        server = make_server(network, max_batch=8)
        server.submit("a", rng.integers(0, VOCAB, size=8), now=0.0)  # 2 chunks
        server.submit("b", rng.integers(0, VOCAB, size=4), now=0.0)
        server.submit("c", rng.integers(0, VOCAB, size=2), now=0.0)  # shorter
        first = server.tick(now=0.0)
        # Head chunk (a's first, length 4) sets the tick length: a and b
        # batch, c's length-2 chunk and a's second chunk wait.
        assert (first.batch, first.length) == (2, 4)
        second = server.tick(now=0.0)
        assert (second.batch, second.length) == (1, 4)  # a's second chunk
        third = server.tick(now=0.0)
        assert (third.batch, third.length) == (1, 2)  # c
        assert server.queue_depth == 0
        assert server.stats.max_occupancy == 2


# -------------------------------------------------------------------- records


class TestProgramCacheSizing:
    def test_private_cache_holds_every_emittable_shape(self):
        """The cache the server creates covers its whole (batch, chunk
        length, layer) lattice: after one pass over the shapes nothing is
        ever evicted or recompiled, in whatever order they recur."""
        network = make_network(per_timestep_head=True)
        server = make_server(network, max_batch=5, chunk_len=4)
        cache = server.executor.program_cache
        assert cache.max_entries == 5 * 4 * LAYERS > 32  # past the default bound

        def one_pass(order):
            for batch, length in order:
                for s in range(batch):
                    server.submit(f"s{s}", np.zeros(length, dtype=np.int64), now=0.0)
                server.tick(now=0.0)

        shapes = [(b, n) for b in range(1, 6) for n in range(1, 5)]
        one_pass(shapes)  # warm-up: every shape compiles once
        assert cache.stats.misses == len(shapes) * LAYERS
        one_pass(reversed(shapes))
        one_pass(shapes)
        assert cache.stats.evictions == 0
        assert cache.stats.misses == len(shapes) * LAYERS

    def test_caller_supplied_cache_keeps_its_bound(self):
        from repro.core.program import ProgramCache

        shared = ProgramCache(max_entries=3)
        server = make_server(make_network(per_timestep_head=True), program_cache=shared)
        assert server.executor.program_cache is shared
        assert shared.max_entries == 3


class TestRecords:
    def test_tick_and_merged_records_are_schema_valid(self):
        network = make_network(per_timestep_head=True)
        rng = np.random.default_rng(8)
        recorder = Recorder()
        server = make_server(network, recorder=recorder)
        for i in range(3):
            server.submit(f"s{i}", rng.integers(0, VOCAB, size=4), now=0.0)
        server.tick(now=0.0)
        server.drain(now=0.0)

        for record in recorder.records:
            data = record.to_dict()
            validate_run_dict(data)
            assert data["label"] == "stream-tick"
            assert data["timing"]["ticks"] == 1.0

        merged = server.merged_record()
        data = merged.to_dict()
        validate_run_dict(data)
        assert data["label"] == "stream"
        assert data["batch"] == 3
        assert data["timing"]["ticks"] == float(len(recorder.records))
        assert "queue_wait_s" in data["timing"]


# ----------------------------------------------------------------- rejections


class TestRejections:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": ExecutionMode.INTER, "alpha_inter": 50.0, "mts": 3},
            {
                "mode": ExecutionMode.COMBINED,
                "alpha_inter": 50.0,
                "alpha_intra": 0.4,
                "mts": 3,
            },
        ],
        ids=["inter", "combined"],
    )
    def test_inter_modes_rejected_at_construction(self, kwargs):
        network = make_network(per_timestep_head=True)
        with pytest.raises(ConfigurationError, match="full-sequence relevance"):
            StreamingServer(network, ExecutionConfig(**kwargs))

    def test_submit_rejects_bad_tokens(self):
        network = make_network(per_timestep_head=True)
        server = make_server(network)
        with pytest.raises(ShapeError):
            server.submit("s", np.zeros((2, 3), dtype=int), now=0.0)
        with pytest.raises(ShapeError):
            server.submit("s", np.array([], dtype=int), now=0.0)
        for bad in ([1, 2, -1], [1, VOCAB, 3], [1.0, 2.0], [True, False]):
            with pytest.raises(ShapeError, match="token id out of vocabulary range"):
                server.submit("s", np.array(bad), now=0.0)
        assert server.queue_depth == 0 and server.stats.shed == 0

    def test_bad_submit_leaves_the_other_sessions_tick_intact(self):
        """An out-of-vocabulary id is refused at admission; before the
        check it raised IndexError out of tick() and took the co-batched
        session's chunk down with it."""
        network = make_network(per_timestep_head=True)
        good = np.arange(4) % VOCAB
        server = make_server(network)
        ticket = server.submit("good", good, now=0.0)
        with pytest.raises(ShapeError, match="token id out of vocabulary range"):
            server.submit("bad", np.array([1, 2, 3, VOCAB]), now=0.0)
        report = server.tick(now=0.0)
        assert report.batch == 1 and ticket.done
        alone = make_server(network)
        expected = alone.submit("good", good, now=0.0)
        alone.tick(now=0.0)
        assert np.array_equal(ticket.result.logits, expected.result.logits)

    def test_run_stream_rejects_bad_state_shapes(self):
        network = make_network(per_timestep_head=True)
        executor = LSTMExecutor(network, ExecutionConfig(**STREAM_MODES["baseline"]))
        tokens = np.zeros((2, 3), dtype=int)
        good = np.zeros((LAYERS, 2, HIDDEN))
        with pytest.raises(ShapeError):
            executor.run_stream(tokens, np.zeros((LAYERS, 2, HIDDEN + 1)), good)
        with pytest.raises(ShapeError):
            executor.run_stream(np.zeros(3, dtype=int), good, good)


# -------------------------------------------------------------------- loadgen


class TestLoadgen:
    def test_arrivals_deterministic_and_time_ordered(self):
        spec = LoadSpec(duration_s=2.0, session_rate=15.0, seed=12)
        first = generate_arrivals(spec, vocab_size=VOCAB)
        second = generate_arrivals(spec, vocab_size=VOCAB)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert (a.time_s, a.session_id) == (b.time_s, b.session_id)
            assert np.array_equal(a.tokens, b.tokens)
        times = [a.time_s for a in first]
        assert times == sorted(times)

    def test_followup_chunks_never_land_past_duration(self):
        """Long sessions near the window's end are truncated, not allowed
        to schedule think-time follow-ups past duration_s."""
        spec = LoadSpec(
            duration_s=0.5,
            session_rate=30.0,
            seed=3,
            chunk_len=2,
            think_time_s=0.2,
            session_len_min=16,
            session_len_max=64,
        )
        arrivals = generate_arrivals(spec, vocab_size=VOCAB)
        assert arrivals
        assert max(a.time_s for a in arrivals) < spec.duration_s
        # Sanity: the spec's geometry would overhang without the clamp —
        # some session has enough chunks to reach past the window.
        starts = {}
        for a in arrivals:
            starts.setdefault(a.session_id, a.time_s)
        would_overhang = any(
            starts[sid]
            + (spec.session_len_min // spec.chunk_len - 1) * spec.think_time_s
            >= spec.duration_s
            for sid in starts
        )
        assert would_overhang

    def test_open_loop_overload_sheds_and_replays_identically(self):
        network = make_network(per_timestep_head=True)
        spec = LoadSpec(duration_s=1.0, session_rate=40.0, seed=2)
        arrivals = generate_arrivals(spec, vocab_size=VOCAB)

        def run_once():
            server = make_server(network, max_batch=2, queue_limit=6)
            report = run_open_loop(
                server,
                arrivals,
                tick_interval_s=0.002,
                # Modeled slow ticks make 40 sessions/s an overload.
                service_model=lambda tick: 0.05,
            )
            return report, server.stats

        first, stats_a = run_once()
        second, stats_b = run_once()
        assert first.shed_submissions > 0
        assert first.completed_submissions > 0
        assert first.as_dict() == second.as_dict()
        assert stats_a.as_dict(2) == stats_b.as_dict(2)
        assert (
            first.completed_submissions + first.shed_submissions
            == first.offered_submissions
        )


    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("session_rate", float("nan")),
            ("session_rate", float("inf")),
            ("think_time_s", float("nan")),
            ("think_time_s", float("inf")),
            ("session_len_alpha", float("nan")),
            ("session_len_alpha", float("inf")),
            ("diurnal_period_s", 0.0),
            ("diurnal_period_s", -1.0),
            ("diurnal_period_s", float("nan")),
            ("diurnal_period_s", float("inf")),
        ],
    )
    def test_non_finite_or_non_positive_spec_rejected(self, field, value):
        """A NaN or infinite window or rate keeps the arrival process from
        ending; a zero diurnal period divides by zero and a NaN one thins
        every arrival away. Each is refused where the spec is made."""
        with pytest.raises(ConfigurationError, match=field):
            LoadSpec(**{field: value})

    @pytest.mark.parametrize("tick_interval_s", [float("nan"), float("inf")])
    def test_non_finite_tick_interval_rejected(self, tick_interval_s):
        """A NaN interval passed the ``<= 0`` check and then ticked forever
        without submitting an arrival."""
        server = make_server(make_network(per_timestep_head=True))
        with pytest.raises(ConfigurationError, match="tick_interval_s"):
            run_open_loop(server, [], tick_interval_s=tick_interval_s)


class TestImportCost:
    def test_importing_the_runtime_leaves_asyncio_out(self):
        """No serving path needs an event loop, so importing asyncio would
        only add peak memory and start-up time to every serving process."""
        code = "import sys, repro.runtime; print('asyncio' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
