"""Contract suite of the serving core, run under all three batch-forming policies.

:class:`~repro.runtime.serving.ServingCore` owns admission, tickets, the
tick's timing and accounting, ``drain``, records and ``run_open_loop``;
:class:`~repro.runtime.StreamingServer`, :class:`~repro.runtime.ZooServer`
and :class:`~repro.runtime.FleetServer` (in-process, ``workers=0``) only
decide which queued work forms a tick's batch and how to run it. Every
case below is therefore one promise all three keep alike: all-or-nothing
shedding, its counter and its deterministic order, token ids checked at
the door, queue-wait attribution and completion at the end of the serving
tick, ``drain`` emptying the queue, schema-valid tick and merged records,
and a deterministic open-loop replay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import pytest

from repro.config import LSTMConfig
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.errors import BackpressureError, ShapeError
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.obs.schema import validate_run_dict
from repro.runtime import (
    FleetServer,
    LoadSpec,
    ServingStats,
    StreamingServer,
    TenantSpec,
    ZooServer,
    generate_arrivals,
    generate_tenant_arrivals,
    run_open_loop,
)

VOCAB = 29
MAX_BATCH = 4
CHUNK_LEN = 4


@pytest.fixture(scope="module")
def network() -> LSTMNetwork:
    config = LSTMConfig(hidden_size=12, num_layers=2, seq_length=16, input_size=12)
    return LSTMNetwork(config, VOCAB, 3, seed=5, per_timestep_head=True)


@dataclass
class Policy:
    """One server behind the uniform ``submit(session, tokens, now=)`` face."""

    server: StreamingServer | ZooServer | FleetServer
    submit: Callable
    stats: ServingStats
    #: Queued parts one submission of ``n`` tokens takes.
    parts: Callable[[int], int]
    arrivals: Callable[[LoadSpec], list]
    label: str
    tick_label: str


def streaming(network, queue_limit=1000, recorder=None) -> Policy:
    server = StreamingServer(
        network, ExecutionConfig(mode=ExecutionMode.BASELINE), max_batch=MAX_BATCH,
        chunk_len=CHUNK_LEN, queue_limit=queue_limit, session_ttl_s=1e9,
        clock=lambda: 0.0, recorder=recorder,
    )
    return Policy(
        server, server.submit, server.stats, lambda n: -(-n // CHUNK_LEN),
        lambda spec: generate_arrivals(spec, VOCAB), "stream", "stream-tick",
    )


def zoo(network, queue_limit=1000, recorder=None) -> Policy:
    server = ZooServer(recorder=recorder, clock=lambda: 0.0)
    server.add_tenant(
        TenantSpec(name="t", weight=MAX_BATCH, max_batch=MAX_BATCH, queue_limit=queue_limit),
        network,
    )
    return Policy(
        server, partial(server.submit, "t"), server.tenant_stats("t"), lambda n: 1,
        lambda spec: generate_tenant_arrivals(spec, {"t": 1.0}, {"t": VOCAB}), "zoo", "t",
    )


def fleet(network, queue_limit=1000, recorder=None) -> Policy:
    server = FleetServer(
        network, ExecutionConfig(mode=ExecutionMode.BASELINE), workers=0,
        max_batch=MAX_BATCH, queue_limit=queue_limit, clock=lambda: 0.0, recorder=recorder,
    )
    # One whole-sequence submission per session: a chunk covers the longest.
    return Policy(
        server, server.submit, server.stats, lambda n: 1,
        lambda spec: generate_arrivals(replace(spec, chunk_len=spec.session_len_max), VOCAB),
        "fleet", "fleet-tick",
    )


@pytest.fixture(params=[streaming, zoo, fleet], ids=["streaming", "zoo", "fleet"])
def make(request, network):
    """Policy factory; every server it made is closed at teardown."""
    made: list[Policy] = []

    def build(**kwargs) -> Policy:
        made.append(request.param(network, **kwargs))
        return made[-1]

    yield build
    for policy in made:
        policy.server.close()


def tokens(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, VOCAB, size=n)


class TestAdmission:
    def test_shedding_is_all_or_nothing_and_counted(self, make):
        p = make(queue_limit=4)
        need = p.parts(8)
        for i in range(4 - need + 1):  # leaves room for all but one part
            p.submit(f"f{i}", tokens(4, i), now=0.0)
        depth = p.server.queue_depth
        with pytest.raises(BackpressureError):
            p.submit("big", tokens(8), now=0.0)
        assert p.server.queue_depth == depth  # nothing partially queued
        assert p.stats.shed == need
        p.server.tick(now=0.0)
        p.submit("big", tokens(8), now=0.0)  # fits once a tick frees room
        assert p.stats.shed == need

    def test_queue_bound_sheds_deterministically(self, make):
        def history() -> list[int]:
            p = make(queue_limit=3)
            shed = []
            for i in range(8):
                try:
                    p.submit(f"s{i}", tokens(4, i), now=0.0)
                except BackpressureError:
                    shed.append(i)
            return shed

        assert history() == history() == [3, 4, 5, 6, 7]

    def test_bad_ids_are_refused_at_the_door(self, make):
        """Out-of-vocabulary, negative and float ids are one submission's
        ShapeError; the zoo used to queue them and raise out of tick(),
        leaving every co-batched ticket unresolved."""
        p = make()
        good = np.arange(4) % VOCAB
        ticket = p.submit("good", good, now=0.0)
        for bad in ([1, 2, 3, VOCAB], [1, -2, 3, 4], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ShapeError, match="vocabulary"):
                p.submit("bad", np.array(bad), now=0.0)
        assert p.server.queue_depth == 1 and p.stats.shed == 0
        report = p.server.tick(now=0.0)
        assert report.batch == 1 and ticket.done
        alone = make()
        expected = alone.submit("good", good, now=0.0)
        alone.server.tick(now=0.0)
        assert np.array_equal(ticket.result.logits, expected.result.logits)


class TestTick:
    def test_queue_wait_and_completion_at_the_end_of_the_tick(self, make):
        p = make()
        a = p.submit("a", tokens(4, 1), now=1.0)
        b = p.submit("b", tokens(4, 2), now=2.0)
        report = p.server.tick(now=5.0, service_model=lambda tick: 0.5)
        assert (report.batch, report.length) == (2, 4)
        assert report.queue_wait_s == pytest.approx((5.0 - 1.0) + (5.0 - 2.0))
        assert report.service_s == 0.5 and report.end_s == pytest.approx(5.5)
        assert a.result.completed_at == b.result.completed_at == report.end_s
        assert a.result.latency_s == pytest.approx(4.5)
        assert p.stats.ticks == 1 and p.stats.served == 2

    def test_idle_tick_costs_nothing(self, make):
        p = make()
        report = p.server.tick(now=3.0, service_model=lambda tick: 1.0)
        assert (report.batch, report.end_s, report.completed) == (0, 3.0, [])

    def test_a_tick_whose_run_raises_strands_nothing(self, make, monkeypatch):
        """The parts of a failed tick go back to the head of their queue:
        nothing is counted or resolved, and the next drain serves them as
        a clean server would, tick for tick and bit for bit."""
        lengths = [4, 8, 4, 3, 4]

        def submit_all(p):
            return [p.submit(f"s{i}", tokens(n, i), now=0.0) for i, n in enumerate(lengths)]

        clean = make()
        clean_tickets = submit_all(clean)
        clean_reports = clean.server.drain(now=0.0)

        p = make()
        tickets = submit_all(p)
        depth = p.server.queue_depth
        calls = []
        for name in ("run_batch", "run_stream"):
            original = getattr(LSTMExecutor, name)

            def failing_once(self, *args, _original=original, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    raise RuntimeError("executor failed")
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LSTMExecutor, name, failing_once)
        with pytest.raises(RuntimeError, match="executor failed"):
            p.server.tick(now=0.0)
        assert p.server.queue_depth == depth
        assert not any(ticket.done for ticket in tickets)
        assert p.stats.ticks == p.stats.served == 0
        reports = p.server.drain(now=0.0)
        assert [(r.batch, r.length) for r in reports] == [
            (r.batch, r.length) for r in clean_reports
        ]
        for ticket, expected in zip(tickets, clean_tickets):
            assert ticket.done
            assert np.array_equal(ticket.result.logits, expected.result.logits)

    def test_drain_empties_the_queue(self, make):
        p = make()
        lengths = [4, 8, 3, 4, 12, 1]
        tickets = [p.submit(f"s{i}", tokens(n, i), now=0.0) for i, n in enumerate(lengths)]
        reports = p.server.drain(now=0.0)
        assert p.server.queue_depth == 0
        assert all(ticket.done for ticket in tickets)
        assert sum(r.batch for r in reports) == sum(map(p.parts, lengths))
        assert p.server.drain(now=0.0) == []


class TestRecords:
    def test_tick_and_merged_records_validate(self, make):
        recorder = Recorder()
        p = make(recorder=recorder)
        for i in range(3):
            p.submit(f"s{i}", tokens(4, i), now=0.0)
        reports = p.server.drain(now=0.0)
        records = p.server.tick_records()
        assert len(records) == len(reports) == len(recorder.records)
        for record in records:
            data = record.to_dict()
            validate_run_dict(data)
            assert data["label"] == p.tick_label
            assert data["timing"]["ticks"] == 1.0
        data = p.server.merged_record().to_dict()
        validate_run_dict(data)
        assert data["label"] == p.label
        assert data["batch"] == 3
        assert data["timing"]["ticks"] == float(len(records))
        assert "queue_wait_s" in data["timing"]

    def test_no_recorder_no_record(self, make):
        p = make()
        p.submit("s", tokens(4), now=0.0)
        p.server.drain(now=0.0)
        assert p.server.merged_record() is None and p.server.tick_records() == []


class TestOpenLoop:
    def test_overload_replays_identically(self, make):
        spec = LoadSpec(
            duration_s=1.0, session_rate=40.0, seed=2, session_len_min=4, session_len_max=12
        )

        def run_once():
            p = make(queue_limit=6)
            report = run_open_loop(
                p.server, p.arrivals(spec), tick_interval_s=0.002,
                # A modeled 0.2 s tick serves at most 20 parts/s: overload.
                service_model=lambda tick: 0.2,
            )
            return report, p.stats.as_dict(MAX_BATCH)

        first, stats = run_once()
        second, stats_again = run_once()
        assert first.as_dict() == second.as_dict() and stats == stats_again
        assert first.shed_submissions > 0 and first.completed_submissions > 0
        assert first.completed_submissions + first.shed_submissions == first.offered_submissions
        assert first.completed_at_s == sorted(first.completed_at_s)
