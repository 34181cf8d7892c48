"""Streaming serving: continuous batching over resident per-session state.

The sharded runtime (:mod:`repro.runtime.pool`) serves *whole sequences*:
a request carries all of its tokens, and batching happens once, at
dispatch. Interactive workloads do not look like that — a session's
tokens arrive one step or a few steps at a time, and the latency budget
covers each arrival, not the sequence. This module adds the online shape:

* a :class:`SessionTable` keeps each live session's per-layer ``(h, c)``
  recurrent state resident between arrivals (plus the trailing top-layer
  window a pooled head reads), with LRU capacity eviction and TTL
  idle-sweep;
* a bounded admission queue sheds overload deterministically with
  :class:`~repro.errors.BackpressureError` — the same contract as the
  sharded runtime's dispatch queue;
* a tick-driven **continuous batcher**: each :meth:`StreamingServer.tick`
  scans the admission queue FIFO, gathers up to ``max_batch`` compatible
  chunks — same server means same weights fingerprint / precision /
  schedule key already, so within a tick compatibility reduces to equal
  chunk length, at most one chunk per session — stacks the owning
  sessions' states into one ``(layers, B, H)`` block, runs one
  :meth:`~repro.core.executor.LSTMExecutor.run_stream` step through the
  compiled :class:`~repro.core.program.ProgramCache` path, and scatters
  the updated states back.

**Bit-identity contract.** At fp64, a session served in any chunking
under any batch composition produces logits bit-identical to running its
full sequence through the frozen
:class:`~repro.core.reference.ReferenceExecutor`. Three properties carry
it: recurrent products are per-row GEMVs (batch-composition-invariant),
input projections and per-timestep heads are per-row lifts
(sequence-length/chunking-invariant; see
:func:`repro.core.executor._row_proj`), and the pooled head reads a
contiguous trailing window whose per-column mean reduction is
shape-independent. Structural modes (INTER / COMBINED) plan from
full-sequence relevance, which chunked arrivals never have, so the server
rejects them at construction.

Observability: every tick emits one ``repro.obs/run/v1``
:class:`~repro.obs.record.RunRecord` (batch = sessions in the tick,
seq_length = the tick's chunk length) with a ``queue_wait_s`` timing key
attributing how long the tick's chunks sat queued;
:meth:`StreamingServer.merged_record` folds a serving window's ticks into
one schema-identical record via :func:`repro.obs.merge.merge_run_records`
(``allow_varying_seq_length`` — ticks legitimately differ in chunk
length).

The synchronous engine is deterministic under an injected clock — the
tests and the open-loop bench drive it on virtual time.
:class:`StreamingFrontDoor` is the asyncio face: ``await
door.request(session_id, tokens)`` admits a chunk and resolves when the
tick loop completes it.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.executor import ExecutionConfig, LSTMExecutor
from repro.core.program import ProgramCache
from repro.errors import BackpressureError, ConfigurationError, ShapeError
from repro.nn.network import LSTMNetwork
from repro.obs.merge import merge_run_records
from repro.obs.record import RunRecord
from repro.obs.recorder import Recorder


@dataclass
class StreamResult:
    """Resolved outcome of one :meth:`StreamingServer.submit`.

    Attributes:
        session_id: The owning session.
        logits: Per-timestep heads: ``(n_tokens, C)`` — one row per
            submitted token. Pooled heads: ``(C,)`` — the readout after
            the submission's last token (pooled over the trailing
            ``head_pool`` top-layer states the session has seen so far).
        n_tokens: Tokens covered by the submission.
        submitted_at: Clock time of admission.
        completed_at: Clock time of the tick that finished the last chunk.
    """

    session_id: str
    logits: np.ndarray
    n_tokens: int
    submitted_at: float
    completed_at: float

    @property
    def latency_s(self) -> float:
        """Admission-to-completion latency."""
        return self.completed_at - self.submitted_at


class StreamTicket:
    """Pending handle for one submission (possibly several chunks)."""

    __slots__ = (
        "session_id",
        "submitted_at",
        "result",
        "_parts",
        "_remaining",
        "_n_tokens",
        "_callback",
    )

    def __init__(
        self, session_id: str, submitted_at: float, n_chunks: int, n_tokens: int
    ) -> None:
        self.session_id = session_id
        self.submitted_at = submitted_at
        self.result: StreamResult | None = None
        self._parts: list[tuple[int, np.ndarray]] = []
        self._remaining = n_chunks
        self._n_tokens = n_tokens
        self._callback: Callable[[StreamResult], None] | None = None

    @property
    def done(self) -> bool:
        """Whether every chunk of the submission has been served."""
        return self.result is not None

    def _complete_chunk(
        self, logits: np.ndarray, per_timestep: bool, now: float, chunk_index: int
    ) -> StreamResult | None:
        self._parts.append((chunk_index, logits))
        self._remaining -= 1
        if self._remaining > 0:
            return None
        # Merge in submission order by explicit chunk index: the pooled
        # head must read the *last* chunk's logits and per-timestep heads
        # must concatenate chronologically, even if a scheduler ever
        # completes chunks out of order.
        parts = [part for _, part in sorted(self._parts, key=lambda item: item[0])]
        merged = np.concatenate(parts, axis=0) if per_timestep else parts[-1]
        self.result = StreamResult(
            session_id=self.session_id,
            logits=merged,
            n_tokens=self._n_tokens,
            submitted_at=self.submitted_at,
            completed_at=now,
        )
        if self._callback is not None:
            self._callback(self.result)
        return self.result


@dataclass
class _Chunk:
    """One queued unit of work: a contiguous token slice of one session."""

    session_id: str
    tokens: np.ndarray  # 1-D, 1 <= len <= chunk_len
    enqueued_at: float
    ticket: StreamTicket
    chunk_index: int  # position within the owning submission


class _Session:
    """Resident state of one live session."""

    __slots__ = ("h", "c", "ring", "ring_count", "steps", "last_active", "pending")

    def __init__(self, num_layers: int, hidden: int, head_pool: int) -> None:
        self.h = np.zeros((num_layers, hidden))
        self.c = np.zeros((num_layers, hidden))
        #: Chronological trailing window of top-layer hidden states, for
        #: pooled readout; only the last ``ring_count`` rows are live.
        self.ring = np.zeros((head_pool, hidden))
        self.ring_count = 0
        self.steps = 0
        self.last_active = 0.0
        self.pending = 0  # queued chunks not yet served


@dataclass
class TickReport:
    """Outcome of one batcher tick."""

    batch: int
    chunk_len: int
    exec_wall_s: float = 0.0
    queue_wait_s: float = 0.0
    completed: list[StreamResult] = field(default_factory=list)
    ttl_evictions: int = 0


@dataclass
class StreamingStats:
    """Aggregate serving-window counters."""

    ticks: int = 0
    chunks_served: int = 0
    tokens_served: int = 0
    occupancy_sum: int = 0
    max_occupancy: int = 0
    shed_chunks: int = 0
    lru_evictions: int = 0
    ttl_evictions: int = 0

    def occupancy_mean(self, max_batch: int) -> float:
        """Mean tick batch occupancy as a fraction of ``max_batch``."""
        if self.ticks == 0:
            return 0.0
        return self.occupancy_sum / (self.ticks * max_batch)

    def as_dict(self, max_batch: int) -> dict[str, float]:
        """Flat dict form for bench reports."""
        return {
            "ticks": self.ticks,
            "chunks_served": self.chunks_served,
            "tokens_served": self.tokens_served,
            "occupancy_mean": self.occupancy_mean(max_batch),
            "max_occupancy": self.max_occupancy,
            "shed_chunks": self.shed_chunks,
            "lru_evictions": self.lru_evictions,
            "ttl_evictions": self.ttl_evictions,
        }


class SessionTable:
    """LRU/TTL table of resident sessions.

    Capacity eviction only considers *idle* sessions (no queued chunks) —
    a session with in-flight work is pinned, and a full table of pinned
    sessions sheds the new admission with
    :class:`~repro.errors.BackpressureError` instead of corrupting live
    state. An evicted session that returns is re-admitted fresh (state
    zeroed), exactly like a new session.
    """

    def __init__(
        self,
        num_layers: int,
        hidden: int,
        head_pool: int,
        max_sessions: int,
        ttl_s: float,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(f"max_sessions must be >= 1, got {max_sessions}")
        if ttl_s <= 0:
            raise ConfigurationError(f"ttl_s must be positive, got {ttl_s}")
        self._num_layers = num_layers
        self._hidden = hidden
        self._head_pool = head_pool
        self.max_sessions = max_sessions
        self.ttl_s = ttl_s
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self.lru_evictions = 0
        self.ttl_evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def get_or_admit(self, session_id: str, now: float) -> _Session:
        """Return the live session, admitting (and LRU-evicting) as needed."""
        session = self._sessions.get(session_id)
        if session is not None:
            self._sessions.move_to_end(session_id)
            session.last_active = now
            return session
        if len(self._sessions) >= self.max_sessions:
            self._evict_lru()
        session = _Session(self._num_layers, self._hidden, self._head_pool)
        session.last_active = now
        self._sessions[session_id] = session
        return session

    def _evict_lru(self) -> None:
        for sid, session in self._sessions.items():  # oldest first
            if session.pending == 0:
                del self._sessions[sid]
                self.lru_evictions += 1
                return
        raise BackpressureError(
            f"session table full ({self.max_sessions} sessions, all with "
            "in-flight work); retry after the queue drains"
        )

    def sweep_ttl(self, now: float) -> int:
        """Evict idle sessions not touched within ``ttl_s``; returns count.

        The table is in last-active order (:meth:`get_or_admit` / :meth:`touch`
        move a session to the end), so the walk starts at the oldest session,
        passes over pinned ones and stops at the first unexpired one: a tick
        pays for what it evicts, not for every resident session. ``now``
        values passed slightly out of order delay an eviction by that skew.
        """
        expired = []
        for sid, session in self._sessions.items():  # oldest first
            if session.pending:
                continue
            if now - session.last_active <= self.ttl_s:
                break
            expired.append(sid)
        for sid in expired:
            del self._sessions[sid]
        self.ttl_evictions += len(expired)
        return len(expired)

    def touch(self, session_id: str, now: float) -> None:
        """Mark a session recently used (after a tick served it)."""
        session = self._sessions.get(session_id)
        if session is not None:
            self._sessions.move_to_end(session_id)
            session.last_active = now


class StreamingServer:
    """Tick-driven continuous batcher over one network + one scheme.

    Synchronous, deterministic engine: :meth:`submit` admits work,
    :meth:`tick` serves one batched step. All time enters through the
    ``now`` arguments (or the injected ``clock``), so tests and the
    open-loop bench replay identical histories. The asyncio face is
    :class:`StreamingFrontDoor`.

    Args:
        network: Model to serve.
        config: Execution scheme. Must not activate the inter level —
            INTER / COMBINED plan from full-sequence relevance, which a
            streamed session never has (raises
            :class:`~repro.errors.ConfigurationError`).
        max_batch: Tick batch capacity (sessions per step).
        chunk_len: Maximum tokens served per session per tick; longer
            submissions split into consecutive chunks.
        queue_limit: Bound on queued chunks; admission beyond it sheds
            with :class:`~repro.errors.BackpressureError`.
        max_sessions: Session-table capacity (LRU eviction of idle
            sessions beyond it).
        session_ttl_s: Idle age beyond which the per-tick sweep evicts a
            session.
        clock: Time source used when a ``now`` argument is omitted.
        recorder: Optional :class:`~repro.obs.recorder.Recorder`; when
            enabled, every tick appends one run record.
        program_cache: Optional shared compiled-program cache. When
            omitted the server creates one sized to every shape it can
            emit (``max_batch x chunk_len x layers`` per dispatch slot).
    """

    def __init__(
        self,
        network: LSTMNetwork,
        config: ExecutionConfig,
        max_batch: int = 8,
        chunk_len: int = 4,
        queue_limit: int = 64,
        max_sessions: int = 256,
        session_ttl_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        recorder: Recorder | None = None,
        program_cache: ProgramCache | None = None,
    ) -> None:
        if config.inter_active:
            raise ConfigurationError(
                f"streaming does not support mode {config.mode.value!r}: the "
                "inter level plans from full-sequence relevance, which "
                "chunked arrivals never have"
            )
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if chunk_len < 1:
            raise ConfigurationError(f"chunk_len must be >= 1, got {chunk_len}")
        if queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {queue_limit}")
        self.network = network
        self.config = config
        self.max_batch = max_batch
        self.chunk_len = chunk_len
        self.queue_limit = queue_limit
        self.clock = clock
        self.recorder = recorder
        if program_cache is None:
            # Every (batch, chunk length, layer) the batcher can emit, per
            # dispatch slot: programs lease their workspace from the cache's
            # one arena per slot (sized by the largest tick shape seen), so
            # an entry is kilobytes of views, the whole lattice is cheap to
            # hold and a warm server never recompiles.
            program_cache = ProgramCache(
                max_entries=max_batch * chunk_len * network.num_layers * config.threads
            )
        self.executor = LSTMExecutor(network, config, program_cache=program_cache)
        self.sessions = SessionTable(
            num_layers=network.num_layers,
            hidden=network.config.hidden_size,
            head_pool=network.head_pool,
            max_sessions=max_sessions,
            ttl_s=session_ttl_s,
        )
        self._queue: "deque[_Chunk]" = deque()
        self.stats = StreamingStats()
        self._tick_records: list[RunRecord] = []
        self._record_config = {
            "backend": self.executor.backend,
            "alpha_inter": config.alpha_inter,
            "alpha_intra": config.alpha_intra,
            "mts": config.mts,
            "drs_style": config.drs_style,
            "precision": config.precision.tag,
            "threads": config.threads,
            "stream_chunk_len": chunk_len,
            "stream_max_batch": max_batch,
        }
        self._stream_key: tuple | None = None

    # --------------------------------------------------------------- compat

    @property
    def stream_key(self) -> tuple:
        """Compatibility key of this server's batches.

        Sessions are batchable when their (weights fingerprint, precision,
        schedule key) agree — one server serves one network under one
        scheme, so all of its sessions share this key, and within a tick
        compatibility reduces to equal chunk length. Non-inter schemes'
        scheduler signature is purely length-based
        (:meth:`repro.runtime.scheduler.FleetScheduler.signature`), which
        is exactly the per-tick chunk-length grouping below.
        """
        if self._stream_key is None:
            weights_fp = tuple(
                self.executor._weights_fingerprint(i)
                for i in range(self.network.num_layers)
            )
            self._stream_key = (
                weights_fp,
                self.config.precision.tag,
                self.config.mode.value,
                self.config.alpha_intra,
            )
        return self._stream_key

    # ------------------------------------------------------------ admission

    def submit(
        self, session_id: str, tokens: np.ndarray, now: float | None = None
    ) -> StreamTicket:
        """Admit one submission (a single step or a short run of tokens).

        Splits the tokens into chunks of at most ``chunk_len`` and queues
        them FIFO; the ticket resolves when the last chunk is served.

        Raises:
            ShapeError: The tokens are not a non-empty 1-D array of ids
                inside the vocabulary; nothing is queued.
            BackpressureError: The admission queue cannot hold the
                submission's chunks, or the session table is full of
                busy sessions. Nothing is partially enqueued — shedding
                is all-or-nothing per submission, so replaying the same
                submit/tick history sheds the same requests.
        """
        if now is None:
            now = self.clock()
        # Admission is where a bad id is one session's error; inside a
        # tick it would fail the chunk of every co-batched session.
        tokens = self.network.check_tokens(tokens)
        if tokens.ndim != 1 or tokens.shape[0] == 0:
            raise ShapeError(
                f"tokens must be a non-empty 1-D array, got shape {tokens.shape}"
            )
        n_chunks = -(-tokens.shape[0] // self.chunk_len)
        if len(self._queue) + n_chunks > self.queue_limit:
            self.stats.shed_chunks += n_chunks
            raise BackpressureError(
                f"admission queue full ({len(self._queue)}/{self.queue_limit} "
                f"chunks queued, submission needs {n_chunks}); retry later"
            )
        try:
            session = self.sessions.get_or_admit(session_id, now)
        except BackpressureError:
            # A session-table shed drops the same n_chunks as a queue-full
            # shed; count it identically so stats.shed_chunks covers every
            # shed path.
            self.stats.shed_chunks += n_chunks
            raise
        ticket = StreamTicket(session_id, now, n_chunks, int(tokens.shape[0]))
        for index, start in enumerate(range(0, tokens.shape[0], self.chunk_len)):
            chunk = _Chunk(
                session_id=session_id,
                tokens=tokens[start : start + self.chunk_len],
                enqueued_at=now,
                ticket=ticket,
                chunk_index=index,
            )
            self._queue.append(chunk)
        session.pending += n_chunks
        return ticket

    @property
    def queue_depth(self) -> int:
        """Chunks currently queued."""
        return len(self._queue)

    # ----------------------------------------------------------------- tick

    def tick(self, now: float | None = None) -> TickReport:
        """Serve one continuous-batching step.

        FIFO-scans the queue for up to ``max_batch`` chunks of equal
        length (the head chunk sets the length; at most one chunk per
        session, and a session whose head chunk does not fit blocks its
        later chunks to preserve order), stacks the owning sessions'
        resident states, runs one compiled streamed step, scatters state
        back, and resolves finished tickets. Also TTL-sweeps the session
        table. An empty queue still sweeps and returns a zero-batch
        report.
        """
        if now is None:
            now = self.clock()
        ttl_evicted = self.sessions.sweep_ttl(now)
        self.stats.ttl_evictions = self.sessions.ttl_evictions
        if not self._queue:
            return TickReport(batch=0, chunk_len=0, ttl_evictions=ttl_evicted)

        picked: list[_Chunk] = []
        seen: set[str] = set()
        length = int(self._queue[0].tokens.shape[0])
        for chunk in self._queue:
            if chunk.session_id in seen:
                continue
            seen.add(chunk.session_id)
            if int(chunk.tokens.shape[0]) == length:
                picked.append(chunk)
                if len(picked) == self.max_batch:
                    break
        picked_ids = set(map(id, picked))
        self._queue = deque(c for c in self._queue if id(c) not in picked_ids)

        batch = len(picked)
        tokens = np.stack([c.tokens for c in picked])
        h = np.empty((self.network.num_layers, batch, self.network.config.hidden_size))
        c_state = np.empty_like(h)
        members = []
        for j, chunk in enumerate(picked):
            session = self.sessions._sessions[chunk.session_id]
            members.append(session)
            h[:, j] = session.h
            c_state[:, j] = session.c

        record = self.recorder is not None and self.recorder.enabled
        program_before = (
            self.executor.program_cache.stats.as_dict() if record else None
        )
        exec_start = time.perf_counter()
        top = self.executor.run_stream(tokens, h, c_state)  # (B, L, H)
        exec_wall = time.perf_counter() - exec_start

        per_ts = self.network.per_timestep_head
        if per_ts:
            # Same per-row head lift as the batched executor: streamed
            # logits bits must not depend on L or B.
            logits_all = self.network.head_logits(top[..., None, :])[..., 0, :]
        report = TickReport(
            batch=batch, chunk_len=length, exec_wall_s=exec_wall,
            ttl_evictions=ttl_evicted,
        )
        for j, chunk in enumerate(picked):
            session = members[j]
            session.h[:] = h[:, j]
            session.c[:] = c_state[:, j]
            self._update_ring(session, top[j])
            session.steps += length
            session.pending -= 1
            self.sessions.touch(chunk.session_id, now)
            report.queue_wait_s += now - chunk.enqueued_at
            if per_ts:
                logits = logits_all[j]
            else:
                logits = self._pooled_logits(session)
            result = chunk.ticket._complete_chunk(logits, per_ts, now, chunk.chunk_index)
            if result is not None:
                report.completed.append(result)

        self.stats.ticks += 1
        self.stats.chunks_served += batch
        self.stats.tokens_served += batch * length
        self.stats.occupancy_sum += batch
        self.stats.max_occupancy = max(self.stats.max_occupancy, batch)
        if record:
            self._record_tick(report, program_before)
        return report

    def drain(self, now: float | None = None) -> list[TickReport]:
        """Tick until the queue is empty; returns the tick reports."""
        reports = []
        while self._queue:
            reports.append(self.tick(now=now))
        return reports

    def _update_ring(self, session: _Session, top_chunk: np.ndarray) -> None:
        """Append a chunk's top-layer states to the pooled-readout window."""
        pool = session.ring.shape[0]
        length = top_chunk.shape[0]
        if length >= pool:
            session.ring[:] = top_chunk[-pool:]
        else:
            session.ring[:-length] = session.ring[length:]
            session.ring[-length:] = top_chunk
        session.ring_count = min(session.ring_count + length, pool)

    def _pooled_logits(self, session: _Session) -> np.ndarray:
        """Sequence-final readout from the resident trailing window.

        The window slice is contiguous and chronological, so
        ``pool_top``'s per-column mean reduces the same values in the
        same order as over a full ``(B, T, H)`` run — identical bits —
        and the head takes the usual per-row GEMV lift.
        """
        window = session.ring[session.ring.shape[0] - session.ring_count :]
        pooled = self.network.pool_top(window[None])  # (1, H)
        return self.network.head_logits(pooled[:, None, :])[0, 0]

    # -------------------------------------------------------------- records

    def _record_tick(self, report: TickReport, program_before: dict | None) -> None:
        builder = self.recorder.start_run(
            label="stream-tick",
            mode=self.config.mode.value,
            spec=self.config.spec.name,
            batch=report.batch,
            seq_length=report.chunk_len,
            config=self._record_config,
        )
        if builder is None:
            return
        if program_before is not None:
            builder.observe_program_cache_delta(
                program_before, self.executor.program_cache.stats.as_dict()
            )
        builder.set_timing(
            wall_s=report.exec_wall_s,
            exec_wall_s=report.exec_wall_s,
            queue_wait_s=report.queue_wait_s,
            ticks=1.0,
        )
        self._tick_records.append(builder.finish())

    def merged_record(self, label: str = "stream") -> RunRecord | None:
        """One serving-window record folding every tick recorded so far.

        Schema-identical to a single run record (``repro.obs/run/v1``):
        ``batch`` totals the session-chunks served, ``seq_length`` is the
        largest chunk length, timing keys — including ``queue_wait_s``
        and the per-tick ``ticks`` counter — sum across ticks. Returns
        ``None`` when no tick was recorded.
        """
        if not self._tick_records:
            return None
        return merge_run_records(
            self._tick_records,
            label=label,
            allow_varying_seq_length=True,
        )


class StreamingFrontDoor:
    """Asyncio front door over a :class:`StreamingServer`.

    Runs the tick loop as a background task on the event loop and exposes
    ``await request(...)``: admission errors surface immediately
    (:class:`~repro.errors.BackpressureError` propagates to the caller),
    completions resolve when the tick that serves the last chunk runs.

    Usage::

        async with StreamingFrontDoor(server, tick_interval_s=0.002) as door:
            result = await door.request("session-a", tokens)
    """

    def __init__(self, server: StreamingServer, tick_interval_s: float = 0.002) -> None:
        if tick_interval_s <= 0:
            raise ConfigurationError(
                f"tick_interval_s must be positive, got {tick_interval_s}"
            )
        self.server = server
        self.tick_interval_s = tick_interval_s
        self._task: asyncio.Task | None = None
        self._stopping = False

    async def __aenter__(self) -> "StreamingFrontDoor":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def start(self) -> None:
        """Start the background tick loop (idempotent)."""
        if self._task is None or self._task.done():
            self._stopping = False
            self._task = asyncio.get_running_loop().create_task(self._tick_loop())

    async def stop(self) -> None:
        """Drain the queue, then stop the tick loop."""
        self._stopping = True
        if self._task is not None:
            await self._task
            self._task = None

    async def _tick_loop(self) -> None:
        server = self.server
        while True:
            server.tick()
            if self._stopping and server.queue_depth == 0:
                return
            await asyncio.sleep(self.tick_interval_s)

    async def request(self, session_id: str, tokens: np.ndarray) -> StreamResult:
        """Admit a chunk for ``session_id`` and await its result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future[StreamResult] = loop.create_future()
        ticket = self.server.submit(session_id, tokens)

        def resolve(result: StreamResult) -> None:
            if not future.done():
                future.set_result(result)

        if ticket.done:  # zero-latency path cannot happen today, but be safe
            return ticket.result
        ticket._callback = resolve
        return await future
