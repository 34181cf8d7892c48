"""Streaming serving: continuous batching over resident per-session state.

The fleet (:mod:`repro.runtime.fleet`) serves *whole sequences*: a
request carries all of its tokens, and a tick batches requests of one
length. Interactive workloads do not look like that — a session's
tokens arrive one step or a few steps at a time, and the latency budget
covers each arrival, not the sequence. :class:`StreamingServer` is the
online batch-forming policy over the serving core
(:class:`~repro.runtime.serving.ServingCore`, which owns admission,
shedding, tickets, tick timing, records and ``drain``):

* a :class:`SessionTable` keeps each live session's per-layer ``(h, c)``
  recurrent state resident between arrivals (plus the trailing top-layer
  window a pooled head reads), with LRU capacity eviction and TTL
  idle-sweep;
* submissions split into chunks of at most ``chunk_len`` tokens, and each
  tick takes up to ``max_batch`` chunks by the core's FIFO rule with at
  most one chunk per session — one server is one network under one
  scheme, so compatibility within a tick reduces to equal chunk length —
  stacks the owning sessions' states into one ``(layers, B, H)`` block,
  runs one :meth:`~repro.core.executor.LSTMExecutor.run_stream` step
  through the compiled :class:`~repro.core.program.ProgramCache` path, and
  scatters the updated states back.

**Bit-identity contract.** At fp64 on the numpy backend, a session
served in any chunking under any batch composition produces logits
bit-identical to running its full sequence through the frozen
:class:`~repro.core.reference.ReferenceExecutor`. Three properties carry
it: recurrent products are per-row GEMVs (batch-composition-invariant),
input projections and per-timestep heads are per-row lifts
(sequence-length/chunking-invariant; see
:func:`repro.core.executor._row_proj`), and the pooled head reads a
contiguous trailing window whose per-column mean reduction is
shape-independent. On the cgen backend a session is exact against
*itself* — the same bits in any chunking and any tick composition, and
equal to cgen ``run_batch`` on the whole sequence, because the kernel
sums every dot in one source-fixed order (:mod:`repro.core.cgen`) — and
graded against the reference. Structural modes (INTER / COMBINED) plan
from full-sequence relevance, which chunked arrivals never have, so the
server rejects them at construction.

Every tick records one ``repro.obs/run/v1`` run labelled ``stream-tick``
(batch = sessions in the tick, seq_length = the tick's chunk length);
:meth:`~repro.runtime.serving.ServingCore.merged_record` folds a window
into one record labelled ``stream``.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from typing import Callable

import numpy as np

from repro.core.executor import ExecutionConfig, LSTMExecutor
from repro.core.program import ProgramCache
from repro.errors import BackpressureError, ConfigurationError
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.runtime.serving import (
    ServingCore,
    ServingStats,
    ServingTicket,
    take_batch,
)


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
        if not (math.isfinite(ttl_s) and ttl_s > 0):
            raise ConfigurationError(f"ttl_s must be finite and positive, got {ttl_s}")
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


class StreamingServer(ServingCore):
    """Tick-driven continuous batcher over one network + one scheme.

    Synchronous, deterministic engine: :meth:`submit` admits work,
    :meth:`tick` serves one batched step. All time enters through the
    ``now`` arguments (or the injected ``clock``), so tests and the
    open-loop bench replay identical histories.

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

    record_label = "stream"

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
        super().__init__(clock, recorder)
        self.network = network
        self.config = config
        self.max_batch = max_batch
        self.chunk_len = chunk_len
        self.queue_limit = queue_limit
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
        self.program_cache = self.executor.program_cache
        self.plan_cache = self.executor.plan_cache
        self.sessions = SessionTable(
            num_layers=network.num_layers,
            hidden=network.config.hidden_size,
            head_pool=network.head_pool,
            max_sessions=max_sessions,
            ttl_s=session_ttl_s,
        )
        self._queue: deque = deque()
        self.stats = ServingStats()
        self._record_config = {
            **self.executor.record_config(),
            "stream_chunk_len": chunk_len,
            "stream_max_batch": max_batch,
        }

    # ------------------------------------------------------------ admission

    def submit(
        self, session_id: str, tokens: np.ndarray, now: float | None = None
    ) -> ServingTicket:
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
        return self._admit(
            self._queue, self.queue_limit, self.stats, self.network,
            session_id, tokens, now, part_len=self.chunk_len,
        )

    def submit_arrival(self, arrival, now: float) -> ServingTicket:
        """Admit one :class:`~repro.runtime.loadgen.Arrival` (``run_open_loop``'s door)."""
        return self.submit(arrival.session_id, arrival.tokens, now=now)

    def _reserve(self, session_id: str, n_parts: int, now: float) -> None:
        self.sessions.get_or_admit(session_id, now).pending += n_parts
        self.stats.lru_evictions = self.sessions.lru_evictions

    @property
    def queue_depth(self) -> int:
        """Chunks currently queued."""
        return len(self._queue)

    # ----------------------------------------------------------------- tick

    def _form_batch(self, report, now):
        # An idle tick still sweeps the session table.
        report.ttl_evictions = self.sessions.sweep_ttl(now)
        self.stats.ttl_evictions = self.sessions.ttl_evictions
        return take_batch(self._queue, self.max_batch, one_per_session=True)

    def _run(self, report, picked, tokens):
        members = [self.sessions._sessions[work.session_id] for work in picked]
        h = np.stack([session.h for session in members], axis=1)  # (layers, B, H)
        c = np.stack([session.c for session in members], axis=1)
        return self.executor.run_stream(tokens, h, c), h, c, members

    def _rows(self, report, picked, out, now):
        top, h, c, members = out  # top: (B, L, H)
        per_ts = self.network.per_timestep_head
        if per_ts:
            # Same per-row head lift as the batched executor: streamed
            # logits bits must not depend on L or B.
            logits_all = self.network.head_logits(top[..., None, :])[..., 0, :]
        rows = []
        for j, (work, session) in enumerate(zip(picked, members)):
            session.h[:] = h[:, j]
            session.c[:] = c[:, j]
            self._update_ring(session, top[j])
            session.steps += report.length
            session.pending -= 1
            self.sessions.touch(work.session_id, now)
            rows.append(logits_all[j] if per_ts else self._pooled_logits(session))
        return rows

    def _stats(self, report) -> ServingStats:
        return self.stats

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

    def _record_meta(self, report):
        return "stream-tick", self.config, self._record_config
