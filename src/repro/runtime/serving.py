"""The serving core: one admission door and one tick engine under every policy.

Every serving engine — :class:`~repro.runtime.streaming.StreamingServer`
(continuous batching over resident session state),
:class:`~repro.runtime.tenancy.ZooServer` (weighted deficit round-robin
over per-tenant queues) and :class:`~repro.runtime.fleet.FleetServer`
(whole sequences FIFO by length, sharded across forked workers) — is a
*batch-forming policy* over :class:`ServingCore`. The core owns
everything that is not policy:

* **admission** — token ids checked at the door (a bad id is one
  submission's :class:`~repro.errors.ShapeError`, never a failed tick for
  every co-batched request), the submission split into queued parts, and
  all-or-nothing shedding against the queue bound with
  :class:`~repro.errors.BackpressureError`, counted in
  :attr:`ServingStats.shed`;
* **the tick** — the policy picks the batch (:func:`take_batch`'s FIFO rule:
  the head sets the length), the core times the policy's executor call,
  charges ``service_model(report)`` seconds (the measured wall without one),
  attributes queue wait, resolves :class:`ServingTicket` parts at the end of
  the tick, counts stats and emits one ``repro.obs/run/v1`` record;
* :meth:`ServingCore.drain`, :meth:`ServingCore.merged_record` and the
  ``close`` / context-manager lifecycle.

A policy supplies ``submit`` (its public admission signature),
``submit_arrival`` (:func:`~repro.runtime.loadgen.run_open_loop`'s door),
``queue_depth``, the
``program_cache`` / ``plan_cache`` its records observe (the plan cache may
be ``None``) and the ``_form_batch`` / ``_run`` / ``_rows`` / ``_stats`` /
``_record_meta`` hooks, plus ``_reserve`` or ``_after_tick`` when it
vets an admission or reacts to a served tick (the fleet, whose executors
record themselves in other processes, replaces ``_record_tick`` and
``_cache_stats`` instead of naming caches), and ``_requeue`` when its
parts do not live in one ``_queue``: a tick whose ``_run`` raises hands
its parts back through it, so no ticket is stranded. All time enters through
``now`` arguments (or the injected ``clock``), so
:func:`~repro.runtime.loadgen.run_open_loop` replays identical histories on
virtual time.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import BackpressureError, ShapeError
from repro.obs.merge import merge_run_records

if TYPE_CHECKING:
    from repro.core.executor import ExecutionConfig
    from repro.nn.network import LSTMNetwork
    from repro.obs.record import RunRecord
    from repro.obs.recorder import Recorder


@dataclass
class ServingResult:
    """Resolved outcome of one submission.

    Attributes:
        session_id: The owning session.
        logits: Per-timestep heads: ``(n_tokens, C)``, one row per submitted
            token. Pooled heads: ``(C,)``, the readout after the
            submission's last token.
        n_tokens: Tokens covered by the submission.
        submitted_at: Clock time of admission.
        completed_at: End of the serving tick that finished the last part:
            the tick's start plus its service cost.
        tenant: The serving tenant (zoo); ``None`` on a streaming server.
    """

    session_id: str
    logits: np.ndarray
    n_tokens: int
    submitted_at: float
    completed_at: float
    tenant: str | None = None

    @property
    def latency_s(self) -> float:
        """Admission-to-completion latency."""
        return self.completed_at - self.submitted_at

    @property
    def prediction(self) -> np.ndarray:
        """Argmax prediction: a scalar (pooled head) or ``(n_tokens,)``."""
        return np.argmax(self.logits, axis=-1)


class ServingTicket:
    """Pending handle for one submission, resolved when its last part is served."""

    __slots__ = (
        "session_id",
        "tenant",
        "submitted_at",
        "result",
        "_per_timestep",
        "_parts",
        "_remaining",
        "_n_tokens",
    )

    def __init__(
        self,
        session_id: str,
        submitted_at: float,
        n_parts: int,
        n_tokens: int,
        per_timestep: bool,
        tenant: str | None = None,
    ) -> None:
        self.session_id = session_id
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.result: ServingResult | None = None
        self._per_timestep = per_timestep
        self._parts: list[tuple[int, np.ndarray]] = []
        self._remaining = n_parts
        self._n_tokens = n_tokens

    @property
    def done(self) -> bool:
        """Whether every part of the submission has been served."""
        return self.result is not None

    def _complete(self, logits: np.ndarray, now: float, index: int) -> ServingResult | None:
        self._parts.append((index, logits))
        self._remaining -= 1
        if self._remaining > 0:
            return None
        # Merge in submission order by part index: a pooled head must read
        # the *last* part's logits and per-timestep heads concatenate
        # chronologically, whatever order a policy completed them in.
        parts = [part for _, part in sorted(self._parts, key=lambda item: item[0])]
        self.result = ServingResult(
            session_id=self.session_id,
            logits=np.concatenate(parts, axis=0) if self._per_timestep else parts[-1],
            n_tokens=self._n_tokens,
            submitted_at=self.submitted_at,
            completed_at=now,
            tenant=self.tenant,
        )
        return self.result


@dataclass
class _Work:
    """One queued part: a contiguous token slice of one submission."""

    session_id: str
    tokens: np.ndarray  # 1-D
    enqueued_at: float
    ticket: ServingTicket
    index: int  # position within the owning submission


@dataclass
class TickReport:
    """Outcome of one serving tick; an empty tick has ``batch == 0``.

    ``tenant`` / ``point`` / ``moved_to`` are filled by the zoo policy (the
    tenant served, the execution config it served at, and the controller's
    move after the tick); ``ttl_evictions`` by the streaming policy.
    """

    batch: int = 0
    length: int = 0
    exec_wall_s: float = 0.0
    service_s: float = 0.0
    end_s: float = 0.0
    queue_wait_s: float = 0.0
    completed: list[ServingResult] = field(default_factory=list)
    tenant: str | None = None
    point: ExecutionConfig | None = None
    moved_to: ExecutionConfig | None = None
    ttl_evictions: int = 0


@dataclass
class ServingStats:
    """Serving-window counters of one queue owner (a streaming server, a
    zoo tenant). A unit is one queued part: a streaming chunk, a zoo
    request."""

    ticks: int = 0
    served: int = 0
    tokens_served: int = 0
    max_occupancy: int = 0
    shed: int = 0
    lru_evictions: int = 0
    ttl_evictions: int = 0

    def occupancy_mean(self, max_batch: int) -> float:
        """Mean tick batch occupancy as a fraction of ``max_batch``."""
        if self.ticks == 0:
            return 0.0
        return self.served / (self.ticks * max_batch)

    def as_dict(self, max_batch: int) -> dict[str, float]:
        """Flat dict form for bench reports."""
        return {
            "ticks": self.ticks,
            "chunks_served": self.served,
            "tokens_served": self.tokens_served,
            "occupancy_mean": self.occupancy_mean(max_batch),
            "max_occupancy": self.max_occupancy,
            "shed_chunks": self.shed,
            "lru_evictions": self.lru_evictions,
            "ttl_evictions": self.ttl_evictions,
        }


def take_batch(queue: deque, limit: int, one_per_session: bool = False) -> list:
    """Remove and return one tick's batch from a FIFO ``queue``.

    The head item sets the token length; the scan takes up to ``limit``
    items of that length in queue order, so a later equal-length item may
    pass a shorter one while order within a length class holds. With
    ``one_per_session`` a session's first queued item blocks its later ones
    (fitting or not), which keeps each session's parts in order. Returns
    ``[]`` for an empty queue.
    """
    if not queue:
        return []
    length = len(queue[0].tokens)
    picked = []
    seen: set[str] = set()
    for item in queue:
        if one_per_session:
            if item.session_id in seen:
                continue
            seen.add(item.session_id)
        if len(item.tokens) == length:
            picked.append(item)
            if len(picked) == limit:
                break
    taken = set(map(id, picked))
    rest = [item for item in queue if id(item) not in taken]
    queue.clear()
    queue.extend(rest)
    return picked


class ServingCore:
    """Tick engine shared by the serving policies (see the module docstring)."""

    #: Label of :meth:`merged_record`'s default window record.
    record_label = "serve"
    #: :func:`~repro.obs.merge.merge_run_records` flags for the window merge.
    merge_flags: dict[str, bool] = {"allow_varying_seq_length": True}

    def __init__(self, clock: Callable[[], float], recorder: Recorder | None) -> None:
        self.clock = clock
        self.recorder = recorder
        self._tick_records: list[RunRecord] = []

    # ------------------------------------------------------------ admission

    def _admit(
        self,
        queue: deque,
        limit: int,
        stats: ServingStats,
        network: LSTMNetwork,
        session_id: str,
        tokens: np.ndarray,
        now: float,
        part_len: int | None = None,
        tenant: str | None = None,
    ) -> ServingTicket:
        """Queue one submission as parts of at most ``part_len`` tokens
        (whole when ``None``), or shed all of it.

        Raises:
            ShapeError: The tokens are not a non-empty 1-D array of ids
                inside the vocabulary; nothing is queued or counted.
            BackpressureError: The queue cannot hold every part, or the
                policy's :meth:`_reserve` refused; the parts count as shed.
        """
        tokens = network.check_tokens(tokens)
        if tokens.ndim != 1 or tokens.shape[0] == 0:
            raise ShapeError(
                f"tokens must be a non-empty 1-D array, got shape {tokens.shape}"
            )
        n_tokens = int(tokens.shape[0])
        step = part_len or n_tokens
        n_parts = -(-n_tokens // step)
        if len(queue) + n_parts > limit:
            stats.shed += n_parts
            where = "admission queue" if tenant is None else f"tenant {tenant!r} queue"
            raise BackpressureError(
                f"{where} full ({len(queue)}/{limit} queued, submission needs "
                f"{n_parts}); retry later"
            )
        try:
            self._reserve(session_id, n_parts, now)
        except BackpressureError:
            stats.shed += n_parts
            raise
        ticket = ServingTicket(
            session_id, now, n_parts, n_tokens, network.per_timestep_head, tenant
        )
        queue.extend(
            _Work(session_id, tokens[start : start + step], now, ticket, index)
            for index, start in enumerate(range(0, n_tokens, step))
        )
        return ticket

    def _reserve(self, session_id: str, n_parts: int, now: float) -> None:
        """Policy hook run after the queue bound admits a submission; raise
        :class:`~repro.errors.BackpressureError` to shed it."""

    @property
    def queue_depth(self) -> int:
        """Parts currently queued."""
        raise NotImplementedError

    # ----------------------------------------------------------------- tick

    def tick(
        self,
        now: float | None = None,
        service_model: Callable[[TickReport], float] | None = None,
    ) -> TickReport:
        """Serve one batch.

        The policy forms the batch; the core times the executor call, then
        charges the tick ``service_model(report)`` seconds — the report has
        its batch, length, measured ``exec_wall_s`` and the policy's fields
        by then — or the measured wall without a model. Every result
        completes at ``end_s = now + service_s``, so latencies observed
        inside the tick (the zoo's controller) and by
        :func:`~repro.runtime.loadgen.run_open_loop` agree. An empty tick costs nothing and returns ``batch == 0``.
        When the policy's executor call raises, the batch is handed back
        (:meth:`_requeue`) before the exception propagates, so a following
        tick or :meth:`drain` serves it.
        """
        if now is None:
            now = self.clock()
        report = TickReport(end_s=now)
        picked = self._form_batch(report, now)
        if not picked:
            return report
        report.batch, report.length = len(picked), len(picked[0].tokens)
        tokens = np.stack([work.tokens for work in picked])
        record = self.recorder is not None and self.recorder.enabled
        before = self._cache_stats() if record else None
        start = time.perf_counter()
        try:
            out = self._run(report, picked, tokens)
        except BaseException:
            # Nothing was served: the parts go back to the head of their
            # queue and the tick leaves no trace (nothing counted, resolved
            # or recorded).
            self._requeue(report, picked)
            raise
        report.exec_wall_s = time.perf_counter() - start
        report.service_s = (
            report.exec_wall_s if service_model is None else service_model(report)
        )
        report.end_s = now + report.service_s
        for work, logits in zip(picked, self._rows(report, picked, out, now)):
            report.queue_wait_s += now - work.enqueued_at
            result = work.ticket._complete(logits, report.end_s, work.index)
            if result is not None:
                report.completed.append(result)
        stats = self._stats(report)
        stats.ticks += 1
        stats.served += report.batch
        stats.tokens_served += report.batch * report.length
        stats.max_occupancy = max(stats.max_occupancy, report.batch)
        self._after_tick(report, tokens, out)
        if record:
            self._record_tick(report, before, out)
        return report

    def drain(
        self,
        now: float | None = None,
        service_model: Callable[[TickReport], float] | None = None,
    ) -> list[TickReport]:
        """Tick until nothing is queued; returns the tick reports."""
        reports = []
        while self.queue_depth:
            reports.append(self.tick(now=now, service_model=service_model))
        return reports

    def _form_batch(self, report: TickReport, now: float) -> list[_Work]:
        """Pick (and dequeue) the tick's parts; ``[]`` for an idle tick."""
        raise NotImplementedError

    def _run(self, report: TickReport, picked: list[_Work], tokens: np.ndarray):
        """The timed executor call over the stacked ``(B, L)`` tokens."""
        raise NotImplementedError

    def _requeue(self, report: TickReport, picked: list[_Work]) -> None:
        """Undo :meth:`_form_batch` after :meth:`_run` raised: put the
        parts back at the head of the queue in their original order (and
        refund whatever the policy charged for them). The default serves
        policies with one ``_queue``."""
        self._queue.extendleft(reversed(picked))

    def _rows(self, report: TickReport, picked: list[_Work], out, now: float):
        """Per-part logits from ``out``, in ``picked`` order."""
        raise NotImplementedError

    def _stats(self, report: TickReport) -> ServingStats:
        """The counters the tick is charged to."""
        raise NotImplementedError

    def _after_tick(self, report: TickReport, tokens: np.ndarray, out) -> None:
        """Policy hook after tickets resolved and stats counted."""

    # -------------------------------------------------------------- records

    def _cache_stats(self) -> tuple[dict | None, dict]:
        plan = self.plan_cache.stats.as_dict() if self.plan_cache is not None else None
        return plan, self.program_cache.stats.as_dict()

    def _record_meta(self, report: TickReport) -> tuple[str, ExecutionConfig, dict]:
        """``(label, execution config, record config)`` of a tick record."""
        raise NotImplementedError

    def _record_tick(
        self, report: TickReport, before: tuple[dict | None, dict], out
    ) -> None:
        label, config, meta = self._record_meta(report)
        builder = self.recorder.start_run(
            label=label,
            mode=config.mode.value,
            batch=report.batch,
            seq_length=report.length,
            config=meta,
        )
        if builder is None:
            return
        plan_before, program_before = before
        if plan_before is not None:
            builder.observe_cache_delta(plan_before, self.plan_cache.stats.as_dict())
        builder.observe_program_cache_delta(
            program_before, self.program_cache.stats.as_dict()
        )
        builder.set_timing(
            wall_s=report.exec_wall_s,
            exec_wall_s=report.exec_wall_s,
            queue_wait_s=report.queue_wait_s,
            ticks=1.0,
        )
        self._tick_records.append(builder.finish())

    def tick_records(self) -> list[RunRecord]:
        """The per-tick records recorded so far (one per served tick)."""
        return list(self._tick_records)

    def merged_record(self, label: str | None = None) -> RunRecord | None:
        """One serving-window record folding every recorded tick.

        Schema-identical to a single run record (``repro.obs/run/v1``):
        ``batch`` totals the parts served, ``seq_length`` is the largest
        tick length, and timing keys — ``queue_wait_s`` and the per-tick
        ``ticks`` counter included — sum across ticks. The policy's
        :attr:`merge_flags` say what else may vary between ticks. Returns
        ``None`` when no tick was recorded.
        """
        if not self._tick_records:
            return None
        return merge_run_records(
            self._tick_records, label=label or self.record_label, **self.merge_flags
        )

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release what the policy holds beyond the process (worker
        processes); a no-op for a policy that holds none."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
