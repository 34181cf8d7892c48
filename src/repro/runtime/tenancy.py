"""Multi-tenant model-zoo serving: one process, one cache, N tenants.

E-PUR's reuse-maximization argument — amortize every weight fetch across
as much work as possible — applied at the *zoo* level: when N tenants
serve models drawn from a shared zoo, the weights, compiled programs,
and execution plans are the reusable resources, and the serving layer's
job is to make sure no tenant pays for a copy another tenant already
owns. Three shared structures carry that:

* **one executor per** (network fingerprint,
  :class:`~repro.core.executor.ExecutionConfig`) — built directly on the
  caller's network, so every fp64 tenant of a model computes on the
  caller's own arrays by reference (the zoo is one process: sharing needs
  no segment and no refcount). Tenants whose networks have equal content
  share one executor; a quantized config reuses the quantized cells
  (:class:`~repro.nn.quantize.QuantizedCell`) of a kept executor of the
  same network where :func:`~repro.core.executor.reusable_quantized_cells`
  allows (same precision, same weight set), the rule
  :class:`~repro.core.pipeline.OptimizedLSTM` keeps, so a model holds one
  derivation per weight set and precision however many tenants or
  controller moves reach it. :meth:`ZooServer.resident_bytes` reports
  what is held;
* **one cross-tenant** :class:`~repro.core.program.ProgramCache` **and**
  :class:`~repro.core.plan.PlanCache` — their keys already carry weight
  fingerprints and shapes, so sharing is safe by construction, and a
  tenant's first batch after another tenant warmed the same model
  replays a compiled program instead of recompiling;
* **one QoS-weighted batch-forming policy** over the serving core
  (:class:`~repro.runtime.serving.ServingCore`, which owns admission,
  tickets, tick timing, records and ``drain``) — weighted deficit
  round-robin over per-tenant bounded FIFO queues: each backlogged
  tenant accrues ``weight`` sequences of deficit per visit and serves at
  most its deficit, so sustained service ratios converge to the
  configured weights while admission overload sheds per tenant with
  :class:`~repro.errors.BackpressureError` (one noisy tenant cannot
  starve or shed another).

On top rides the UO control loop: a tenant may carry a
:class:`~repro.runtime.controller.SLOController` observing its completed-
request latencies and a :class:`~repro.runtime.shadow.ShadowSampler`
agreement stream (every ``K``-th served batch replayed on the exact fp64
oracle), stepping along its frontier of execution configs to hold the
p99/accuracy SLO. Moving to a new config reaches that config's kept
executor, or builds one against the shared caches (reusing a sibling's
quantized cells), so previously compiled programs stay warm.

**Equivalence discipline.** A tenant at the fp64 BASELINE config with no
controller is a strict no-op path: its logits are bit-identical to the
frozen :class:`~repro.core.reference.ReferenceExecutor`, regardless of
how the WDRR scheduler batches or interleaves it with other tenants
(batched fp64 execution is batch-composition invariant).

Observability: every tick emits one ``repro.obs/run/v1`` record labelled
with the serving tenant; ``merged_record`` folds a window into one record
whose cache counters are namespaced per tenant (``tenantA/program_hits``)
— the per-tenant hit attribution that ``trace summarize``/``diff``
render. All time enters through ``now`` arguments and an optional
injected service model, so benches replay deterministic virtual-time
histories (:func:`~repro.runtime.loadgen.run_open_loop`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.executor import ExecutionConfig, LSTMExecutor, reusable_quantized_cells
from repro.core.plan import PlanCache, fingerprint_network
from repro.core.program import ProgramCache
from repro.errors import ConfigurationError
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.runtime.controller import SLOController
from repro.runtime.serving import ServingCore, ServingStats, ServingTicket, take_batch
from repro.runtime.shadow import ShadowSampler


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant.

    Attributes:
        name: Tenant identity (labels run records and cache attribution).
        model: Free-form model identity (zoo app name or a synthetic
            tag); informational — the zoo identifies the *weights* by
            :func:`~repro.core.plan.fingerprint_network` of the network
            passed to :meth:`ZooServer.add_tenant`, and serves that
            network's arrays by reference, as
            :class:`~repro.runtime.streaming.StreamingServer` and
            :class:`~repro.core.pipeline.OptimizedLSTM` do: do not mutate
            them while the zoo serves.
        weight: WDRR share. Sustained service ratios between saturated
            tenants converge to the ratio of their weights.
        point: Starting execution scheme: mode, thresholds, MTS,
            precision, backend and threads, as every other caller of
            :class:`~repro.core.executor.LSTMExecutor` states them.
        max_batch: Largest batch served to this tenant in one tick.
        queue_limit: Bound on queued requests; admission past it sheds
            with :class:`~repro.errors.BackpressureError`.
        shadow_every: Shadow-sampling stride ``K`` (every K-th served
            batch replays on the exact oracle); ``0`` disables sampling.
    """

    name: str
    model: str = ""
    weight: float = 1.0
    point: ExecutionConfig = field(default_factory=ExecutionConfig)
    max_batch: int = 8
    queue_limit: int = 64
    shadow_every: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ConfigurationError(
                f"tenant weight must be finite and positive, got {self.weight}"
            )
        if self.max_batch < 1 or self.queue_limit < 1:
            raise ConfigurationError("max_batch and queue_limit must be >= 1")
        if self.shadow_every < 0:
            raise ConfigurationError(
                f"shadow_every must be >= 0, got {self.shadow_every}"
            )


class _Tenant:
    """Runtime state of one tenant."""

    def __init__(
        self,
        spec: TenantSpec,
        network: LSTMNetwork,
        fingerprint: str,
        controller: SLOController | None,
    ) -> None:
        self.spec = spec
        #: The network the zoo serves this tenant (the first one added
        #: with this content) and its fingerprint, the executors' key.
        self.network = network
        self.fingerprint = fingerprint
        self.controller = controller
        self.shadow: ShadowSampler | None = None
        self.point = controller.point if controller is not None else spec.point
        self.queue: deque = deque()
        self.deficit = 0.0
        self.stats = ServingStats()


class ZooServer(ServingCore):
    """WDRR multi-tenant server over shared executors and program/plan caches.

    The serving core's whole-sequence policy: :meth:`submit` admits
    requests per tenant, ``tick`` serves one tenant's batch under weighted
    deficit round-robin and then feeds its shadow sampler and controller.
    All time enters through ``now`` and the optional per-tick
    ``service_model``.

    One executor per (network fingerprint, execution config) serves every
    tenant that reaches it, and stays (with its warm programs) when a
    controller moves a tenant away.

    Args:
        recorder: Optional recorder; each tick appends one run record
            labelled with the serving tenant.
        clock: Time source when ``now`` arguments are omitted.
    """

    record_label = "zoo"
    #: Ticks of different tenants differ in sequence length *and*
    #: configuration (models, schemes, precisions; a controller moves a
    #: tenant mid-window): agreeing config keys survive the merge, disputed
    #: ones are listed under ``"varied"``, cache counters namespace per tenant.
    merge_flags = {
        "allow_varying_seq_length": True,
        "allow_varying_config": True,
        "group_cache_by_label": True,
    }

    def __init__(
        self,
        recorder: Recorder | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(clock, recorder)
        self.program_cache = ProgramCache()
        self.plan_cache = PlanCache()
        self._executors: dict[tuple[str, ExecutionConfig], LSTMExecutor] = {}
        self._tenants: dict[str, _Tenant] = {}
        self._ring: list[str] = []
        self._cursor = 0
        self.ticks = 0

    # -------------------------------------------------------------- tenants

    def add_tenant(
        self,
        spec: TenantSpec,
        network: LSTMNetwork,
        controller: SLOController | None = None,
    ) -> None:
        """Register a tenant bound to ``network`` (fp64 source weights).

        All or nothing: the tenant's starting executor is reached (or
        built) before the tenant joins the ring, so a config that cannot
        be served raises and leaves no tenant behind. A network equal in
        content to one the zoo already serves is served through the
        earlier object, sharing its executors. When
        ``spec.shadow_every > 0``, the zoo's exact fp64 BASELINE executor
        of the network is the shadow oracle (bit-identical to the frozen
        reference), reached after the starting one. A ``controller``
        closes the UO loop; without one the tenant's config is fixed for
        the window.
        """
        if spec.name in self._tenants:
            raise ConfigurationError(f"tenant {spec.name!r} already registered")
        if controller is not None and spec.shadow_every == 0:
            # The controller's agreement floor would otherwise never see a
            # sample and silently reduce to latency-only control.
            raise ConfigurationError(
                "a controlled tenant needs shadow_every >= 1 to observe agreement"
            )
        fingerprint = fingerprint_network(network)
        kept = self._kept(fingerprint)
        network = kept[0].network if kept else network
        tenant = _Tenant(spec, network, fingerprint, controller)
        self._executor_for(tenant, tenant.point)
        if spec.shadow_every > 0:
            oracle = self._executor_for(tenant, ExecutionConfig())
            tenant.shadow = ShadowSampler(
                lambda tokens: oracle.run_batch(tokens).predictions(),
                every_k=spec.shadow_every,
            )
        self._tenants[spec.name] = tenant
        self._ring.append(spec.name)

    def tenant_names(self) -> list[str]:
        """Registered tenants in ring order."""
        return list(self._ring)

    def tenant_stats(self, name: str) -> ServingStats:
        """Serving counters of one tenant."""
        return self._require(name).stats

    def tenant_point(self, name: str) -> ExecutionConfig:
        """The execution config a tenant currently serves at."""
        return self._require(name).point

    def tenant_shadow(self, name: str) -> ShadowSampler | None:
        """The tenant's shadow sampler, if sampling is enabled."""
        return self._require(name).shadow

    def _require(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ConfigurationError(f"unknown tenant {name!r}")
        return tenant

    # ------------------------------------------------------------ executors

    def _executor_for(self, tenant: _Tenant, config: ExecutionConfig) -> LSTMExecutor:
        """The executor of the tenant's network at ``config``, built on
        first use. A quantized config runs on a kept executor's cells where
        :func:`~repro.core.executor.reusable_quantized_cells` allows."""
        key = (tenant.fingerprint, config)
        executor = self._executors.get(key)
        if executor is None:
            executor = self._executors[key] = LSTMExecutor(
                tenant.network,
                config,
                plan_cache=self.plan_cache,
                program_cache=self.program_cache,
                quantized_cells=reusable_quantized_cells(config, self._kept(tenant.fingerprint)),
            )
        return executor

    def _kept(self, fingerprint: str) -> list[LSTMExecutor]:
        """The kept executors of the network with ``fingerprint``."""
        return [executor for (fp, _), executor in self._executors.items() if fp == fingerprint]

    def resident_bytes(self) -> dict[str, int]:
        """What the zoo keeps resident, in bytes by owner, as
        :meth:`~repro.core.pipeline.OptimizedLSTM.resident_bytes` reports
        an app. Every served network and every executor-derived array
        (quantized codes, scales, dequantized blocks) counts once however
        many tenants share it."""
        executors = self._executors.values()
        networks = {id(executor.network): executor.network for executor in executors}
        derived = {
            id(array): array.nbytes for executor in executors for array in executor.owned_arrays()
        }
        return {
            "weights": sum(a.nbytes for net in networks.values() for a in net.parameters()),
            "executor_arrays": sum(derived.values()),
            "workspace_arenas": self.program_cache.nbytes,
            "plan_cache": self.plan_cache.nbytes,
            "token_row_memo": self.plan_cache.token_rows.nbytes,
        }

    # ------------------------------------------------------------ admission

    def submit(
        self,
        tenant_name: str,
        session_id: str,
        tokens: np.ndarray,
        now: float | None = None,
    ) -> ServingTicket:
        """Admit one whole-sequence request for a tenant.

        Raises:
            ShapeError: The tokens are not a non-empty 1-D array of ids
                inside the tenant's vocabulary; nothing is queued.
            BackpressureError: The tenant's bounded queue is full. Only
                that tenant sheds — its neighbours' queues are untouched.
        """
        if now is None:
            now = self.clock()
        tenant = self._require(tenant_name)
        return self._admit(
            tenant.queue, tenant.spec.queue_limit, tenant.stats,
            tenant.network, session_id, tokens, now, tenant=tenant_name,
        )

    def submit_arrival(self, arrival, now: float) -> ServingTicket:
        """Admit one :class:`~repro.runtime.loadgen.Arrival` (``run_open_loop``'s door)."""
        return self.submit(arrival.tenant, arrival.session_id, arrival.tokens, now=now)

    @property
    def queue_depth(self) -> int:
        """Requests queued across every tenant."""
        return sum(len(t.queue) for t in self._tenants.values())

    def tenant_queue_depth(self, name: str) -> int:
        """Requests queued for one tenant."""
        return len(self._require(name).queue)

    # ----------------------------------------------------------- scheduling

    def _pick_tenant(self) -> tuple[_Tenant, int] | None:
        """WDRR visit: next backlogged tenant whose deficit affords >= 1.

        Visits each ring position at most once starting at the cursor.
        A visited empty tenant resets its deficit (classic DRR — credit
        must not accrue while idle); a backlogged tenant accrues
        ``weight`` and serves when its deficit covers at least
        one sequence. Returns ``(tenant, budget)`` or ``None`` when no
        tenant can serve this tick (deficits were still credited, so a
        light-weight tenant eventually accumulates service).
        """
        n = len(self._ring)
        for step in range(n):
            position = (self._cursor + step) % n
            tenant = self._tenants[self._ring[position]]
            if not tenant.queue:
                tenant.deficit = 0.0
                continue
            tenant.deficit += tenant.spec.weight
            budget = int(tenant.deficit)
            if budget >= 1:
                self._cursor = (position + 1) % n
                return tenant, budget
        return None

    def _form_batch(self, report, now):
        """WDRR: the next eligible tenant's FIFO equal-length batch of up to
        ``min(deficit, max_batch)`` requests, at its current config."""
        # The WDRR state before the visit, which _requeue restores.
        self._before_tick = (
            self.ticks, self._cursor, [t.deficit for t in self._tenants.values()]
        )
        self.ticks += 1
        picked = self._pick_tenant()
        if picked is None:
            return []
        tenant, budget = picked
        report.tenant, report.point = tenant.spec.name, tenant.point
        batch = take_batch(tenant.queue, min(budget, tenant.spec.max_batch))
        tenant.deficit -= len(batch)
        if not tenant.queue:
            tenant.deficit = 0.0
        return batch

    def _requeue(self, report, picked):
        """A failed tick never happened: the parts return to the head of
        their tenant's queue and the visit's WDRR state — the cursor, every
        deficit it credited or charged, the tick count — is restored."""
        self._tenants[report.tenant].queue.extendleft(reversed(picked))
        self.ticks, self._cursor, deficits = self._before_tick
        for tenant, deficit in zip(self._tenants.values(), deficits):
            tenant.deficit = deficit

    def _run(self, report, picked, tokens):
        tenant = self._tenants[report.tenant]
        return self._executor_for(tenant, tenant.point).run_batch(tokens)

    def _rows(self, report, picked, out, now):
        return out.logits

    def _stats(self, report) -> ServingStats:
        return self._tenants[report.tenant].stats

    def _after_tick(self, report, tokens, out) -> None:
        """Feed the tenant's shadow sampler and controller; apply a move."""
        tenant = self._tenants[report.tenant]
        if tenant.shadow is not None:
            sample = tenant.shadow.observe(tokens, out.predictions())
            if sample is not None and tenant.controller is not None:
                # Feed the pooled estimate, not the single-batch fraction:
                # one mismatch in a small batch reads as e.g. 0.875 and
                # would flap the controller, while the pooled stream
                # moves only as fast as the evidence accumulates.
                tenant.controller.observe_agreement(tenant.shadow.agreement)
        if tenant.controller is not None:
            for result in report.completed:
                tenant.controller.observe_latency(result.latency_s)
            moved = tenant.controller.decide()
            if moved is not None:
                tenant.point = report.moved_to = moved
                self._executor_for(tenant, moved)  # built outside any timed call

    def _record_meta(self, report):
        tenant = self._tenants[report.tenant]
        # The config the tick served at: a controller move after the tick
        # leaves its executor kept.
        executor = self._executors[(tenant.fingerprint, report.point)]
        return tenant.spec.name, report.point, {
            **executor.record_config(),
            "tenant": tenant.spec.name,
            "model": tenant.spec.model,
            "weight": tenant.spec.weight,
        }
