"""Serving runtime (``repro.runtime``): one serving core, two policies, one fleet.

The paper's memory-friendliness principle — load the recurrent weights
once, amortize them across every cell that needs them — applied to
serving. :mod:`repro.runtime.serving` is the core every online engine
shares: bounded all-or-nothing admission that checks token ids at the
door, one ticket and result type, the FIFO "head sets the length" batch
rule, the timed executor call, per-tick run records merged into one
window record, and ``drain``; :func:`run_open_loop` drives any policy on
virtual time against the deterministic open-loop workloads of
:mod:`repro.runtime.loadgen` (Poisson arrivals, diurnal ramp,
heavy-tailed session lengths). Two batch-forming policies ride on it:

* :class:`StreamingServer` (:mod:`repro.runtime.streaming`) — at most one
  chunk per session per tick over resident per-session ``(h, c)`` state,
  LRU/TTL session eviction, an asyncio front door;
* :class:`ZooServer` (:mod:`repro.runtime.tenancy`) — weighted deficit
  round-robin over per-tenant queues on one deduplicated
  :class:`ArenaRegistry` and one cross-tenant program/plan cache, with
  :mod:`repro.runtime.controller` closing the per-tenant SLO loop after
  each tick from :mod:`repro.runtime.shadow`'s sampled agreement.

The fleet, :class:`InferenceRuntime`, publishes the network once into a
shared-memory :class:`WeightArena`, cuts each batch into length-batched
shards by the same rule (:func:`plan_dispatch`) and runs them across a
worker pool that attaches those pages, behind a bounded dispatch queue;
per-worker run records merge into one fleet record and ``workers=0``
degenerates to a bit-identical synchronous
:class:`~repro.core.executor.LSTMExecutor` call.
"""

from repro.runtime.arena import (
    ArenaManifest,
    ArenaRegistry,
    ArenaRegistryStats,
    WeightArena,
    leaked_segments,
)
from repro.runtime.controller import (
    ControllerMove,
    OperatingPoint,
    SLOController,
    TenantSLO,
)
from repro.runtime.loadgen import (
    Arrival,
    LoadReport,
    LoadSpec,
    generate_arrivals,
    generate_tenant_arrivals,
    run_open_loop,
)
from repro.runtime.pool import DispatchGroup, InferenceRuntime, plan_dispatch
from repro.runtime.results import FleetResult, ShardResult
from repro.runtime.serving import (
    ServingCore,
    ServingResult,
    ServingStats,
    ServingTicket,
    TickReport,
)
from repro.runtime.shadow import ShadowSampler
from repro.runtime.streaming import (
    SessionTable,
    StreamingFrontDoor,
    StreamingServer,
)
from repro.runtime.tenancy import TenantSpec, ZooServer

__all__ = [
    "ArenaManifest",
    "ArenaRegistry",
    "ArenaRegistryStats",
    "Arrival",
    "ControllerMove",
    "DispatchGroup",
    "FleetResult",
    "InferenceRuntime",
    "LoadReport",
    "LoadSpec",
    "OperatingPoint",
    "SLOController",
    "ServingCore",
    "ServingResult",
    "ServingStats",
    "ServingTicket",
    "SessionTable",
    "ShadowSampler",
    "ShardResult",
    "StreamingFrontDoor",
    "StreamingServer",
    "TenantSLO",
    "TenantSpec",
    "TickReport",
    "WeightArena",
    "ZooServer",
    "generate_arrivals",
    "generate_tenant_arrivals",
    "leaked_segments",
    "plan_dispatch",
    "run_open_loop",
]
