"""Parallel sharded serving runtime (``repro.runtime``).

The paper's memory-friendliness principle — load the recurrent weights
once, amortize them across every cell that needs them — applied at
process scale: an :class:`InferenceRuntime` publishes the network's
parameters once into a shared-memory :class:`WeightArena`, shards
incoming sequences across a worker pool that attaches those same pages,
and groups queued sequences fleet-wide by structural plan signature
(:class:`FleetScheduler`) before dispatch, so same-plan sequences from
all in-flight requests share a shard and the combined-mode wave walk runs
its widest stacked matmuls. A bounded request queue provides
backpressure; per-worker run records merge into a single fleet record
(:func:`repro.obs.merge.merge_run_records`); ``workers=0`` degenerates
to a bit-identical synchronous :class:`~repro.core.executor.LSTMExecutor`
call.

For interactive workloads, :mod:`repro.runtime.streaming` adds the
online shape: per-session resident ``(h, c)`` state, a tick-driven
continuous batcher over the compiled program path, LRU/TTL session
eviction, and an asyncio front door; :mod:`repro.runtime.loadgen`
generates the deterministic open-loop workloads (Poisson arrivals,
diurnal ramp, heavy-tailed session lengths) that measure it.

For consolidated fleets, :mod:`repro.runtime.tenancy` serves N tenants
over one deduplicated :class:`ArenaRegistry`, one cross-tenant
program/plan cache, and a QoS-weighted deficit round-robin scheduler;
:mod:`repro.runtime.controller` closes the per-tenant SLO loop over the
offline sweep frontier, with :mod:`repro.runtime.shadow` providing the
sampled exact-replay agreement signal.
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
    TenantArrival,
    generate_arrivals,
    generate_tenant_arrivals,
    run_open_loop,
)
from repro.runtime.pool import InferenceRuntime
from repro.runtime.results import FleetResult, ShardResult
from repro.runtime.scheduler import DispatchGroup, FleetScheduler
from repro.runtime.shadow import ShadowSampler
from repro.runtime.streaming import (
    SessionTable,
    StreamingFrontDoor,
    StreamingServer,
    StreamingStats,
    StreamResult,
    StreamTicket,
    TickReport,
)
from repro.runtime.tenancy import (
    TenantSpec,
    TenantStats,
    ZooLoadReport,
    ZooResult,
    ZooServer,
    ZooTicket,
    ZooTickReport,
    run_zoo_open_loop,
)

__all__ = [
    "ArenaManifest",
    "ArenaRegistry",
    "ArenaRegistryStats",
    "Arrival",
    "ControllerMove",
    "DispatchGroup",
    "FleetResult",
    "FleetScheduler",
    "InferenceRuntime",
    "LoadReport",
    "LoadSpec",
    "OperatingPoint",
    "SLOController",
    "SessionTable",
    "ShadowSampler",
    "ShardResult",
    "StreamResult",
    "StreamTicket",
    "StreamingFrontDoor",
    "StreamingServer",
    "StreamingStats",
    "TenantArrival",
    "TenantSLO",
    "TenantSpec",
    "TenantStats",
    "TickReport",
    "WeightArena",
    "ZooLoadReport",
    "ZooResult",
    "ZooServer",
    "ZooTicket",
    "ZooTickReport",
    "generate_arrivals",
    "generate_tenant_arrivals",
    "leaked_segments",
    "run_open_loop",
    "run_zoo_open_loop",
]
