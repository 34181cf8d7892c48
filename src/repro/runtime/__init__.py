"""Serving runtime (``repro.runtime``): one serving core, three policies.

The paper's memory-friendliness principle — load the recurrent weights
once, amortize them across every cell that needs them — applied to
serving. :mod:`repro.runtime.serving` is the core every engine shares:
bounded all-or-nothing admission that checks token ids at the door, one
ticket and result type, the FIFO "head sets the length" batch rule, the
timed executor call, per-tick run records merged into one window record,
``drain`` and ``close``; :func:`run_open_loop` drives any policy on
virtual time against the deterministic open-loop workloads of
:mod:`repro.runtime.loadgen` (Poisson arrivals, diurnal ramp,
heavy-tailed session lengths), and ``repro serve --policy`` is its one
command. Three batch-forming policies ride on it:

* :class:`StreamingServer` (:mod:`repro.runtime.streaming`) — at most one
  chunk per session per tick over resident per-session ``(h, c)`` state,
  LRU/TTL session eviction;
* :class:`ZooServer` (:mod:`repro.runtime.tenancy`) — weighted deficit
  round-robin over per-tenant queues in one process: one executor per
  (network, :class:`~repro.core.executor.ExecutionConfig`) on the caller's
  arrays, shared by every tenant that reaches it, and one cross-tenant
  program/plan cache, with
  :mod:`repro.runtime.controller` closing the per-tenant SLO loop after
  each tick from :mod:`repro.runtime.shadow`'s sampled agreement;
* :class:`FleetServer` (:mod:`repro.runtime.fleet`) — whole sequences FIFO
  by length, each tick cut into shards of ``max_batch`` rows that run one
  per worker process, forked after the fleet's one executor is built so
  every worker runs that executor on the parent's copy-on-write pages (or
  in-process at ``workers=0``, with identical bits).
"""

from repro.runtime.controller import (
    ControllerMove,
    SLOController,
    TenantSLO,
)
from repro.runtime.fleet import FleetServer
from repro.runtime.loadgen import (
    Arrival,
    LoadReport,
    LoadSpec,
    generate_arrivals,
    generate_tenant_arrivals,
    run_open_loop,
)
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
    StreamingServer,
)
from repro.runtime.tenancy import TenantSpec, ZooServer

__all__ = [
    "Arrival",
    "ControllerMove",
    "FleetServer",
    "LoadReport",
    "LoadSpec",
    "SLOController",
    "ServingCore",
    "ServingResult",
    "ServingStats",
    "ServingTicket",
    "SessionTable",
    "ShadowSampler",
    "StreamingServer",
    "TenantSLO",
    "TenantSpec",
    "TickReport",
    "ZooServer",
    "generate_arrivals",
    "generate_tenant_arrivals",
    "run_open_loop",
]
