"""Compiled plan programs: preallocated, fused lowerings of layer execution.

A timestep loop written as plain numpy expressions (the frozen
:mod:`repro.core.reference` walk) pays avoidable memory churn on every step:
each gate activation allocates fresh ``(B, H)`` arrays, every step
re-derives operand views, and the pre-activation chain materializes three
intermediates per gate. This module lowers one layer's execution — the
timestep loop of the stepwise modes, or the shard-wide tissue walk of
combined mode — into a *program*: an object that holds

* **no weights of its own** — its operands are views of the layer's united
  blocks (:class:`~repro.nn.lstm_cell.LSTMCellWeights`: ``U`` seen as
  ``(4, H, H)``, ``b`` as ``(4, 1, H)``, ``W`` gate by gate, hence gate
  slabs in ``GATE_ORDER``): the weights exist once, in the network,
  however many programs run on them,
* **no memory of its own either** — its workspace (projection block,
  gate slabs, ``h``/``c`` state, DRS masks, wave planes) is a fixed
  layout *leased* from the :class:`WorkspaceArena` of the dispatch slot
  it runs on, reused across timesteps and runs via
  ``np.matmul(..., out=)`` and in-place ufunc chains, and shared with
  every other program of the slot, which run strictly one after another,
* **no structure** — what the inter level decided is a run-time input:
  breakpoint resets arrive as a per-timestep column list, tissue
  schedules as the index vectors cached on each sequence's plan
  (:class:`~repro.core.plan.CachedLayerPlan`), so a program is compiled
  from shapes and weights alone.

Two grades (:func:`repro.core.backends.is_exact`). The stepwise program is
*exact*: it reproduces the reference walk's arithmetic bit for bit
(property-tested in ``tests/test_program.py`` and
``tests/test_executor_equivalence.py``). The combined program is *graded*:
each wave's recurrent product is one real ``(rows, H) @ (H, 4H)`` GEMM — with
DRS, two smaller ones over the units and columns still live — whose row bits
depend on how many rows and columns share it, so it agrees with the
reference to ``1e-9`` with equal predictions and identical plans — and, for
one batch, deterministically with itself. The rules that keep the exact
program exact on OpenBLAS, measured on this platform:

* ``np.matmul(..., out=)`` never changes bits relative to the allocating
  call — the dispatch is chosen from the operands, not the output.
* The four per-gate recurrent products collapse into **one** broadcast
  stacked matmul ``(1, B, 1, H) @ (4, 1, H, H)``: each ``(1, H) @ (H, H)``
  slice dispatches the same GEMV as the per-gate call (0 mismatches in
  10^4 random trials), so a step costs one BLAS dispatch instead of four.
* **Alignment rule.** An output row's bits depend on its place in the
  GEMV kernel's column grouping, not on how many rows the call has. So a
  gate block may be cut into row slabs — each output row computed by the
  same kernel against a ``(E, n)`` slice — provided every slab starts on
  that grouping: slabs of :data:`SLAB_ROWS` rows start at multiples of 64
  from the gate's *own* first row, and the remainder joins the last slab,
  so no slab is one row (numpy runs a one-column product as ``dot``).
  Aligned slabs matched the gate-wide lift in every tested split (gate
  heights 96-1024, 1-8 rows, slabs of 16-128, 1, 2 and default BLAS
  threads). Grids whose starts leave multiples of 4 (65-, 67-, 70-,
  127-row slabs) matched in 4 of 128 splits, only where the gate was one
  slab, and a 100-row grid, whose starts stay on them, in all 32; a lift
  against the united ``(E, 4H)`` block — whose later gates start
  mid-group when ``H % 4 != 0`` — differs for the same reason. Gate
  blocks above :data:`SLAB_MIN_BYTES` that several rows share are lifted
  slab by slab (:func:`project_rows`, and the recurrence as one stacked
  ``(1, 1, B, 1, H) @ (4, H/64, 1, H, 64)`` matmul plus one for the
  remainder slabs): a slab of a few hundred KiB is loaded once per step
  and reused by every row, where each row used to re-stream its 2-3 MiB
  gate past a 2 MiB L2.
* Each per-gate block stays row-major and is consumed through a
  transpose view — layout is what selects the BLAS kernel, and a row
  slice of the united block *is* the reference walk's ``u_g``. Re-laying
  a block out transposed-contiguous changes the reduction order and the
  bits (up to 100 % mismatch measured), so that classic "pre-transpose
  the weights" staging is deliberately NOT done here.
* The sigmoid gates activate as two ladders — the contiguous ``(f, i)``
  pair, then ``o`` — in both programs, elementwise, so the split moves no
  bit; each ladder divides once (:func:`sigmoid_into`).
* In-place ufunc chains (the sigmoid ladder below, ``tanh(out=)``, the
  cell update) are elementwise and bit-identical to their allocating
  forms; ``np.take(..., out=)`` and boolean ``np.putmask`` likewise.

A stepwise program's projection block has two writers with the same
bits: :meth:`StepwiseProgram.project` lifts every token of the layer input
to its own GEMV (:func:`project_rows`); at layer 0, where a token's row
depends on the token id and ``W`` only, the executor instead projects each
*distinct* id once per call — or not at all, if the previous call left it
in the :class:`~repro.core.plan.TokenRowMemo` — and :func:`gather_rows`
copies the rows into the block (:meth:`StepwiseProgram.gather`).

Programs are built by :class:`~repro.core.executor.LSTMExecutor` (they
are its only forward pass; :class:`~repro.core.pipeline.OptimizedLSTM`
keeps its executors, so neither is rebuilt from run to run) and cached in
a :class:`ProgramCache` keyed on
(backend, weights fingerprint, link fingerprint, shapes, thresholds) and
nothing input-dependent, so repeated runs, fresh inputs, threshold sweeps
over ``alpha_inter`` and fleet shards of one shape all reuse one compiled
program per layer, and an entry costs kilobytes: its shape, its weight
views and the views it prebuilt over the arena.

Workspace lifetime rule. The memory belongs to the
:class:`ProgramCache`: one arena per dispatch slot, exactly as large as
the largest layout any program of that slot has leased, so resident bytes
follow the largest live shape, not the history of shapes (a program built
without an arena — a test, a probe — owns a private one of exactly its
layout). What a program may assume about its slabs on entry: **nothing**.
Another layer, mode or shape ran there a moment ago, so every run rewrites
everything it reads — ``h``/``c`` set on entry (zeros, or caller-injected
resident state for the streaming runtime), every scratch element written
before it is read, every output cell written — and consecutive runs are
bit-identical to fresh executors (property-tested, including across
mid-sequence breakpoint resets and with the arena overwritten between any
two runs: ``tests/test_workspace_arena.py``). Two things follow for
callers. A ``project`` / ``gather`` -> plan -> ``execute`` sequence on one
layer must not be interleaved with another program of the same slot: the
projection block lives in the arena between the two calls. And whatever a
program hands back that is arena memory — the planner views, the DRS
masks, the shared tissue masks — is valid only until the next program
runs; the executor reduces or copies it at once, so nothing a run returns
aliases the arena. When the arena regrows for a larger layout it first
tells its tenants to drop their views (so the old buffer is freed, not
kept alive by a stale program) and each rebinds on its next entry.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.plan import wave_schedule
from repro.errors import ConfigurationError
from repro.nn.lstm_cell import GATE_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context_prediction import PredictedLink
    from repro.core.executor import _UnitedWeights
    from repro.core.plan import CachedLayerPlan

#: A combined program's ``(rows, H)`` float scratch planes, in the order
#: its walk unpacks them.
_WAVE_PLANES = ("h_prev", "c_prev", "o", "g", "c_new", "h_new", "t1")

#: The share of a layer's units from which a COMBINED call with DRS stops
#: compacting (:meth:`CombinedGroupProgram._wave_live`) and the next layer
#: projects every input column. BABI b8, 2-vCPU host, one BLAS thread: at
#: set 1 (~255.9 of 256 units live) the walk reads 0.97x the compacting
#: one; at set 5 (128-162 live) shares 0.7-0.9 read alike, 0.6 +7 %.
DENSE_LIVE_SHARE = 0.9

#: Alignment of an arena's buffer and of every slab inside it: one cache line.
_ALIGN = 64

#: Rows of one weight slab, and the grid slab starts keep from a gate's
#: first row (see the module docstring's alignment rule).
SLAB_ROWS = 64

#: Gate blocks larger than this are lifted one slab at a time: below it a
#: whole gate stays cache-resident across the rows anyway (BABI's 512 KiB
#: blocks measured 0.93-0.99x with slabs forced).
SLAB_MIN_BYTES = 1 << 20


def sigmoid_into(
    x: np.ndarray,
    out: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    mask: np.ndarray,
) -> None:
    """In-place numerically-stable sigmoid, bit-identical to
    :func:`repro.nn.activations.sigmoid` (``ex = exp(-|x|)``, then
    ``1/(1 + ex)`` where ``x >= 0``, else ``ex/(1 + ex)``) with one divide:
    ``ex`` lies in ``[0, 1]``, so the numerator ``max(ex, x >= 0)`` is
    exactly ``1`` or ``ex``, and NaN stays NaN. Intermediates land in
    caller scratch (``exp`` in place on ``s1``, which callers keep
    contiguous). ``out`` may alias ``x``. All buffers share ``x``'s shape;
    ``mask`` may be boolean or float.
    """
    np.abs(x, out=s1)
    np.negative(s1, out=s1)
    np.exp(s1, out=s1)  # s1 = exp(-|x|)
    np.add(1.0, s1, out=s2)  # s2 = 1 + exp(-|x|)
    np.greater_equal(x, 0.0, out=mask)
    np.maximum(s1, mask, out=s1)  # 1 where x >= 0, else exp(-|x|)
    np.divide(s1, s2, out=out)


def slab_bounds(height: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` rows of one gate block's slabs: starts at
    multiples of :data:`SLAB_ROWS` from the gate's first row, and the
    remainder joins the last slab, so no slab is one row (numpy would
    dispatch a one-column product as ``dot``, not GEMV)."""
    starts = range(0, max(height - SLAB_ROWS, 0) + 1, SLAB_ROWS)
    return [(lo, lo + SLAB_ROWS) for lo in starts[:-1]] + [(starts[-1], height)]


def uses_slabs(gate_nbytes: int, rows: int) -> bool:
    """Whether a product lifting ``rows`` rows against gate blocks of
    ``gate_nbytes`` bytes each runs one slab at a time."""
    return rows > 1 and gate_nbytes > SLAB_MIN_BYTES


def project_rows(xs: np.ndarray, w_ops, outs) -> None:
    """Gate-blocked per-row input projection: ``outs[j] = xs @ w_ops[j]``.

    ``xs`` is ``(B, T, E)``, every ``w_ops[j]`` the ``(E, H)`` transpose
    view of one row-major gate block, every ``outs[j]`` a ``(B, T, H)``
    array or view. Each token is lifted to its own ``(1, E)`` GEMV (see
    :func:`repro.core.executor._row_proj`), so its projected bits depend
    on the token and the weights only. Gate by gate rather than one fused
    ``(E, 4H)`` operand: a gate block stays cache-resident across all
    ``B * T`` rows instead of the whole united matrix streaming past every
    row — same bits, about half the time at serving widths. A gate block
    too large for that (:func:`uses_slabs`) is lifted one aligned row slab
    at a time (:func:`slab_bounds`): each slab is loaded once and reused by
    every row, and each output element keeps its place in the kernel's
    column grouping, so the bits are the gate-wide lift's.
    """
    xs_rows = xs[:, :, None, :]  # (B, T, 1, E): one GEMV per token
    height = w_ops[0].shape[1]
    bounds = (
        slab_bounds(height)
        if uses_slabs(w_ops[0].nbytes, xs.shape[0] * xs.shape[1])
        else [(0, height)]
    )
    for w_t, out in zip(w_ops, outs):
        out_rows = out[:, :, None, :]
        for lo, hi in bounds:
            np.matmul(xs_rows, w_t[:, lo:hi], out=out_rows[..., lo:hi])


def gather_rows(rows: np.ndarray, index: np.ndarray, outs) -> None:
    """Fill per-gate projections from already projected token rows:
    ``outs[j] = rows[j][index]``.

    ``rows`` is ``(4, n, H)`` — the distinct tokens of a call, projected
    once by :func:`project_rows` (:class:`~repro.core.plan.TokenRowMemo`) —
    and ``index`` the ``(B, T)`` row of every token. A copy moves no bit,
    so the result equals projecting the embedded batch row by row.
    """
    for gate_rows, out in zip(rows, outs):
        np.take(gate_rows, index, axis=0, out=out, mode="clip")


class WorkspaceArena:
    """One dispatch slot's scratch memory: a single buffer every program of
    the slot leases, exactly as large as the largest layout asked of it.

    Layers, modes and shapes of one slot run strictly one after another, so
    their workspaces never need to exist at the same time: resident bytes
    follow the largest live shape, not the history of shapes. The buffer
    only grows (:meth:`ProgramCache.clear` drops it); when it does, every
    tenant is told to forget its views *first*, so the old buffer is freed
    before the new one is allocated and nothing keeps it alive.

    Not thread-safe, by construction: a slot runs one program at a time.
    """

    def __init__(self) -> None:
        self._bytes = np.empty(0, dtype=np.uint8)
        self._tenants: "weakref.WeakSet[LeasedProgram]" = weakref.WeakSet()

    @property
    def buffer(self) -> np.ndarray:
        """The arena's bytes. Their contents belong to whichever program
        runs next — the arena tests overwrite them between runs to prove
        it."""
        return self._bytes

    @property
    def nbytes(self) -> int:
        """Resident size: the largest layout leased so far."""
        return self._bytes.nbytes

    def lease(self, tenant: "LeasedProgram", nbytes: int) -> np.ndarray:
        """At least ``nbytes`` cache-line-aligned bytes for ``tenant``, who
        may keep views of them until its ``_unbind()`` is called."""
        if nbytes > self._bytes.nbytes:
            for other in self._tenants:
                other._unbind()
            self._bytes = np.empty(0, dtype=np.uint8)  # freed before the regrow
            raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
            head = -raw.ctypes.data % _ALIGN
            self._bytes = raw[head : head + nbytes]
        self._tenants.add(tenant)
        return self._bytes


class LeasedProgram:
    """What every program is besides its arithmetic: a fixed layout of
    named slabs, bound to an arena's bytes on demand.

    A subclass ends its constructor with :meth:`_lease` and starts every
    entry point with ``ws = self._ws or self._bind()`` — the arena drops
    ``_ws`` when it regrows. What it finds in the slabs on entry is
    whatever ran last on the slot: a program assumes nothing.
    """

    _ws: SimpleNamespace | None = None

    def _lease(
        self,
        arena: WorkspaceArena | None,
        slabs: Sequence[tuple[str, tuple[int, ...], type]],
    ) -> None:
        """Fix the layout — ``(name, shape, dtype)`` per slab, each on its
        own cache line, in the order given — and bind it. Without an arena
        the program owns a private one of exactly its layout."""
        self._arena = WorkspaceArena() if arena is None else arena
        self._slabs = []
        offset = 0
        for name, shape, dtype in slabs:
            size = math.prod(shape) * np.dtype(dtype).itemsize
            self._slabs.append((name, offset, offset + size, dtype, shape))
            offset += -(-size // _ALIGN) * _ALIGN
        #: Bytes this program leases (slab sizes plus alignment padding).
        self.workspace_nbytes = offset
        self._bind()

    def _bind(self) -> SimpleNamespace:
        """Carve the slabs out of the arena's current buffer, one attribute
        per slab. Subclasses add the views their hot loop wants prebuilt."""
        data = self._arena.lease(self, self.workspace_nbytes)
        ws = self._ws = SimpleNamespace(
            **{
                name: data[lo:hi].view(dtype).reshape(shape)
                for name, lo, hi, dtype, shape in self._slabs
            }
        )
        return ws

    def _unbind(self) -> None:
        """Forget every view of the arena (it is about to regrow)."""
        self._ws = None


@dataclass
class ProgramCacheStats:
    """Hit/miss counters of one :class:`ProgramCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total program lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict form (for run records and bench reports)."""
        return {
            "program_hits": self.hits,
            "program_misses": self.misses,
            "program_hit_rate": self.hit_rate,
            "program_evictions": self.evictions,
        }


class ProgramCache:
    """Bounded LRU cache of compiled programs, and the owner of the memory
    they run in.

    Programs hold no weights and no buffers: each leases its workspace from
    the cache's :class:`WorkspaceArena` of the dispatch slot it runs on
    (:meth:`arena`), so an entry costs kilobytes of views and the cache's
    resident bytes are one largest layout per slot, whatever it has cached.
    An entry is one (layer weights, shape, thresholds, dispatch slot)
    combination — never one per input — so a serving workload at a steady
    shape holds one entry per layer and slot and stops compiling after its
    first request.

    Thread-safe with *single-flight* compilation: under the in-process
    dispatcher (:mod:`repro.core.parallel`) several threads can request
    an uncompiled key at once (concurrent cold-start). One thread
    compiles with the lock released; the peers park on a per-key event
    and take the stored program as hits, so ``stats.misses`` counts
    distinct compiles — zero duplicate work, the property the
    ``bench_parallel`` cold-start gate asserts.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._store: OrderedDict[Hashable, object] = OrderedDict()
        self._arenas: dict[int | None, WorkspaceArena] = {}
        self._lock = threading.Lock()
        self._pending: dict[Hashable, threading.Event] = {}
        self.stats = ProgramCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        """Drop every program and every arena (counters are kept)."""
        with self._lock:
            self._store.clear()
            self._arenas.clear()

    def arena(self, slot: int | None = None) -> WorkspaceArena:
        """The workspace arena of one dispatch slot (``None``: the serial
        path), created on first use. Slots run concurrently, so each owns
        its own; everything that runs *on* one slot shares it."""
        with self._lock:
            arena = self._arenas.get(slot)
            if arena is None:
                arena = self._arenas[slot] = WorkspaceArena()
            return arena

    def arenas(self) -> dict[int | None, WorkspaceArena]:
        """Snapshot of the arenas in use, by dispatch slot."""
        with self._lock:
            return dict(self._arenas)

    def items(self) -> list[tuple[Hashable, object]]:
        """Snapshot of the ``(key, cached object)`` pairs, least recently
        used first."""
        with self._lock:
            return list(self._store.items())

    @property
    def nbytes(self) -> int:
        """Resident bytes: every slot's arena, plus whatever arrays the
        entries say they own (``owned_arrays()``: programs lease, so they
        own nothing; a kept executor owns its derived weights), each array
        counted once however many entries share it."""
        total = sum(arena.nbytes for arena in self.arenas().values())
        owned = {
            id(array): array.nbytes
            for _, entry in self.items()
            if hasattr(entry, "owned_arrays")
            for array in entry.owned_arrays()
        }
        return total + sum(owned.values())

    def get(self, key: Hashable, build: Callable[[], object]):
        """Cached lookup; ``build`` runs only on a miss (single-flight)."""
        while True:
            with self._lock:
                hit = self._store.get(key)
                if hit is not None:
                    self._store.move_to_end(key)
                    self.stats.hits += 1
                    return hit
                event = self._pending.get(key)
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
                    break  # this thread leads the compile
            event.wait()
        try:
            program = build()
        except BaseException:
            with self._lock:
                self._pending.pop(key, None)
            event.set()
            raise
        with self._lock:
            self.stats.misses += 1
            self._store[key] = program
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.stats.evictions += 1
            self._pending.pop(key, None)
        event.set()
        return program


class StepwiseProgram(LeasedProgram):
    """Compiled timestep loop for the stepwise modes.

    One program serves BASELINE / ZERO_PRUNE / INTER / INTRA at a fixed
    ``(B, T)``: the mode differences — breakpoint resets, the DRS mask —
    are run-time inputs, so the program is keyed on shapes and weights
    only and reused across plans. Every step runs one body: the recurrent
    product from the ``h`` buffer, the full-width gate epilogue and, with
    DRS, the mask from ``o`` that zeroes the trivial units' cell state.
    DRS skips no load here: the recurrent product must stay full width to
    keep the reference's bits (see the alignment rule), so the mask is the
    whole of Algorithm 3 in this program.

    Two-phase API (the inter-level planner needs the input projections
    *before* the recurrence runs):

    1. :meth:`project` stages ``xs`` into the leased ``(4, B, T, H)``
       projection block and returns per-gate views for the planner.
    2. :meth:`execute` runs the unrolled timestep loop into caller-owned
       output arrays.

    ``arena`` is the :class:`WorkspaceArena` the workspace is leased from
    (the executor passes its cache's); omitted, the program owns a private
    one.
    """

    def __init__(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        batch: int,
        seq_len: int,
        drs_alpha: float = 0.0,
        arena: WorkspaceArena | None = None,
    ) -> None:
        hidden = united.u.shape[1]
        self.batch = batch
        self.seq_len = seq_len
        self.hidden = hidden
        self.drs_alpha = drs_alpha
        self._link = link
        # Operands: views of the layer's own blocks, one leading slice per
        # gate. Each gate block is row-major and consumed through a transpose
        # view, so the products below dispatch the same GEMV as the reference
        # walk's per-gate `h @ u_g.T` (see module docstring). A gate block
        # that takes slabs (`uses_slabs`) splits at `cut`: rows [0, cut) of
        # every gate form one stack of 64-row slabs, rows [cut, H) the
        # tail — the remainder slab, or the whole gate without slabs.
        u_gates = united.u.reshape(4, hidden, hidden)
        cut = 0
        if uses_slabs(u_gates[0].nbytes, batch):
            lo, hi = slab_bounds(hidden)[-1]
            cut = hi if hi - lo == SLAB_ROWS else lo
        self._cut = cut
        self._u_slabs = (
            u_gates[:, :cut]
            .reshape(4, cut // SLAB_ROWS, SLAB_ROWS, hidden)
            .transpose(0, 1, 3, 2)[:, :, None]
        )  # (4, cut/64, 1, H, 64)
        self._u_tail = u_gates[:, cut:].transpose(0, 2, 1)[:, None]  # (4, 1, H, H - cut)
        self._w_ops = united.gate_w_ops()  # (E, H) each
        self._b = united.b.reshape(4, 1, hidden)

        # The workspace: every per-step array the loop touches, the small
        # per-step ones first (programs of one arena overlay them, so they
        # stay cache-warm from layer to layer) and `proj`, the largest
        # block (4 * B * T * H doubles), last.
        slabs = [
            ("h", (batch, hidden), float),
            ("c", (batch, hidden), float),
            ("hu", (4, batch, 1, hidden), float),
            ("pre", (4, batch, hidden), float),
            ("s1", (3, batch, hidden), float),
            ("s2", (3, batch, hidden), float),
            ("m", (3, batch, hidden), bool),
            ("t1", (batch, hidden), float),
        ]
        if drs_alpha > 0.0:
            slabs.append(("masks_all", (batch, seq_len, hidden), bool))
        slabs.append(("proj", (4, batch, seq_len, hidden), float))
        self._lease(arena, slabs)

    def _bind(self) -> SimpleNamespace:
        ws = super()._bind()
        batch, hidden, cut = self.batch, self.hidden, self._cut
        n_slabs = cut // SLAB_ROWS
        # Fixed views, built once so the loop creates no per-step objects.
        ws.h_op = ws.h[None, :, None, :]  # (1, B, 1, H) matmul operand
        # The recurrent product lands in `hu`'s bytes slab-major — a slab's
        # rows for the whole batch contiguous, so matmul's loop reuses each
        # slab across the batch before the next — and the pre-activation
        # add reads it back through gate-major views of the same bytes.
        flat = ws.hu.reshape(-1)
        ws.hu_slabs = flat[: 4 * batch * cut].reshape(4, n_slabs, batch, 1, SLAB_ROWS)
        ws.hu_tail = flat[4 * batch * cut :].reshape(4, batch, 1, hidden - cut)
        ws.hu_head_v = ws.hu_slabs[:, :, :, 0].transpose(0, 2, 1, 3)  # (4, B, cut/64, 64)
        ws.hu_tail_v = ws.hu_tail[:, :, 0]  # (4, B, H - cut)
        ws.pre_head = ws.pre[..., :cut].reshape(4, batch, n_slabs, SLAB_ROWS)
        ws.pre_tail = ws.pre[..., cut:]
        ws.f, ws.i, ws.g, ws.o = ws.pre
        # The sigmoid gates in place: the contiguous (f, i) pair, then o,
        # each as (x, out, s1, s2, mask) of one sigmoid_into call.
        fi = ws.pre[:2]
        ws.sig_fi = (fi, fi, ws.s1[:2], ws.s2[:2], ws.m[:2])
        ws.sig_o = (ws.o, ws.o, ws.s1[2], ws.s2[2], ws.m[2])
        proj_t = [ws.proj[:, :, t] for t in range(self.seq_len)]
        ws.proj_head = [p[..., :cut].reshape(4, batch, n_slabs, SLAB_ROWS) for p in proj_t]
        ws.proj_tail = [p[..., cut:] for p in proj_t]
        if self.drs_alpha > 0.0:
            ws.mask_t = [ws.masks_all[:, t] for t in range(self.seq_len)]
        return ws

    @property
    def masks_all(self) -> np.ndarray | None:
        """Per-step ``(B, T, H)`` DRS masks of the last run (``None``
        without DRS): arena bytes, so the executor reduces or copies them
        before anything else runs."""
        return getattr(self._ws or self._bind(), "masks_all", None)

    def project(self, xs: np.ndarray) -> dict[str, np.ndarray]:
        """Stage the per-gate input projections; returns planner views.

        The matmul is lifted to per-row GEMV dispatch (:func:`project_rows`)
        — each token's projected bits are a pure function of the token and
        the weights, independent of ``T``, ``B``, or chunk boundaries (the
        property the streaming runtime's chunked replay relies on).
        ``out=`` never changes bits relative to the allocating call.
        """
        proj = (self._ws or self._bind()).proj
        project_rows(xs, self._w_ops, proj)
        return dict(zip(GATE_ORDER, proj))

    def gather(self, rows: np.ndarray, index: np.ndarray) -> dict[str, np.ndarray]:
        """:meth:`project` for a layer-0 batch whose distinct tokens are
        already projected (:func:`gather_rows`): same block, same bits,
        same planner views."""
        proj = (self._ws or self._bind()).proj
        gather_rows(rows, index, proj)
        return dict(zip(GATE_ORDER, proj))

    def execute(
        self,
        hs: np.ndarray,
        reset_cols: list[np.ndarray | None] | None = None,
        cs: np.ndarray | None = None,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        state_out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Run the compiled timestep loop.

        Args:
            hs: Caller-owned ``(B, T, H)`` output (freshly allocated per
                run — programs never alias output across runs).
            reset_cols: Per-timestep ``(B, 1)`` breakpoint reset columns
                (``None`` entries where no sequence resets), or ``None``
                when the inter level is off.
            cs: Optional ``(B, T, H)`` cell-state output.
            h0: Optional ``(B, H)`` initial hidden state (zeros when
                omitted). The streaming runtime injects each session's
                resident state here; bits are identical to a contiguous
                run because the loop's first recurrent operand is the
                same ``(1, H)`` row either way.
            c0: Optional ``(B, H)`` initial cell state (zeros when
                omitted).
            state_out: Optional ``(h_out, c_out)`` pair of ``(B, H)``
                arrays that receive the post-sequence state for
                re-injection on the next chunk.
        """
        ws = self._ws or self._bind()
        link = self._link
        alpha = self.drs_alpha
        drs = alpha > 0.0
        h, c, t1, pre = ws.h, ws.c, ws.t1, ws.pre
        f, i, g, o = ws.f, ws.i, ws.g, ws.o
        slabbed, tail = self._cut > 0, self._cut < self.hidden
        if h0 is None:
            h[:] = 0.0
        else:
            h[:] = h0
        if c0 is None:
            c[:] = 0.0
        else:
            c[:] = c0
        for t in range(self.seq_len):
            if reset_cols is not None:
                reset = reset_cols[t]
                if reset is not None:
                    np.copyto(h, link.h_bar, where=reset)
                    np.copyto(c, link.c_bar, where=reset)
            if slabbed:
                np.matmul(ws.h_op[None], self._u_slabs, out=ws.hu_slabs)
                np.add(ws.proj_head[t], ws.hu_head_v, out=ws.pre_head)
            if tail:
                np.matmul(ws.h_op, self._u_tail, out=ws.hu_tail)
                np.add(ws.proj_tail[t], ws.hu_tail_v, out=ws.pre_tail)
            np.add(pre, self._b, out=pre)
            sigmoid_into(*ws.sig_fi)
            sigmoid_into(*ws.sig_o)
            np.tanh(g, out=g)
            np.multiply(f, c, out=c)
            np.multiply(i, g, out=t1)
            np.add(c, t1, out=c)
            if drs:
                # Algorithm 3 as a mask: the activated output gate marks the
                # trivial units, whose cell state ends exactly 0.0 as in the
                # reference. The full-width update above is elementwise, so
                # it skips no load and moves no bit.
                mask = ws.mask_t[t]
                np.less(o, alpha, out=mask)
                np.putmask(c, mask, 0.0)
            np.tanh(c, out=t1)
            np.multiply(o, t1, out=h)
            hs[:, t] = h
            if cs is not None:
                cs[:, t] = c
        if state_out is not None:
            out_h, out_c = state_out
            out_h[:] = h
            out_c[:] = c


class CombinedGroupProgram(LeasedProgram):
    """Compiled wave walk of one combined-mode layer at a fixed ``(B, T)``.

    The program is compiled from shapes and weights only; the sequences'
    structural plans are run-time inputs, so one program serves every
    batch at its shape, whatever mix of plans the batch holds. A run walks
    *waves*: wave ``w`` is the ``w``-th tissue of every sequence that has
    one. Tissues of different sequences never depend on each other and a
    sequence's own tissues run in schedule order, so a wave's tissues are
    independent and execute together:

    * the wave's recurrent products are one ``(rows, H) @ (H, 4H)`` GEMM
      over every cell of every tissue in it — ``U`` is loaded once per
      wave, the paper's Sgemv -> Sgemm (graded, see the module docstring);
      with DRS, Algorithm 3 on the wave (:meth:`_wave_live`): an ``o``
      product over ``h``'s live columns, then an f/i/g product for the
      live units only;
    * gather, gate epilogue, the DRS intersection (one
      ``logical_and.reduceat`` over the wave's contiguous tissue extents)
      and scatter run once per wave over all of its rows.

    The per-plan index vectors come prebuilt on
    :class:`~repro.core.plan.CachedLayerPlan`; a run only concatenates and
    orders them (:func:`~repro.core.plan.wave_schedule`). The workspace
    holds one wave — at most ``B * mts`` rows — the sub-layer state and,
    with DRS, the live operand: at most ``4 * H * H`` doubles. Between
    walks the state and operand slabs hold :meth:`project`'s gathered
    input and ``W`` columns.
    """

    def __init__(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        batch: int,
        seq_len: int,
        mts: int,
        alpha_intra: float = 0.0,
        arena: WorkspaceArena | None = None,
    ) -> None:
        hidden = united.u.shape[1]
        cells = batch * seq_len
        rows = batch * min(mts, seq_len)  # the widest possible wave
        self.seq_len = seq_len
        self.hidden = hidden
        self.alpha_intra = alpha_intra
        self._link = link
        self._u_t = united.u.T  # (H, 4H) transpose view, as the reference
        self._b = united.b
        if alpha_intra > 0.0:
            # The live walk's per-unit constants: b (f, i, c, o), then what a
            # sub-layer starting from the link reads instead of its first
            # product, h_bar @ U^T (f, i, c, o), and c_bar.
            self._u3 = united.u.reshape(4, hidden, hidden)
            hbar_u = link.h_bar @ self._u_t
            self._units = np.concatenate([united.b, hbar_u, link.c_bar]).reshape(9, hidden)

        # One wave of scratch — gathered projections, pre-activations,
        # gathered h/c, gate outputs, c/h results, a temporary, the
        # activated (f, i) pair and two boolean planes (per-cell DRS mask,
        # per-row shared mask) — in the order execute() unpacks them.
        slabs = [(name, (rows, 4 * hidden), float) for name in ("x", "pre")]
        slabs += [(name, (rows, hidden), float) for name in _WAVE_PLANES]
        slabs.append(("fi", (rows, 2 * hidden), float))
        slabs += [(name, (rows, hidden), bool) for name in ("masks", "mask_rows")]
        self._wave_names = [name for name, _, _ in slabs]
        if alpha_intra > 0.0:
            # Per-tissue shared (intersection) masks, in walk order and —
            # what execute() returns — in sequence-major schedule order;
            # then the live walk's (_wave_live): the live units in discovery
            # order, their membership, the live operand (row p: column S[p]
            # of U_f, U_i, U_c at the live units, then of U_o), the
            # compacted unit constants and projections.
            slabs += [
                ("shared_walk", (cells, hidden), bool),
                ("shared", (cells, hidden), bool),
                ("live", (hidden,), np.intp),
                ("in_s", (hidden,), bool),
                ("dead", (hidden,), bool),
                ("live_u", (hidden, 4, hidden), float),
                ("live_units", (9, hidden), float),
                ("xs", (rows * 4 * hidden,), float),
            ]
        # Recurrent (h, c) state, one row per sub-layer of the batch: room
        # for the B * T a fully divided batch has. A layer typically has a
        # few per sequence, so the slab goes last, where the rows a walk
        # never reaches stay untouched pages.
        slabs.append(("state", (2, cells, hidden), float))
        self._lease(arena, slabs)

    def _bind(self) -> SimpleNamespace:
        ws = super()._bind()
        ws.scratch = tuple(getattr(ws, name) for name in self._wave_names)
        ws.h_flat, ws.c_flat = ws.state  # bound once: a warm walk makes no state views
        #: Views of the scratch per wave height (:meth:`_rows`), built on
        #: first use so a warm walk creates no array objects for heights
        #: it has seen.
        ws.wave_views = {}
        #: The scratch planes' bytes, flat: the live walk's compacted
        #: operands are contiguous prefixes of them.
        ws.flat = SimpleNamespace(**{k: getattr(ws, k).reshape(-1) for k in self._wave_names})
        return ws

    def _rows(self, ws: SimpleNamespace, n: int) -> tuple:
        """The scratch's leading ``n`` rows, the gate views the walk reads
        and the two sigmoid ladders' arguments. Once the projections are
        added in, ``x``'s bytes are the ladders' (contiguous) scratch, and
        each ladder's output plane doubles as its sign mask."""
        x, pre, h_prev, c_prev, o, g, c_new, h_new, t1, fi, masks, mask_rows = (
            buf[:n] for buf in ws.scratch
        )
        hid = self.hidden
        flat = ws.x.reshape(-1)[: 4 * n * hid]
        pair, single = flat.reshape(2, n, 2 * hid), flat[: 2 * n * hid].reshape(2, n, hid)
        # Gate columns in GATE_ORDER (f, i, c, o): the f, i pair is contiguous.
        views = (
            x, pre, h_prev, c_prev, o, g, c_new, h_new, t1, masks, mask_rows,
            fi[:, :hid], fi[:, hid:], pre[:, 2 * hid : 3 * hid],
            (pre[:, : 2 * hid], fi, *pair, fi),
            (pre[:, 3 * hid :], o, *single, o),
        )
        ws.wave_views[n] = views
        return views

    def execute(
        self, proj_u: np.ndarray, plans: "list[CachedLayerPlan]", hs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Walk ``plans`` over the fused projections ``proj_u`` ``(B, T, 4H)``.

        Fills ``hs``, the caller-owned ``(B, T, H)`` output (freshly
        allocated per run, as for :meth:`StepwiseProgram.execute`). With
        DRS live, returns ``(shared, live)``: the tissues' shared
        (intersection) masks as a ``(total tissues, H)`` workspace view —
        sequence 0's tissues in schedule order, then sequence 1's, … — for
        the caller's statistics, to be reduced before anything else runs;
        and the call's live set, sorted (a fresh array): every column of
        ``hs`` outside it is exactly ``0.0``. ``None`` otherwise.
        """
        ws = self._ws or self._bind()
        drs = self.alpha_intra > 0.0
        if not plans:
            return (ws.shared[:0], np.arange(0)) if drs else None
        proj_flat = proj_u.reshape(-1, 4 * self.hidden)
        hs_flat = hs.reshape(-1, self.hidden)
        waves, rank, chains, num_chains = wave_schedule(plans, self.seq_len)
        h_flat, c_flat = ws.h_flat, ws.c_flat
        if drs:
            # The DRS walk's state starts all zeros (compacted while it is
            # sparse, see _wave_live); link rows read the link from the
            # unit constants instead.
            h_flat[:num_chains] = 0.0
            c_flat[:num_chains] = 0.0
            hs_flat[:] = 0.0
            ws.in_s[:] = False
        else:
            # Every sub-layer starts from the predicted link, except each
            # sequence's first, which starts from zeros.
            h_flat[:num_chains] = self._link.h_bar
            c_flat[:num_chains] = self._link.c_bar
            h_flat[chains] = 0.0
            c_flat[chains] = 0.0
        wave_views = ws.wave_views
        live, dense = 0, not drs
        for wave in waves:
            out_rows, state_rows = wave[:2]
            link_rows = wave[5]
            views = wave_views.get(out_rows.size) or self._rows(ws, out_rows.size)
            (
                x, pre, h_prev, c_prev, o, g, c_new, h_new, t1, masks, mask_rows,
                f, i, pre_c, sig_fi, sig_o,
            ) = views
            # mode="clip" only skips take's bounds-check staging copy;
            # the schedule's rows are in range by construction.
            proj_flat.take(out_rows, axis=0, out=x, mode="clip")
            o_done = False
            if not dense:
                grown = self._wave_live(ws, views, wave, live, hs_flat)
                if grown >= 0:
                    live = grown
                    continue
                self._expand(ws, live, num_chains)
                dense = o_done = True  # the wave's o and masks are in place
            h_flat.take(state_rows, axis=0, out=h_prev, mode="clip")
            c_flat.take(state_rows, axis=0, out=c_prev, mode="clip")
            # The wave's one GEMM: U is loaded once for every cell of every
            # tissue in the wave (the paper's Sgemv -> Sgemm).
            np.matmul(h_prev, self._u_t, out=pre)
            if drs and link_rows.size:
                pre[link_rows] = self._units[4:8].reshape(-1)  # h_bar @ U^T
                c_prev[link_rows] = self._units[8]
            np.add(x, pre, out=pre)
            np.add(pre, self._b, out=pre)
            sigmoid_into(*sig_fi)
            if not o_done:
                sigmoid_into(*sig_o)
                if drs:
                    np.logical_not(self._masks(ws, views, wave), out=ws.dead)
                    np.logical_or(ws.in_s, ws.dead, out=ws.in_s)
            np.tanh(pre_c, out=g)
            np.multiply(f, c_prev, out=c_new)
            np.multiply(i, g, out=t1)
            np.add(c_new, t1, out=c_new)
            if drs:
                np.putmask(c_new, mask_rows, 0.0)
            np.tanh(c_new, out=t1)
            np.multiply(o, t1, out=h_new)
            h_flat[state_rows] = h_new
            c_flat[state_rows] = c_new
            hs_flat[out_rows] = h_new
        if not drs:
            return None
        shared = ws.shared[: rank.size]
        np.take(ws.shared_walk, rank, axis=0, out=shared, mode="clip")
        return shared, np.flatnonzero(ws.in_s)

    def project(self, xs: np.ndarray, live: np.ndarray | None, w: np.ndarray, out) -> None:
        """A layer >= 1's projections ``out = xs @ w^T`` (graded), over only
        the columns ``live`` of its input ``xs`` ``(B, T, E)`` — the previous
        layer's live set; every other column is exactly ``0.0`` — unless
        they reach :data:`DENSE_LIVE_SHARE` of ``E``. The gathered operands
        sit in the state and live operand slabs, free between walks."""
        rows, width = xs.shape[0] * xs.shape[1], xs.shape[2]
        xs, out = xs.reshape(rows, width), out.reshape(rows, w.shape[0])
        if live is not None and live.size < DENSE_LIVE_SHARE * width:
            ws, k = self._ws or self._bind(), live.size
            xk = ws.state.reshape(-1)[: rows * k].reshape(rows, k)
            wk = ws.live_u.reshape(-1)[: w.shape[0] * k].reshape(w.shape[0], k)
            xs, w = np.take(xs, live, axis=1, out=xk), np.take(w, live, axis=1, out=wk)
        np.matmul(xs, w.T, out=out)

    def _masks(self, ws: SimpleNamespace, views: tuple, wave: tuple) -> np.ndarray:
        """The wave's shared masks from its ``o``: a tissue's is the
        intersection of its cells' trivial rows, and every one of its cells
        drops those rows (a wave of single cells: its own masks, stored as
        they are). Fills ``mask_rows`` and the wave's tissues in
        ``shared_walk``; returns ``ws.dead``, the units no tissue of the
        call has kept yet."""
        _, tissues, starts, tissue_of_row = wave[1:5]
        o, masks, mask_rows = views[4], views[9], views[10]
        if starts.size == mask_rows.shape[0]:
            np.less(o, self.alpha_intra, out=mask_rows)
            ws.shared_walk[tissues] = mask_rows
        else:
            np.less(o, self.alpha_intra, out=masks)
            np.logical_and.reduceat(masks, starts, axis=0, out=ws.shared_walk[tissues])
            ws.shared_walk.take(tissue_of_row, axis=0, out=mask_rows, mode="clip")
        np.logical_and.reduce(ws.shared_walk[tissues], axis=0, out=ws.dead)
        return np.logical_or(ws.dead, ws.in_s, out=ws.dead)

    def _wave_live(
        self, ws: SimpleNamespace, views: tuple, wave: tuple, live: int, hs_flat: np.ndarray
    ) -> int:
        """One wave of the DRS walk — Algorithm 3 on a wave — once its
        projections are in ``x``; returns the new live count, or ``-1``
        once the live set is dense (the caller expands the state and
        finishes the wave).

        The live units ``S`` (``ws.live[:live]``, in discovery order) are
        the units some tissue of this call has kept so far. Any other unit
        was dropped in every row yet walked, so its ``c`` and ``h`` are
        exactly ``0.0`` there: the state is kept compacted (column ``p``
        holds unit ``S[p]``, columns past ``|S|`` stay zero), and a product
        needs only ``h``'s live columns ``K`` — ``S`` as the wave found it.
        Link rows hold zeros and read ``h_bar @ U^T`` and ``c_bar`` from
        the unit constants instead. The wave forms ``o`` over ``K``, builds
        the shared masks, grows ``S`` by the units it keeps (and the live
        operand with them, in place: :meth:`_grow`), then runs the f/i/g
        product over ``K`` and the cell update for ``S`` only; every other
        unit ends ``c = h = 0``, as the masked reference's. Once ``S``
        would reach :data:`DENSE_LIVE_SHARE` of the units, this wave and
        the rest run full width with the masks instead.
        """
        out_rows, state_rows, link_rows = wave[0], wave[1], wave[5]
        x, pre, h_prev, c_prev, o, g, c_new, h_new, t1, masks, mask_rows = views[:11]
        n, hid, k, flat = out_rows.size, self.hidden, live, ws.flat
        # Whole state rows: take would first copy a strided source whole.
        ws.h_flat.take(state_rows, axis=0, out=h_prev, mode="clip")
        hk = h_prev[:, :k]
        pre_o = flat.pre[: n * hid].reshape(n, hid)
        np.matmul(hk, ws.live_u[:k, 3], out=pre_o)
        if link_rows.size:
            pre_o[link_rows] = self._units[7]
        np.add(x[:, 3 * hid :], pre_o, out=pre_o)
        np.add(pre_o, self._units[3], out=pre_o)
        sigmoid_into(pre_o, o, c_new, h_new, o)
        new = np.flatnonzero(~self._masks(ws, views, wave))
        if live + new.size >= DENSE_LIVE_SHARE * hid:
            ws.in_s[new] = True
            return -1
        if new.size:
            live = self._grow(ws, new, k)
        s, order = live, ws.live[:live]
        ns = n * s

        xs = ws.xs[: 4 * ns].reshape(n, 4, s)
        x.reshape(n, 4, hid).take(order, axis=2, out=xs, mode="clip")
        y = flat.pre[n * hid : n * hid + 3 * ns].reshape(3, n, s)
        np.matmul(hk, ws.live_u[:k, :3, :s].transpose(1, 0, 2), out=y)
        if link_rows.size:
            y[:, link_rows] = ws.live_units[4:7, None, :s]
        np.add(xs[:, :3].transpose(1, 0, 2), y, out=y)
        np.add(y, ws.live_units[:3, None, :s], out=y)
        fi, gk = y[:2], y[2]
        sigmoid_into(fi, fi, *flat.x[: 4 * ns].reshape(2, 2, n, s), fi)
        np.tanh(gk, out=gk)
        ws.c_flat.take(state_rows, axis=0, out=c_prev, mode="clip")
        cs = c_prev[:, :s]
        if link_rows.size:
            cs[link_rows] = ws.live_units[8, :s]
        cn = flat.c_new[:ns].reshape(n, s)
        np.multiply(fi[0], cs, out=cn)
        np.multiply(fi[1], gk, out=gk)
        np.add(cn, gk, out=cn)
        dropped = flat.masks[:ns].reshape(n, s)
        mask_rows.take(order, axis=1, out=dropped, mode="clip")
        np.putmask(cn, dropped, 0.0)
        hn = flat.t1[:ns].reshape(n, s)
        np.tanh(cn, out=hn)
        np.multiply(o.take(order, axis=1, out=flat.g[:ns].reshape(n, s), mode="clip"), hn, out=hn)
        ws.h_flat[state_rows, :s] = hn
        ws.c_flat[state_rows, :s] = cn
        hs_flat[out_rows[:, None], order] = hn
        return live

    def _grow(self, ws: SimpleNamespace, new: np.ndarray, s0: int) -> int:
        """Append the units ``new`` to the live set of ``s0`` units: their
        constants, the live operand's rows for them as input columns
        (``U_o``'s, and ``U_f``/``U_i``/``U_c``'s at every live unit) and
        its columns for them as outputs; returns ``|S|``."""
        s = s0 + new.size
        ws.live[s0:s] = new
        ws.in_s[new] = True
        order = ws.live[:s]
        ws.live_units[:, s0:s] = self._units[:, new]
        u3, gates = self._u3, np.arange(3)[:, None, None]
        ws.live_u[s0:s, 3] = u3[3][:, new].T
        ws.live_u[s0:s, :3, :s] = u3[gates, order[:, None], new].transpose(2, 0, 1)
        ws.live_u[:s0, :3, s0:s] = u3[gates, new[:, None], order[:s0]].transpose(2, 0, 1)
        return s

    @staticmethod
    def _expand(ws: SimpleNamespace, live: int, num_chains: int) -> None:
        """Lay the compacted state of ``live`` units out by unit (column
        ``u`` holds unit ``u``, every other column ``0.0``)."""
        for state in ws.state:
            rows = state[:num_chains]
            kept = rows[:, :live].copy()
            rows[:] = 0.0
            rows[:, ws.live[:live]] = kept
