"""Compiled plan programs: preallocated, fused lowerings of layer execution.

A timestep loop written as plain numpy expressions (the frozen
:mod:`repro.core.reference` walk) pays avoidable memory churn on every step:
each gate activation allocates fresh ``(B, H)`` arrays, every step
re-derives operand views, and the pre-activation chain materializes three
intermediates per gate. This module lowers one layer's execution — the
timestep loop of the stepwise modes, or one plan group's tissue walk in
combined mode — into a *program*: an object that owns

* **staged weights** — the per-gate recurrent blocks restacked once into a
  ``(4, H, H)`` array (each block kept row-major, so BLAS sees the same
  transposed-GEMV layout as the reference walk and the bits match),
* **a single preallocated workspace** — gate slabs, ``h``/``c`` state,
  DRS mask scratch, gather/scatter index vectors — reused across
  timesteps and across runs via ``np.matmul(..., out=)`` and in-place
  ufunc chains,
* **a flat op list** — tissue steps are unrolled at compile time into
  ``(k, state-rows, gather-rows)`` tuples; breakpoint resets arrive as a
  per-timestep column list resolved by the caller from the sequence plans.

Bit-identity contract: every program below reproduces the reference
walk's arithmetic *exactly* (property-tested in ``tests/test_program.py`` and
``tests/test_executor_equivalence.py``). The rules that make this work on
OpenBLAS, measured on this platform:

* ``np.matmul(..., out=)`` never changes bits relative to the allocating
  call — the dispatch is chosen from the operands, not the output.
* The four per-gate recurrent products collapse into **one** broadcast
  stacked matmul ``(1, B, 1, H) @ (4, 1, H, H)``: each ``(1, H) @ (H, H)``
  slice dispatches the same GEMV as the per-gate call (0 mismatches in
  10^4 random trials), so a step costs one BLAS dispatch instead of four.
* Gate blocks may be *restacked* (copied) as long as each ``(H, H)`` block
  stays row-major and is consumed through a transpose view — layout is
  what selects the BLAS kernel. Re-laying a block out transposed-
  contiguous changes the reduction order and the bits (up to 100 %
  mismatch measured), so that classic "pre-transpose the weights"
  staging is deliberately NOT done here.
* In-place ufunc chains (the sigmoid ladder below, ``tanh(out=)``, the
  cell update) are elementwise and bit-identical to their allocating
  forms; ``np.take(..., out=)`` and boolean ``np.copyto`` likewise.

Programs are built by :class:`~repro.core.executor.LSTMExecutor` (they
are its only forward pass) and cached in a :class:`ProgramCache` keyed on
(weights fingerprint, link fingerprint, shapes, and — for combined mode —
the plan signature ``schedule_key``), so repeated runs, threshold sweeps
over one batch, and fleet shards grouped by the runtime scheduler all
reuse one compiled program. Workspace lifetime rule: a program owns its
buffers for as long as it is cached; every run rewrites the full state
(``h``/``c`` set on entry — zeros, or caller-injected resident state for
the streaming runtime — and every output cell written), so consecutive
runs are bit-identical to fresh executors — property-tested, including
across mid-sequence breakpoint resets.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context_prediction import PredictedLink
    from repro.core.executor import _UnitedWeights
    from repro.core.plan import CachedLayerPlan

#: Gate order of the *stacked* stepwise buffers: the three sigmoid gates
#: first (one fused in-place sigmoid over a contiguous ``[:3]`` slab), the
#: tanh candidate last. This is a buffer layout choice only — each gate's
#: arithmetic is unchanged — and differs from the united-matrix row order
#: ``GATE_ORDER`` (f, i, c, o), hence the explicit restack at compile time.
STACK_ORDER: tuple[str, ...] = ("f", "i", "o", "c")


def sigmoid_into(
    x: np.ndarray,
    out: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    mask: np.ndarray,
) -> None:
    """In-place numerically-stable sigmoid, bit-identical to
    :func:`repro.nn.activations.sigmoid`.

    Mirrors the library ladder step for step — ``ex = exp(-|x|)``,
    ``denom = 1 + ex``, positive branch ``1/denom``, negative branch
    ``ex/denom`` — with every intermediate landing in caller scratch.
    ``out`` may alias ``x`` (the sign mask is read before the first
    overwrite). All buffers share ``x``'s shape; ``mask`` is boolean.
    """
    np.abs(x, out=s1)
    np.negative(s1, out=s1)
    np.exp(s1, out=s1)  # s1 = exp(-|x|)
    np.add(1.0, s1, out=s2)  # s2 = 1 + exp(-|x|)
    np.greater_equal(x, 0.0, out=mask)
    np.divide(s1, s2, out=out)  # negative branch
    np.divide(1.0, s2, out=s2)  # positive branch
    np.copyto(out, s2, where=mask)


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
    """Bounded LRU cache of compiled programs.

    Programs own multi-megabyte workspaces, so the default bound is far
    smaller than the :class:`~repro.core.plan.PlanCache` bound; an entry
    is one (shape, weights, plan-signature) combination and a steady
    serving workload needs only a handful.

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
        self._lock = threading.Lock()
        self._pending: dict[Hashable, threading.Event] = {}
        self.stats = ProgramCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        """Drop every program (counters are kept)."""
        with self._lock:
            self._store.clear()

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


class StepwiseProgram:
    """Compiled timestep loop for the stepwise modes.

    One program serves BASELINE / ZERO_PRUNE / INTER / INTRA at a fixed
    ``(B, T)``: the mode differences — breakpoint resets, the DRS mask —
    are run-time inputs, so the program is keyed on shapes and weights
    only and reused across plans.

    Two-phase API (the inter-level planner needs the input projections
    *before* the recurrence runs):

    1. :meth:`project` stages ``xs`` into the preallocated ``(4, B, T, H)``
       projection block and returns per-gate views for the planner.
    2. :meth:`execute` runs the unrolled timestep loop into caller-owned
       output arrays.
    """

    def __init__(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        batch: int,
        seq_len: int,
        drs_alpha: float = 0.0,
    ) -> None:
        hidden = united.u.shape[1]
        self.batch = batch
        self.seq_len = seq_len
        self.hidden = hidden
        self.drs_alpha = drs_alpha
        self._link = link
        sl = united.slices
        # Staged weights: restack the recurrent gate blocks into STACK_ORDER.
        # np.stack keeps each (H, H) block row-major — the layout that makes
        # the transpose view below dispatch the same GEMV as the reference
        # walk's per-gate `h @ u_g.T` (see module docstring).
        u_stack = np.stack([united.u[sl[g]] for g in STACK_ORDER])
        self._u_op = u_stack.transpose(0, 2, 1)[:, None]  # (4, 1, H, H)
        self._w_ops = [united.w[sl[g]].T for g in STACK_ORDER]  # (E, H) views
        self._b = np.stack([united.b[sl[g]] for g in STACK_ORDER])[:, None, :]

        # The workspace: every per-step array the loop touches, allocated
        # once. `proj` is the largest block (4 * B * T * H doubles).
        self.proj = np.empty((4, batch, seq_len, hidden))
        self.h = np.zeros((batch, hidden))
        self.c = np.zeros((batch, hidden))
        self._hu = np.empty((4, batch, 1, hidden))
        self._pre = np.empty((4, batch, hidden))
        self._s1 = np.empty((3, batch, hidden))
        self._s2 = np.empty((3, batch, hidden))
        self._m = np.empty((3, batch, hidden), dtype=bool)
        self._t1 = np.empty((batch, hidden))
        #: Per-step DRS masks (read by the executor for skip statistics);
        #: fully rewritten on every DRS run.
        self.masks_all = (
            np.empty((batch, seq_len, hidden), dtype=bool) if drs_alpha > 0.0 else None
        )
        if drs_alpha > 0.0:
            # Compacted-update scratch (Algorithm 3 in the program): on
            # steps where some row is trivial across the whole batch, the
            # g tanh and the cell update run on the surviving columns
            # only, gathered into the leading elements of these buffers.
            # Flat full-capacity allocations reshaped per step — the alive
            # count varies, the capacity does not. The per-step views must
            # be CONTIGUOUS (prefix-of-flat, not a ``[:, :, :k]`` column
            # slice): in-place unary ufuncs on strided views read the gap
            # bytes on some numpy builds, leaking uninitialized scratch
            # into the activation ladder.
            self._cfi = np.empty(2 * batch * hidden)
            self._cg = np.empty(batch * hidden)
            self._cc = np.empty(batch * hidden)
            self._dropped = np.empty(hidden, dtype=bool)
            self._alive = np.empty(hidden, dtype=bool)
        # Fixed views, built once so the loop creates no per-step objects.
        self._h_op = self.h[None, :, None, :]  # (1, B, 1, H) matmul operand
        self._huv = self._hu[:, :, 0, :]  # (4, B, H)
        self._sig = self._pre[:3]  # the three sigmoid gates, contiguous
        self._f, self._i, self._o, self._g = self._pre
        self._proj_t = [self.proj[:, :, t] for t in range(seq_len)]
        self._mask_t = (
            [self.masks_all[:, t] for t in range(seq_len)]
            if self.masks_all is not None
            else None
        )

    def project(self, xs: np.ndarray, exact: bool = True) -> dict[str, np.ndarray]:
        """Stage the per-gate input projections; returns planner views.

        The matmul is lifted to per-row GEMV dispatch exactly like
        :func:`repro.core.executor._row_proj` — each token's
        projected bits are a pure function of the token and the weights,
        independent of ``T``, ``B``, or chunk boundaries (the property the
        streaming runtime's chunked replay relies on). ``out=`` never
        changes bits relative to the allocating call.

        ``exact`` exists for signature parity with the cgen backend
        programs (:mod:`repro.core.backends`) and is ignored: the numpy
        lowering always projects exactly — it *is* the oracle.
        """
        xs_rows = xs[:, :, None, :]  # (B, T, 1, E): one GEMV per token
        for idx in range(4):
            np.matmul(xs_rows, self._w_ops[idx], out=self.proj[idx][:, :, None, :])
        return {g: self.proj[idx] for idx, g in enumerate(STACK_ORDER)}

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
        link = self._link
        alpha = self.drs_alpha
        drs = alpha > 0.0
        h, c, t1 = self.h, self.c, self._t1
        if h0 is None:
            h[:] = 0.0
        else:
            h[:] = h0
        if c0 is None:
            c[:] = 0.0
        else:
            c[:] = c0
        # Without resets the loop writes each step's h straight into its
        # output column and reads it back as the next step's operand — a
        # (1, H) slice of hs is contiguous, so the stacked matmul
        # dispatches the same per-row GEMV as the h-buffer operand.
        direct = reset_cols is None
        h_out = h
        prev_op = self._h_op
        for t in range(self.seq_len):
            if not direct:
                reset = reset_cols[t]
                if reset is not None:
                    np.copyto(h, link.h_bar, where=reset)
                    np.copyto(c, link.c_bar, where=reset)
            np.matmul(prev_op, self._u_op, out=self._hu)
            np.add(self._proj_t[t], self._huv, out=self._pre)
            np.add(self._pre, self._b, out=self._pre)
            sigmoid_into(self._sig, self._sig, self._s1, self._s2, self._m)
            if drs:
                # Algorithm 3: the activated output gate decides how much
                # of the remaining elementwise work survives this step.
                # The fused three-gate sigmoid above stays on the hot path
                # (per-element, so activating f/i before the mask is known
                # is bit-free); only the tanh + cell update compact.
                mask = self._mask_t[t]
                np.less(self._o, alpha, out=mask)
                np.all(mask, axis=0, out=self._dropped)
                if self._dropped.any():
                    # Batch-wide trivial rows: gather the survivors into
                    # compact scratch, run the g tanh and the cell update
                    # on ``(B, alive)`` only, and scatter back. Per-element
                    # ops on a column subset are bit-identical to full
                    # width (the recurrent product above stays full width —
                    # shrinking a GEMV changes BLAS's N dimension, hence its
                    # blocking and reduction order and the last bit).
                    np.logical_not(self._dropped, out=self._alive)
                    alive = np.flatnonzero(self._alive)
                    k = alive.size
                    bk = self.batch * k
                    fi = self._cfi[: 2 * bk].reshape(2, self.batch, k)
                    np.take(self._f, alive, axis=1, out=fi[0])
                    np.take(self._i, alive, axis=1, out=fi[1])
                    g = self._cg[:bk].reshape(self.batch, k)
                    np.take(self._g, alive, axis=1, out=g)
                    np.tanh(g, out=g)
                    ck = self._cc[:bk].reshape(self.batch, k)
                    np.take(c, alive, axis=1, out=ck)
                    np.multiply(fi[0], ck, out=ck)
                    np.multiply(fi[1], g, out=g)
                    np.add(ck, g, out=ck)
                    c[:, alive] = ck
                else:
                    np.tanh(self._g, out=self._g)
                    np.multiply(self._f, c, out=c)
                    np.multiply(self._i, self._g, out=t1)
                    np.add(c, t1, out=c)
                # Masked elements end exactly 0.0 on both sides: surviving
                # elements ran the same chain as the reference's full-width
                # update, dropped ones never see a stale value.
                np.copyto(c, 0.0, where=mask)
            else:
                np.tanh(self._g, out=self._g)
                np.multiply(self._f, c, out=c)
                np.multiply(self._i, self._g, out=t1)
                np.add(c, t1, out=c)
            np.tanh(c, out=t1)
            if direct:
                h_out = hs[:, t]
                np.multiply(self._o, t1, out=h_out)
                prev_op = h_out[None, :, None, :]
            else:
                np.multiply(self._o, t1, out=h)
                hs[:, t] = h
            if cs is not None:
                cs[:, t] = c
        if state_out is not None:
            out_h, out_c = state_out
            out_h[:] = hs[:, self.seq_len - 1]
            out_c[:] = c


class _TissueBuffers:
    """Per-tissue-width scratch of one :class:`CombinedGroupProgram`."""

    def __init__(self, group: int, k: int, hidden: int) -> None:
        self.x = np.empty((group, k, 4 * hidden))
        self.x2d = self.x.reshape(group * k, 4 * hidden)
        self.hu = np.empty((group, k, 4 * hidden))
        self.hp = np.empty((group, k, hidden))
        self.hp2d = self.hp.reshape(group * k, hidden)
        self.cp = np.empty((group, k, hidden))
        self.cp2d = self.cp.reshape(group * k, hidden)
        self.o = np.empty((group, k, hidden))
        self.f = np.empty((group, k, hidden))
        self.i = np.empty((group, k, hidden))
        self.g = np.empty((group, k, hidden))
        self.g2d = self.g.reshape(group * k, hidden)
        self.cn = np.empty((group, k, hidden))
        self.cn2d = self.cn.reshape(group * k, hidden)
        self.t1 = np.empty((group, k, hidden))
        self.s1 = np.empty((group, k, hidden))
        self.s2 = np.empty((group, k, hidden))
        self.m = np.empty((group, k, hidden), dtype=bool)
        self.masks = np.empty((group, k, hidden), dtype=bool)


class CombinedGroupProgram:
    """Compiled tissue walk for one combined-mode plan group.

    Compiled from one :class:`~repro.core.plan.CachedLayerPlan` for a fixed
    group size ``G``. Compilation analyzes the plan's dependency structure
    and picks one of two lowerings:

    * **Constant-folded layer** — when every sub-layer has length 1 (the
      fully-divided regime a high inter threshold produces), no cell's
      recurrent operand depends on another cell: every ``h_prev`` row is a
      pinned constant (zeros for sub-layer 0, the predicted link state
      elsewhere). The recurrent GEMMs are then evaluated *once at compile
      time* — per tissue, the same ``(k, H) @ (H, 4H)`` product the
      reference walk would run every step, staged into a ``(T, 4H)``
      table — and the whole layer collapses into a few full-width
      elementwise passes with no gathers, scatters, or per-tissue loop.
      The per-tissue DRS intersections become one ``logical_and.reduceat``
      over the tissue extents.
    * **Tissue walk** — for plans with real recurrence chains, the flat op
      list holds, per tissue, the precomputed state-row and projection-row
      index vectors, so the run-time loop is pure gather / stacked-GEMM /
      in-place-elementwise / scatter with no index arithmetic and no
      allocation.

    Both lowerings reproduce the reference tissue walk: the stacked
    ``(G, k, H) @ (H, 4H)`` matmul runs the same ``(k, H)`` GEMM per
    leading slice, so identical constant slices give identical bits, and
    every elementwise op is per-element. Cached under the plan's
    ``signature`` (:func:`repro.core.tissue.schedule_key`) — the same key
    the fleet scheduler groups dispatches by, so every shard of a
    scheduler group replays one program.
    """

    def __init__(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        plan: "CachedLayerPlan",
        group: int,
        seq_len: int,
        alpha_intra: float = 0.0,
    ) -> None:
        hidden = united.u.shape[1]
        self.group = group
        self.seq_len = seq_len
        self.hidden = hidden
        self.alpha_intra = alpha_intra
        self.n_sub = n_sub = len(plan.sublayers)
        self.n_tissues = len(plan.tissues)
        self._link = link
        self._u_t = united.u.T  # (H, 4H) transpose view, as the reference
        self._b = united.b
        sl = united.slices
        self._sl_f, self._sl_i = sl["f"], sl["i"]
        self._sl_c, self._sl_o = sl["c"], sl["o"]

        #: Per-run hidden output, scattered back to batch rows by the caller.
        self.hs = np.empty((group, seq_len, hidden))
        #: Per-tissue shared (intersection) DRS masks for the statistics
        #: reductions, shaped ``(n_tissues, G, H)``; fully rewritten each
        #: run when DRS is live.
        self.shared: np.ndarray | None = None

        self.fused = self._compile_fused(united, link, plan)
        if not self.fused:
            self._compile_walk(plan)

    # ------------------------------------------------- constant-folded form

    def _compile_fused(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        plan: "CachedLayerPlan",
    ) -> bool:
        """Try the constant-folded lowering; returns False when the plan
        has a real recurrence chain (some sub-layer longer than one step)
        or a non-contiguous tissue partition."""
        group, seq_len, hidden = self.group, self.seq_len, self.hidden
        if any(sub.length != 1 for sub in plan.sublayers):
            return False
        starts = []
        cursor = 0
        for tissue in plan.tissues:
            ts = [t for _, t in tissue.cells]
            if ts != list(range(cursor, cursor + len(ts))):
                return False
            starts.append(cursor)
            cursor += len(ts)
        if cursor != seq_len:
            return False

        # Every h_prev/c_prev row is a pinned constant: zeros for
        # sub-layer 0, the predicted link state elsewhere. Evaluate each
        # tissue's recurrent GEMM once, with exactly the reference walk's
        # dimensions — (k, H) @ (H, 4H) is what every slice of the stacked
        # runtime matmul dispatches — and stage the rows by timestamp.
        self._hu_map = np.empty((seq_len, 4 * hidden))
        self._c_map = np.empty((seq_len, hidden))
        for tissue in plan.tissues:
            h_prev = np.stack(
                [np.zeros(hidden) if s == 0 else link.h_bar for s, _ in tissue.cells]
            )
            hu = h_prev @ self._u_t  # (k, 4H), compile-time
            for j, (s, t) in enumerate(tissue.cells):
                self._hu_map[t] = hu[j]
                self._c_map[t] = 0.0 if s == 0 else link.c_bar

        # Full-width workspace: one slab per intermediate, reused across
        # runs; gate outputs land in fresh buffers exactly like the
        # reference walk's allocating calls.
        self._pre = np.empty((group, seq_len, 4 * hidden))
        self._o = np.empty((group, seq_len, hidden))
        self._f = np.empty((group, seq_len, hidden))
        self._i = np.empty((group, seq_len, hidden))
        self._g = np.empty((group, seq_len, hidden))
        self._cn = np.empty((group, seq_len, hidden))
        self._t1 = np.empty((group, seq_len, hidden))
        self._s1 = np.empty((group, seq_len, hidden))
        self._s2 = np.empty((group, seq_len, hidden))
        self._m = np.empty((group, seq_len, hidden), dtype=bool)
        if self.alpha_intra > 0.0:
            self._masks = np.empty((group, seq_len, hidden), dtype=bool)
            self._starts = np.asarray(starts)
            #: t -> tissue index, to expand the shared masks back per cell.
            self._rep_idx = np.repeat(
                np.arange(self.n_tissues),
                [len(t.cells) for t in plan.tissues],
            )
            self._shared_gt = np.empty((group, self.n_tissues, hidden), dtype=bool)
            self.shared = self._shared_gt.transpose(1, 0, 2)
            self._mask_full = np.empty((group, seq_len, hidden), dtype=bool)
        return True

    def _execute_fused(self, proj_group: np.ndarray) -> None:
        alpha = self.alpha_intra
        np.add(proj_group, self._hu_map, out=self._pre)
        np.add(self._pre, self._b, out=self._pre)
        pre = self._pre
        sigmoid_into(pre[..., self._sl_o], self._o, self._s1, self._s2, self._m)
        sigmoid_into(pre[..., self._sl_f], self._f, self._s1, self._s2, self._m)
        sigmoid_into(pre[..., self._sl_i], self._i, self._s1, self._s2, self._m)
        np.tanh(pre[..., self._sl_c], out=self._g)
        np.multiply(self._f, self._c_map, out=self._cn)
        np.multiply(self._i, self._g, out=self._t1)
        np.add(self._cn, self._t1, out=self._cn)
        if alpha > 0.0:
            np.less(self._o, alpha, out=self._masks)
            np.logical_and.reduceat(
                self._masks, self._starts, axis=1, out=self._shared_gt
            )
            np.take(self._shared_gt, self._rep_idx, axis=1, out=self._mask_full)
            np.copyto(self._cn, 0.0, where=self._mask_full)
        np.tanh(self._cn, out=self._t1)
        np.multiply(self._o, self._t1, out=self.hs)

    # ---------------------------------------------------- tissue-walk form

    def _compile_walk(self, plan: "CachedLayerPlan") -> None:
        group, seq_len, hidden = self.group, self.seq_len, self.hidden
        n_sub = self.n_sub
        self.h_state = np.zeros((group, n_sub, hidden))
        self.c_state = np.zeros((group, n_sub, hidden))
        self._h_flat = self.h_state.reshape(group * n_sub, hidden)
        self._c_flat = self.c_state.reshape(group * n_sub, hidden)
        self._hs_flat = self.hs.reshape(group * seq_len, hidden)
        if self.alpha_intra > 0.0:
            self.shared = np.empty((self.n_tissues, group, hidden), dtype=bool)
            self._shared_where = [
                self.shared[ti][:, None, :] for ti in range(self.n_tissues)
            ]

        rows = np.arange(group)[:, None]
        buffers: dict[int, _TissueBuffers] = {}
        ops = []
        for tissue in plan.tissues:
            subs = np.asarray([s for s, _ in tissue.cells])
            ts = np.asarray([t for _, t in tissue.cells])
            k = len(tissue.cells)
            if k not in buffers:
                buffers[k] = _TissueBuffers(group, k, hidden)
            state_rows = (rows * n_sub + subs[None, :]).ravel()
            proj_rows = (rows * seq_len + ts[None, :]).ravel()
            ops.append((state_rows, proj_rows, buffers[k]))
        #: The flat op list: one (state-rows, proj-rows, buffers) per tissue.
        self.ops = ops

    def _execute_walk(self, proj_group: np.ndarray) -> None:
        alpha = self.alpha_intra
        drs = alpha > 0.0
        link = self._link
        proj_flat = proj_group.reshape(self.group * self.seq_len, 4 * self.hidden)
        self.h_state[:, 0] = 0.0
        self.c_state[:, 0] = 0.0
        if self.n_sub > 1:
            self.h_state[:, 1:] = link.h_bar
            self.c_state[:, 1:] = link.c_bar
        for ti, (state_rows, proj_rows, bufs) in enumerate(self.ops):
            np.take(proj_flat, proj_rows, axis=0, out=bufs.x2d)
            np.take(self._h_flat, state_rows, axis=0, out=bufs.hp2d)
            np.take(self._c_flat, state_rows, axis=0, out=bufs.cp2d)
            np.matmul(bufs.hp, self._u_t, out=bufs.hu)
            np.add(bufs.x, bufs.hu, out=bufs.hu)
            np.add(bufs.hu, self._b, out=bufs.hu)
            pre = bufs.hu
            sigmoid_into(pre[..., self._sl_o], bufs.o, bufs.s1, bufs.s2, bufs.m)
            sigmoid_into(pre[..., self._sl_f], bufs.f, bufs.s1, bufs.s2, bufs.m)
            sigmoid_into(pre[..., self._sl_i], bufs.i, bufs.s1, bufs.s2, bufs.m)
            np.tanh(pre[..., self._sl_c], out=bufs.g)
            np.multiply(bufs.f, bufs.cp, out=bufs.cn)
            np.multiply(bufs.i, bufs.g, out=bufs.t1)
            np.add(bufs.cn, bufs.t1, out=bufs.cn)
            if drs:
                np.less(bufs.o, alpha, out=bufs.masks)
                bufs.masks.all(axis=1, out=self.shared[ti])
                np.copyto(bufs.cn, 0.0, where=self._shared_where[ti])
            np.tanh(bufs.cn, out=bufs.t1)
            np.multiply(bufs.o, bufs.t1, out=bufs.g)  # h_new, reusing g
            self._h_flat[state_rows] = bufs.g2d
            self._c_flat[state_rows] = bufs.cn2d
            self._hs_flat[proj_rows] = bufs.g2d

    def execute(self, proj_group: np.ndarray) -> None:
        """Run the compiled group over ``proj_group`` ``(G, T, 4H)``.

        Fills :attr:`hs` (and :attr:`shared` when DRS is live). The caller
        gathers the group's projection rows and scatters :attr:`hs` back —
        both outside the compiled loop.
        """
        if self.fused:
            self._execute_fused(proj_group)
        else:
            self._execute_walk(proj_group)
