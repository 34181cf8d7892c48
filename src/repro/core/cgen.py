"""Generated-C fused kernels: the ``cgen`` backend lowering.

The numpy programs in :mod:`repro.core.program` are already allocation-free,
but every timestep still crosses the interpreter a dozen times (matmul
dispatch, ufunc ladder, mask bookkeeping). This module lowers the same
arithmetic into two C kernels — compiled once per host with the system C
compiler, loaded through :mod:`ctypes` — so one layer's whole timestep loop
(or one sequence's whole combined-mode tissue walk) is a single native call:

* ``stepwise_run`` — the Appleyard single-pass shape: for each ``(b, t)``
  the recurrent GEMV and the sigmoid/tanh gate epilogue fuse into one pass
  over the united weight rows. Algorithm 3's DRS runs *inside* the kernel:
  the output gate's rows are computed first, and a trivial row skips its
  ``f``/``i``/``g`` dot products entirely — the literal row compaction the
  paper's GPU kernel performs, not compute-then-zero.
* ``combined_run`` — the tissue walk of sequences sharing one plan (the
  program calls it once per sequence). Per tissue, pass one
  computes every fused cell's output gate and intersects the trivial-row
  masks into the tissue's *shared* mask (the shared-weight-load
  constraint); pass two runs the remaining gate math, skipping shared
  rows; state writes happen only after every cell has read the pre-tissue
  state, matching the numpy program's gather-then-scatter order.

The input projections are hoisted out of the kernels: the program stages
``W·x_t`` for *all* timesteps as one large GEMM at :meth:`project` time
(Appleyard's timestep-batched input GEMM) — except when the caller needs
the planner's bit-exact per-row lift (``exact=True``), which keeps
structural plans identical across backends.

The kernels read the layer's united ``U`` / ``b`` blocks in place (the
row-major layout :class:`~repro.nn.lstm_cell.LSTMCellWeights` stores), so
a program owns only its workspace; the batched input GEMM's dense ``W^T``
is the one staged copy, made once per layer and shared by its programs.

Numerics contract: these kernels are **tolerance-level**, not bit-exact —
plain ``1/(1+exp(-x))``/``tanh`` in fp64 and natural dot-product order
instead of the numpy programs' BLAS-dispatch-pinned ladders. The frozen
oracle stays the numpy backend; agreement is gated per mode in
``benchmarks/bench_backends.py``.

Build pipeline: the C source below is hashed together with the compiler
identity; the shared object is cached under the user's temp directory and
rebuilt only when either changes, so spawned fleet workers load the same
``.so`` without recompiling. No compiler on the host simply makes the
backend unavailable (:func:`compiler_available`), it never breaks import.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.program import LeasedProgram, WorkspaceArena, project_rows
from repro.errors import BackendUnavailableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context_prediction import PredictedLink
    from repro.core.executor import _UnitedWeights
    from repro.core.plan import CachedLayerPlan

#: United-matrix row offsets, in multiples of H, following
#: :data:`repro.nn.lstm_cell.GATE_ORDER` = (f, i, c, o).
_OFF_F, _OFF_I, _OFF_C, _OFF_O = 0, 1, 2, 3

C_SOURCE = r"""
#include <math.h>
#include <string.h>

static double sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }

static double dot(const double *a, const double *b, long n) {
    double acc = 0.0;
    for (long k = 0; k < n; k++) acc += a[k] * b[k];
    return acc;
}

/* One stepwise layer: proj (B,T,4H) staged by the caller, united u (4H,H)
 * row-major with gate rows at offsets {f:0, i:H, c:2H, o:3H}, h/c (B,H)
 * carried in place across timesteps.  DRS (alpha > 0): o-gate rows first,
 * trivial rows skip their f/i/g dot products.  scratch holds 3H doubles. */
void stepwise_run(
    const double *proj, const double *u, const double *bias,
    double *h, double *c, double *hs, double *cs,
    unsigned char *masks, const unsigned char *resets,
    const double *h_bar, const double *c_bar,
    double alpha, double *scratch, long B, long T, long H)
{
    const long H4 = 4 * H;
    const int drs = alpha > 0.0;
    double *o_buf = scratch;
    double *c_new = scratch + H;
    double *h_new = scratch + 2 * H;
    for (long t = 0; t < T; t++) {
        for (long b = 0; b < B; b++) {
            double *h_row = h + b * H;
            double *c_row = c + b * H;
            if (resets && resets[t * B + b]) {
                memcpy(h_row, h_bar, H * sizeof(double));
                memcpy(c_row, c_bar, H * sizeof(double));
            }
            const double *p = proj + (b * T + t) * H4;
            unsigned char *m_row = drs ? masks + (b * T + t) * H : 0;
            for (long j = 0; j < H; j++) {
                double o = sigmoid(
                    p[3 * H + j] + dot(u + (3 * H + j) * H, h_row, H)
                    + bias[3 * H + j]);
                o_buf[j] = o;
                if (drs) m_row[j] = o < alpha;
            }
            for (long j = 0; j < H; j++) {
                if (drs && m_row[j]) {
                    /* Trivial row: never read the f/i/g weight rows. */
                    c_new[j] = 0.0;
                    h_new[j] = 0.0;
                    continue;
                }
                double f = sigmoid(
                    p[j] + dot(u + j * H, h_row, H) + bias[j]);
                double i = sigmoid(
                    p[H + j] + dot(u + (H + j) * H, h_row, H) + bias[H + j]);
                double g = tanh(
                    p[2 * H + j] + dot(u + (2 * H + j) * H, h_row, H)
                    + bias[2 * H + j]);
                double cc = f * c_row[j] + i * g;
                c_new[j] = cc;
                h_new[j] = o_buf[j] * tanh(cc);
            }
            memcpy(c_row, c_new, H * sizeof(double));
            memcpy(h_row, h_new, H * sizeof(double));
            memcpy(hs + (b * T + t) * H, h_new, H * sizeof(double));
            if (cs) memcpy(cs + (b * T + t) * H, c_new, H * sizeof(double));
        }
    }
}

/* One combined plan group's tissue walk: cells flattened as (subs, ts)
 * with per-tissue extents in offsets (n_tissues + 1 entries).  Pass one
 * computes every fused cell's output gate and intersects the trivial-row
 * masks into the tissue's shared mask; pass two runs f/i/g skipping
 * shared rows; writes land only after every cell read pre-tissue state.
 * scratch holds 3 * max_k * H doubles. */
void combined_run(
    const double *proj, const double *u, const double *bias,
    double *h_state, double *c_state, double *hs,
    unsigned char *shared, const long *offsets,
    const long *subs, const long *ts,
    double alpha, double *scratch,
    long G, long T, long H, long n_sub, long n_tissues)
{
    const long H4 = 4 * H;
    const int drs = alpha > 0.0;
    for (long ti = 0; ti < n_tissues; ti++) {
        const long lo = offsets[ti], hi = offsets[ti + 1];
        const long k = hi - lo;
        double *o_buf = scratch;
        double *c_buf = scratch + k * H;
        double *h_buf = scratch + 2 * k * H;
        for (long g_row = 0; g_row < G; g_row++) {
            unsigned char *sh = drs ? shared + (ti * G + g_row) * H : 0;
            for (long m = 0; m < k; m++) {
                const double *h_prev =
                    h_state + (g_row * n_sub + subs[lo + m]) * H;
                const double *p = proj + (g_row * T + ts[lo + m]) * H4;
                for (long j = 0; j < H; j++) {
                    o_buf[m * H + j] = sigmoid(
                        p[3 * H + j] + dot(u + (3 * H + j) * H, h_prev, H)
                        + bias[3 * H + j]);
                }
            }
            if (drs) {
                for (long j = 0; j < H; j++) {
                    unsigned char all_trivial = 1;
                    for (long m = 0; m < k; m++)
                        all_trivial &= (unsigned char)(o_buf[m * H + j] < alpha);
                    sh[j] = all_trivial;
                }
            }
            for (long m = 0; m < k; m++) {
                const double *h_prev =
                    h_state + (g_row * n_sub + subs[lo + m]) * H;
                const double *c_prev =
                    c_state + (g_row * n_sub + subs[lo + m]) * H;
                const double *p = proj + (g_row * T + ts[lo + m]) * H4;
                for (long j = 0; j < H; j++) {
                    double cc;
                    if (drs && sh[j]) {
                        cc = 0.0;
                    } else {
                        double f = sigmoid(
                            p[j] + dot(u + j * H, h_prev, H) + bias[j]);
                        double i = sigmoid(
                            p[H + j] + dot(u + (H + j) * H, h_prev, H)
                            + bias[H + j]);
                        double g = tanh(
                            p[2 * H + j] + dot(u + (2 * H + j) * H, h_prev, H)
                            + bias[2 * H + j]);
                        cc = f * c_prev[j] + i * g;
                    }
                    c_buf[m * H + j] = cc;
                    h_buf[m * H + j] = o_buf[m * H + j] * tanh(cc);
                }
            }
            for (long m = 0; m < k; m++) {
                double *h_dst = h_state + (g_row * n_sub + subs[lo + m]) * H;
                double *c_dst = c_state + (g_row * n_sub + subs[lo + m]) * H;
                memcpy(h_dst, h_buf + m * H, H * sizeof(double));
                memcpy(c_dst, c_buf + m * H, H * sizeof(double));
                memcpy(hs + (g_row * T + ts[lo + m]) * H, h_buf + m * H,
                       H * sizeof(double));
            }
        }
    }
}
"""


def _compiler() -> str | None:
    """The host C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def compiler_available() -> bool:
    """Whether this host can build the generated-C backend."""
    return _compiler() is not None


_lib: ctypes.CDLL | None = None

#: Serializes the first-use build/load of :data:`_lib`. Two dispatcher
#: threads racing the cold path would otherwise both run the compiler
#: and both ``CDLL``-load the object — wasted work, and two live handles
#: where the module promises one.
_lib_lock = threading.Lock()


#: Compile flags for the generated kernels. ``-ffast-math`` is deliberate:
#: this backend carries a tolerance contract, not bit-identity, and letting
#: the compiler vectorize the gate transcendentals (libmvec on glibc) is
#: where most of the fused speedup comes from. Flags are part of the build
#: cache key, so changing them forces a rebuild.
CFLAGS: tuple[str, ...] = (
    "-O3",
    "-march=native",
    "-ffast-math",
    "-funroll-loops",
    "-fPIC",
)

#: Link flags — deliberately *without* the fast-math family. Passing
#: ``-ffast-math`` at link time pulls in crtfastmath.o, whose constructor
#: sets FTZ/DAZ in the FPU control register for the whole process when the
#: shared object loads, silently breaking IEEE subnormals for numpy and
#: every other library in the host interpreter. Compiling with fast-math
#: but linking without it keeps the vectorized kernel code while leaving
#: global floating-point state untouched.
LDFLAGS: tuple[str, ...] = ("-shared",)


def _build_dir(tag: str) -> Path:
    """Cache directory of one keyed build.

    ``REPRO_CGEN_CACHE`` overrides the root: point it at a persistent
    path (a CI cache mount, a fleet-shared volume) and repeated jobs and
    restarts reuse the compiled object instead of paying the
    ``-O3 -march=native`` rebuild. Unset, the per-host temp directory
    keeps the seed behavior.
    """
    root = os.environ.get("REPRO_CGEN_CACHE")
    base = Path(root).expanduser() if root else Path(tempfile.gettempdir())
    return base / f"repro-cgen-{tag}"


def load_library() -> ctypes.CDLL:
    """Build (once per source+compiler) and load the kernel library.

    The shared object is cached under :func:`_build_dir` keyed on a hash
    of the C source and the compiler identity, so repeated runs — and the
    fleet's spawned worker processes — reuse one build. The compile step
    writes to a process-unique name and atomically renames into place, so
    concurrent builder *processes* never read a half-written object;
    concurrent *threads* are serialized by :data:`_lib_lock` (double-
    checked, so the warm path stays lock-free).
    """
    global _lib
    if _lib is not None:
        return _lib
    with _lib_lock:
        if _lib is not None:
            return _lib
        return _load_library_locked()


def _load_library_locked() -> ctypes.CDLL:
    global _lib
    compiler = _compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "generated-C backend needs a C compiler (cc/gcc/clang); none found"
        )
    tag = hashlib.sha256(
        (
            C_SOURCE + "\n" + compiler + "\n"
            + " ".join(CFLAGS) + "\n" + " ".join(LDFLAGS)
        ).encode()
    ).hexdigest()[:16]
    build = _build_dir(tag)
    so_path = build / "repro_kernels.so"
    if not so_path.exists():
        build.mkdir(parents=True, exist_ok=True)
        src = build / "repro_kernels.c"
        src.write_text(C_SOURCE)
        obj = build / f"repro_kernels.{os.getpid()}.tmp.o"
        tmp = build / f"repro_kernels.{os.getpid()}.tmp.so"
        # Two steps on purpose: fast-math at compile only (see LDFLAGS).
        compile_cmd = [compiler, *CFLAGS, "-c", str(src), "-o", str(obj)]
        link_cmd = [compiler, *LDFLAGS, str(obj), "-o", str(tmp), "-lm"]
        for cmd in (compile_cmd, link_cmd):
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise BackendUnavailableError(
                    f"C kernel build failed ({' '.join(cmd)}):\n{proc.stderr}"
                )
        obj.unlink(missing_ok=True)
        os.replace(tmp, so_path)
    lib = ctypes.CDLL(str(so_path))
    ptr, dbl, lng = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    lib.stepwise_run.restype = None
    lib.stepwise_run.argtypes = [
        ptr, ptr, ptr,  # proj, u, bias
        ptr, ptr, ptr, ptr,  # h, c, hs, cs
        ptr, ptr,  # masks, resets
        ptr, ptr,  # h_bar, c_bar
        dbl, ptr, lng, lng, lng,  # alpha, scratch, B, T, H
    ]
    lib.combined_run.restype = None
    lib.combined_run.argtypes = [
        ptr, ptr, ptr,  # proj, u, bias
        ptr, ptr, ptr,  # h_state, c_state, hs
        ptr, ptr, ptr, ptr,  # shared, offsets, subs, ts
        dbl, ptr,  # alpha, scratch
        lng, lng, lng, lng, lng,  # G, T, H, n_sub, n_tissues
    ]
    _lib = lib
    return lib


def _ptr(array: np.ndarray | None) -> int | None:
    """C-contiguous data pointer (``None`` maps to C ``NULL``)."""
    if array is None:
        return None
    assert array.flags.c_contiguous
    return array.ctypes.data


class CGenStepwiseProgram(LeasedProgram):
    """C-kernel twin of :class:`repro.core.program.StepwiseProgram`.

    Same two-phase API and the same leased workspace; the timestep loop
    runs in ``stepwise_run`` as one native call. Tolerance-level agreement
    with the numpy lowering, never bit-contracted.
    """

    bit_exact = False

    def __init__(
        self,
        united: "_UnitedWeights",
        link: "PredictedLink",
        batch: int,
        seq_len: int,
        drs_alpha: float = 0.0,
        arena: WorkspaceArena | None = None,
    ) -> None:
        self._lib = load_library()
        hidden = united.u.shape[1]
        self.batch = batch
        self.seq_len = seq_len
        self.hidden = hidden
        self.drs_alpha = drs_alpha
        self._u = united.u
        self._b = united.b
        self._w_ops = united.gate_w_ops()  # (E, H) each: the exact lift's operands
        self._w_t_dense = united.dense_w_t()  # big-GEMM operand, one per layer
        self._h_bar = np.ascontiguousarray(link.h_bar)
        self._c_bar = np.ascontiguousarray(link.c_bar)
        self._slices = dict(united.slices)
        slabs = [
            ("h", (batch, hidden), float),
            ("c", (batch, hidden), float),
            ("scratch", (3 * hidden,), float),
            ("resets", (seq_len, batch), np.uint8),
        ]
        if drs_alpha > 0.0:
            slabs.append(("masks_all", (batch, seq_len, hidden), bool))
        slabs.append(("proj", (batch, seq_len, 4 * hidden), float))
        self._lease(arena, slabs)

    @property
    def masks_all(self) -> np.ndarray | None:
        """Per-step ``(B, T, H)`` DRS masks of the last run (``None``
        without DRS); arena bytes, as for the numpy program."""
        return getattr(self._ws or self._bind(), "masks_all", None)

    def project(self, xs: np.ndarray, exact: bool = False) -> dict[str, np.ndarray]:
        """Stage the input projections; returns per-gate planner views.

        ``exact=False`` (the default) hoists ``W·x_t`` for every timestep
        into one ``(B*T, E) @ (E, 4H)`` GEMM — Appleyard's timestep-batched
        input GEMM. ``exact=True`` runs the numpy program's own lift,
        :func:`~repro.core.program.project_rows`, into the gate columns, so
        the inter-level planner sees the same projection bits on every
        backend (structural plans stay backend-invariant). A per-row lift
        against the united ``(E, 4H)`` operand would not do: when ``H % 4
        != 0`` every gate but the first starts mid-way through the GEMV
        kernel's column group, and its bits differ from the gate-wise lift.
        """
        proj = (self._ws or self._bind()).proj
        views = {g: proj[..., sl] for g, sl in self._slices.items()}
        if exact:
            project_rows(xs, self._w_ops, views.values())
        else:
            flat = xs.reshape(-1, xs.shape[-1])
            np.matmul(flat, self._w_t_dense, out=proj.reshape(flat.shape[0], 4 * self.hidden))
        return views

    def execute(
        self,
        hs: np.ndarray,
        reset_cols: list[np.ndarray | None] | None = None,
        cs: np.ndarray | None = None,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        state_out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Run the fused timestep loop (same contract as the numpy program)."""
        ws = self._ws or self._bind()
        ws.h[:] = 0.0 if h0 is None else h0
        ws.c[:] = 0.0 if c0 is None else c0
        resets = None
        if reset_cols is not None:
            resets = ws.resets
            resets[:] = 0
            for t, col in enumerate(reset_cols):
                if col is not None:
                    resets[t] = col[:, 0]
        masks = ws.masks_all if self.drs_alpha > 0.0 else None
        self._lib.stepwise_run(
            _ptr(ws.proj), _ptr(self._u), _ptr(self._b),
            _ptr(ws.h), _ptr(ws.c), _ptr(hs), _ptr(cs),
            _ptr(masks), _ptr(resets),
            _ptr(self._h_bar), _ptr(self._c_bar),
            float(self.drs_alpha), _ptr(ws.scratch),
            self.batch, self.seq_len, self.hidden,
        )
        if state_out is not None:
            out_h, out_c = state_out
            out_h[:] = ws.h
            out_c[:] = ws.c


class CGenCombinedProgram(LeasedProgram):
    """C-kernel twin of :class:`repro.core.program.CombinedGroupProgram`.

    Same shape-keyed interface — plans are run-time inputs — but no wave
    batching: ``combined_run`` walks one sequence's tissues per call over
    the index vectors cached on its plan, with the per-tissue shared-mask
    intersection inside the pass.
    """

    bit_exact = False

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
        self._lib = load_library()
        hidden = united.u.shape[1]
        self.seq_len = seq_len
        self.hidden = hidden
        self.alpha_intra = alpha_intra
        self._u = united.u
        self._b = united.b
        self._h_bar = np.ascontiguousarray(link.h_bar)
        self._c_bar = np.ascontiguousarray(link.c_bar)
        slabs = [
            ("scratch", (3 * min(mts, seq_len) * hidden,), float),
            ("h_state", (seq_len, hidden), float),
            ("c_state", (seq_len, hidden), float),
        ]
        if alpha_intra > 0.0:
            slabs.append(("shared", (batch * seq_len, hidden), bool))
        self._lease(arena, slabs)

    def execute(
        self, proj_u: np.ndarray, plans: "list[CachedLayerPlan]", hs: np.ndarray
    ) -> np.ndarray | None:
        """Walk ``plans`` over ``proj_u`` ``(B, T, 4H)`` (same contract as
        the numpy program: fills ``hs``, returns the shared masks)."""
        ws = self._ws or self._bind()
        proj = np.ascontiguousarray(proj_u)
        drs = self.alpha_intra > 0.0
        h_state, c_state = ws.h_state, ws.c_state
        done = 0
        for b, plan in enumerate(plans):
            n_sub, n_tissues = plan.num_sublayers, plan.num_tissues
            h_state[0] = 0.0
            c_state[0] = 0.0
            h_state[1:n_sub] = self._h_bar
            c_state[1:n_sub] = self._c_bar
            shared = ws.shared[done : done + n_tissues] if drs else None
            self._lib.combined_run(
                _ptr(proj[b]), _ptr(self._u), _ptr(self._b),
                _ptr(h_state), _ptr(c_state), _ptr(hs[b]),
                _ptr(shared), _ptr(plan.offsets),
                _ptr(plan.subs), _ptr(plan.ts),
                float(self.alpha_intra), _ptr(ws.scratch),
                1, self.seq_len, self.hidden, n_sub, n_tissues,
            )
            done += n_tissues
        return ws.shared[:done] if drs else None
