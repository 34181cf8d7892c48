"""Generated-C fused kernel: the ``cgen`` backend lowering.

The numpy programs in :mod:`repro.core.program` are already allocation-free,
but every timestep still crosses the interpreter a dozen times (matmul
dispatch, ufunc ladder, mask bookkeeping). This module lowers the stepwise
loop of BASELINE, INTRA and ZERO_PRUNE into one C kernel — compiled once
per host with the system C compiler, loaded through :mod:`ctypes` — so one
layer's whole timestep loop is a single native call. ``stepwise_run`` is
the Appleyard single-pass shape: for each ``(b, t)`` the recurrent GEMV and
the sigmoid/tanh gate epilogue fuse into one pass over the united weight
rows. Algorithm 3's DRS runs *inside* the kernel: the output gate's rows
are computed first, and a trivial row skips its ``f``/``i``/``g`` dot
products entirely — the literal row compaction the paper's GPU kernel
performs, not compute-then-zero.

cgen lowers the stepwise loop only. INTER and COMBINED are numpy programs
on every backend: their tissues load ``U`` once per wave in
:class:`~repro.core.program.CombinedGroupProgram`'s GEMMs, and the exact
INTER walk is the numpy oracle itself (the executor resolves both to the
``"numpy"`` backend).

The input projections are hoisted out of the kernel: the program stages
``W·x_t`` for *all* timesteps as one ``(B*T, E) @ (E, 4H)`` GEMM at
:meth:`~CGenStepwiseProgram.project` time (Appleyard's timestep-batched
input GEMM). The kernel reads the layer's united ``U`` / ``b`` blocks in
place (the row-major layout :class:`~repro.nn.lstm_cell.LSTMCellWeights`
stores), so a program owns only its workspace; the GEMM's dense ``W^T`` is
the one staged copy, made once per layer and shared by its programs.

Numerics contract: the kernel is **tolerance-level**, not bit-exact —
plain ``1/(1+exp(-x))``/``tanh`` in fp64 and natural dot-product order
instead of the numpy programs' BLAS-dispatch-pinned ladders. The frozen
oracle stays the numpy backend; agreement is gated per mode in
``benchmarks/bench_backends.py``.

Build pipeline: the C source below is hashed together with the compiler
identity and flags; the shared object is cached under the user's temp
directory with its sha256 beside it, verified before every load and
rebuilt when either changes or the digest does not match, so other
interpreters load the same ``.so`` without recompiling and a truncated cache
entry is rebuilt instead of crashing the interpreter. No compiler on the
host simply makes the backend unavailable (:func:`compiler_available`), it
never breaks import.
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

from repro.core.program import LeasedProgram, WorkspaceArena
from repro.errors import BackendUnavailableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import _UnitedWeights

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
    double *h, double *c, double *hs, double *cs, unsigned char *masks,
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
    of the C source, the compiler identity and the flags, so repeated runs
    — and other interpreters — reuse one build. The
    compile step writes to a process-unique name and atomically renames
    into place, so concurrent builder *processes* never read a
    half-written object; concurrent *threads* are serialized by
    :data:`_lib_lock` (double-checked, so the warm path stays lock-free).
    """
    global _lib
    if _lib is not None:
        return _lib
    with _lib_lock:
        if _lib is not None:
            return _lib
        return _load_library_locked()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_intact(so_path: Path, sum_path: Path) -> bool:
    """Whether the cached object matches the digest written beside it.

    ``ctypes.CDLL`` maps the file; a truncated or corrupt object faults
    (SIGBUS) on first touch, which no ``except`` can catch, so nothing is
    loaded unverified. A missing digest counts as a mismatch.
    """
    try:
        return sum_path.read_text().strip() == _digest(so_path)
    except OSError:
        return False


def _build(compiler: str, build: Path, so_path: Path, sum_path: Path) -> None:
    """Compile and link into ``so_path``, then write its digest beside it."""
    build.mkdir(parents=True, exist_ok=True)
    src = build / "repro_kernels.c"
    src.write_text(C_SOURCE)
    stem = f"repro_kernels.{os.getpid()}.tmp"
    obj, tmp, tmp_sum = (build / f"{stem}.{ext}" for ext in ("o", "so", "sha256"))
    # Two steps on purpose: fast-math at compile only (see LDFLAGS).
    compile_cmd = [compiler, *CFLAGS, "-c", str(src), "-o", str(obj)]
    link_cmd = [compiler, *LDFLAGS, str(obj), "-o", str(tmp), "-lm"]
    try:
        for cmd in (compile_cmd, link_cmd):
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise BackendUnavailableError(
                    f"C kernel build failed ({' '.join(cmd)}):\n{proc.stderr}"
                )
        tmp_sum.write_text(_digest(tmp))
        os.replace(tmp, so_path)
        os.replace(tmp_sum, sum_path)
    finally:
        # A failed build leaves whatever the compiler wrote; a good one
        # has renamed all but the object.
        for path in (obj, tmp, tmp_sum):
            path.unlink(missing_ok=True)


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
    sum_path = build / "repro_kernels.so.sha256"
    if not _is_intact(so_path, sum_path):
        _build(compiler, build, so_path, sum_path)
    lib = ctypes.CDLL(str(so_path))
    ptr, dbl, lng = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    lib.stepwise_run.restype = None
    lib.stepwise_run.argtypes = [
        ptr, ptr, ptr,  # proj, u, bias
        ptr, ptr, ptr, ptr, ptr,  # h, c, hs, cs, masks
        dbl, ptr, lng, lng, lng,  # alpha, scratch, B, T, H
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
    """C-kernel twin of :class:`repro.core.program.StepwiseProgram` for
    the modes without an inter level (BASELINE / INTRA / ZERO_PRUNE).

    Same two-phase API and the same leased workspace; the timestep loop
    runs in ``stepwise_run`` as one native call. Tolerance-level agreement
    with the numpy lowering, never bit-contracted.
    """

    def __init__(
        self,
        united: "_UnitedWeights",
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
        self._w_t_dense = united.dense_w_t()  # big-GEMM operand, one per layer
        self._slices = dict(united.slices)
        slabs = [
            ("h", (batch, hidden), float),
            ("c", (batch, hidden), float),
            ("scratch", (3 * hidden,), float),
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

    def project(self, xs: np.ndarray) -> dict[str, np.ndarray]:
        """Stage the input projections — ``W·x_t`` for every timestep as
        one ``(B*T, E) @ (E, 4H)`` GEMM — and return per-gate views."""
        proj = (self._ws or self._bind()).proj
        flat = xs.reshape(-1, xs.shape[-1])
        np.matmul(flat, self._w_t_dense, out=proj.reshape(flat.shape[0], 4 * self.hidden))
        return {g: proj[..., sl] for g, sl in self._slices.items()}

    def execute(
        self,
        hs: np.ndarray,
        cs: np.ndarray | None = None,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        state_out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Run the fused timestep loop (the numpy program's contract,
        without breakpoint resets)."""
        ws = self._ws or self._bind()
        ws.h[:] = 0.0 if h0 is None else h0
        ws.c[:] = 0.0 if c0 is None else c0
        masks = ws.masks_all if self.drs_alpha > 0.0 else None
        self._lib.stepwise_run(
            _ptr(ws.proj), _ptr(self._u), _ptr(self._b),
            _ptr(ws.h), _ptr(ws.c), _ptr(hs), _ptr(cs), _ptr(masks),
            float(self.drs_alpha), _ptr(ws.scratch),
            self.batch, self.seq_len, self.hidden,
        )
        if state_out is not None:
            out_h, out_c = state_out
            out_h[:] = ws.h
            out_c[:] = ws.c
