"""Generated-C fused kernel: the ``cgen`` backend lowering.

The numpy programs in :mod:`repro.core.program` are already allocation-free,
but every timestep still crosses the interpreter a dozen times (matmul
dispatch, ufunc ladder, mask bookkeeping). This module lowers the stepwise
loop of BASELINE, INTRA and ZERO_PRUNE into one C kernel — compiled once
per host with the system C compiler, loaded through :mod:`ctypes` — so one
layer is a single native call, ``lstm_layer``: the input projection, then
the timestep loop with its recurrent products and the sigmoid/tanh gate
epilogue.

Both products run through one weight-stationary routine, ``ws_dots``: it
loads a tile of weight rows once and dots it against every operand vector
before moving on — for the projection, each row of ``W`` against all
``B*T`` tokens of the call; for the recurrence, each row of ``U`` against
the ``h`` of every session of the tick, once per step (the weight reuse
across the batch that Appleyard et al. and E-PUR build on; the paper's
tissues exist for the same reason). Algorithm 3's DRS runs *inside* the
kernel: the output gate's rows are computed first, a row's ``f``/``i``/
``g`` dots are skipped for each session where the row is trivial, and a row
trivial for every session is never loaded — the literal row compaction the
paper's GPU kernel performs, not compute-then-zero. The kernel computes on
the layer's own ``W`` / ``U`` / ``b`` blocks in place (the row-major layout
:class:`~repro.nn.lstm_cell.LSTMCellWeights` stores), as numpy does, so a
program owns only its workspace.

cgen lowers the stepwise loop only. INTER and COMBINED are numpy programs
on every backend: their tissues load ``U`` once per wave in
:class:`~repro.core.program.CombinedGroupProgram`'s GEMMs, and the exact
INTER walk is the numpy oracle itself (the executor resolves both to the
``"numpy"`` backend).

Numerics contract: against the numpy oracle the kernel is **graded**, not
bit-exact — its own dot order instead of the numpy programs'
BLAS-dispatch-pinned ladders, and a vectorized epilogue whose ``exp`` is a
polynomial in the source (``tanh(x) = 1 - 2/(exp(2x) + 1)``) instead of
libm's; agreement is gated per mode in ``benchmarks/bench_backends.py``.
Against *itself* it is exact: every (row, operand) dot sums in one order
fixed by the source — ``LANES`` partial sums over ``k`` modulo the vector
width, combined pairwise, then the tail in ascending ``k`` — the epilogue
is lane-wise, and the flags let the compiler neither reassociate nor
contract (no ``-ffast-math``, ``-ffp-contract=off``; the multiply-adds are
explicit fused instructions where the ISA has them). A session's bits are
therefore a function of its own tokens and state only: the same whether it
runs alone or inside a tick with any companions, and however its sequence
is cut into chunks.

Build pipeline: the C source below is hashed together with the compiler's
path and ``--version`` line, the host's instruction-set identity and the
flags; the shared object is cached under the user's temp directory with
its sha256 beside it, verified before every load and rebuilt when any of
those change or the digest does not match, so other interpreters load the
same ``.so`` without recompiling, a cache shared between hosts never hands
one host an object built for another's ISA, and a truncated cache entry is
rebuilt instead of crashing the interpreter. No compiler on the host simply
makes the backend unavailable (:func:`compiler_available`), it never breaks
import.
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

/* Partial sums per dot and lanes per epilogue vector: a 256-bit vector of
 * doubles where the ISA has AVX (512-bit measured no faster on an AVX-512
 * host), else 128-bit. */
#if defined(__AVX__)
#define LANES 4
#else
#define LANES 2
#endif

typedef double vec __attribute__((vector_size(LANES * sizeof(double))));
typedef long long ivec __attribute__((vector_size(LANES * sizeof(double))));

#ifdef FP_FAST_FMA
#define MADD(a, b, c) fma((a), (b), (c))
#else
#define MADD(a, b, c) ((c) + (a) * (b))
#endif

#define SPLAT(a) ((vec){0} + (a))
#define SELECT(m, a, b) ((vec)(((ivec)(a) & (m)) | ((ivec)(b) & ~(m))))

static inline vec vload(const double *p) { vec v; memcpy(&v, p, sizeof v); return v; }

/* The first m < LANES doubles at p, zero-padded, and back. */
static inline vec vload_part(const double *p, long m)
{
    vec v = {0};
    memcpy(&v, p, m * sizeof(double));
    return v;
}

static inline void vstore(double *p, vec v, long m) { memcpy(p, &v, m * sizeof(double)); }

/* c + a * b per lane: one fused multiply-add instruction on x86 with FMA,
 * else lane by lane in the same arithmetic as MADD. */
#if defined(__FMA__) && LANES == 4
#define vmadd(a, b, c) __builtin_ia32_vfmaddpd256((a), (b), (c))
#else
static inline vec vmadd(vec a, vec b, vec c)
{
    for (int l = 0; l < LANES; l++) c[l] = MADD(a[l], b[l], c[l]);
    return c;
}
#endif

/* exp, lane by lane: x = k ln2 + r with |r| <= ln2/2, exp(r) by its
 * degree-13 Taylor polynomial, times 2^k built in the exponent bits.  The
 * clamp keeps 2^k normal; a NaN fails both comparisons and stays NaN. */
static vec vexp(vec x)
{
    const vec shifter = SPLAT(0x1.8p52);
    x = SELECT(x > 708.0, SPLAT(708.0), x);
    x = SELECT(x < -708.0, SPLAT(-708.0), x);
    const vec kd = x * 0x1.71547652b82fep0 + shifter;
    const vec k = kd - shifter;
    const vec r = (x - k * 0x1.62e42feep-1) - k * 0x1.a39ef35793c76p-33;
    static const double c[14] = {
        1.0, 1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040,
        1.0 / 40320, 1.0 / 362880, 1.0 / 3628800, 1.0 / 39916800,
        1.0 / 479001600, 1.0 / 6227020800.0,
    };
    vec p = SPLAT(c[13]);
    for (int n = 12; n >= 0; n--) p = p * r + c[n];
    const ivec bits = ((ivec)kd - (ivec)shifter + 1023) << 52;
    return p * (vec)bits;
}

static inline vec vsigmoid(vec x) { return 1.0 / (1.0 + vexp(-x)); }

static inline vec vtanh(vec x) { return 1.0 - 2.0 / (vexp(x + x) + 1.0); }

/* The order every dot sums in, which depends on n only: LANES partial sums
 * over k = l (mod LANES), a pairwise combine, then the tail k ascending. */
static double finish(const double *lanes, const double *r, const double *v, long body, long n)
{
    double a[LANES];
    memcpy(a, lanes, sizeof a);
    for (int w = LANES / 2; w > 0; w /= 2)
        for (int l = 0; l < w; l++) a[l] += a[l + w];
    double sum = a[0];
    for (long k = body; k < n; k++) sum = MADD(r[k], v[k], sum);
    return sum;
}

/* One tile: d[i * 2 + s] = r[i] . v[s] over n, for tr <= 4 weight rows and
 * nv <= 2 operand vectors; each k step loads tr + nv vectors for tr * nv
 * multiply-adds. */
static inline __attribute__((always_inline)) void tile(
    const int tr, const int nv, const double *const *r, const double *const *v,
    long n, double *d)
{
    vec acc[4][2] = {{{0}}};
    const long body = n - n % LANES;
    for (long k = 0; k < body; k += LANES) {
        vec x[2];
#pragma GCC unroll 2
        for (int s = 0; s < nv; s++) x[s] = vload(v[s] + k);
#pragma GCC unroll 4
        for (int i = 0; i < tr; i++) {
            vec w = vload(r[i] + k);
#pragma GCC unroll 2
            for (int s = 0; s < nv; s++) acc[i][s] = vmadd(w, x[s], acc[i][s]);
        }
    }
    for (int i = 0; i < tr; i++)
        for (int s = 0; s < nv; s++)
            d[i * 2 + s] = finish((const double *)&acc[i][s], r[i], v[s], body, n);
}

static inline __attribute__((always_inline)) void ws_tiles(
    const int tr, const double *m, long ldm, long nr, const double *v, long ldv,
    const long *vid, long nv, long n, double *out, long ldr, long ldo)
{
    for (long r0 = 0; r0 < nr; r0 += tr) {
        const double *rows[4];
        for (int i = 0; i < tr; i++)  /* a short last tile repeats its last row */
            rows[i] = m + (r0 + i < nr ? r0 + i : nr - 1) * ldm;
        for (long s0 = 0; s0 < nv; s0 += 2) {
            const int pair = s0 + 1 < nv;
            const long id[2] = {
                vid ? vid[s0] : s0, pair ? (vid ? vid[s0 + 1] : s0 + 1) : 0,
            };
            const double *vecs[2] = {v + id[0] * ldv, v + id[1] * ldv};
            double d[8];
            if (pair) tile(tr, 2, rows, vecs, n, d);
            else tile(tr, 1, rows, vecs, n, d);
            for (int i = 0; i < tr && r0 + i < nr; i++)
                for (int s = 0; s <= pair; s++)
                    out[id[s] * ldo + (r0 + i) * ldr] = d[i * 2 + s];
        }
    }
}

/* The weight-stationary routine of both products.  For weight rows
 * m + r * ldm (r < nr) and operand vectors v + id * ldv (id = vid[s], or s
 * when vid is NULL; s < nv), all of length n:
 *     out[id * ldo + r * ldr] = row r . vector id.
 * Each tile of rows is loaded once and dotted against every vector.  Three
 * rows (one unit's f, i, g) make one tile; longer ranges tile by four. */
static void ws_dots(
    const double *m, long ldm, long nr, const double *v, long ldv,
    const long *vid, long nv, long n, double *out, long ldr, long ldo)
{
    if (nr == 3) ws_tiles(3, m, ldm, nr, v, ldv, vid, nv, n, out, ldr, ldo);
    else ws_tiles(4, m, ldm, nr, v, ldv, vid, nv, n, out, ldr, ldo);
}

/* Pre-activation p + q + bias of LANES units from j (the last block of a
 * row may be short: m units, zero-padded). */
static inline vec gate_in(const double *p, const double *q, const double *bias, long j, long m)
{
    if (m == LANES) return vload(p + j) + vload(q + j) + vload(bias + j);
    return vload_part(p + j, m) + vload_part(q + j, m) + vload_part(bias + j, m);
}

/* One stepwise layer.  x (B*T, E) is the layer input, w (4H, E), u (4H, H)
 * and bias (4H) the united blocks, gate rows at {f: 0, i: H, g: 2H, o: 3H};
 * h/c (B, H) carry the state in place.  proj (B*T, 4H) and pre (B, 4H) are
 * workspace.  DRS (masks not NULL) writes masks (B, T, H).  hs (and cs,
 * unless NULL) receive the (B, T, H) outputs.  A unit's epilogue is
 * lane-wise arithmetic, so its bits do not depend on its block. */
void lstm_layer(
    const double *x, const double *w, const double *u, const double *bias,
    double *h, double *c, unsigned char *masks, double *proj, double *pre,
    double alpha, long B, long T, long E, long H, double *hs, double *cs)
{
    const long H4 = 4 * H;
    long live[B > 0 ? B : 1];
    /* W x for every token: each row of W read once for all B*T tokens. */
    ws_dots(w, E, H4, x, E, 0, B * T, E, proj, 1, H4);
    for (long t = 0; t < T; t++) {
        /* Algorithm 3: the o rows first, for every session. */
        ws_dots(u + 3 * H * H, H, H, h, H, 0, B, H, pre + 3 * H, 1, H4);
        for (long b = 0; b < B; b++) {
            const double *p = proj + (b * T + t) * H4 + 3 * H;
            double *o = pre + b * H4 + 3 * H;
            unsigned char *mask = masks ? masks + (b * T + t) * H : 0;
            for (long j = 0; j < H; j += LANES) {
                const long m = H - j < LANES ? H - j : LANES;
                const vec og = vsigmoid(gate_in(p, o, bias + 3 * H, j, m));
                vstore(o + j, og, m);
                if (mask)
                    for (long l = 0; l < m; l++) mask[j + l] = og[l] < alpha;
            }
        }
        if (!masks) {
            ws_dots(u, H, 3 * H, h, H, 0, B, H, pre, 1, H4);
        } else {
            for (long j = 0; j < H; j++) {
                long n = 0;
                for (long b = 0; b < B; b++)
                    if (!masks[(b * T + t) * H + j]) live[n++] = b;
                /* Rows f_j, i_j, g_j for the sessions where unit j is not
                 * trivial; trivial for all of them, they are never loaded. */
                if (n) ws_dots(u + j * H, H * H, 3, h, H, live, n, H, pre + j, H, H4);
            }
        }
        /* Gate epilogue: every dot of the step has read h, so the state
         * updates in place.  A trivial unit ends with c = h = 0. */
        for (long b = 0; b < B; b++) {
            const double *p = proj + (b * T + t) * H4;
            const double *q = pre + b * H4;
            const unsigned char *mask = masks ? masks + (b * T + t) * H : 0;
            double *h_row = h + b * H, *c_row = c + b * H;
            for (long j = 0; j < H; j += LANES) {
                const long m = H - j < LANES ? H - j : LANES;
                const vec f = vsigmoid(gate_in(p, q, bias, j, m));
                const vec i = vsigmoid(gate_in(p + H, q + H, bias + H, j, m));
                const vec g = vtanh(gate_in(p + 2 * H, q + 2 * H, bias + 2 * H, j, m));
                const vec o = m == LANES ? vload(q + 3 * H + j) : vload_part(q + 3 * H + j, m);
                const vec c_old = m == LANES ? vload(c_row + j) : vload_part(c_row + j, m);
                vec c_new = f * c_old + i * g;
                vec h_new = o * vtanh(c_new);
                if (mask)
                    for (long l = 0; l < m; l++)
                        if (mask[j + l]) c_new[l] = h_new[l] = 0.0;
                vstore(c_row + j, c_new, m);
                vstore(h_row + j, h_new, m);
            }
            memcpy(hs + (b * T + t) * H, h_row, H * sizeof(double));
            if (cs) memcpy(cs + (b * T + t) * H, c_row, H * sizeof(double));
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


#: Compile flags for the generated kernels. No ``-ffast-math``: the kernel's
#: self-consistency (a session's bits independent of its tick and its
#: chunking) rests on every dot summing in the order the source writes, so
#: the compiler may neither reassociate nor contract a multiply into an add
#: behind the source's back (``-ffp-contract=off``; the explicit ``fma``
#: calls are the contraction). Vectorization is the source's own: vector
#: types and unroll pragmas, so ``-O1`` builds the same inner loops as
#: ``-O2``/``-O3`` in about half the time, and every process of a fresh
#: host pays the build once. Flags are part of the build cache key, so
#: changing them forces a rebuild.
CFLAGS: tuple[str, ...] = (
    "-O1",
    "-march=native",
    "-ffp-contract=off",
    "-fPIC",
)

#: Link flags. Never the fast-math family: passing ``-ffast-math`` at link
#: time pulls in crtfastmath.o, whose constructor sets FTZ/DAZ in the FPU
#: control register for the whole process when the shared object loads,
#: silently breaking IEEE subnormals for numpy and every other library in
#: the host interpreter.
LDFLAGS: tuple[str, ...] = ("-shared",)


def _build_dir(tag: str) -> Path:
    """Cache directory of one keyed build.

    ``REPRO_CGEN_CACHE`` overrides the root: point it at a persistent
    path (a CI cache mount, a fleet-shared volume) and repeated jobs and
    restarts reuse the compiled object instead of paying the
    ``-march=native`` rebuild. The tag (:func:`_kernel_tag`) carries the
    host's instruction-set identity, so hosts of different ISAs sharing
    one root keep separate objects. Unset, the per-host temp directory
    keeps the seed behavior.
    """
    root = os.environ.get("REPRO_CGEN_CACHE")
    base = Path(root).expanduser() if root else Path(tempfile.gettempdir())
    return base / f"repro-cgen-{tag}"


def load_library() -> ctypes.CDLL:
    """Build (once per kernel tag) and load the kernel library.

    The shared object is cached under :func:`_build_dir` keyed on
    :func:`_kernel_tag` — the C source, the compiler's path and version,
    the host ISA and the flags — so repeated runs — and other interpreters
    on the same kind of host — reuse one build. The
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
    # Two steps: the link never sees the compile flags (see LDFLAGS).
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


def _compiler_version(compiler: str) -> str:
    """First line of ``compiler --version``: an in-place compiler upgrade
    keeps the path but changes this line."""
    proc = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return (proc.stdout or proc.stderr).partition("\n")[0].strip()


def _host_isa(compiler: str) -> str:
    """The host's instruction-set identity, what ``-march=native`` resolves
    from: the CPU flags line of ``/proc/cpuinfo`` (``Features`` on Arm),
    else the compiler's predefined macros under ``-march=native``."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    return value.strip()
    except OSError:
        pass
    proc = subprocess.run(
        [compiler, "-march=native", "-dM", "-E", "-x", "c", os.devnull],
        capture_output=True,
        text=True,
    )
    return proc.stdout


def _kernel_tag(compiler: str) -> str:
    """Build-cache key of the kernel: source, compiler path and version,
    host ISA and flags. An object built for one ISA and loaded on another
    dies with SIGILL, which no ``except`` can catch, so the ISA is part of
    the key."""
    parts = (
        C_SOURCE,
        compiler,
        _compiler_version(compiler),
        _host_isa(compiler),
        " ".join(CFLAGS),
        " ".join(LDFLAGS),
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _load_library_locked() -> ctypes.CDLL:
    global _lib
    compiler = _compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "generated-C backend needs a C compiler (cc/gcc/clang); none found"
        )
    build = _build_dir(_kernel_tag(compiler))
    so_path = build / "repro_kernels.so"
    sum_path = build / "repro_kernels.so.sha256"
    if not _is_intact(so_path, sum_path):
        _build(compiler, build, so_path, sum_path)
    lib = ctypes.CDLL(str(so_path))
    ptr, dbl, lng = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
    lib.lstm_layer.restype = None
    lib.lstm_layer.argtypes = [
        ptr, ptr, ptr, ptr,  # x, w, u, bias
        ptr, ptr, ptr, ptr, ptr,  # h, c, masks, proj, pre
        dbl, lng, lng, lng, lng,  # alpha, B, T, E, H
        ptr, ptr,  # hs, cs
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

    Same two-phase API and the same leased workspace: :meth:`project`
    stages the layer input, :meth:`execute` runs the whole layer —
    projection and timestep loop — in ``lstm_layer`` as one native call.
    Graded against the numpy lowering; exact against itself across batch
    compositions and chunkings.
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
        self._w = united.w
        self._u = united.u
        self._b = united.b
        self._slices = dict(united.slices)
        slabs = [
            ("x", (batch, seq_len, united.w.shape[1]), float),
            ("proj", (batch, seq_len, 4 * hidden), float),
            ("h", (batch, hidden), float),
            ("c", (batch, hidden), float),
            ("pre", (batch, 4 * hidden), float),
        ]
        if drs_alpha > 0.0:
            slabs.append(("masks_all", (batch, seq_len, hidden), bool))
        self._lease(arena, slabs)

    def _bind(self):
        ws = super()._bind()
        # Every kernel argument but the outputs, fixed until the arena
        # regrows: a call reads two pointers instead of eleven.
        ws.args = (
            *(_ptr(a) for a in (ws.x, self._w, self._u, self._b, ws.h, ws.c)),
            _ptr(getattr(ws, "masks_all", None)),
            _ptr(ws.proj),
            _ptr(ws.pre),
            float(self.drs_alpha),
            self.batch,
            self.seq_len,
            self._w.shape[1],
            self.hidden,
        )
        ws.gates = {g: ws.proj[..., sl] for g, sl in self._slices.items()}
        return ws

    @property
    def masks_all(self) -> np.ndarray | None:
        """Per-step ``(B, T, H)`` DRS masks of the last run (``None``
        without DRS); arena bytes, as for the numpy program."""
        return getattr(self._ws or self._bind(), "masks_all", None)

    def project(self, xs: np.ndarray) -> dict[str, np.ndarray]:
        """Stage the ``(B, T, E)`` layer input for :meth:`execute`, which
        projects it in the same native call as the recurrence; returns
        per-gate views of the projection block that call fills."""
        ws = self._ws or self._bind()
        np.copyto(ws.x, xs)
        return ws.gates

    def execute(
        self,
        hs: np.ndarray,
        cs: np.ndarray | None = None,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
        state_out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Project the staged input and run the fused timestep loop (the
        numpy program's contract, without breakpoint resets)."""
        ws = self._ws or self._bind()
        ws.h[:] = 0.0 if h0 is None else h0
        ws.c[:] = 0.0 if c0 is None else c0
        self._lib.lstm_layer(*ws.args, _ptr(hs), _ptr(cs))
        if state_out is not None:
            out_h, out_c = state_out
            out_h[:] = ws.h
            out_c[:] = ws.c
