"""Environment pinning (before numpy loads) and capture (into the output).

Importing this module imports neither numpy nor repro, so ``pin`` can
run first.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

#: An open-loop run whose generator ran later than this (p99) measured
#: the generator, not the server.
MAX_LATENESS_P99_MS = 25.0


def pin() -> None:
    """One BLAS thread: the host has two cores and the load generator needs one."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fresh_scratch() -> Path:
    """A per-process scratch directory inside the checkout.

    The generated-C backend builds into it (``REPRO_CGEN_CACHE``), so the
    ``cc`` build is paid by every run and shows in ``setup_s``; ``TMPDIR``
    follows so the compiler's intermediates stay inside the checkout too.
    """
    scratch = RESULTS / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CGEN_CACHE"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    return scratch


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)


def _first_line(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.splitlines()
    return lines[0].strip() if proc.returncode == 0 and lines else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def capture(seed: int) -> dict:
    """What a reader needs to place a number: machine, versions, commit, seed."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "cc": _first_line(["cc", "--version"]),
        # The driver's checkout is not a git repository; "unknown" there.
        "git_sha": _first_line(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def load_average() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []
