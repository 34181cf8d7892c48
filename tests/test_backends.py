"""Backend registry and fused-kernel lowering contracts.

What :mod:`repro.core.backends` promises:

* **Registry discipline.** Unknown names fail config validation; missing
  toolchains fail resolution with
  :class:`~repro.errors.BackendUnavailableError` carrying a reason, at
  executor construction rather than mid-run; the surface is exactly
  ``("numpy", "cgen")``.

* **The numpy oracle is untouched.** ``backend="numpy"`` stays
  bit-identical to the frozen
  :class:`~repro.core.reference.ReferenceExecutor` in the four stepwise
  modes and meets the graded tier in COMBINED (:func:`~repro.core.
  backends.is_exact`).

* **Fused numerics.** The generated-C backend lowers the stepwise loop of
  BASELINE / INTRA / ZERO_PRUNE and agrees with the oracle there at
  fp64-roundoff tolerance, deterministically. INTER and COMBINED run the
  numpy programs on every backend, so a cgen-configured executor gives
  their bytes exactly.

* **The kernel cache heals.** A cached object whose digest does not match
  is rebuilt before it is loaded, never mapped, and an object built for
  another ISA or by another compiler version is never found.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import LSTMConfig
from repro.core import cgen
from repro.core.backends import (
    BACKEND_NAMES,
    backend_availability,
    is_exact,
    resolve_backend,
    validate_backend_name,
)
from repro.core.executor import ExecutionConfig, ExecutionMode, LSTMExecutor
from repro.core.reference import ReferenceExecutor
from repro.errors import BackendUnavailableError, ConfigurationError
from repro.nn.network import LSTMNetwork
from repro.obs.recorder import Recorder
from repro.runtime import StreamingServer

from tests.grading import assert_meets_grade

VOCAB = 31
CLASSES = 3

#: Fused-vs-oracle tolerance; measured deviations sit at ~4e-16.
TOLERANCE = 1e-9

MODE_CONFIGS = {
    ExecutionMode.BASELINE: {},
    ExecutionMode.INTER: {"alpha_inter": 50.0, "mts": 3},
    ExecutionMode.INTRA: {"alpha_intra": 0.4},
    ExecutionMode.COMBINED: {"alpha_inter": 50.0, "alpha_intra": 0.4, "mts": 3},
    ExecutionMode.ZERO_PRUNE: {},
}

needs_compiler = pytest.mark.skipif(
    not cgen.compiler_available(), reason="no C compiler on this host"
)


def make_case(seed: int = 7, hidden: int = 16, layers: int = 2, seq: int = 12, batch: int = 5):
    config = LSTMConfig(
        hidden_size=hidden, num_layers=layers, seq_length=seq, input_size=hidden
    )
    network = LSTMNetwork(config, VOCAB, CLASSES, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, VOCAB, size=(batch, seq))
    return network, tokens


def mode_config(mode: ExecutionMode, backend: str = "numpy") -> ExecutionConfig:
    return ExecutionConfig(mode=mode, backend=backend, **MODE_CONFIGS[mode])


# ------------------------------------------------------------------- registry


class TestRegistry:
    def test_backend_names_and_exactness(self):
        assert BACKEND_NAMES == ("numpy", "cgen")
        for mode in ExecutionMode:
            assert is_exact("numpy", mode) is (mode is not ExecutionMode.COMBINED)
            assert not is_exact("cgen", mode)
        assert is_exact("numpy", "baseline") and not is_exact("numpy", "combined")

    @pytest.mark.parametrize("mode", list(MODE_CONFIGS), ids=lambda m: m.value)
    def test_executor_backend_is_the_one_its_programs_run_on(self, mode):
        """cgen lowers the stepwise loop only: a cgen-configured INTER or
        COMBINED executor runs, records and grades as numpy."""
        if not cgen.compiler_available() and not mode_config(mode).inter_active:
            pytest.skip("no C compiler on this host")
        network, _ = make_case()
        executor = LSTMExecutor(network, mode_config(mode, backend="cgen"))
        structural = mode in (ExecutionMode.INTER, ExecutionMode.COMBINED)
        assert executor.backend == ("numpy" if structural else "cgen")
        assert executor.exact is is_exact(executor.backend, mode)

    def test_unknown_name_rejected(self):
        for name in ("cuda", "numba", "torch", "fused"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                validate_backend_name(name)
            with pytest.raises(ConfigurationError, match="unknown backend"):
                ExecutionConfig(backend=name)

    def test_numpy_always_resolves(self):
        assert resolve_backend("numpy") == "numpy"
        availability = backend_availability()
        assert availability["numpy"] == (True, "")

    def test_unavailable_backends_raise_with_reason(self, monkeypatch):
        """No C compiler: cgen fails at executor construction, not mid-run."""
        monkeypatch.setattr(cgen, "compiler_available", lambda: False)
        assert backend_availability()["cgen"] == (
            False, "no C compiler (cc/gcc/clang) on this host"
        )
        with pytest.raises(BackendUnavailableError, match="cgen.*no C compiler"):
            resolve_backend("cgen")
        network, _ = make_case()
        with pytest.raises(BackendUnavailableError, match="cgen"):
            LSTMExecutor(network, mode_config(ExecutionMode.BASELINE, backend="cgen"))
        # INTER and COMBINED never reach the kernel, so they need no compiler.
        assert LSTMExecutor(network, mode_config(ExecutionMode.INTER, backend="cgen")).exact


# ------------------------------------------------------------------- numerics


@needs_compiler
class TestFusedNumerics:
    @pytest.mark.parametrize("mode", list(MODE_CONFIGS), ids=lambda m: m.value)
    def test_numpy_oracle_is_bit_identical(self, mode):
        network, tokens = make_case()
        out_ref = ReferenceExecutor(network, mode_config(mode)).run_batch(tokens)
        numpy_executor = LSTMExecutor(network, mode_config(mode))
        assert_meets_grade(numpy_executor.run_batch(tokens), out_ref, numpy_executor.exact)

    @pytest.mark.parametrize("mode", list(MODE_CONFIGS), ids=lambda m: m.value)
    def test_fused_agrees_at_tolerance(self, mode):
        network, tokens = make_case()
        out_ref = ReferenceExecutor(network, mode_config(mode)).run_batch(tokens)
        fused = LSTMExecutor(network, mode_config(mode, backend="cgen"))
        out_fused = fused.run_batch(tokens)
        structural = mode in (ExecutionMode.INTER, ExecutionMode.COMBINED)
        assert fused.backend == ("numpy" if structural else "cgen")
        assert np.abs(out_fused.logits - out_ref.logits).max() <= TOLERANCE
        assert np.array_equal(
            np.asarray(out_fused.predictions()), np.asarray(out_ref.predictions())
        )

    def test_loading_the_kernel_keeps_ieee_subnormals(self):
        """The kernel must not ship crtfastmath's FTZ/DAZ constructor:
        loading the .so may never flip process FPU state."""
        cgen.load_library()
        smallest_subnormal = np.float64(5e-324)
        assert smallest_subnormal * 1.0 != 0.0
        assert np.float64(2.2250738585072014e-308) / 2.0 != 0.0

    def test_fused_runs_are_deterministic(self):
        network, tokens = make_case()
        config = mode_config(ExecutionMode.INTRA, backend="cgen")
        first = LSTMExecutor(network, config).run_batch(tokens)
        second = LSTMExecutor(network, config).run_batch(tokens)
        assert np.array_equal(first.logits, second.logits)

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.INTER, ExecutionMode.COMBINED], ids=lambda m: m.value
    )
    def test_structural_modes_run_the_numpy_programs(self, mode):
        """A cgen-configured INTER or COMBINED executor is the numpy one:
        logits, layer outputs and plans byte-identical, no weight array of
        its own, and INTER bit-identical to the frozen reference."""
        network, tokens = make_case()
        out_numpy = LSTMExecutor(network, mode_config(mode)).run_batch(tokens)
        fused = LSTMExecutor(network, mode_config(mode, backend="cgen"))
        out_fused = fused.run_batch(tokens)
        assert_meets_grade(out_fused, out_numpy, exact=True)
        assert fused.owned_arrays() == []
        if mode is ExecutionMode.INTER:
            out_ref = ReferenceExecutor(network, mode_config(mode)).run_batch(tokens)
            assert_meets_grade(out_fused, out_ref, exact=True)

    def test_recorder_attributes_the_resolved_backend(self):
        network, tokens = make_case()
        recorder = Recorder()
        executor = LSTMExecutor(
            network, mode_config(ExecutionMode.INTRA, backend="cgen"),
            recorder=recorder,
        )
        executor.run_batch(tokens)
        record = recorder.records[-1].to_dict()
        assert record["config"]["backend"] == "cgen"

    def test_streaming_under_the_fused_backend(self):
        """A fused streaming server tracks the numpy one at tolerance."""
        config = LSTMConfig(hidden_size=16, num_layers=2, seq_length=16, input_size=16)
        network = LSTMNetwork(
            config, VOCAB, CLASSES, seed=3, per_timestep_head=True, head_pool=1
        )
        rng = np.random.default_rng(13)
        tokens = rng.integers(0, VOCAB, size=11)

        def serve(backend: str) -> np.ndarray:
            server = StreamingServer(
                network,
                ExecutionConfig(
                    mode=ExecutionMode.INTRA, alpha_intra=0.4, backend=backend
                ),
                chunk_len=4,
                clock=lambda: 0.0,
            )
            ticket = server.submit("s", tokens, now=0.0)
            server.drain(now=0.0)
            return ticket.result.logits

        delta = np.abs(serve("cgen") - serve("numpy")).max()
        assert delta <= TOLERANCE


# ---------------------------------------------------------------- kernel cache


@needs_compiler
class TestKernelCache:
    def test_the_cache_key_carries_the_host_isa_and_compiler_version(self, monkeypatch):
        """A ``-march=native`` object loaded on a host of another ISA dies
        with SIGILL, and an upgraded compiler keeps its path: both
        identities key the build directory."""
        compiler = cgen._compiler()

        def build_dir(isa: str, version: str = "cc 12.2.0") -> Path:
            monkeypatch.setattr(cgen, "_host_isa", lambda _compiler: isa)
            monkeypatch.setattr(cgen, "_compiler_version", lambda _compiler: version)
            return cgen._build_dir(cgen._kernel_tag(compiler))

        avx2 = build_dir("fpu sse2 avx avx2 fma")
        assert build_dir("fpu sse2 avx avx2 fma avx512f avx512vl") != avx2
        assert build_dir("fpu sse2 avx avx2 fma") == avx2
        assert build_dir("fpu sse2 avx avx2 fma", version="cc 13.1.0") != avx2

    def test_this_host_has_an_isa_and_a_compiler_version(self):
        compiler = cgen._compiler()
        assert cgen._host_isa(compiler)
        assert cgen._compiler_version(compiler)

    def test_truncated_cached_object_is_rebuilt(self, tmp_path):
        """A truncated ``.so`` used to be mapped as is and the interpreter
        died by SIGBUS, which nothing can catch: the load runs in a child."""
        env = dict(
            os.environ,
            REPRO_CGEN_CACHE=str(tmp_path),
            PYTHONPATH=str(Path(cgen.__file__).resolve().parents[2]),
        )
        code = "from repro.core import cgen; cgen.load_library()"

        def load() -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                timeout=120,
            )

        assert load().returncode == 0
        [so_path] = tmp_path.glob("repro-cgen-*/repro_kernels.so")
        with open(so_path, "r+b") as handle:
            handle.truncate(1000)
        proc = load()
        assert proc.returncode == 0, f"child exited {proc.returncode}: {proc.stderr}"
        digest = (so_path.parent / "repro_kernels.so.sha256").read_text()
        assert digest == hashlib.sha256(so_path.read_bytes()).hexdigest()

    def test_failing_compiler_leaves_the_cache_clean_and_usable(self, tmp_path):
        """A ``cc`` that writes junk to its ``-o`` and exits 1: the build
        raises, leaves no object or temporary behind, and the real
        compiler then builds and loads in the same cache directory."""
        fake = tmp_path / "bin"
        fake.mkdir()
        (fake / "cc").write_text(
            '#!/bin/sh\nwhile [ $# -gt 0 ]; do\n'
            '  if [ "$1" = "-o" ]; then echo junk > "$2"; fi\n  shift\n'
            'done\nexit 1\n'
        )
        (fake / "cc").chmod(0o755)
        cache = tmp_path / "cache"
        code = f"""
import os
from pathlib import Path
from repro.core import cgen
from repro.errors import BackendUnavailableError
real_path = os.environ["PATH"]
os.environ["PATH"] = {str(fake)!r} + os.pathsep + real_path
try:
    cgen.load_library()
except BackendUnavailableError:
    pass
else:
    raise SystemExit("the fake compiler's build did not raise")
cache = Path({str(cache)!r})
left = [p.name for p in cache.rglob("*") if ".tmp." in p.name or p.name == "repro_kernels.so"]
assert not left, left
os.environ["PATH"] = real_path
cgen.load_library()
[so_path] = cache.glob("repro-cgen-*/repro_kernels.so")
assert not [p for p in cache.rglob("*") if ".tmp." in p.name]
"""
        env = dict(
            os.environ,
            REPRO_CGEN_CACHE=str(cache),
            PYTHONPATH=str(Path(cgen.__file__).resolve().parents[2]),
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, f"child exited {proc.returncode}: {proc.stderr}"
