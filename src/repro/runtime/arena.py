"""Shared-memory weight arena: the fleet's cross-process weight transport.

The paper's tissue insight is that the recurrent matrix ``U`` should be
loaded once and amortized across every fused cell. The fleet
(:mod:`repro.runtime.fleet`) lifts the same principle across processes:
the parent publishes every parameter array of an
:class:`~repro.nn.network.LSTMNetwork` into one
``multiprocessing.shared_memory`` segment, and each spawned worker
*attaches* — mapping the same physical pages read-only — instead of
receiving a pickled copy per task. The segment is keyed by
:func:`~repro.core.plan.fingerprint_network`, so a manifest can never be
attached to the wrong weights. In-process sharing needs no segment: the
zoo (:mod:`repro.runtime.tenancy`) serves its tenants on the caller's
arrays by reference.

Layout: one block, each array at a 64-byte-aligned offset (at least the
alignment numpy's own allocator guarantees, so attached views take the
same BLAS kernel paths as parent-owned arrays — a bit-identity
requirement, see ``tests/test_runtime.py``). The
:class:`ArenaManifest` carries only names, offsets, shapes, and dtypes —
it is small and travels through the spawn pickling of worker arguments.

Lifecycle: the publishing side owns the segment (``close()`` +
``unlink()``); attaching sides only ``close()``. Attached segments are
unregistered from Python's ``resource_tracker`` because the *owner* is
responsible for unlinking — otherwise every worker exit would tear the
segment down under the others (and spam leak warnings on 3.10–3.12).
"""

from __future__ import annotations

import copy
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.config import LSTMConfig
from repro.core.plan import fingerprint_network
from repro.errors import ArenaLayoutError, ConfigurationError, RuntimeStateError
from repro.nn.lstm_cell import GATE_ORDER, LSTMCellWeights
from repro.nn.lstm_layer import LSTMLayer
from repro.nn.network import LSTMNetwork
from repro.nn.quantize import (
    Precision,
    QuantizedCell,
    QuantizedMatrix,
    dequantize_lstm_cell,
    quantize_network_layers,
)

#: Per-array alignment inside the segment (bytes).
_ALIGN = 64

#: Shared-memory name prefix; the CI smoke job greps ``/dev/shm`` for it.
ARENA_NAME_PREFIX = "repro-arena-"


@dataclass(frozen=True)
class ArenaEntry:
    """Location of one parameter array inside the segment."""

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to rebuild the network from the segment.

    Small and picklable (no arrays) — the weights themselves travel only
    as shared pages.
    """

    shm_name: str
    fingerprint: str
    total_bytes: int
    config: LSTMConfig
    vocab_size: int
    num_classes: int
    per_timestep_head: bool
    head_pool: int
    #: Weight-storage policy of the published gate matrices (``fp64``,
    #: ``fp16``, or ``int8``). Quantized segments store per-gate payload
    #: entries (``layers.N.u_f.q``) plus, for int8, per-row scale vectors
    #: (``layers.N.u_f.scale``); the bias block, embedding and head stay
    #: float64. An fp64 segment holds three entries per layer — the
    #: united blocks ``layers.N.w`` / ``.u`` / ``.b``.
    precision: str = "fp64"
    entries: tuple[ArenaEntry, ...] = field(default_factory=tuple)


def _network_arrays(
    network: LSTMNetwork, cells: list[QuantizedCell] | None = None
) -> list[tuple[str, np.ndarray]]:
    """Flatten every parameter array to ``(key, array)`` in a fixed order.

    Per layer: the united ``w`` / ``u`` / ``b`` blocks — or, for a
    quantized publish (``cells``), the per-gate payloads + scales in place
    of the fp64 ``w`` / ``u``.
    """
    arrays: list[tuple[str, np.ndarray]] = [("embedding", network.embedding)]
    for index, layer in enumerate(network.layers):
        if cells is None:
            arrays.append((f"layers.{index}.w", layer.weights.w))
            arrays.append((f"layers.{index}.u", layer.weights.u))
        else:
            for kind, payloads in (("w", cells[index].w), ("u", cells[index].u)):
                for gate in GATE_ORDER:
                    matrix = payloads[gate]
                    arrays.append((f"layers.{index}.{kind}_{gate}.q", matrix.data))
                    if matrix.scales is not None:
                        arrays.append((f"layers.{index}.{kind}_{gate}.scale", matrix.scales))
        arrays.append((f"layers.{index}.b", layer.weights.b))
    arrays.append(("head_weight", network.head_weight))
    arrays.append(("head_bias", network.head_bias))
    return arrays


def _dequantized_network(
    network: LSTMNetwork, cells: list[QuantizedCell]
) -> LSTMNetwork:
    """The network a quantized arena actually serves (for fingerprinting).

    Embedding and head are shared; each layer's weights are the cell's
    dequantized float64 reconstruction. Because dequantized values differ
    between precisions, :func:`fingerprint_network` of this network keys
    the arena — and every downstream plan/program cache — per precision
    with no extra tag plumbing.
    """
    deq = copy.copy(network)
    deq.layers = [LSTMLayer(cell.dequantized) for cell in cells]
    return deq


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _entry_nbytes(entry: ArenaEntry) -> int:
    elems = 1
    for dim in entry.shape:
        elems *= int(dim)
    return elems * np.dtype(entry.dtype).itemsize


def validate_layout(manifest: ArenaManifest, segment_size: int) -> None:
    """Check a manifest's layout against the mapped segment.

    Mixed-dtype segments (int8 payloads interleaved with float64 scale
    vectors) make silent mis-striding easy: an off-by-one offset would
    still produce a *viewable* array, just over the wrong bytes. Every
    entry must therefore start on a :data:`_ALIGN`-byte boundary, stay
    inside the segment, and not overlap its neighbours — violations raise
    :class:`~repro.errors.ArenaLayoutError` before any view is built.
    """
    if manifest.total_bytes > segment_size:
        raise ArenaLayoutError(
            f"manifest claims {manifest.total_bytes} bytes but segment "
            f"{manifest.shm_name!r} maps only {segment_size}"
        )
    prev_key = None
    prev_end = 0
    for entry in sorted(manifest.entries, key=lambda e: e.offset):
        if entry.offset < 0 or entry.offset % _ALIGN != 0:
            raise ArenaLayoutError(
                f"entry {entry.key!r} starts at offset {entry.offset}, "
                f"which is not {_ALIGN}-byte aligned"
            )
        end = entry.offset + _entry_nbytes(entry)
        if end > manifest.total_bytes:
            raise ArenaLayoutError(
                f"entry {entry.key!r} ends at byte {end}, past the "
                f"segment's {manifest.total_bytes} bytes"
            )
        if entry.offset < prev_end:
            raise ArenaLayoutError(
                f"entry {entry.key!r} (offset {entry.offset}) overlaps "
                f"{prev_key!r} (which ends at byte {prev_end})"
            )
        prev_key = entry.key
        prev_end = end


class WeightArena:
    """One published (or attached) shared-memory weight segment.

    Use :meth:`publish` in the serving parent and :meth:`attach` in
    workers; both sides support the context-manager protocol. Only the
    publishing side unlinks.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, manifest: ArenaManifest, owner: bool
    ) -> None:
        # Both publish and attach funnel through here, so a corrupt or
        # mis-strided manifest is rejected before any view exists.
        validate_layout(manifest, shm.size)
        self._shm: shared_memory.SharedMemory | None = shm
        self.manifest = manifest
        self.owner = owner

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def publish(
        cls, network: LSTMNetwork, precision: "Precision | str" = "fp64"
    ) -> "WeightArena":
        """Copy every parameter of ``network`` into a fresh segment.

        Under a quantized ``precision``, the eight gate matrices of each
        layer are stored as their quantized payloads (int8 codes + fp64
        per-row scales, or fp16 values) — the segment itself shrinks by
        nearly the storage ratio, and workers rebuild byte-identical
        :class:`~repro.nn.quantize.QuantizedCell`\\ s from the shared
        pages via :meth:`quantized_cells`.
        """
        precision = Precision.parse(precision)
        if precision.is_quantized:
            cells = quantize_network_layers(network, precision)
            arrays = _network_arrays(network, cells)
            fingerprint = fingerprint_network(_dequantized_network(network, cells))
        else:
            arrays = _network_arrays(network)
            fingerprint = fingerprint_network(network)
        offsets: list[int] = []
        cursor = 0
        for _, array in arrays:
            cursor = _align(cursor)
            offsets.append(cursor)
            cursor += array.nbytes
        # The fingerprint keys the *weights*; the random suffix keeps two
        # simultaneous runtimes serving the same network from colliding.
        name = f"{ARENA_NAME_PREFIX}{fingerprint[:12]}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(cursor, 1))
        entries = []
        for (key, array), offset in zip(arrays, offsets):
            entries.append(
                ArenaEntry(
                    key=key,
                    offset=offset,
                    shape=tuple(array.shape),
                    dtype=str(array.dtype),
                )
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset)
            view[...] = array
        manifest = ArenaManifest(
            shm_name=shm.name,
            fingerprint=fingerprint,
            total_bytes=cursor,
            config=network.config,
            vocab_size=network.vocab_size,
            num_classes=network.num_classes,
            per_timestep_head=network.per_timestep_head,
            head_pool=network.head_pool,
            precision=precision.tag,
            entries=tuple(entries),
        )
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, manifest: ArenaManifest) -> "WeightArena":
        """Map an already-published segment (read-only views)."""
        shm = shared_memory.SharedMemory(name=manifest.shm_name)
        # Attaching registered us with the resource tracker as if we owned
        # the segment; the publishing process owns it, so hand back the
        # claim (otherwise the first worker to exit unlinks it for all).
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        return cls(shm, manifest, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if not self.owner:
            return
        try:
            shared_memory.SharedMemory(name=self.manifest.shm_name).unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "WeightArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()

    # -------------------------------------------------------------- access

    def _view(self, entry: ArenaEntry) -> np.ndarray:
        if self._shm is None:
            raise RuntimeStateError("weight arena is closed")
        view = np.ndarray(
            entry.shape,
            dtype=np.dtype(entry.dtype),
            buffer=self._shm.buf,
            offset=entry.offset,
        )
        view.setflags(write=False)
        return view

    def arrays(self) -> dict[str, np.ndarray]:
        """Read-only views of every published array, keyed by manifest key."""
        return {entry.key: self._view(entry) for entry in self.manifest.entries}

    def network(self, cells: list[QuantizedCell] | None = None) -> LSTMNetwork:
        """Rebuild the network on top of the shared pages.

        For an fp64 arena the parameter arrays — per layer, the three
        united blocks — are zero-copy read-only views into the segment, so
        an executor built on this network computes on the shared pages
        themselves; the network must not outlive this arena's mapping.
        For a quantized arena each layer's weights are the ``dequantized``
        blocks of ``cells`` (by default a fresh :meth:`quantized_cells`):
        a worker that hands the same cells to its executor holds one
        float64 reconstruction per layer, shared by network and executor.
        """
        views = self.arrays()
        manifest = self.manifest
        if Precision.parse(manifest.precision).is_quantized:
            cells = self.quantized_cells() if cells is None else cells
            layers = [cell.dequantized for cell in cells]
        else:
            layers = [
                LSTMCellWeights(*(views[f"layers.{index}.{name}"] for name in "wub"))
                for index in range(manifest.config.num_layers)
            ]
        network = LSTMNetwork.__new__(LSTMNetwork)
        network.config = manifest.config
        network.vocab_size = manifest.vocab_size
        network.num_classes = manifest.num_classes
        network.per_timestep_head = manifest.per_timestep_head
        network.head_pool = manifest.head_pool
        network.embedding = views["embedding"]
        network.layers = [LSTMLayer(weights) for weights in layers]
        network.head_weight = views["head_weight"]
        network.head_bias = views["head_bias"]
        if fingerprint_network(network) != manifest.fingerprint:
            raise ConfigurationError(
                "attached weight arena does not match its manifest fingerprint"
            )
        return network

    def quantized_cells(self) -> list[QuantizedCell]:
        """Rebuild per-layer :class:`QuantizedCell`\\ s from the payloads.

        Workers hand these to :class:`~repro.core.executor.LSTMExecutor`
        and to :meth:`network`, so the fleet runs on the *published* codes
        and scales rather than re-quantizing — the executor's weights are
        then byte-identical to the parent's by construction. Payloads and
        biases are copied out of the segment (they are small at quantized
        storage), so the cells may outlive the arena mapping.
        """
        precision = Precision.parse(self.manifest.precision)
        if not precision.is_quantized:
            raise ConfigurationError(
                "arena was published at fp64; it holds no quantized payloads"
            )
        views = self.arrays()

        def payload(key: str) -> QuantizedMatrix:
            scales = views.get(f"{key}.scale")
            return QuantizedMatrix(
                data=np.array(views[f"{key}.q"]),
                scales=None if scales is None else np.array(scales),
            )

        cells: list[QuantizedCell] = []
        for index in range(self.manifest.config.num_layers):
            qw, qu = (
                {gate: payload(f"layers.{index}.{kind}_{gate}") for gate in GATE_ORDER}
                for kind in "wu"
            )
            bias = np.array(views[f"layers.{index}.b"])
            cells.append(
                QuantizedCell(
                    precision=precision,
                    dequantized=dequantize_lstm_cell(qw, qu, bias),
                    w=qw,
                    u=qu,
                )
            )
        return cells


def leaked_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Names of repro arena segments still present on this host.

    Used by the tests and the CI smoke job to assert clean teardown; on
    platforms without a ``/dev/shm`` the check degrades to "none found".
    """
    root = Path(shm_dir)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.glob(f"{ARENA_NAME_PREFIX}*"))
