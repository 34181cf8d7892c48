"""L2 inter-kernel reuse model (the Fig. 5 data-movement mechanics).

The redundant-data-movement bottleneck exists because the united recurrent
matrix is larger than the mobile GPU's last-level cache: every per-cell
``Sgemv`` must re-stream it from DRAM. Conversely, when a weight tensor
*does* fit in the cache together with the data streamed between its uses, a
repeated launch hits on-chip and the redundant loads vanish.

The model is a deterministic stack-distance approximation: a weight tensor
re-read after ``interleaved_bytes`` of other traffic retains

    resident = clip((l2_effective - interleaved_bytes) / tensor_bytes, 0, 1)

of its bytes in the L2, so only ``(1 - resident)`` must come from DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import GPUSpec


@dataclass
class _WeightRecord:
    tensor_bytes: float
    traffic_since_use: float


class L2Model:
    """Tracks weight-tensor residency across a kernel sequence."""

    def __init__(self, spec: GPUSpec) -> None:
        self._spec = spec
        self._records: dict[str, _WeightRecord] = {}

    @property
    def effective_capacity(self) -> float:
        """L2 bytes usable for cross-kernel weight residency."""
        return self._spec.l2_bytes * self._spec.l2_residency_efficiency

    def reset(self) -> None:
        """Forget all residency state (a new, cold execution)."""
        self._records.clear()

    def weight_traffic(self, weight_id: str | None, tensor_bytes: float) -> float:
        """Effective DRAM bytes needed to read a weight tensor now.

        Call once per kernel, *before* :meth:`account_streaming`. The first
        use of a tensor is always a full load; later uses pay only for the
        evicted fraction.
        """
        if tensor_bytes <= 0:
            return 0.0
        if weight_id is None:
            return tensor_bytes
        record = self._records.get(weight_id)
        if record is None or record.tensor_bytes != tensor_bytes:
            self._records[weight_id] = _WeightRecord(tensor_bytes, 0.0)
            self._evict_others(weight_id, tensor_bytes)
            return tensor_bytes
        resident = self._resident_fraction(record)
        record.traffic_since_use = 0.0
        missing = tensor_bytes * (1.0 - resident)
        self._evict_others(weight_id, missing)
        return missing

    def account_streaming(self, bytes_moved: float) -> None:
        """Register non-weight traffic, which ages every tracked tensor."""
        if bytes_moved <= 0:
            return
        for record in self._records.values():
            record.traffic_since_use += bytes_moved

    def _resident_fraction(self, record: _WeightRecord) -> float:
        leftover = self.effective_capacity - record.traffic_since_use
        if leftover <= 0:
            return 0.0
        if record.tensor_bytes > leftover:
            # Cyclic streaming reuse under LRU: the head of the next pass
            # evicts the cached tail before it is reached, so a tensor
            # larger than the available capacity gets *zero* hits — the
            # classic thrashing pattern behind the paper's Fig. 5
            # observation that the weight matrix is fully re-loaded per
            # cell.
            return 0.0
        return 1.0

    def _evict_others(self, active_id: str, bytes_moved: float) -> None:
        for key, record in self._records.items():
            if key != active_id:
                record.traffic_since_use += bytes_moved
