"""Turn execution plans into GPU kernel traces.

This module encodes Algorithms 1 and 3 (and their inter-cell variants) as
kernel sequences. The mapping, per layer:

* **Baseline (Algorithm 1).** One tiled ``Sgemm(W_{f,i,c,o}, x)``, then per
  cell one ``Sgemv(U_{f,i,c,o}, h_{t-1})`` and one ``lstm_ew``.
* **Inter-cell (Fig. 10).** The ``Sgemm(W, x)``, one relevance/breakpoint
  kernel, then per *tissue* one ``Sgemm(U_{f,i,c,o}, H_t)`` (GEMV-style
  shared-memory traffic — the batch dimension is too small for the tiled
  kernel) and one batched ``lstm_ew``.
* **Intra-cell (Algorithm 3).** Per cell: ``Sgemv(U_o, h)``, ``lstm_ew(o)``,
  ``DRS``, ``Sgemv(U_{f,i,c}, h, R)`` with only the kept rows streamed, and
  the closing ``lstm_ew``. Hardware DRS routes the reduced kernel through
  the CRM; software DRS pays divergence and de-coalescing penalties.
* **Combined.** The inter structure with the intra kernel split applied per
  tissue; the skipped rows are the tissue's intersection mask.
* **Zero-pruning (Fig. 16).** Baseline structure with the united ``U``
  stored as CSR: fewer bytes, but gather inefficiency and warp imbalance.
"""

from __future__ import annotations

from repro.core.plan import LayerPlanRecord, SequencePlan
from repro.errors import PlanError
from repro.gpu.cta import (
    hardware_drs_penalties,
    pruned_spmv_penalties,
    software_drs_penalties,
)
from repro.gpu.kernels import (
    FP32,
    KernelLaunch,
    drs_kernel,
    elementwise_kernel,
    relevance_kernel,
    sgemm_kernel,
    sgemv_kernel,
)
from repro.gpu.specs import GPUSpec
from repro.nn.quantize import Precision

#: On-chip traffic factor for the large-batch tiled GEMM (two-level tiling
#: re-uses each staged element across a 32x32 tile, unlike the GEMV-style
#: per-cell/per-tissue kernels that re-read activations per row).
TILED_ONCHIP_FACTOR: float = 0.1

#: How DRS executes: on the CRM (Fig. 12) or as software row masking.
DRS_STYLES: tuple[str, ...] = ("hardware", "software")

#: Host bytes per float64 weight element (the executor's master arrays).
_FP64 = 8.0


def _annotate_weight_bytes(
    kernel: KernelLaunch,
    precision: Precision,
    dense_elems: float,
    moved_elems: float,
    rows_total: float,
    rows_moved: float,
    payload_overhead: float = 0.0,
    device_weight_bytes: float | None = None,
) -> KernelLaunch:
    """Attach the bytes-moved accounting to one weight-streaming kernel.

    The three counters measure the *host* weight storage the executor
    actually reads (float64 masters, or int8 codes + float64 scales /
    fp16 payloads under a quantized policy):

    * ``weight_bytes_fp64`` — what moving this kernel's surviving weight
      elements costs at float64 storage (the fp64-policy reference).
    * ``weight_bytes_moved`` — the bytes the active precision streams for
      the surviving rows, scale vectors included.
    * ``weight_bytes_skipped`` — the dense-at-precision footprint minus
      the moved bytes: what DRS row skipping avoided loading.

    Skip and precision therefore compound: a skipped int8 row subtracts
    8x fewer bytes from ``moved`` than a skipped fp64 row, exactly the
    multiplicative composition the paper's bandwidth model predicts.

    For quantized policies the *simulated* ``weight_bytes`` (the fp32
    device model) shrinks by the same storage ratio, with per-row scale
    vectors streamed at fp32 — flops, threads, and write traffic were
    derived before this adjustment, so compute work is unchanged and
    only the memory roof moves.
    """
    storage = float(precision.storage_bytes)
    scale_row = float(precision.scale_bytes_per_row)
    moved = moved_elems * storage + rows_moved * scale_row + payload_overhead
    dense = dense_elems * storage + rows_total * scale_row + payload_overhead
    kernel.extra["weight_bytes_fp64"] = moved_elems * _FP64 + payload_overhead
    kernel.extra["weight_bytes_moved"] = moved
    kernel.extra["weight_bytes_skipped"] = dense - moved
    if precision.is_quantized:
        if device_weight_bytes is not None:
            kernel.weight_bytes = device_weight_bytes
        else:
            device_scales = rows_moved * (float(FP32) if scale_row else 0.0)
            kernel.weight_bytes = (
                kernel.weight_bytes * (storage / FP32) + device_scales
            )
    return kernel


def _u_sgemm(
    spec: GPUSpec,
    hidden: int,
    rows: int,
    batch: int,
    weight_id: str,
    tag: str,
    weight_bytes: float | None = None,
    warp_efficiency: float = 1.0,
    gather_efficiency: float = 1.0,
    uses_crm: bool = False,
) -> KernelLaunch:
    """A recurrent-matrix kernel: Sgemv for one cell, GEMV-style Sgemm for a
    tissue."""
    onchip = spec.onchip_traffic_per_flop(hidden)
    if batch == 1:
        return sgemv_kernel(
            rows,
            hidden,
            onchip,
            weight_id=weight_id,
            weight_bytes=weight_bytes,
            warp_efficiency=warp_efficiency,
            gather_efficiency=gather_efficiency,
            uses_crm=uses_crm,
            tag=tag,
        )
    return sgemm_kernel(
        rows,
        hidden,
        batch,
        onchip,
        weight_id=weight_id,
        weight_bytes=weight_bytes,
        warp_efficiency=warp_efficiency,
        gather_efficiency=gather_efficiency,
        uses_crm=uses_crm,
        tag=tag,
    )


def _input_sgemm(
    spec: GPUSpec, record: LayerPlanRecord, tag: str, precision: Precision
) -> KernelLaunch:
    """The per-layer tiled ``Sgemm(W_{f,i,c,o}, x)``."""
    kernel = sgemm_kernel(
        4 * record.hidden_size,
        record.input_size,
        record.seq_length,
        spec.onchip_traffic_per_flop(record.hidden_size) * TILED_ONCHIP_FACTOR,
        weight_id=f"W{record.layer_index}",
        tag=tag,
    )
    elems = 4.0 * record.hidden_size * record.input_size
    return _annotate_weight_bytes(
        kernel,
        precision,
        dense_elems=elems,
        moved_elems=elems,
        rows_total=4.0 * record.hidden_size,
        rows_moved=4.0 * record.hidden_size,
    )


def _layer_kernels(
    spec: GPUSpec,
    record: LayerPlanRecord,
    inter: bool,
    intra: bool,
    drs_style: str,
    zero_prune_kept: float | None,
    precision: Precision,
) -> list[KernelLaunch]:
    hidden = record.hidden_size
    tag = f"layer{record.layer_index}"
    kernels: list[KernelLaunch] = [_input_sgemm(spec, record, tag, precision)]

    if inter:
        kernels.append(relevance_kernel(hidden, record.seq_length, tag=tag))

    for batch, skip, warp_skip in zip(
        record.tissue_sizes.tolist(), record.skip.tolist(), record.warp.tolist()
    ):
        if zero_prune_kept is not None:
            warp_eff, gather_eff = pruned_spmv_penalties(zero_prune_kept)
            # Bitmap-compressed storage: kept values + 1 bit per element.
            dense = 4 * hidden * hidden
            bitmap = dense * 0.125
            kept_elems = dense * zero_prune_kept
            csr_bytes = kept_elems * FP32 + bitmap
            kernel = _u_sgemm(
                spec,
                hidden,
                4 * hidden,
                batch,
                weight_id=f"Ucsr{record.layer_index}",
                tag=tag,
                weight_bytes=csr_bytes,
                warp_efficiency=warp_eff,
                gather_efficiency=gather_eff,
            )
            kernels.append(
                _annotate_weight_bytes(
                    kernel,
                    precision,
                    dense_elems=kept_elems,
                    moved_elems=kept_elems,
                    rows_total=4.0 * hidden,
                    rows_moved=4.0 * hidden,
                    payload_overhead=bitmap,
                    device_weight_bytes=(
                        kept_elems * precision.storage_bytes
                        + bitmap
                        + 4.0 * hidden * (FP32 if precision.scale_bytes_per_row else 0.0)
                    ),
                )
            )
            kernels.append(elementwise_kernel(hidden, batch=batch, tag=tag))
        elif intra:
            kernels.extend(
                _intra_tissue_kernels(
                    spec, record, batch, skip, warp_skip, drs_style, tag, precision
                )
            )
        else:
            kernel = _u_sgemm(
                spec, hidden, 4 * hidden, batch, weight_id=f"U{record.layer_index}", tag=tag
            )
            elems = 4.0 * hidden * hidden
            kernels.append(
                _annotate_weight_bytes(
                    kernel,
                    precision,
                    dense_elems=elems,
                    moved_elems=elems,
                    rows_total=4.0 * hidden,
                    rows_moved=4.0 * hidden,
                )
            )
            kernels.append(elementwise_kernel(hidden, batch=batch, tag=tag))
    return kernels


def _intra_tissue_kernels(
    spec: GPUSpec,
    record: LayerPlanRecord,
    batch: int,
    skip: float,
    warp_skip: float,
    drs_style: str,
    tag: str,
    precision: Precision,
) -> list[KernelLaunch]:
    """Algorithm 3's five-kernel flow for one tissue (or one cell) of
    ``batch`` cells whose shared load skips ``skip`` of the rows."""
    hidden = record.hidden_size
    if drs_style == "hardware":
        warp_eff, gather_eff, effective_skip = hardware_drs_penalties(skip)
        uses_crm = skip > 0.0
    elif drs_style == "software":
        warp_eff, gather_eff, effective_skip = software_drs_penalties(skip, warp_skip)
        uses_crm = False
    else:
        raise PlanError(f"unknown drs_style {drs_style!r}")

    fic_dense = 3.0 * hidden * hidden
    fic_elems = fic_dense * (1.0 - effective_skip)
    fic_bytes = fic_elems * FP32
    o_elems = 1.0 * hidden * hidden
    return [
        # Sgemv(U_o, h_{t-1}) — the selector gate, never skipped.
        _annotate_weight_bytes(
            _u_sgemm(
                spec, hidden, hidden, batch, weight_id=f"Uo{record.layer_index}", tag=tag
            ),
            precision,
            dense_elems=o_elems,
            moved_elems=o_elems,
            rows_total=float(hidden),
            rows_moved=float(hidden),
        ),
        # lstm_ew(o_t)
        elementwise_kernel(hidden, batch=batch, gates=1, tag=tag),
        # DRS(o_t, alpha_intra, R)
        drs_kernel(hidden, batch=batch, tag=tag),
        # Sgemv(U_{f,i,c}, h_{t-1}, R) — only the kept rows are streamed,
        # and under a quantized policy only they are dequantized: the
        # moved bytes shrink with the skip *and* the storage width.
        _annotate_weight_bytes(
            _u_sgemm(
                spec,
                hidden,
                3 * hidden,
                batch,
                weight_id=f"Ufic{record.layer_index}",
                tag=tag,
                weight_bytes=fic_bytes,
                warp_efficiency=warp_eff,
                gather_efficiency=gather_eff,
                uses_crm=uses_crm,
            ),
            precision,
            dense_elems=fic_dense,
            moved_elems=fic_elems,
            rows_total=3.0 * hidden,
            rows_moved=3.0 * hidden * (1.0 - effective_skip),
        ),
        # lstm_ew(f, i, c_{t-1}, c_t, h_t)
        elementwise_kernel(hidden, batch=batch, gates=3, tag=tag),
    ]


def build_kernel_trace(
    plan: SequencePlan,
    spec: GPUSpec,
    inter: bool,
    intra: bool,
    drs_style: str = "hardware",
    zero_prune_kept: float | None = None,
    precision: Precision | None = None,
) -> list[KernelLaunch]:
    """Build the full kernel trace of one sequence's execution.

    Args:
        plan: Per-layer structural records produced by the executor.
        spec: Target GPU.
        inter: Whether the inter-cell optimization was active (adds the
            relevance kernel; tissues may hold several cells).
        intra: Whether DRS was active (kernel split per Algorithm 3).
        drs_style: ``"hardware"`` (CRM) or ``"software"``.
        zero_prune_kept: When set, model the zero-pruning baseline instead
            of DRS; value is the kept-element fraction of the united ``U``.
        precision: Weight-storage policy. Every weight-streaming kernel is
            annotated with ``weight_bytes_fp64`` / ``weight_bytes_moved``
            / ``weight_bytes_skipped`` counters (see
            :func:`_annotate_weight_bytes`); quantized policies also
            shrink the simulated weight traffic. ``None`` means fp64.
    """
    if precision is None:
        precision = Precision()
    kernels: list[KernelLaunch] = []
    for record in plan.layers:
        kernels.extend(
            _layer_kernels(
                spec, record, inter, intra, drs_style, zero_prune_kept, precision
            )
        )
    return kernels


def forced_tissue_layer_trace(
    spec: GPUSpec, hidden_size: int, seq_length: int, tissue_size: int
) -> list[KernelLaunch]:
    """Trace of one layer force-divided into equal tissues (Fig. 9 sweeps
    and the MTS calibration of Fig. 10, step 1)."""
    if tissue_size < 1:
        raise PlanError(f"tissue_size must be >= 1, got {tissue_size}")
    kernels: list[KernelLaunch] = [
        sgemm_kernel(
            4 * hidden_size,
            hidden_size,
            seq_length,
            spec.onchip_traffic_per_flop(hidden_size) * TILED_ONCHIP_FACTOR,
            weight_id="W",
            tag="forced",
        )
    ]
    remaining = seq_length
    while remaining > 0:
        batch = min(tissue_size, remaining)
        remaining -= batch
        kernels.append(
            _u_sgemm(spec, hidden_size, 4 * hidden_size, batch, weight_id="U", tag="forced")
        )
        kernels.append(elementwise_kernel(hidden_size, batch=batch, tag="forced"))
    return kernels
