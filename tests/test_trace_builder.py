"""Tests for the plan -> kernel-trace translation."""

import numpy as np
import pytest

from repro.core.plan import CachedLayerPlan, LayerPlanRecord, SequencePlan
from repro.core.tissue import Tissue
from repro.core.trace_builder import (
    build_kernel_trace,
    forced_tissue_layer_trace,
)
from repro.errors import PlanError
from repro.gpu.kernels import FP32
from repro.gpu.specs import TEGRA_X1

H, E, T = 32, 32, 6


def plan(tissue_sizes=(1,) * T, skip=0.0):
    tissues = []
    t = 0
    for size in tissue_sizes:
        tissues.append(Tissue(cells=[(0, t + k) for k in range(size)]))
        t += size
    record = LayerPlanRecord(
        layer_index=0,
        hidden_size=H,
        input_size=E,
        plan=CachedLayerPlan.from_schedule(None, [], tissues),
        skip=np.full(len(tissues), skip),
        warp=np.zeros(len(tissues)),
    )
    return SequencePlan(layers=[record])


class TestBaselineTrace:
    def test_algorithm1_structure(self):
        kernels = build_kernel_trace(plan(), TEGRA_X1, inter=False, intra=False)
        names = [k.name for k in kernels]
        # One Sgemm(W, x) then per cell (Sgemv, lstm_ew).
        assert names[0] == "sgemm"
        assert names.count("sgemv") == T
        assert names.count("lstm_ew") == T

    def test_sgemv_loads_full_united_matrix(self):
        kernels = build_kernel_trace(plan(), TEGRA_X1, inter=False, intra=False)
        sgemv = next(k for k in kernels if k.name == "sgemv")
        assert sgemv.weight_bytes == 4 * H * H * FP32


class TestInterTrace:
    def test_relevance_kernel_and_tissue_sgemm(self):
        kernels = build_kernel_trace(
            plan(tissue_sizes=(3, 3)), TEGRA_X1, inter=True, intra=False
        )
        names = [k.name for k in kernels]
        assert "relevance" in names
        assert names.count("sgemm") == 1 + 2  # W Sgemm + two tissue Sgemms

    def test_weight_loads_reduced_by_tissues(self):
        base = build_kernel_trace(plan(), TEGRA_X1, inter=False, intra=False)
        tissue = build_kernel_trace(
            plan(tissue_sizes=(3, 3)), TEGRA_X1, inter=True, intra=False
        )
        base_u = sum(k.weight_bytes for k in base if k.weight_id == "U0")
        tissue_u = sum(k.weight_bytes for k in tissue if k.weight_id == "U0")
        assert tissue_u == pytest.approx(base_u / 3)


class TestIntraTrace:
    def test_algorithm3_structure(self):
        kernels = build_kernel_trace(
            plan(skip=0.5), TEGRA_X1, inter=False, intra=True
        )
        names = [k.name for k in kernels]
        assert names.count("drs") == T
        # Per cell: Sgemv(U_o) + Sgemv(U_fic) = 2 sgemvs.
        assert names.count("sgemv") == 2 * T

    def test_skipped_rows_shrink_fic_load(self):
        full = build_kernel_trace(plan(skip=0.0), TEGRA_X1, inter=False, intra=True)
        half = build_kernel_trace(plan(skip=0.5), TEGRA_X1, inter=False, intra=True)
        fic_full = sum(k.weight_bytes for k in full if k.weight_id == "Ufic0")
        fic_half = sum(k.weight_bytes for k in half if k.weight_id == "Ufic0")
        assert fic_half == pytest.approx(fic_full / 2)

    def test_uo_never_skipped(self):
        kernels = build_kernel_trace(plan(skip=0.9), TEGRA_X1, inter=False, intra=True)
        uo = [k for k in kernels if k.weight_id == "Uo0"]
        assert all(k.weight_bytes == H * H * FP32 for k in uo)

    def test_hardware_routes_through_crm(self):
        kernels = build_kernel_trace(
            plan(skip=0.5), TEGRA_X1, inter=False, intra=True, drs_style="hardware"
        )
        assert any(k.uses_crm for k in kernels)

    def test_software_avoids_crm_and_pays_divergence(self):
        kernels = build_kernel_trace(
            plan(skip=0.5), TEGRA_X1, inter=False, intra=True, drs_style="software"
        )
        assert not any(k.uses_crm for k in kernels)
        fic = [k for k in kernels if k.weight_id == "Ufic0"]
        assert all(k.warp_efficiency < 1.0 for k in fic)

    def test_unknown_style_rejected(self):
        with pytest.raises(PlanError):
            build_kernel_trace(
                plan(skip=0.5), TEGRA_X1, inter=False, intra=True, drs_style="x"
            )


class TestZeroPruneTrace:
    def test_bitmap_bytes(self):
        kernels = build_kernel_trace(
            plan(), TEGRA_X1, inter=False, intra=False, zero_prune_kept=0.63
        )
        u = next(k for k in kernels if k.weight_id == "Ucsr0")
        assert u.weight_bytes == pytest.approx(4 * H * H * (FP32 * 0.63 + 0.125))
        assert u.gather_efficiency < 1.0


class TestForcedTrace:
    def test_covers_all_cells(self):
        kernels = forced_tissue_layer_trace(TEGRA_X1, H, 10, 3)
        batches = [k.extra for k in kernels]
        sgemm_u = [k for k in kernels if k.weight_id == "U"]
        total = sum(round(k.flops / (2 * 4 * H * H)) for k in sgemm_u)
        assert total == 10
        del batches

    def test_tissue_size_one_is_sgemv(self):
        kernels = forced_tissue_layer_trace(TEGRA_X1, H, 4, 1)
        assert sum(1 for k in kernels if k.name == "sgemv") == 4

    def test_invalid_size(self):
        with pytest.raises(PlanError):
            forced_tissue_layer_trace(TEGRA_X1, H, 4, 0)
