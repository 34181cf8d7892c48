"""Tests for the warp-level efficiency models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.plan import warp_skip_fractions
from repro.errors import ConfigurationError
from repro.gpu.cta import (
    hardware_drs_penalties,
    pruned_spmv_penalties,
    software_drs_penalties,
)


class TestWarpLevelSkip:
    def test_no_skips(self):
        assert warp_skip_fractions(np.zeros(64, bool)) == 0.0

    def test_all_skips(self):
        assert warp_skip_fractions(np.ones(64, bool)) == 1.0

    def test_one_full_warp(self):
        mask = np.zeros(64, bool)
        mask[:32] = True
        assert warp_skip_fractions(mask) == 0.5

    def test_scattered_skips_yield_no_full_warps(self):
        mask = np.zeros(64, bool)
        mask[::2] = True  # every other row
        assert warp_skip_fractions(mask) == 0.0

    def test_partial_warp_weighted_by_real_lanes(self):
        # 33 rows = 2 warps; the second warp has 1 real row. Its skip
        # contributes that one row, not half the grid.
        mask = np.zeros(33, bool)
        mask[32] = True
        assert warp_skip_fractions(mask) == pytest.approx(1 / 33)

    def test_never_exceeds_row_level_skip(self):
        # hidden=48: rows 32..47 trivial -> row skip 1/3. The old unweighted
        # mean reported 0.5 here, which broke software_drs_penalties.
        mask = np.zeros(48, bool)
        mask[32:] = True
        warp_skip = warp_skip_fractions(mask)
        assert warp_skip == pytest.approx(1 / 3)
        assert warp_skip <= mask.mean()
        warp, gather, _ = software_drs_penalties(float(mask.mean()), warp_skip)
        assert warp <= 1.0 and gather <= 1.0

    @given(st.integers(1, 130), st.integers(0, 2**32 - 1))
    def test_lane_weighting_bounds(self, size, seed):
        mask = np.random.default_rng(seed).random(size) < 0.5
        warp_skip = warp_skip_fractions(mask)
        assert 0.0 <= warp_skip <= mask.mean() + 1e-12

    def test_empty(self):
        # No masks, no fractions (a batch of zero rows).
        assert warp_skip_fractions(np.zeros((0, 64), bool)).shape == (0,)


class TestSoftwareDRS:
    def test_no_skip_no_penalty(self):
        warp, gather, eff = software_drs_penalties(0.0, 0.0)
        assert warp == 1.0 and gather == 1.0 and eff == 0.0

    def test_mixed_skips_cost_efficiency(self):
        warp, gather, eff = software_drs_penalties(0.5, 0.0)
        assert warp < 1.0 and gather < 1.0
        assert eff < 0.5  # per-thread skips are only partially effective

    def test_whole_warp_skips_are_free(self):
        warp, gather, eff = software_drs_penalties(0.5, 0.5)
        assert warp == 1.0 and gather == 1.0
        assert eff == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            software_drs_penalties(1.5, 0.0)
        with pytest.raises(ConfigurationError):
            software_drs_penalties(0.5, -0.1)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_outputs_in_range(self, skip, warp_skip):
        warp_skip = min(warp_skip, skip)
        warp, gather, eff = software_drs_penalties(skip, warp_skip)
        assert 0 < warp <= 1 and 0 < gather <= 1
        assert 0 <= eff <= skip + 1e-12


class TestHardwareDRS:
    def test_full_effectiveness(self):
        warp, gather, eff = hardware_drs_penalties(0.6)
        assert warp == 1.0 and gather == 1.0 and eff == 0.6

    def test_beats_software(self):
        _, _, hw = hardware_drs_penalties(0.5)
        _, _, sw = software_drs_penalties(0.5, 0.05)
        assert hw > sw

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            hardware_drs_penalties(-0.1)


class TestPrunedSpmv:
    def test_dense_is_free(self):
        assert pruned_spmv_penalties(1.0) == (1.0, 1.0)

    def test_sparsity_costs(self):
        warp, gather = pruned_spmv_penalties(0.63)
        assert warp < 1.0 and gather < 0.8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pruned_spmv_penalties(0.0)
