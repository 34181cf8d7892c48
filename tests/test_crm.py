"""Tests for the CTA-reorganization module (Fig. 12) functional model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gpu.crm import (
    decode_disabled_threads,
    reorganize_ctas,
)


class TestDTIDDecode:
    def test_one_thread_per_row(self):
        np.testing.assert_array_equal(
            decode_disabled_threads(np.array([1, 3]), 8), [1, 3]
        )

    def test_multiple_threads_per_row(self):
        np.testing.assert_array_equal(
            decode_disabled_threads(np.array([1]), 8, threads_per_row=2), [2, 3]
        )

    def test_clips_to_grid(self):
        np.testing.assert_array_equal(
            decode_disabled_threads(np.array([3]), 7, threads_per_row=2), [6]
        )

    def test_negative_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_disabled_threads(np.array([-1]), 8)


class TestReorganization:
    def test_compaction_is_dense_and_order_preserving(self):
        reorg = reorganize_ctas(np.array([1, 3]), total_threads=6)
        # Surviving STIDs 0,2,4,5 map to HTIDs 0,1,2,3.
        assert reorg.stid_to_htid == {0: 0, 2: 1, 4: 2, 5: 3}
        assert reorg.active_threads == 4

    def test_no_trivial_rows_is_identity(self):
        reorg = reorganize_ctas(np.array([], dtype=int), total_threads=5)
        assert reorg.stid_to_htid == {i: i for i in range(5)}

    def test_all_trivial(self):
        reorg = reorganize_ctas(np.arange(5), total_threads=5)
        assert reorg.active_threads == 0
        assert reorg.active_warps == 0

    def test_warp_count_after_compaction(self):
        # 100 threads, 40 disabled -> 60 active -> 2 warps of 32.
        reorg = reorganize_ctas(np.arange(40), total_threads=100)
        assert reorg.active_warps == 2

    def test_cycles_scale_with_grid(self):
        small = reorganize_ctas(np.array([0]), total_threads=64)
        large = reorganize_ctas(np.array([0]), total_threads=4096)
        assert large.cycles > small.cycles

    def test_htid_accessor(self):
        reorg = reorganize_ctas(np.array([0]), total_threads=3)
        assert reorg.htid(1) == 0
        assert reorg.htid(2) == 1

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            reorganize_ctas(np.array([0]), total_threads=0)

    @given(
        st.integers(1, 300),
        st.sets(st.integers(0, 299), max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_compaction_invariants(self, total, trivial):
        trivial_rows = np.array(sorted(t for t in trivial if t < total), dtype=int)
        reorg = reorganize_ctas(trivial_rows, total_threads=total)
        # Survivors = grid minus disabled.
        assert reorg.active_threads == total - len(trivial_rows)
        # HTIDs are exactly 0..active-1 and order preserving.
        htids = [reorg.stid_to_htid[s] for s in sorted(reorg.stid_to_htid)]
        assert htids == list(range(reorg.active_threads))
        # No disabled STID appears in the mapping.
        assert not (set(reorg.stid_to_htid) & set(trivial_rows.tolist()))
