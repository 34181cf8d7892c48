"""Tests for the execution-plan records."""

import numpy as np
import pytest

from repro.core.plan import (
    CachedLayerPlan,
    LayerPlanRecord,
    SequencePlan,
    single_cell_plan,
)
from repro.core.tissue import Tissue
from repro.errors import PlanError


def make_record(tissue_sizes=(2, 2), skips=(0.5, 0.0), breakpoints=(), subs=None):
    """A one-sub-layer record (or ``breakpoints``' division, with every
    cell's sub-layer given by ``subs``) of consecutive tissues."""
    tissues = []
    t = 0
    for size in tissue_sizes:
        cells = [(0 if subs is None else subs[t + k], t + k) for k in range(size)]
        t += size
        tissues.append(Tissue(cells=cells))
    return LayerPlanRecord(
        layer_index=0,
        hidden_size=8,
        input_size=8,
        plan=CachedLayerPlan.from_schedule(None, breakpoints, tissues),
        skip=np.array(skips, dtype=float),
        warp=np.zeros(len(tissues)),
    )


class TestLayerPlanRecord:
    def test_tissue_sizes_and_cells(self):
        rec = make_record(tissue_sizes=(3, 1), skips=(0.0, 0.0))
        assert rec.tissue_sizes.tolist() == [3, 1]
        assert rec.tissue_cells() == [[(0, 0), (0, 1), (0, 2)], [(0, 3)]]

    def test_stats(self):
        rec = make_record()
        assert rec.num_tissues == 2
        assert rec.seq_length == 4
        assert rec.mean_tissue_size == 2.0
        assert rec.mean_skip_fraction == pytest.approx(0.25)

    def test_num_sublayers_defaults_to_one(self):
        rec = make_record()
        assert rec.breakpoints == []
        assert rec.sublayer_lengths == [4]
        assert rec.num_sublayers == 1

    def test_validate_passes_for_complete_coverage(self):
        make_record().validate()
        make_record(breakpoints=(2,), subs=(0, 0, 1, 1)).validate()

    def test_validate_detects_missing_cells(self):
        rec = make_record()
        ts = rec.plan.ts.copy()
        ts[0] = 3  # cell 3 twice, cell 0 never
        rec.plan = CachedLayerPlan(None, (), rec.plan.subs, ts, rec.plan.offsets)
        with pytest.raises(PlanError):
            rec.validate()

    def test_validate_detects_inconsistent_sublayers(self):
        # A breakpoint at 2, but every cell claims sub-layer 0.
        rec = make_record(breakpoints=(2,))
        with pytest.raises(PlanError):
            rec.validate()

    def test_empty_tissue_stats(self):
        rec = make_record(tissue_sizes=(), skips=())
        assert rec.seq_length == 0
        assert rec.mean_tissue_size == 0.0
        assert rec.mean_skip_fraction == 0.0
        assert rec.mean_warp_skip_fraction == 0.0


class TestSingleCellPlan:
    def test_one_shared_read_only_plan_per_length(self):
        plan = single_cell_plan(5)
        assert single_cell_plan(5) is plan
        assert plan.relevance is None
        assert plan.num_tissues == 5 and plan.num_sublayers == 1
        assert plan.tissue_cells() == [[(0, t)] for t in range(5)]
        for array in (plan.subs, plan.ts, plan.offsets):
            assert not array.flags.writeable


class TestSequencePlan:
    def test_aggregates(self):
        plan = SequencePlan(layers=[make_record(), make_record()])
        assert plan.total_breakpoints == 0
        assert plan.mean_tissue_size == 2.0
        assert plan.mean_skip_fraction == pytest.approx(0.25)

    def test_breakpoints_counted(self):
        rec = make_record(breakpoints=(2,), subs=(0, 0, 1, 1))
        plan = SequencePlan(layers=[rec])
        assert plan.total_breakpoints == 1

    def test_empty_plan(self):
        plan = SequencePlan(layers=[])
        assert plan.mean_tissue_size == 0.0
