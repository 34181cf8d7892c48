"""Tests for the :mod:`repro.obs` structured trace layer.

Covers the recorder contract (zero overhead when disabled, no numerics
change when enabled), the golden JSONL / Chrome ``trace_event`` schemas,
round-tripping, and run diffing.
"""

import json

import numpy as np
import pytest

from repro.core.executor import ExecutionMode
from repro.errors import ConfigurationError
from repro.obs import (
    RUN_RECORD_SCHEMA_ID,
    Recorder,
    RunRecord,
    chrome_trace,
    diff_runs,
    format_diff,
    format_run_summary,
    read_jsonl,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_jsonl_file,
    validate_run_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs import record as record_module


@pytest.fixture
def recorder(tiny_app, tiny_tokens) -> Recorder:
    """A recorder holding a baseline and a combined run of the tiny app."""
    rec = Recorder()
    tiny_app.run(tiny_tokens, mode=ExecutionMode.BASELINE, recorder=rec)
    tiny_app.run(
        tiny_tokens, mode=ExecutionMode.COMBINED, threshold_index=3, recorder=rec
    )
    return rec


class TestRecorder:
    def test_one_record_per_run(self, recorder, tiny_tokens):
        assert len(recorder) == 2
        base, combined = recorder.records
        assert base.mode == "baseline" and combined.mode == "combined"
        assert base.label == "TINY"
        assert base.batch == tiny_tokens.shape[0]

    def test_kernel_events_cover_every_sequence(self, recorder, tiny_tokens):
        record = recorder.last()
        assert record.num_launches == len(record.kernels) > 0
        assert {k.seq_index for k in record.kernels} == set(
            range(tiny_tokens.shape[0])
        )

    def test_simulated_totals_match_kernel_sums(self, recorder):
        record = recorder.last()
        assert record.simulated_time_s == pytest.approx(
            sum(k.time_s for k in record.kernels)
        )
        assert record.simulated_energy_j == pytest.approx(
            sum(k.energy_j for k in record.kernels)
        )

    def test_layer_counters(self, recorder):
        base, combined = recorder.records
        assert base.mean_counters()["breakpoints"] == 0.0
        counters = combined.mean_counters()
        assert counters["skip_fraction"] > 0.0
        assert counters["tissue_size"] >= 1.0

    def test_cache_delta_counts_this_run_only(self, recorder):
        base, combined = recorder.records
        # The baseline plans nothing, so its plan-cache delta is all
        # zeros — but it does compile its stepwise programs cold, so the
        # program-cache family shows misses and no hits.
        plan_keys = ("relevance_hits", "relevance_misses", "plan_hits", "plan_misses")
        assert all(base.cache[k] == 0 for k in plan_keys)
        assert base.cache["program_misses"] > 0
        assert base.cache["program_hits"] == 0
        assert combined.cache["plan_misses"] > 0
        assert combined.cache["program_misses"] > 0

    def test_timing_has_wall_clock_and_plan_split(self, recorder):
        record = recorder.last()
        assert record.timing["wall_s"] > 0.0
        assert 0.0 <= record.timing["plan_wall_s"] <= record.timing["wall_s"]

    def test_finish_twice_raises(self):
        rec = Recorder()
        builder = rec.start_run(label="x")
        builder.finish()
        with pytest.raises(ConfigurationError):
            builder.finish()

    def test_last_on_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Recorder().last()


class TestZeroOverheadWhenDisabled:
    """A disabled recorder must never allocate observation objects."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("observation object allocated while disabled")

        for name in (
            "RunRecord",
            "KernelEvent",
            "LayerObservation",
            "SequenceObservation",
        ):
            monkeypatch.setattr(record_module, name, explode)

    def test_disabled_start_run_returns_none(self, poisoned):
        assert Recorder(enabled=False).start_run(label="x") is None

    def test_disabled_recorder_allocates_nothing(
        self, poisoned, tiny_app, tiny_tokens
    ):
        rec = Recorder(enabled=False)
        outcome = tiny_app.run(
            tiny_tokens, mode=ExecutionMode.BASELINE, recorder=rec
        )
        assert outcome.mean_time > 0
        assert rec.records == []

    def test_poison_is_effective(self, poisoned):
        # Sanity check on the fixture: an *enabled* recorder does allocate.
        with pytest.raises(AssertionError, match="allocated"):
            Recorder().start_run(label="x")


class TestNumericsUnchanged:
    def test_recording_is_bit_identical(self, tiny_app, tiny_tokens):
        plain = tiny_app.run(tiny_tokens, mode=ExecutionMode.COMBINED)
        recorded = tiny_app.run(
            tiny_tokens, mode=ExecutionMode.COMBINED, recorder=Recorder()
        )
        np.testing.assert_array_equal(plain.logits, recorded.logits)


class TestJsonlSchema:
    #: Golden top-level schema of one JSONL line (schema v1). Extending the
    #: schema is fine but requires a version bump + validator update; this
    #: test pins the contract.
    GOLDEN_RUN_KEYS = {
        "schema",
        "label",
        "mode",
        "spec",
        "batch",
        "seq_length",
        "config",
        "timing",
        "simulated",
        "cache",
        "sequences",
        "kernels",
    }
    GOLDEN_KERNEL_KEYS = {
        "seq_index",
        "index",
        "name",
        "tag",
        "time_s",
        "exec_s",
        "t_compute_s",
        "t_dram_s",
        "t_onchip_s",
        "flops",
        "dram_bytes",
        "onchip_bytes",
        "energy_j",
        "stall_cycles",
        "weight_bytes_fp64",
        "weight_bytes_moved",
        "weight_bytes_skipped",
    }

    def test_golden_schema(self, recorder):
        for record in recorder.records:
            data = record.to_dict()
            assert data["schema"] == RUN_RECORD_SCHEMA_ID
            assert set(data) == self.GOLDEN_RUN_KEYS
            assert set(data["kernels"][0]) == self.GOLDEN_KERNEL_KEYS
            validate_run_dict(data)

    def test_roundtrip(self, recorder, tmp_path):
        path = write_jsonl(recorder.records, tmp_path / "runs.jsonl")
        back = read_jsonl(path)
        assert [r.to_dict() for r in back] == [
            r.to_dict() for r in recorder.records
        ]

    def test_validate_file(self, recorder, tmp_path):
        path = write_jsonl(recorder.records, tmp_path / "runs.jsonl")
        assert validate_jsonl_file(path) == 2

    def test_wrong_schema_id_rejected(self, recorder):
        data = recorder.last().to_dict()
        data["schema"] = "repro.obs/run/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            RunRecord.from_dict(data)

    def test_corrupt_line_reports_position(self, recorder, tmp_path):
        path = write_jsonl(recorder.records, tmp_path / "runs.jsonl")
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(ConfigurationError, match=":3"):
            read_jsonl(path)

    def test_missing_file_is_a_repro_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            read_jsonl(tmp_path / "nope.jsonl")


class TestChromeTraceSchema:
    def test_valid_trace_event_json(self, recorder, tmp_path):
        path = write_chrome_trace(recorder.records, tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(data) > 0
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert validate_chrome_trace_file(path) == len(complete)

    def test_one_complete_event_per_kernel(self, recorder):
        data = chrome_trace(recorder.records)
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == sum(r.num_launches for r in recorder.records)
        # pid = run index, tid = sequence index.
        assert {e["pid"] for e in complete} == {0, 1}

    def test_timestamps_are_serialized_per_thread(self, recorder):
        data = chrome_trace(recorder.records)
        lanes = {}
        for event in data["traceEvents"]:
            if event["ph"] != "X":
                continue
            cursor = lanes.get((event["pid"], event["tid"]), 0.0)
            assert event["ts"] == pytest.approx(cursor)
            lanes[(event["pid"], event["tid"])] = event["ts"] + event["dur"]

    def test_metadata_names_tracks(self, recorder):
        data = chrome_trace(recorder.records)
        meta = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            chrome_trace([])


class TestDiff:
    def test_diff_identifies_kernel_movement(self, recorder):
        base, other = recorder.records
        diff = diff_runs(base, other)
        assert diff.speedup > 0
        names = [d.name for d in diff.kernel_deltas]
        assert "sgemv" in names
        deltas = [abs(d.delta_s) for d in diff.kernel_deltas]
        assert deltas == sorted(deltas, reverse=True)

    def test_format_outputs(self, recorder):
        base, other = recorder.records
        summary = format_run_summary(other)
        assert "combined" in summary and "launches" in summary
        text = format_diff(diff_runs(base, other))
        assert "speedup" in text and "sgemv" in text


def _tenant_record(
    label: str, mode: str, seq_length: int, config: dict, cache: dict
) -> RunRecord:
    return RunRecord(
        label=label,
        mode=mode,
        spec="Tegra X1 (Jetson TX1)",
        batch=2,
        seq_length=seq_length,
        config=config,
        timing={"wall_s": 0.01, "queue_wait_s": 0.002},
        cache=dict(cache),
    )


class TestMultiTenantMerge:
    """Merge extensions for multi-tenant windows: varying configs and
    per-label cache attribution."""

    def records(self) -> list[RunRecord]:
        return [
            _tenant_record(
                "alpha", "baseline", 12,
                {"backend": "numpy", "precision": "fp64", "tenant": "alpha"},
                {"program_hits": 2, "program_misses": 1},
            ),
            _tenant_record(
                "beta", "intra", 8,
                {"backend": "numpy", "precision": "int8", "tenant": "beta"},
                {"program_hits": 4, "program_misses": 0},
            ),
            _tenant_record(
                "alpha", "baseline", 12,
                {"backend": "numpy", "precision": "fp64", "tenant": "alpha"},
                {"program_hits": 3, "program_misses": 0},
            ),
        ]

    def test_varying_config_requires_the_flag(self):
        from repro.obs import merge_run_records

        with pytest.raises(ConfigurationError):
            merge_run_records(self.records(), allow_varying_seq_length=True)

    def test_agreeing_keys_survive_and_disputes_are_listed(self):
        from repro.obs import merge_run_records

        merged = merge_run_records(
            self.records(),
            label="zoo",
            allow_varying_seq_length=True,
            allow_varying_config=True,
        )
        assert merged.config["backend"] == "numpy"
        assert sorted(merged.config["varied"]) == ["precision", "tenant"]
        assert merged.mode == "baseline"  # first record's mode
        assert merged.seq_length == 12  # max across ticks
        validate_run_dict(merged.to_dict())

    def test_group_cache_by_label_namespaces_and_sums(self):
        from repro.obs import merge_run_records

        merged = merge_run_records(
            self.records(),
            allow_varying_seq_length=True,
            allow_varying_config=True,
            group_cache_by_label=True,
        )
        assert merged.cache == {
            "alpha/program_hits": 5,
            "alpha/program_misses": 1,
            "beta/program_hits": 4,
            "beta/program_misses": 0,
        }
        validate_run_dict(merged.to_dict())

    def test_summary_renders_per_tenant_cache_table(self):
        from repro.obs import merge_run_records

        merged = merge_run_records(
            self.records(),
            allow_varying_seq_length=True,
            allow_varying_config=True,
            group_cache_by_label=True,
        )
        summary = format_run_summary(merged)
        assert "Per-tenant cache hit/miss delta" in summary
        assert "alpha" in summary and "beta" in summary
        assert "program_hits" in summary

    def test_flat_cache_keys_keep_the_old_rendering(self):
        record = _tenant_record(
            "solo", "baseline", 12,
            {"backend": "numpy"},
            {"program_hits": 2, "program_misses": 1},
        )
        summary = format_run_summary(record)
        assert "plan cache delta:" in summary
        assert "Per-tenant cache hit/miss delta" not in summary

    def test_diff_renders_per_tenant_cache_movement(self):
        from repro.obs import merge_run_records

        base = merge_run_records(
            self.records(),
            allow_varying_seq_length=True,
            allow_varying_config=True,
            group_cache_by_label=True,
        )
        shifted = [
            _tenant_record(
                "alpha", "baseline", 12,
                {"backend": "numpy"},
                {"program_hits": 9, "program_misses": 0},
            ),
            _tenant_record(
                "beta", "baseline", 12,
                {"backend": "numpy"},
                {"program_hits": 8, "program_misses": 0},
            ),
        ]
        other = merge_run_records(
            shifted,
            allow_varying_seq_length=True,
            allow_varying_config=True,
            group_cache_by_label=True,
        )
        base.simulated["time_s"] = 2.0
        other.simulated["time_s"] = 1.0
        text = format_diff(diff_runs(base, other))
        assert "Per-tenant cache movement (base -> opt)" in text
        assert "5 -> 9" in text  # alpha program_hits
        assert "4 -> 8" in text  # beta program_hits


class TestOldRecordsLoad:
    def test_records_with_a_memory_key_still_load_and_render(
        self, recorder, tmp_path, capsys
    ):
        """JSONL written while run records carried a ``memory`` mapping
        (``null`` for inference, byte counters for training) still
        validates, loads and renders; the key is ignored."""
        from repro.cli import main

        memories = [None, {"saved_bytes": 1024.0, "measured_peak_bytes": 4096.0}]
        lines = []
        for record, memory in zip(recorder.records, memories):
            data = record.to_dict()
            data["memory"] = memory
            lines.append(json.dumps(data))
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join(lines) + "\n")

        assert validate_jsonl_file(path) == 2
        # read_jsonl builds each record with RunRecord.from_dict.
        assert [r.to_dict() for r in read_jsonl(path)] == [
            r.to_dict() for r in recorder.records
        ]
        assert main(["trace", "summarize", str(path)]) == 0
        assert "baseline" in capsys.readouterr().out
        assert main(["trace", "diff", str(path), str(path)]) == 0
        assert "speedup" in capsys.readouterr().out
