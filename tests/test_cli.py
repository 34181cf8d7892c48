"""Tests for the command-line interface."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "MR"])
        assert args.mode == "combined"
        assert args.threshold_set == 4

    def test_run_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE"])

    @pytest.mark.parametrize("command", [["run", "MR"], ["trace", "record", "MR"]])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_sequences_must_be_at_least_one(self, command, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--sequences", value])
        assert exit_info.value.code == 2
        assert f"must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "MR"],
            ["sweep", "MR"],
            ["trace", "record", "MR", "--out", "x.jsonl"],
            ["serve", "--policy", "stream"],
        ],
    )
    def test_seed_must_be_non_negative(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "must be non-negative, got -1" in capsys.readouterr().err

    def test_sweep_disallows_baseline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "MR", "--mode", "baseline"])

    def test_figure_names(self):
        for name in FIGURES:
            args = build_parser().parse_args(["figure", name])
            assert args.name == name

    def test_serve_requires_a_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "fleet", "--dwell-ms", "5"])
        args = build_parser().parse_args(["serve", "--policy", "fleet"])
        assert (args.mode, args.workers, args.max_batch) == ("baseline", 2, 8)


class TestCommands:
    def test_info_prints_tables(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tegra X1" in out and "PTB" in out

    def test_figure_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "Hidden_Size" in capsys.readouterr().out

    def test_run_baseline_mr(self, capsys):
        assert main(["run", "MR", "--mode", "baseline", "--sequences", "2"]) == 0
        assert "ms/seq" in capsys.readouterr().out

    def test_run_optimized_mr(self, capsys):
        code = main(
            ["run", "MR", "--mode", "intra", "--set", "3", "--sequences", "2"]
        )
        assert code == 0
        assert "speedup" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "policy, extra",
        [
            ("stream", ["--mode", "intra"]),
            ("fleet", ["--workers", "0", "--mode", "combined"]),
            ("zoo", ["--tenant", "MR:2:fp64", "--tenant", "MR:1:int8"]),
        ],
    )
    def test_serve_writes_the_policys_merged_record(self, capsys, tmp_path, policy, extra):
        out = tmp_path / f"{policy}.jsonl"
        argv = ["serve", "--policy", policy, "--duration-s", "0.3", "--session-rate", "20"]
        assert main([*argv, *extra, "--record", str(out)]) == 0
        assert "p99" in capsys.readouterr().out
        record = json.loads(out.read_text().splitlines()[0])
        assert record["label"] == policy
        assert record["timing"]["ticks"] >= 1.0

    def test_serve_rejects_a_nan_threshold(self, capsys):
        """NaN fails every comparison, so it used to pass the non-negative
        check and serve with DRS silently off under an INTRA config."""
        argv = ["serve", "--policy", "stream", "--mode", "intra", "--alpha-intra", "nan"]
        assert main([*argv, "--duration-s", "0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--duration-s", "nan"), ("--session-rate", "inf"), ("--tick-interval-ms", "nan")],
    )
    def test_serve_rejects_a_non_finite_load(self, flag, value):
        """Each of these used to loop without end (a NaN or infinite window
        or rate never ends the arrival process; a NaN tick interval never
        submits), so the command runs in a child with a deadline and a
        memory cap: a regression fails here instead of stalling the suite."""
        assert_serve_fails_cleanly(["--policy", "stream", flag, value])

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_serve_rejects_a_non_finite_tenant_weight(self, weight):
        """A NaN weight passed the tenant's ``<= 0`` check and ended in a
        ``Probabilities contain NaN`` traceback from the arrival mix."""
        assert_serve_fails_cleanly(
            ["--policy", "zoo", "--tenant", f"MR:{weight}:fp64", "--duration-s", "0.3"]
        )


def assert_serve_fails_cleanly(args: list[str]) -> None:
    """``repro serve *args`` in a child with a deadline and a memory cap must
    exit 1 with a one-line ``repro: error:`` and no traceback."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    cap = 2 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("repro: error:")


class TestTraceParser:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_record_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "record", "MR"])

    def test_record_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "record", "NOPE", "--out", "x.jsonl"]
            )

    def test_diff_defaults(self):
        args = build_parser().parse_args(["trace", "diff", "a.jsonl", "b.jsonl"])
        assert args.base_index == 0 and args.other_index == -1


class TestTraceCommands:
    def test_record_summarize_diff_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "mr.jsonl"
        chrome = tmp_path / "mr_trace.json"
        code = main(
            [
                "trace", "record", "MR",
                "--sequences", "2",
                "--out", str(out),
                "--chrome", str(chrome),
            ]
        )
        assert code == 0
        assert "2 run record(s)" in capsys.readouterr().out

        from repro.obs.schema import (
            validate_chrome_trace_file,
            validate_jsonl_file,
        )

        assert validate_jsonl_file(out) == 2
        assert validate_chrome_trace_file(chrome) > 0

        assert main(["trace", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "baseline" in summary and "combined" in summary

        assert main(["trace", "diff", str(out), str(out)]) == 0
        diff = capsys.readouterr().out
        assert "speedup" in diff and "baseline" in diff

    def test_missing_file_reports_error(self, capsys, tmp_path):
        code = main(["trace", "summarize", str(tmp_path / "missing.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err

    def test_out_of_range_index_reports_error(self, capsys, tmp_path):
        out = tmp_path / "mr.jsonl"
        assert main(
            ["trace", "record", "MR", "--sequences", "2", "--no-baseline",
             "--mode", "baseline", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        code = main(["trace", "diff", str(out), str(out), "--other-index", "7"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_figure_rejects_unknown_apps_cleanly(self, capsys):
        code = main(["figure", "table2", "--apps", "MR,BOGUS"])
        assert code == 1
        err = capsys.readouterr().err
        assert "BOGUS" in err and "Traceback" not in err
