"""Command-line interface for the reproduction.

Subcommands::

    repro info                         # Table I + Table II
    repro run BABI --mode combined --set 4 --sequences 8
    repro sweep MR --mode combined     # the Fig. 19 row for one app
    repro figure fig14 --apps MR,PTB   # regenerate a paper figure
    repro serve --policy stream --mode intra --record stream.jsonl
    repro serve --policy zoo --tenant MR:2:fp64 --tenant MR:1:int8
    repro serve --policy fleet --workers 2 --mode combined
    repro trace record MR --out runs.jsonl --chrome trace.json
    repro trace summarize runs.jsonl
    repro trace diff base.jsonl other.jsonl

(Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.)

Library errors (:class:`~repro.errors.ReproError`) are reported as a
one-line ``repro: error: ...`` message on stderr with exit status 1;
argument mistakes get argparse's usage message and exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.config import APP_NAMES
from repro.core.backends import BACKEND_NAMES
from repro.core.executor import ExecutionMode
from repro.errors import ConfigurationError, ReproError
from repro.nn.quantize import PRECISIONS

#: Shared help text for the ``--backend`` flag.
_BACKEND_HELP = (
    "compiled-program lowering: 'numpy' carries the fp64 bit contract with "
    "the reference, 'cgen' runs a generated-C fused kernel for the stepwise "
    "loop (needs a C compiler); INTER and COMBINED run the numpy programs on "
    "every backend"
)

_THREADS_HELP = (
    "in-process dispatch threads per executor (1 = serial; >1 shards "
    "batch rows over a persistent thread pool, bit-identical to serial)"
)

#: Figure names accepted by ``repro figure``.
FIGURES = (
    "table1",
    "table2",
    "fig04",
    "fig06",
    "fig09",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "overheads",
)


def _batch_size(text: str) -> int:
    """``--sequences``: a batch holds at least one sequence."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _seed(text: str) -> int:
    """``--seed``: numpy's ``SeedSequence`` takes only non-negative seeds."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-friendly LSTMs on mobile GPUs (MICRO 2018) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print Table I and Table II")

    run = sub.add_parser("run", help="run one application under one scheme")
    run.add_argument("app", choices=[*APP_NAMES], help="Table II application")
    run.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default="combined",
        help="execution scheme",
    )
    run.add_argument("--set", dest="threshold_set", type=int, default=4,
                     help="threshold set index 0..10")
    run.add_argument("--sequences", type=_batch_size, default=8, help="batch size")
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument(
        "--precision",
        choices=[*PRECISIONS],
        default="fp64",
        help="weight-storage policy (int8/fp16 quantize W/U, fp64 is exact)",
    )
    run.add_argument(
        "--backend", choices=[*BACKEND_NAMES], default="numpy", help=_BACKEND_HELP
    )
    run.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    sweep = sub.add_parser("sweep", help="threshold sweep for one application")
    sweep.add_argument("app", choices=[*APP_NAMES])
    sweep.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode if m is not ExecutionMode.BASELINE],
        default="combined",
    )
    sweep.add_argument("--seed", type=_seed, default=0)

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument(
        "--apps", default=None, help="comma-separated app subset (default: all)"
    )

    serve = sub.add_parser(
        "serve",
        help="drive one serving policy through a deterministic open-loop "
        "workload and report latency/goodput figures",
    )
    serve.add_argument(
        "--policy",
        choices=["stream", "zoo", "fleet"],
        required=True,
        help="stream: chunked sessions over resident state; zoo: N tenants "
        "under QoS-weighted scheduling; fleet: whole sequences sharded "
        "across worker processes",
    )
    serve.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default="baseline",
        help="execution scheme of stream/fleet (stream cannot run inter/"
        "combined: they plan from full-sequence relevance)",
    )
    serve.add_argument("--alpha-intra", type=float, default=0.35,
                       help="intra-cell threshold when --mode is intra/combined")
    serve.add_argument(
        "--precision",
        choices=[*PRECISIONS],
        default="fp64",
        help="weight-storage policy of stream/fleet (forked fleet workers "
        "run the parent's quantized cells)",
    )
    serve.add_argument(
        "--backend", choices=[*BACKEND_NAMES], default="numpy", help=_BACKEND_HELP
    )
    serve.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="fleet worker processes (0 = in-process, identical results)",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        metavar="APP[:WEIGHT[:PRECISION]]",
        default=None,
        help="add one zoo tenant bound to a Table II app (repeatable); WEIGHT "
        "is its QoS share (default 1), PRECISION its weight storage "
        "(default fp64). Tenants of the same app share its weights and, at "
        "one precision, its executor. "
        "Default: MR:2:fp64 MR:1:fp64 MR:1:int8",
    )
    serve.add_argument("--max-batch", type=int, default=8,
                       help="largest tick batch (fleet: rows per worker shard)")
    serve.add_argument("--chunk-len", type=int, default=4,
                       help="stream: max tokens served per session per tick")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission-queue bound (zoo: per tenant)")
    serve.add_argument("--duration-s", type=float, default=2.0,
                       help="arrival window (virtual seconds)")
    serve.add_argument("--session-rate", type=float, default=10.0,
                       help="mean session starts per second")
    serve.add_argument("--tick-interval-ms", type=float, default=2.0,
                       help="virtual tick cadence")
    serve.add_argument("--hidden", type=int, default=64,
                       help="hidden size of the stream/fleet network")
    serve.add_argument("--layers", type=int, default=2,
                       help="LSTM layers of the stream/fleet network")
    serve.add_argument("--seed", type=_seed, default=11)
    serve.add_argument(
        "--record", default=None,
        help="write the merged serving-window RunRecord to this JSONL path",
    )

    trace = sub.add_parser(
        "trace", help="record, summarize, and diff structured run traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="run one application and export its RunRecord(s)"
    )
    record.add_argument("app", choices=[*APP_NAMES], help="Table II application")
    record.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default="combined",
        help="execution scheme to record",
    )
    record.add_argument("--set", dest="threshold_set", type=int, default=4,
                        help="threshold set index 0..10")
    record.add_argument("--sequences", type=_batch_size, default=8, help="batch size")
    record.add_argument("--seed", type=_seed, default=0)
    record.add_argument(
        "--precision",
        choices=[*PRECISIONS],
        default="fp64",
        help="weight-storage policy of the recorded --mode run (the "
        "baseline stays fp64 so the diff shows the traffic reduction)",
    )
    record.add_argument(
        "--out", required=True, help="JSONL output path (one RunRecord per line)"
    )
    record.add_argument(
        "--chrome",
        default=None,
        help="also export a Chrome trace_event JSON (open in Perfetto)",
    )
    record.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the baseline run (by default both baseline and --mode "
        "are recorded so the file can be diffed directly)",
    )

    summarize = trace_sub.add_parser(
        "summarize", help="print a human summary of each run in a JSONL file"
    )
    summarize.add_argument("file", help="JSONL file written by 'trace record'")

    diff = trace_sub.add_parser(
        "diff", help="compare two recorded runs down to the kernel class"
    )
    diff.add_argument("base", help="JSONL file with the baseline run")
    diff.add_argument("other", help="JSONL file with the optimized run")
    diff.add_argument(
        "--base-index", type=int, default=0,
        help="record index inside BASE (default 0, negatives allowed)",
    )
    diff.add_argument(
        "--other-index", type=int, default=-1,
        help="record index inside OTHER (default -1, the last record)",
    )
    return parser


def _cmd_info(args) -> int:
    from repro.bench.harness import table1_platform, table2_applications

    print(table1_platform())
    print()
    print(table2_applications())
    return 0


def _cmd_run(args) -> int:
    from repro.core.pipeline import OptimizedLSTM

    mode = ExecutionMode(args.mode)
    print(f"Building {args.app} ...", file=sys.stderr)
    app = OptimizedLSTM.from_app(args.app, seed=args.seed)
    if mode not in (ExecutionMode.BASELINE, ExecutionMode.ZERO_PRUNE):
        app.calibrate()
    tokens = app.sample_tokens(args.sequences, seed=args.seed + 1)
    baseline = app.run(tokens, mode=ExecutionMode.BASELINE, backend=args.backend)
    if mode is ExecutionMode.BASELINE:
        print(
            f"{args.app} baseline: {baseline.mean_time * 1e3:.2f} ms/seq, "
            f"{baseline.mean_energy * 1e3:.1f} mJ/seq"
        )
        return 0
    from repro.obs import Recorder

    recorder = Recorder()
    kwargs = {}
    if mode is not ExecutionMode.ZERO_PRUNE:
        kwargs["threshold_index"] = args.threshold_set
    outcome = app.run(
        tokens, mode=mode, precision=args.precision, backend=args.backend,
        threads=args.threads, recorder=recorder, **kwargs
    )
    print(
        f"{args.app} {mode.value} (set {args.threshold_set}, {args.precision}): "
        f"{outcome.speedup_vs(baseline):.2f}x speedup, "
        f"{outcome.energy_saving_vs(baseline):.1%} energy saving, "
        f"{outcome.agreement_with(baseline):.1%} agreement"
    )
    weight_bytes = recorder.last().weight_bytes_totals()
    if weight_bytes["moved"] > 0.0:
        print(
            f"weight traffic: {weight_bytes['moved'] / 1e6:.2f} MB moved "
            f"({weight_bytes['fp64'] / max(weight_bytes['moved'], 1e-30):.2f}x "
            "less than fp64 storage)"
        )
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench.reporting import format_table
    from repro.workloads.apps import Workload, build_workload

    mode = ExecutionMode(args.mode)
    print(f"Building the {args.app} workload ...", file=sys.stderr)
    workload = build_workload(args.app, seed=args.seed)
    sweep = workload.threshold_sweep(mode)
    rows = [
        (e.threshold_index, f"{e.speedup:.2f}x", f"{e.energy_saving:.1%}", f"{e.accuracy:.1%}")
        for e in sweep
    ]
    print(
        format_table(
            ["set", "speedup", "energy saving", "accuracy"],
            rows,
            title=f"{args.app} — {mode.value} threshold sweep",
        )
    )
    ao = Workload.ao_index(sweep)
    bpa = Workload.bpa_index(sweep)
    print(f"AO -> set {ao}; BPA -> set {bpa}")
    return 0


def _cmd_figure(args) -> int:
    from repro.bench import harness

    if args.apps:
        requested = [a.strip() for a in args.apps.split(",") if a.strip()]
        unknown = [a for a in requested if a not in APP_NAMES]
        if unknown:
            raise ConfigurationError(
                f"unknown app(s) {', '.join(unknown)} in --apps "
                f"(choose from {', '.join(APP_NAMES)})"
            )
        os.environ["REPRO_BENCH_APPS"] = ",".join(requested)
    functions = {
        "table1": lambda: harness.table1_platform(),
        "table2": lambda: harness.table2_applications(),
        "fig04": lambda: harness.fig04_stall_breakdown()[-1],
        "fig06": lambda: harness.fig06_bandwidth_utilization()[-1],
        "fig09": lambda: harness.fig09_tissue_size_sweep()[-1],
        "fig14": lambda: harness.fig14_overall()[-1],
        "fig15": lambda: harness.fig15_per_layer()[-1],
        "fig16": lambda: harness.fig16_compression_schemes()[-1],
        "fig17": lambda: harness.fig17_model_capacity()[-1],
        "fig18": lambda: harness.fig18_user_study()[-1],
        "fig19": lambda: harness.fig19_threshold_sweep()[-1],
        "overheads": lambda: harness.overheads_section6f()[-1],
    }
    print(functions[args.name]())
    return 0


#: Whole-sequence arrivals of the zoo and the fleet: one submission per
#: session (``chunk_len`` covers the longest session).
_SEQUENCE_LEN = (8, 32)


def _serve_config(args):
    from repro.core.executor import ExecutionConfig

    mode = ExecutionMode(args.mode)
    kwargs = {
        "mode": mode, "precision": args.precision, "backend": args.backend,
        "threads": args.threads,
    }
    if mode in (ExecutionMode.INTER, ExecutionMode.COMBINED):
        # Every link of a random network counts as weak: the most breakpoints.
        kwargs.update(alpha_inter=1e12, mts=5)
    if mode in (ExecutionMode.INTRA, ExecutionMode.COMBINED):
        kwargs["alpha_intra"] = args.alpha_intra
    return ExecutionConfig(**kwargs)


def _serve_network(args, per_timestep_head: bool):
    from repro.config import LSTMConfig
    from repro.nn.network import LSTMNetwork

    config = LSTMConfig(
        hidden_size=args.hidden, num_layers=args.layers, seq_length=64,
        input_size=args.hidden,
    )
    return LSTMNetwork(
        config, vocab_size=200, num_classes=8, seed=args.seed,
        per_timestep_head=per_timestep_head,
    )


def _serve_spec(args, **kwargs):
    from repro.runtime import LoadSpec

    return LoadSpec(
        duration_s=args.duration_s, session_rate=args.session_rate, seed=args.seed,
        **kwargs,
    )


def _stream_policy(args, recorder):
    from repro.runtime import StreamingServer, generate_arrivals

    server = StreamingServer(
        _serve_network(args, per_timestep_head=True),
        _serve_config(args),
        max_batch=args.max_batch,
        chunk_len=args.chunk_len,
        queue_limit=args.queue_limit,
        recorder=recorder,
    )
    return server, generate_arrivals(_serve_spec(args, chunk_len=args.chunk_len), 200)


def _fleet_policy(args, recorder):
    from repro.runtime import FleetServer, generate_arrivals

    low, high = _SEQUENCE_LEN
    spec = _serve_spec(args, chunk_len=high, session_len_min=low, session_len_max=high)
    arrivals = generate_arrivals(spec, 200)
    server = FleetServer(
        _serve_network(args, per_timestep_head=False),
        _serve_config(args),
        workers=args.workers,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        recorder=recorder,
    )
    return server, arrivals


def _zoo_policy(args, recorder):
    from repro.config import get_app
    from repro.nn.model_zoo import build_calibrated_network
    from repro.core.executor import ExecutionConfig
    from repro.runtime import TenantSpec, ZooServer, generate_tenant_arrivals

    parsed: list[tuple[str, float, str]] = []
    for entry in args.tenants or ["MR:2:fp64", "MR:1:fp64", "MR:1:int8"]:
        parts = entry.split(":")
        if not 1 <= len(parts) <= 3:
            raise ConfigurationError(
                f"tenant spec {entry!r} is not APP[:WEIGHT[:PRECISION]]"
            )
        try:
            weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        except ValueError:
            raise ConfigurationError(
                f"tenant weight in {entry!r} is not a number"
            ) from None
        precision = parts[2] if len(parts) > 2 and parts[2] else "fp64"
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"unknown precision {precision!r} in tenant spec {entry!r}; "
                f"known: {', '.join(PRECISIONS)}"
            )
        parsed.append((parts[0], weight, precision))

    # One network build per distinct app: tenants of the same app are served
    # on the same arrays, through one executor per precision.
    networks = {}
    for app_name, _, _ in parsed:
        if app_name not in networks:
            app = get_app(app_name)
            print(f"Building {app.name} ...", file=sys.stderr)
            networks[app_name] = (app, build_calibrated_network(app, seed=args.seed))

    server = ZooServer(recorder=recorder)
    weights: dict[str, float] = {}
    vocabs: dict[str, int] = {}
    for index, (app_name, weight, precision) in enumerate(parsed):
        app, network = networks[app_name]
        name = f"t{index}-{app_name.lower()}-{precision}"
        server.add_tenant(
            TenantSpec(
                name=name,
                model=app_name,
                weight=weight,
                point=ExecutionConfig(precision=precision, threads=args.threads),
                max_batch=args.max_batch,
                queue_limit=args.queue_limit,
            ),
            network,
        )
        weights[name] = weight
        vocabs[name] = app.vocab_size
    low, high = _SEQUENCE_LEN
    spec = _serve_spec(args, session_len_min=low, session_len_max=high)
    return server, generate_tenant_arrivals(spec, weights, vocabs)


def _cmd_serve(args) -> int:
    from repro.obs import Recorder, write_jsonl
    from repro.runtime import run_open_loop

    policies = {"stream": _stream_policy, "zoo": _zoo_policy, "fleet": _fleet_policy}
    recorder = Recorder()
    server, arrivals = policies[args.policy](args, recorder)
    with server:
        print(f"Serving {len(arrivals)} scheduled submissions ...", file=sys.stderr)
        report = run_open_loop(
            server, arrivals, tick_interval_s=args.tick_interval_ms / 1e3
        )
        merged = server.merged_record()
    print(
        f"{args.policy}: served {report.completed_submissions}/"
        f"{report.offered_submissions} submissions ({report.completed_tokens} "
        f"tokens) over {report.duration_s:.2f} virtual s in "
        f"{int(merged.timing['ticks']) if merged else 0} ticks"
    )
    for name, part in [("all", report), *sorted(report.per_tenant.items())]:
        print(
            f"  {name}: p50 {part.percentile(50) * 1e3:.1f} ms, "
            f"p99 {part.percentile(99) * 1e3:.1f} ms, "
            f"goodput {part.goodput_tokens_per_s:.1f} tokens/s, "
            f"shed {part.shed_fraction:.1%}"
        )
    if args.record:
        if merged is None:
            print("repro: error: no ticks were recorded", file=sys.stderr)
            return 1
        write_jsonl([merged], args.record)
        print(f"wrote merged {merged.label} record to {args.record}")
    return 0


def _cmd_trace_record(args) -> int:
    from repro.core.pipeline import OptimizedLSTM
    from repro.obs import Recorder, write_chrome_trace, write_jsonl

    mode = ExecutionMode(args.mode)
    print(f"Building {args.app} ...", file=sys.stderr)
    app = OptimizedLSTM.from_app(args.app, seed=args.seed)
    if mode not in (ExecutionMode.BASELINE, ExecutionMode.ZERO_PRUNE):
        app.calibrate()
    tokens = app.sample_tokens(args.sequences, seed=args.seed + 1)
    recorder = Recorder()
    if not args.no_baseline and mode is not ExecutionMode.BASELINE:
        app.run(tokens, mode=ExecutionMode.BASELINE, recorder=recorder)
    kwargs = {}
    if mode not in (ExecutionMode.BASELINE, ExecutionMode.ZERO_PRUNE):
        kwargs["threshold_index"] = args.threshold_set
    app.run(
        tokens, mode=mode, precision=args.precision, recorder=recorder, **kwargs
    )
    write_jsonl(recorder.records, args.out)
    print(f"wrote {len(recorder.records)} run record(s) to {args.out}")
    if args.chrome:
        write_chrome_trace(recorder.records, args.chrome)
        print(f"wrote Chrome trace to {args.chrome} (open in ui.perfetto.dev)")
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs import format_run_summary, read_jsonl

    records = read_jsonl(args.file)
    for index, record in enumerate(records):
        if index:
            print()
        print(format_run_summary(record))
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.obs import diff_runs, format_diff, read_jsonl

    def pick(path: str, index: int):
        records = read_jsonl(path)
        try:
            return records[index]
        except IndexError:
            raise ConfigurationError(
                f"{path} holds {len(records)} record(s); index {index} is out of range"
            ) from None

    base = pick(args.base, args.base_index)
    other = pick(args.other, args.other_index)
    print(format_diff(diff_runs(base, other)))
    return 0


def _cmd_trace(args) -> int:
    handlers = {
        "record": _cmd_trace_record,
        "summarize": _cmd_trace_summarize,
        "diff": _cmd_trace_diff,
    }
    return handlers[args.trace_command](args)


#: Subcommand dispatch table (names match the subparser names above).
_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Returns 0 on success and 1 when the library raises a
    :class:`~repro.errors.ReproError` (reported on stderr, no traceback);
    argparse itself exits with status 2 on unknown commands/apps/modes.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
    try:
        return handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
