"""Runner of the end-to-end benchmark.

One workload, as the driver calls it (the last stdout line is the result
object; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones)::

    python3 bench_e2e/run.py --workload stream_multi --seed 1 --seconds 15 --trace 0

The full set, each workload in a fresh interpreter, untraced then traced,
with a readable report (``--smoke``: every window <= 2 s)::

    python3 bench_e2e/run.py [--smoke]

A/A check: the untraced set ``N`` times, each with another seed; prints
every metric's spread against its bound and exits non-zero out of bounds::

    python3 bench_e2e/run.py --repeat 3
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench_e2e import hostenv  # noqa: E402
from bench_e2e.metrics import (  # noqa: E402
    END_TO_END,
    EXACT,
    FAILED_FRACTION_BOUND,
    P99_MIN_SAMPLES,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_SAMPLES,
    WORKLOADS,
    spread,
)

SMOKE_SECONDS = 2.0
#: A traced run splits its time: an untraced and a traced window of the
#: workload (their ratio is the trace overhead), then the layer probes.
TRACED_WINDOW_SHARE = 0.25


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every window <= 2 s")
    parser.add_argument("--repeat", type=int, default=0, help="A/A: run the set N times")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------- one workload


def child_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of a fresh interpreter: process start to ready-to-serve."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace) -> int:
    hostenv.pin()
    scratch = hostenv.fresh_scratch()
    try:
        return _run_workload(args)
    finally:
        hostenv.remove_scratch(scratch)


def _run_workload(args: argparse.Namespace) -> int:
    try:
        from bench_e2e.tracing import Tracer, format_self_times
        from bench_e2e.workloads import WORKLOAD_CLASSES
    except ImportError as exc:
        # A directory without src/ (or without numpy) cannot be measured.
        print(f"bench_e2e: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - PROCESS_START
    workload = WORKLOAD_CLASSES[args.workload](args.seed, smoke=args.smoke)
    tracer = Tracer()

    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - PROCESS_START)
        return 0

    detail: dict = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "smoke": args.smoke, "env": hostenv.capture(args.seed),
        "load_average_before": hostenv.load_average(),
    }
    if args.trace:
        tracer.install()
        with tracer.recording(), tracer.span("setup"):
            workload.setup()
    else:
        # The other set-up samples first, while this process is still small.
        samples = [] if args.smoke else [
            child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        start = time.perf_counter()
        workload.setup()
        samples.append(imports_s + time.perf_counter() - start)
        detail["setup_samples_s"] = samples

    quality_start = time.perf_counter()
    quality = workload.quality()
    detail["quality_s"] = time.perf_counter() - quality_start
    detail["quality"] = {
        "checks": {name: vars(check) for name, check in quality.checks.items()},
        "sim_detail": quality.sim_detail,
    }
    gc.collect()
    gc.freeze()  # set-up garbage never gets scanned again; the collector stays on

    if args.trace:
        metrics, windows = traced_pass(args, workload, tracer, detail)
        tracer.uninstall()
        print(format_self_times(detail["self_times"], detail["traced_window_wall_s"]))
        declared = PER_LAYER
    else:
        window = workload.run(args.seconds, tracer)
        windows = [window]
        metrics = window.end_to_end()
        metrics["setup_s"] = statistics.median(detail["setup_samples_s"])
        metrics["agreement"] = quality.agreement
        metrics["sim_speedup"] = quality.sim_speedup
        metrics["sim_energy_saving"] = quality.sim_energy_saving
        # Last, so it covers the whole run: ru_maxrss is in KiB on Linux.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["observed"] = window.observed
        detail["raw_wall_clock"] = window.raw()
        detail["host_factor"] = window.host_factor
        detail["host_bursts_s"] = window.host_bursts_s
        detail["latencies_s"] = window.latencies_s
        detail["lateness_s"] = window.lateness_s
        declared = END_TO_END

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    detail.update(
        run_wall_s=time.perf_counter() - PROCESS_START,
        load_average_after=hostenv.load_average(),
        attempted=attempted, succeeded=attempted - failed, failed=failed,
        failed_fraction=failed / attempted,
        latency_samples=len(windows[-1].latencies_s),
        valid=all(w.valid for w in windows),
        metrics=metrics,
    )
    result = {
        "correct": quality.correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }
    detail["result"] = result
    hostenv.RESULTS.mkdir(parents=True, exist_ok=True)
    with open(detail_path(args.workload, args.seed, args.trace), "w") as handle:
        json.dump(detail, handle, indent=1)
    print_summary(detail)
    print(json.dumps(result))
    return 0


def traced_pass(args, workload, tracer, detail) -> tuple[dict[str, float], list]:
    """Untraced window, traced window, layer probes; returns the per-layer metrics."""
    from repro import OptimizedLSTM

    from bench_e2e.probes import Probes, weights_mb

    seconds = args.seconds * TRACED_WINDOW_SHARE
    untraced = workload.run(seconds, tracer)
    with tracer.recording() as detail["self_times"]:
        traced = workload.run(seconds, tracer)
    detail["traced_window_wall_s"] = traced.wall_s

    if workload.app_name == "BABI":
        app = workload.app
    else:
        app = OptimizedLSTM.from_app("BABI", seed=0)
        app.calibrate()
    streams = any(name.startswith("streaming.") for name in traced.observed)
    metrics = Probes(app, tracer, args.seed, args.smoke).run_all(skip_streaming=streams)
    metrics.update(traced.observed)
    # Service time per completed token, traced against untraced, each
    # corrected for the host's speed during its own window.
    metrics["trace.overhead_frac"] = (
        (traced.service_s / traced.tokens / traced.host_factor)
        / (untraced.service_s / untraced.tokens / untraced.host_factor)
        - 1.0
    )
    metrics["nn.weights.mb"] = weights_mb(workload.app.network)
    trace_file = hostenv.RESULTS / f"trace-{args.workload}.json"
    tracer.write_chrome_trace(
        trace_file, {"workload": args.workload, "seed": args.seed, "env": detail["env"]}
    )
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, [untraced, traced]


def detail_path(workload: str, seed: int, trace: int) -> Path:
    return hostenv.RESULTS / f"run-{workload}-seed{seed}-trace{trace}.json"


def print_summary(detail: dict) -> None:
    """Every metric by name with its unit; sample counts beside percentiles."""
    n = detail["latency_samples"]
    print(f"== {detail['workload']} (trace={detail['trace']}, seed={detail['env']['seed']}, "
          f"{detail['seconds']} s) on {detail['env']['nproc']} x {detail['env']['cpu_model']}")
    for name, entry in detail["result"]["metrics"].items():
        note = ""
        if name.startswith("latency_p"):
            note = f"  (n={n})"
            if name == "latency_p99_ms" and n < P99_MIN_SAMPLES:
                note = f"  (n={n} < {P99_MIN_SAMPLES}: not a supported p99, read as the slowest)"
        elif name.startswith(("sim_", "simulator.sim_", "simulator.dram_")):
            note = "  (simulated TX1, exact)"
        print(f"  {name:<48}{entry['value']:>16.6g} {entry['unit']}{note}")
    if "raw_wall_clock" in detail:
        raw = ", ".join(f"{name}={value:.6g}" for name, value in detail["raw_wall_clock"].items())
        print(f"  raw wall clock: {raw}; host_factor={detail['host_factor']:.3f} "
              f"({len(detail['host_bursts_s'])} bursts)")
    print(f"  attempted={detail['attempted']} succeeded={detail['succeeded']} "
          f"failed={detail['failed']} failed_fraction={detail['failed_fraction']:.4f} "
          f"correct={detail['result']['correct']} valid={detail['valid']}")
    for name, check in detail["quality"]["checks"].items():
        print(f"  quality {name}: ok={check['ok']} bit_identical={check['bit_identical']} "
              f"max_abs_err={check['max_abs_err']:.3g}")
    if not detail["valid"]:
        print(f"  INVALID: generator lateness p99 above {hostenv.MAX_LATENESS_P99_MS} ms",
              file=sys.stderr)


# ------------------------------------------------------------ the full set


def run_child(workload: str, seed: int, trace: int, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"bench_e2e: {workload} (trace={trace}) exited {proc.returncode}")
    with open(detail_path(workload, seed, trace)) as handle:
        return json.load(handle)


def healthy(detail: dict) -> bool:
    return (
        detail["result"]["correct"]
        and detail["valid"]
        and detail["failed_fraction"] <= FAILED_FRACTION_BOUND
    )


def run_set(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok &= healthy(run_child(workload, args.seed, trace, args))
    print(f"full set: {time.perf_counter() - started:.0f} s, results and traces in "
          f"{hostenv.RESULTS.relative_to(ROOT)}/")
    return 0 if ok else 1


def run_repeats(args: argparse.Namespace) -> int:
    """A/A: the same code, ``--repeat`` seeds; spread of each metric against its bound."""
    values: dict[tuple[str, str], list[float]] = {}
    ok = True
    for repeat in range(args.repeat):
        for workload in WORKLOADS:
            detail = run_child(workload, args.seed + repeat, 0, args)
            ok &= healthy(detail)
            for metric in END_TO_END:
                values.setdefault((workload, metric.name), []).append(
                    detail["metrics"][metric.name]
                )
    print(f"\nA/A over {args.repeat} runs: spread = (q3 - q1) / median, against the bound")
    print(f"{'workload':<18}{'metric':<20}{'median':>14}{'spread':>10}{'bound':>8}")
    for (workload, name), series in values.items():
        metric = next(m for m in END_TO_END if m.name == name)
        exact = metric.bound == EXACT
        # setup_s is bounded on its median only; exact metrics must not move at all.
        within = len(set(series)) == 1 if exact else (
            name == "setup_s" or spread(series) <= metric.bound
        )
        ok &= within
        print(f"{workload:<18}{name:<20}{statistics.median(series):>14.6g}"
              f"{spread(series):>10.4f}{'exact' if exact else metric.bound:>8}"
              f"{'' if within else '  OUT OF BOUND'}")
    return 0 if ok else 1


def main() -> int:
    args = parse_args()
    if args.workload:
        return run_workload(args)
    if args.repeat:
        return run_repeats(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
