"""Benchmark runner for extraconn: one workload per call, each in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 24 --trace 0

Workloads: tables, point_queries, exact_oracle, sampled_cuts, or all.
With --trace 0 the run prints the end-to-end metrics: set-up time is the
median over several fresh processes that import the package and finish
the workload's lazy set-up; the other metrics come from one more fresh
process that then runs whole job lists until --seconds is used up. With
--trace 1 it runs the job lists once untraced and once traced (half the
time each, each in a fresh process) and prints the per-layer metrics. The
last line of standard output is one JSON object; the exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "point_queries", "exact_oracle", "sampled_cuts")
SETUP_PROBES = 10  # set-up probes before and again after the measured process
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}
NOTE = (
    "`extraconn lambda --n 40` still runs without bound (ROADMAP item 3); point_queries "
    "keeps n <= 18 because such a run would never finish, not to hide the defect"
)


class BenchError(RuntimeError):
    """A worker process failed to start, crashed or ran out of time."""


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "note": NOTE,
    }


def spawn(workload: str, opts: argparse.Namespace, seconds: float, trace: int, setup_only: bool):
    """Run one worker; returns (set-up seconds, RESULT dict or None)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(opts.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", opts.size,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if opts.inject_fault:
        cmd.append("--inject-fault")
    start = time.perf_counter()
    # A fixed hash seed gives every worker the same dict and set layouts.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        if first.strip() != "READY":
            raise BenchError(f"{workload} worker did not get ready: {first.strip()!r}")
        rest, _ = proc.communicate(timeout=2 * seconds + 120)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if setup_only:
        return ready, None
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return ready, json.loads(lines[-1][len("RESULT "):])


def _report_failures(workload: str, result: dict) -> None:
    for failure in result["failures"]:
        print(f"perfbench: {workload}: {failure}", file=sys.stderr)


def measure(workload: str, opts: argparse.Namespace) -> tuple[dict, dict, dict]:
    """Returns (metrics as {name: (value, unit)}, attempt counts, inputs)."""
    if opts.trace:
        half = max(1.0, opts.seconds / 2)
        _, plain = spawn(workload, opts, half, 0, False)
        _, traced = spawn(workload, opts, half, 1, False)
        _report_failures(workload, plain)
        _report_failures(workload, traced)
        layer = dict(traced["per_layer"])
        layer["trace.overhead_s"] = statistics.median(traced["wall_s"]) - statistics.median(plain["wall_s"])
        metrics = {name: (value, UNITS_PER_LAYER[name]) for name, value in layer.items()}
        counts = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
        inputs = {**traced["inputs"], "job_lists": [plain["job_lists"], traced["job_lists"]],
                  "trace_file": traced["trace_file"]}
        return metrics, counts, inputs

    spawn(workload, opts, 1, 0, True)  # warm-up: writes bytecode caches, not counted
    # Probes before and after the measured process, so that one slow spell
    # of a shared host does not set the median.
    setups = [spawn(workload, opts, 1, 0, True)[0] for _ in range(SETUP_PROBES)]
    ready, result = spawn(workload, opts, opts.seconds, 0, False)
    setups.append(ready)
    setups += [spawn(workload, opts, 1, 0, True)[0] for _ in range(SETUP_PROBES)]
    _report_failures(workload, result)
    values = {
        "wall_s": statistics.median(result["wall_s"]),
        "cpu_s": statistics.median(result["cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": result["peak_rss_mib"],
        "query_p50_ms": result["query_p50_ms"],
        "query_p90_ms": result["query_p90_ms"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    counts = {key: result[key] for key in ("attempted", "failed")}
    inputs = {**result["inputs"], "job_lists": result["job_lists"], "queries": result["attempted"],
              "setup_samples": len(setups)}
    return metrics, counts, inputs


UNITS_PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in ("cli", "concentration", "extremal", "graphs", "oracle")
       for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "extremal.xi_calls": "count",
    "concentration.profile_entries": "count",
    "concentration.profile_entries_per_s": "1/s",
    "concentration.lambda_at_p50_ms": "ms",
    "cli.output_mib_per_s": "MiB/s",
    "oracle.exact.busy_s": "s",
    "oracle.exact.cardinalities_certified": "count",
    "oracle.exact.m_per_s": "1/s",
    "oracle.sample.samples_requested": "count",
    "oracle.sample.samples_yielded": "count",
    "oracle.sample.yield_ratio": "ratio",
    "oracle.sample.samples_per_s": "1/s",
    "graphs.bitmap_cells_per_s": "1/s",
    "graphs.pbm_mib_per_s": "MiB/s",
    "graphs.subset_checks_per_s": "1/s",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small job lists, for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one answer, to show the checks count it")
    opts = parser.parse_args()
    if not (ROOT / "src" / "extraconn" / "__init__.py").is_file():
        print("perfbench: run from a checkout of extraconn (no src/extraconn here)", file=sys.stderr)
        return 2

    env = environment()
    print(f"perfbench workload={opts.workload} seed={opts.seed} seconds={opts.seconds} trace={opts.trace}")
    print("env " + json.dumps(env))
    selected = WORKLOADS if opts.workload == "all" else (opts.workload,)
    combined, attempted, failed = {}, 0, 0
    for workload in selected:
        try:
            metrics, counts, inputs = measure(workload, opts)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        attempted += counts["attempted"]
        failed += counts["failed"]
        print(f"[{workload}] inputs " + json.dumps(inputs))
        for name, (value, unit) in metrics.items():
            print(f"[{workload}] {name} = {value:.6g} {unit}")
        print(f"[{workload}] fail_ratio = {counts['failed'] / counts['attempted']:.6g} "
              f"({counts['failed']} of {counts['attempted']} jobs)")
        prefix = f"{workload}." if len(selected) > 1 else ""
        combined.update({prefix + name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
