"""One workload in a fresh process: set up, say READY, run job lists, report.

Started by run.py; not meant to be run by hand. Prints "READY" once the
package is imported and the workload's lazy set-up is done, then one line
"RESULT <json>" when the measured job lists are finished.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_LISTS = 3  # job lists per run even when one list outlasts --seconds


def _import_package():
    if not (SRC / "extraconn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no extraconn package under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    import extraconn.cli

    if Path(extraconn.cli.__file__).resolve().parent.parent != SRC:
        sys.exit("perfbench: extraconn was not imported from the checkout")
    return extraconn


def build_api(extraconn, tracer=None) -> SimpleNamespace:
    """The public entry points the workloads call, wrapped when tracing."""
    import workloads

    def cli(args):
        return workloads.run_cli(extraconn.cli.main, args)

    calls = {
        "cli": ("cli", cli),
        "xi_bruteforce_sweep": ("oracle", extraconn.oracle.xi_bruteforce_sweep),
        "ex_bruteforce": ("oracle", extraconn.oracle.ex_bruteforce),
        "enumerate_connected_subsets": ("oracle", extraconn.oracle.enumerate_connected_subsets),
        "sample_cuts": ("oracle", extraconn.oracle.sample_cuts),
        "boundary_size": ("graphs", extraconn.graphs.boundary_size),
        "is_connected_subset": ("graphs", extraconn.graphs.is_connected_subset),
    }
    api = SimpleNamespace(GraphSpec=extraconn.graphs.GraphSpec)
    for attr, (layer, fn) in calls.items():
        name = "cli.main" if attr == "cli" else f"{layer}.{attr}"
        setattr(api, attr, fn if tracer is None else tracer.wrap(fn, layer, name))
    return api


def _corrupt(out):
    """A wrong answer of the same kind, for the injected-fault check."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, int):
        return out + 1
    if isinstance(out, str) and out.strip().isdigit():
        return f"{int(out) + 1}\n"
    if isinstance(out, str):
        return "#" + out[1:]
    return None


def run_jobs(jobs, state: dict, inject: bool) -> tuple[list[float], float, bool]:
    """Run one job list; returns (job latencies s, cpu s, whether a fault is still due)."""
    latencies = []
    cpu = 0.0
    for label, call, check in jobs:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = call()
            error = None
        except Exception as exc:  # a failing request is counted, not fatal
            out, error = None, exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        latencies.append(t1 - t0)
        cpu += c1 - c0
        if error is None and inject:
            corrupted = _corrupt(out)
            if corrupted is not None:
                out, inject = corrupted, False
        try:
            ok = error is None and bool(check(out))
        except Exception as exc:
            ok, error = False, exc
        state["attempted"] += 1
        if not ok:
            state["failed"] += 1
            if len(state["failures"]) < 5:
                detail = "".join(traceback.format_exception_only(error)).strip() if error else "wrong output"
                state["failures"].append(f"{label}: {detail}")
    return latencies, cpu, inject


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    extraconn = _import_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](build_api(extraconn), args.seed, args.size)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return

    workload.prepare()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        workload.api = build_api(extraconn, tracer)
        tracer.install()
    state = {"attempted": 0, "failed": 0, "failures": []}
    walls, cpus, p50s, p90s = [], [], [], []
    inject = args.inject_fault
    start = time.perf_counter()
    index = 0
    while True:
        jobs = workload.batch(index)
        if tracer is None:
            latencies, cpu, inject = run_jobs(jobs, state, inject)
        else:
            with tracer.root():
                latencies, cpu, inject = run_jobs(jobs, state, inject)
        walls.append(sum(latencies))
        cpus.append(cpu)
        # Percentiles within one list, then the median over lists: pooled over
        # lists, p90 would be an extreme copy of whichever job sits at the 90 %
        # mark of a fixed job list.
        latencies_ms = [t * 1e3 for t in latencies]
        p50s.append(statistics.median(latencies_ms))
        p90s.append(statistics.quantiles(latencies_ms, n=100)[89])
        index += 1
        if index == 1:
            # Later lists only add allocator fragmentation, which would tie the
            # peak to how many lists fit in the run.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if index >= MIN_LISTS and elapsed + statistics.median(walls) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    result = {
        "job_lists": index,
        "wall_s": walls,
        "cpu_s": cpus,
        "query_p50_ms": statistics.median(p50s),
        "query_p90_ms": statistics.median(p90s),
        "attempted": state["attempted"],
        "failed": state["failed"],
        "failures": state["failures"],
        "peak_rss_mib": peak_rss_mib,
        "inputs": workload.describe(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(index)
        out = Path(__file__).resolve().parent / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "job_lists": index})
        result["trace_file"] = str(out.relative_to(ROOT))
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
