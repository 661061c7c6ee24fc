"""Smoke test of the benchmark itself; takes about half a minute.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
the last output line holds exactly the metrics BENCHMARK.json names. Then
injects one wrong answer into each workload and checks that it is counted
as a failure, and checks that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "point_queries", "exact_oracle", "sampled_cuts")


def run(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAIL: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(ROOT, "--workload", workload, "--trace", str(trace), "--size", "tiny")
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None, f"{label}: exit {code}")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == names[trace], f"{label}: metric names and units")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{label}: a zero metric")
        code, result = run(ROOT, "--workload", workload, "--size", "tiny", "--inject-fault")
        expect(code == 1 and result is not None, f"{workload} fault: exit {code}")
        expect(not result["correct"] and result["failed"] >= 1, f"{workload} fault: not counted")
        print(f"smoke: {workload} ok")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = run(Path(bare), "--workload", "tables", "--trace", "0")
        expect(code != 0 and result is None, f"bare directory: exit {code}, result {result}")
    print("smoke: bare directory refused")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
