"""Record the answers the benchmark cannot derive on its own into expected.json.

    python3 perfbench/record_expected.py

Stores SHA-256 digests of every `tables` CLI output (full and tiny job
lists), the exact xi sweep of the folded cube Q_{5,1} (no closed form), and
the connected-subset counts the `exact_oracle` workload asks for. The file
in the repository was recorded from the seed commit; the CLI promises
byte-identical output, so re-record only for a change meant to alter it.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    extraconn = worker._import_package()
    api = worker.build_api(extraconn)
    tables = {}
    for size in ("full", "tiny"):
        for args in workloads.Tables.job_args(size):
            tables[" ".join(args)] = workloads._digest(api.cli(args))
    spec = api.GraphSpec
    sweep = {"5,1": [r.xi_exact for r in api.xi_bruteforce_sweep(spec(5, 1), 9)]}
    enumerate_counts = {}
    for size in ("full", "tiny"):
        for s, m in workloads.ExactOracle(api, 0, size).enum:
            enumerate_counts[f"{s.n},{s.k},{m}"] = sum(1 for _ in api.enumerate_connected_subsets(s, m))
    payload = {"tables": tables, "exact_oracle": {"sweep": sweep, "enumerate": enumerate_counts}}
    workloads.EXPECTED_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
