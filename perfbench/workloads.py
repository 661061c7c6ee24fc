"""The four benchmark workloads: job lists made from a seed, and their checks.

A job is (label, call, check): call() runs one request through a public
entry point of the package and returns its output; check(output) decides,
with code that does not trust the package, whether the output is right.
Every input is built from the workload seed before the job list is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import cache
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "tests" / "fixtures"
EXPECTED_FILE = HERE / "expected.json"


@cache
def expected() -> dict:
    """Answers recorded from the seed commit where no closed form exists."""
    return json.loads(EXPECTED_FILE.read_text())


class CliFailed(RuntimeError):
    """The CLI exited with a nonzero code."""


def run_cli(main, args: list[str]) -> str:
    """One in-process `extraconn ARGS` call; returns what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=args, prog_name="extraconn", standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise CliFailed(f"exit {exc.code}: {' '.join(args)}") from None
    return buf.getvalue()


def _skewed(rng: random.Random, top: int) -> int:
    """A value in [1, top], skewed toward small values."""
    return 1 + int((top - 1) * rng.random() ** 4)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, api, seed: int, size: str):
        self.api = api
        self.seed = seed
        self.size = size

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def setup(self) -> None:
        """Lazy set-up a real caller pays before its first answer."""
        self.api.cli(["xi", "--n", "4", "--m", "1"])

    def prepare(self) -> None:
        """Build the reference answers before timing, so the benchmark's own
        memory peak comes first and is the same in every run."""

    def describe(self) -> dict:
        return {"seed": self.seed, "size": self.size}


class Tables(Workload):
    """The paper's tables in one batch through the CLI, always in the same order.

    The job order changes allocator fragmentation, and with it the peak RSS
    by about 15 %, so no seed-dependent order is used here.
    """

    name = "tables"

    @staticmethod
    def job_args(size: str) -> list[list[str]]:
        if size == "tiny":
            csv_n, json_n, conc, bps, ratio = (4, 5, 6), (4,), range(9, 11), range(4, 11), 20
            bitmap = {"q2": range(4, 6), "qn": range(4, 6)}
        else:
            csv_n, json_n, conc, bps, ratio = (4, 5, 6, 7, 8, 9, 12, 16, 19), (4, 9, 14, 18), range(9, 21), range(4, 21), 62
            bitmap = {"q2": range(4, 12), "qn": range(4, 11)}
        jobs = []
        for fmt, ns in (("csv", csv_n), ("json", json_n)):
            for family in reference.FAMILIES:
                jobs += [["profile", "--n", str(n), "--family", family, "--format", fmt] for n in ns]
        jobs += [["concentration", "--n", str(n)] for n in conc]
        jobs += [["breakpoints", "--n", str(n)] for n in bps]
        jobs.append(["ratio", "--n-min", "4", "--n-max", str(ratio)])
        for family, ns in bitmap.items():
            jobs += [["bitmap", "--n", str(n), "--family", family] for n in ns]
        return jobs

    def __init__(self, api, seed, size):
        super().__init__(api, seed, size)
        self.args = self.job_args(size)
        self.fixtures = {
            path.name: path.read_text() for path in FIXTURES.glob("profile_q*2.csv")
        }

    def _check(self, args: list[str]):
        key = " ".join(args)
        digest = expected()["tables"][key]
        fixture = None
        if args[0] == "profile" and args[4] == "q2" and args[6] == "csv" and int(args[2]) <= 9:
            fixture = f"profile_q{args[2]}2.csv"

        def check(out: str) -> bool:
            if fixture is not None and out != self.fixtures.get(fixture):
                return False
            return _digest(out) == digest

        return check

    def batch(self, index: int):
        cli = self.api.cli
        return [(" ".join(a), lambda a=a: cli(a), self._check(a)) for a in self.args]

    def describe(self) -> dict:
        return {**super().describe(), "jobs_per_list": len(self.args), "order": "fixed"}


class PointQueries(Workload):
    """A closed loop, one client: single-answer CLI requests in a seeded stream.

    Each batch of requests has a fixed mix of commands and lambda dimensions,
    so the heavy lambda scans are spread the same way in every batch and the
    latency percentiles fall inside one dimension's block (p50 on n = 9,
    p90 on n = 17). Family, h or m, and the order are drawn from the seed.
    n stops at 18: `lambda --n 40` still runs without bound (ROADMAP item
    3), so it is left out because a run would never end, not to hide it.
    """

    name = "point_queries"
    LAMBDA_MIX = {
        "full": {4: 6, 5: 6, 6: 6, 7: 6, 8: 6, 9: 20, 10: 8, 11: 8, 12: 8, 13: 8, 14: 8, 15: 8,
                 16: 10, 17: 24, 18: 8},
        "tiny": {4: 10, 6: 10, 8: 10, 10: 10},
    }
    CHEAP_MIX = {"full": {"xi": 20, "ex": 20, "breakpoints": 20},
                 "tiny": {"xi": 10, "ex": 10, "breakpoints": 10}}
    N_RANGE = {"full": (4, 18), "tiny": (4, 10)}

    def __init__(self, api, seed, size):
        super().__init__(api, seed, size)
        self.seen: set[tuple[str, int]] = set()
        self.requests = 0
        self.repeats = 0

    def _request(self, rng: random.Random, command: str, n: int):
        family = "q2" if command == "breakpoints" else rng.choice(reference.FAMILIES)
        key = (family, n)
        self.repeats += key in self.seen
        self.seen.add(key)
        self.requests += 1
        if command == "breakpoints":
            return ["breakpoints", "--n", str(n)], lambda out: out == " ".join(map(str, reference.breakpoints(n))) + "\n"
        half = 1 << (n - 1)
        value = _skewed(rng, half)
        if command == "lambda":
            args = ["lambda", "--n", str(n), "--family", family, "--h", str(value)]
            want = lambda: reference.lam(family, n, value)  # noqa: E731
        elif command == "xi":
            args = ["xi", "--n", str(n), "--family", family, "--m", str(value)]
            want = lambda: reference.xi(family, n, value)  # noqa: E731
        else:
            args = ["ex", "--n", str(n), "--family", family, "--m", str(value)]
            want = lambda: reference.ex(family, n, value)  # noqa: E731
        return args, lambda out: out == f"{want()}\n"

    def prepare(self) -> None:
        lo, hi = self.N_RANGE[self.size]
        for family in reference.FAMILIES:
            for n in range(lo, hi + 1):
                reference.xi_lambda(family, n)

    def batch(self, index: int):
        rng = self.rng(index)
        lo, hi = self.N_RANGE[self.size]
        plan = [("lambda", n) for n, count in self.LAMBDA_MIX[self.size].items() for _ in range(count)]
        for command, count in self.CHEAP_MIX[self.size].items():
            low = 9 if command == "breakpoints" else lo
            plan += [(command, rng.randint(low, hi)) for _ in range(count)]
        rng.shuffle(plan)
        cli = self.api.cli
        jobs = []
        for command, n in plan:
            args, check = self._request(rng, command, n)
            jobs.append((" ".join(args), lambda a=args: cli(a), check))
        return jobs

    def describe(self) -> dict:
        mix = {"lambda": sum(self.LAMBDA_MIX[self.size].values()), **self.CHEAP_MIX[self.size]}
        return {
            **super().describe(),
            "requests_per_list": sum(mix.values()),
            "mix": mix,
            "lambda_n_counts": self.LAMBDA_MIX[self.size],
            "n_range": list(self.N_RANGE[self.size]),
            "h_m_draw": "1 + floor((2^(n-1) - 1) * u^4)",
            "repeat_share_family_n": self.repeats / self.requests if self.requests else 0.0,
        }


class ExactOracle(Workload):
    """Exhaustive certification on Q_4, Q_5, Q_{5,1}, Q_{5,2}; the seed orders the jobs."""

    name = "exact_oracle"

    def __init__(self, api, seed, size):
        super().__init__(api, seed, size)
        spec = api.GraphSpec
        tiny = size == "tiny"
        self.verify = [("4", "q2")] if tiny else [("4", "qn"), ("4", "q2")]
        self.sweeps = [(spec(4, None), 4)] if tiny else [(spec(5, None), 10), (spec(5, 1), 9), (spec(5, 2), 9)]
        ex_m = {(4, None): 16, (4, 2): 16, (5, None): 9, (5, 2): 8}
        if tiny:
            ex_m = {(4, None): 4}
        self.ex = [(spec(n, k), m) for (n, k), top in ex_m.items() for m in range(1, top + 1)]
        enum_graphs = [(4, None)] if tiny else [(4, None), (4, 2), (5, None), (5, 2)]
        self.enum = [(spec(n, k), m) for n, k in enum_graphs for m in range(1, 4 if tiny else 7)]
        self.specs = sorted({(s.n, s.k) for s, _ in self.sweeps + self.ex + self.enum}, key=str)

    def setup(self) -> None:
        super().setup()
        for n, k in self.specs:
            for _ in self.api.enumerate_connected_subsets(self.api.GraphSpec(n, k), 1):
                pass

    @staticmethod
    def _family(k) -> str | None:
        return {None: "qn", 2: "q2"}.get(k)

    def _check_verify(self, n: int, family: str):
        def check(out: str) -> bool:
            lines = out.splitlines()
            half = 1 << (n - 1)
            if len(lines) != half + 1 or lines[-1] != f"{half}/{half} PASS":
                return False
            for m, line in enumerate(lines[:-1], start=1):
                fields = dict(tok.split("=") for tok in line.split()[:-1])
                if (
                    int(fields["m"]) != m
                    or int(fields["xi_exact"]) != reference.xi(family, n, m)
                    or int(fields["lambda_exact"]) != reference.lam(family, n, m)
                    or not line.endswith(" PASS")
                ):
                    return False
            return True

        return check

    def _check_sweep(self, spec, m_max: int):
        family = self._family(spec.k)
        if family is None:
            want = expected()["exact_oracle"]["sweep"][f"{spec.n},{spec.k}"][:m_max]
        else:
            want = [reference.xi(family, spec.n, m) for m in range(1, m_max + 1)]
        nbr = reference.neighbor_masks(spec.n, spec.k)
        full = (1 << spec.num_vertices) - 1

        def check(results) -> bool:
            if [r.xi_exact for r in results] != want:
                return False
            for m, r in enumerate(results, start=1):
                mask = reference.set_mask(r.witness)
                if (
                    len(r.witness) != m
                    or reference.boundary(mask, nbr) != r.xi_exact
                    or not reference.connected(mask, nbr)
                    or not reference.connected(full ^ mask, nbr)
                ):
                    return False
            return True

        return check

    def batch(self, index: int):
        api = self.api
        jobs = [
            (f"verify --n {n} --family {f}",
             lambda n=n, f=f: api.cli(["verify", "--n", n, "--family", f, "--mode", "exact"]),
             self._check_verify(int(n), f))
            for n, f in self.verify
        ]
        jobs += [
            (f"xi_bruteforce_sweep Q({s.n},{s.k}) {m}",
             lambda s=s, m=m: api.xi_bruteforce_sweep(s, m), self._check_sweep(s, m))
            for s, m in self.sweeps
        ]
        jobs += [
            (f"ex_bruteforce Q({s.n},{s.k}) {m}", lambda s=s, m=m: api.ex_bruteforce(s, m),
             lambda out, s=s, m=m: out == int(reference.ex_table(self._family(s.k), s.n)[m]))
            for s, m in self.ex
        ]
        jobs += [
            (f"enumerate_connected_subsets Q({s.n},{s.k}) {m}",
             lambda s=s, m=m: sum(1 for _ in api.enumerate_connected_subsets(s, m)),
             lambda out, s=s, m=m: out == expected()["exact_oracle"]["enumerate"][f"{s.n},{s.k},{m}"])
            for s, m in self.enum
        ]
        self.rng(index).shuffle(jobs)
        return jobs

    def describe(self) -> dict:
        return {
            **super().describe(),
            "verify_exact": [f"Q({n},{f})" for n, f in self.verify],
            "sweeps": [f"Q({s.n},{s.k}) m<={m}" for s, m in self.sweeps],
            "ex_bruteforce_calls": len(self.ex),
            "enumerate_calls": len(self.enum),
            "order": "seeded shuffle",
        }


class SampledCuts(Workload):
    """Seeded random cuts plus frozenset subset checks on lexicographic segments."""

    name = "sampled_cuts"

    def __init__(self, api, seed, size):
        super().__init__(api, seed, size)
        spec = api.GraphSpec
        if size == "tiny":
            self.streams = [(spec(9, 2), 50)]
            self.verify_samples = 50
            self.segment_ns, self.strata = (10,), 2
        else:
            # n = 12 walks have a heavy-tailed cost (long walks, retries when the
            # complement is disconnected), so most samples go to Q_{9,2} and a
            # job list's time does not hang on a few long walks.
            self.streams = [(spec(9, 2), 8000), (spec(12, 2), 200), (spec(12, None), 200)]
            self.verify_samples = 1000
            self.segment_ns, self.strata = (10, 11, 12), 8

    def setup(self) -> None:
        super().setup()
        for spec, _ in self.streams:
            for _ in self.api.sample_cuts(spec, 0, 0):
                pass

    def prepare(self) -> None:
        for spec, _ in self.streams:
            reference.xi_lambda("q2" if spec.k == 2 else "qn", spec.n)
        for n in self.segment_ns:
            for family in reference.FAMILIES:
                reference.xi_lambda(family, n)

    @staticmethod
    def _check_cuts(spec, samples: int):
        family = "q2" if spec.k == 2 else "qn"
        half = spec.num_vertices // 2
        deg = spec.degree
        xs = reference.xi_lambda(family, spec.n)[0]

        def check(cuts) -> bool:
            return len(cuts) <= samples and all(
                c.both_connected
                and 1 <= c.h <= half
                and xs[c.h - 1] <= c.cut_size <= deg * c.h
                and (c.cut_size - deg * c.h) % 2 == 0
                for c in cuts
            )

        return check

    def batch(self, index: int):
        rng = self.rng(index)
        api = self.api
        jobs = []
        for spec, samples in self.streams:
            stream_seed = rng.randrange(2**31)
            jobs.append((
                f"sample_cuts Q({spec.n},{spec.k}) {samples} seed={stream_seed}",
                lambda s=spec, c=samples, r=stream_seed: list(api.sample_cuts(s, c, r)),
                self._check_cuts(spec, samples),
            ))
        verify_seed = str(rng.randrange(2**31))
        jobs.append((
            f"verify --n 9 --k 2 --mode sample --seed {verify_seed}",
            lambda: api.cli(["verify", "--n", "9", "--k", "2", "--mode", "sample",
                             "--samples", str(self.verify_samples), "--seed", verify_seed]),
            lambda out: out == "violations: 0\n",
        ))
        for n in self.segment_ns:
            total, half = 1 << n, 1 << (n - 1)
            for k, family in ((None, "qn"), (2, "q2")):
                spec = api.GraphSpec(n, k)
                for j in range(self.strata):
                    m = rng.randint(1 + j * half // self.strata, (j + 1) * half // self.strata)
                    seg, rest = range(m), range(m, total)
                    label = f"Q({n},{k}) m={m}"
                    jobs += [
                        (f"boundary_size {label}", lambda s=spec, x=seg: api.boundary_size(s, x),
                         lambda out, f=family, n=n, m=m: out == reference.xi(f, n, m)),
                        (f"is_connected_subset {label}", lambda s=spec, x=seg: api.is_connected_subset(s, x),
                         lambda out: out is True),
                        (f"is_connected_subset complement {label}",
                         lambda s=spec, x=rest: api.is_connected_subset(s, x),
                         lambda out: out is True),
                    ]
        rng.shuffle(jobs)
        return jobs

    def describe(self) -> dict:
        return {
            **super().describe(),
            "streams": [f"Q({s.n},{s.k}) x{c}" for s, c in self.streams],
            "verify_sample": f"Q(9,2) x{self.verify_samples}",
            "segment_n": list(self.segment_ns),
            "segments_per_graph": self.strata,
        }


WORKLOADS = {w.name: w for w in (Tables, PointQueries, ExactOracle, SampledCuts)}
