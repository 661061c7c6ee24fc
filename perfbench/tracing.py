"""Span tracing for the traced benchmark run, kept entirely outside src/.

The tracer replaces, for the duration of the traced run, every function that
one extraconn module imports from another (cli.lambda_profile,
concentration.xi, ...) with a wrapper that records a span, and wraps the
public functions the benchmark itself calls. A span's layer is the module
that defines the function. Self time is a span's duration minus the time its
child spans cover; busy time counts only the outermost span of a layer.

Spans are kept in memory and written out at the end. extremal.xi runs up to
millions of times per job list, so its spans are folded into their parent's
record (count and time) instead of being stored one by one.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "concentration", "extremal", "graphs", "oracle")
HOT = {"extremal.xi"}
EXACT = {"oracle.xi_bruteforce_sweep", "oracle.ex_bruteforce", "oracle.enumerate_connected_subsets"}
SUBSET_CHECKS = {"graphs.boundary_size", "graphs.is_connected_subset"}

_clock = time.perf_counter


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.records: list[dict] = []
        self.calls = dict.fromkeys(LAYERS + ("bench",), 0)
        self.busy = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.depth = dict.fromkeys(LAYERS + ("bench",), 0)
        self.name_calls: dict[str, int] = {}
        self.name_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.leaf: dict[int | None, list] = {}  # parent span id -> [calls, seconds]
        self.root_s = 0.0
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def _enter(self, layer: str, sid: int) -> list:
        seg = [layer, sid, _clock(), 0.0]
        self.depth[layer] += 1
        self.stack.append(seg)
        return seg

    def _exit(self, seg: list) -> tuple[float, float, float]:
        end = _clock()
        self.stack.pop()
        layer, _sid, start, child = seg
        dur = end - start
        self.self_s[layer] += dur - child
        self.depth[layer] -= 1
        if self.depth[layer] == 0:
            self.busy[layer] += dur
        if self.stack:
            self.stack[-1][3] += dur
        return start, end, dur

    def _parent_id(self) -> int | None:
        return self.stack[-1][1] if self.stack else None

    def _account(self, name: str, layer: str, dur: float) -> None:
        self.calls[layer] += 1
        self.name_calls[name] = self.name_calls.get(name, 0) + 1
        self.name_s[name] = self.name_s.get(name, 0.0) + dur

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        if name in HOT:
            return self._wrap_hot(fn, layer, name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._parent_id()
            sid = tracer._new_id()
            seg = tracer._enter(layer, sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end, dur = tracer._exit(seg)
                tracer._account(name, layer, dur)
                tracer.records.append(
                    {"id": sid, "parent": parent, "layer": layer, "name": name,
                     "start": start, "end": end, "self": dur - seg[3]}
                )
                tracer.durations.setdefault(name, []).append(dur)
            tracer._observe(name, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_hot(self, fn, layer: str, name: str):
        tracer = self
        stack = self.stack

        def traced(*args, **kwargs):
            seg = tracer._enter(layer, 0)
            try:
                return fn(*args, **kwargs)
            finally:
                _start, _end, dur = tracer._exit(seg)
                tracer._account(name, layer, dur)
                parent = stack[-1][1] if stack else None
                slot = tracer.leaf.setdefault(parent, [0, 0.0])
                slot[0] += 1
                slot[1] += dur

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: str, name: str):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._parent_id()
            sid = tracer._new_id()
            inner = fn(*args, **kwargs)
            tracer._observe(name, fn, args, kwargs, None)

            def resume():
                total = self_total = 0.0
                first = last = None
                items = 0
                try:
                    while True:
                        seg = tracer._enter(layer, sid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            start, last, dur = tracer._exit(seg)
                            first = start if first is None else first
                            total += dur
                            self_total += dur - seg[3]
                        items += 1
                        yield item
                finally:
                    tracer._account(name, layer, total)
                    tracer.count(f"{name}.items", items)
                    tracer.records.append(
                        {"id": sid, "parent": parent, "layer": layer, "name": name,
                         "start": first, "end": last, "self": self_total}
                    )

            return resume()

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, fn, args, kwargs, result) -> None:
        """Work counts read from a call's arguments or result."""
        if name == "cli.main":
            self.count("cli_output_bytes", len(result))
        elif name == "concentration.lambda_profile":
            self.count("profile_entries", _arg(fn, args, kwargs, "family").half)
        elif name == "oracle.xi_bruteforce_sweep":
            self.count("certified", _arg(fn, args, kwargs, "m_max"))
        elif name == "oracle.ex_bruteforce":
            self.count("certified", 1)
        elif name == "oracle.sample_cuts":
            self.count("samples_requested", _arg(fn, args, kwargs, "samples"))
        elif name == "graphs.adjacency_bitmap":
            self.count("bitmap_cells", _arg(fn, args, kwargs, "spec").num_vertices ** 2)
        elif name == "graphs.pbm_text":
            self.count("pbm_bytes", len(result))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module import inside the extraconn package."""
        for short in LAYERS:
            module = importlib.import_module(f"extraconn.{short}")
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", "") or ""
                if (
                    inspect.isfunction(value)
                    and home.startswith("extraconn.")
                    and home != module.__name__
                ):
                    layer = home.split(".", 1)[1]
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self.wrap(value, layer, f"{layer}.{value.__name__}"))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def root(self):
        """One job list: the benchmark's own span, parent of every other."""
        seg = self._enter("bench", self._new_id())
        try:
            yield
        finally:
            start, end, dur = self._exit(seg)
            self.root_s += dur
            self.records.append(
                {"id": seg[1], "parent": None, "layer": "bench", "name": "bench.job_list",
                 "start": start, "end": end, "self": dur - seg[3]}
            )

    # -- results ------------------------------------------------------------

    def metrics(self, job_lists: int) -> dict[str, float]:
        """Per-layer metrics, each per job list (totals divided by job_lists)."""
        per = 1.0 / job_lists
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] * per
            out[f"{layer}.busy_s"] = self.busy[layer] * per
            out[f"{layer}.self_s"] = self.self_s[layer] * per
        attributed = sum(self.self_s.values())
        out["bench.self_s"] = self.self_s["bench"] * per
        out["trace.wall_s"] = self.root_s * per
        out["trace.unattributed_s"] = (self.root_s - attributed) * per

        def s(name):
            return self.name_s.get(name, 0.0)

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        entries = self.counters.get("profile_entries", 0.0)
        out["extremal.xi_calls"] = self.name_calls.get("extremal.xi", 0) * per
        out["concentration.profile_entries"] = entries * per
        out["concentration.profile_entries_per_s"] = rate(entries, s("concentration.lambda_profile"))
        lam = self.durations.get("concentration.lambda_at", [])
        out["concentration.lambda_at_p50_ms"] = statistics.median(lam) * 1e3 if lam else 0.0
        out["cli.output_mib_per_s"] = rate(self.counters.get("cli_output_bytes", 0.0) / 2**20, self.self_s["cli"])
        exact_s = sum(s(name) for name in EXACT)
        certified = self.counters.get("certified", 0.0)
        out["oracle.exact.busy_s"] = exact_s * per
        out["oracle.exact.cardinalities_certified"] = certified * per
        out["oracle.exact.m_per_s"] = rate(certified, exact_s)
        requested = self.counters.get("samples_requested", 0.0)
        yielded = self.counters.get("oracle.sample_cuts.items", 0.0)
        out["oracle.sample.samples_requested"] = requested * per
        out["oracle.sample.samples_yielded"] = yielded * per
        out["oracle.sample.yield_ratio"] = rate(yielded, requested)
        out["oracle.sample.samples_per_s"] = rate(yielded, s("oracle.sample_cuts"))
        out["graphs.bitmap_cells_per_s"] = rate(self.counters.get("bitmap_cells", 0.0), s("graphs.adjacency_bitmap"))
        out["graphs.pbm_mib_per_s"] = rate(self.counters.get("pbm_bytes", 0.0) / 2**20, s("graphs.pbm_text"))
        checks = sum(self.name_calls.get(name, 0) for name in SUBSET_CHECKS)
        out["graphs.subset_checks_per_s"] = rate(checks, sum(s(name) for name in SUBSET_CHECKS))
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the kept spans, folded leaf counts and metadata as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        leaf = {str(k): v for k, v in self.leaf.items()}
        path.write_text(json.dumps({"meta": meta, "spans": self.records, "folded_xi": leaf}) + "\n")

