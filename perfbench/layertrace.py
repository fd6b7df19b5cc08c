"""Outside-in tracing of pfmatch's layers.

`Tracer.install()` replaces every public function defined in the library
layers, at every module attribute of the package bound to it (so
`counting.det_bareiss` and `cli.count_c4_tree` are wrapped too), plus
`cli.main`, the root of each request.  Each call records a span
(id, function, start, end, parent id, request id) in memory; work counts
come from arguments and return values at the same boundaries.
`pass_metrics()` turns one pass's spans into the per-layer metrics, and
`write()` saves the spans kept in memory when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("graphs", "orientation", "exactlinalg", "brute", "counting")
MODULES = ("pfmatch", "pfmatch.cli") + tuple(f"pfmatch.{layer}" for layer in LAYERS)

#: The orientation constructors, timed together as orientation.build.
BUILDERS = frozenset(
    f"orientation.{name}"
    for name in ("orient_lexicographic", "converse", "orient_double", "orient_layered", "orient_c4_tree")
)

#: Inclusive times reported per function (outermost calls only).
TIMED = (
    "graphs.validate_tree", "graphs.cartesian_product", "graphs.enumerate_cycles",
    "orientation.check_pfaffian", "exactlinalg.det_bareiss", "exactlinalg.eval_matrix_poly",
    "brute.has_perfect_matching", "brute.count_perfect_matchings", "counting.count_grid_dimer",
)

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [(f"{layer}.self_ms", "ms", "lower") for layer in ("cli",) + LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{name}.ms", "ms", "lower") for name in TIMED]
    + [
        ("orientation.build.ms", "ms", "lower"),
        ("graphs.cycles_enumerated", "count", "lower"),
        ("graphs.is_cycle_of.calls", "count", "lower"),
        ("orientation.nice_even_cycles", "count", "lower"),
        ("orientation.nice_share", "share", "higher"),
        ("exactlinalg.det_bareiss.max_dim", "count", "lower"),
        ("exactlinalg.det_bareiss.updates_computed", "count", "lower"),
        ("exactlinalg.max_result_bits", "bits", "lower"),
        ("brute.has_perfect_matching.calls", "count", "lower"),
        ("brute.has_perfect_matching.true_share", "share", "higher"),
        ("brute.has_perfect_matching.repeat_calls", "count", "lower"),
        ("brute.count_perfect_matchings.max_vertices", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_share", "share", "lower"),
    ]
)


class Tracer:
    def __init__(self) -> None:
        self.modules = [importlib.import_module(m) for m in MODULES]
        self.names: list[str] = []          # function code -> "layer.function"
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.request = -1
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers = self._make_wrappers()
        self.counts: dict[str, int] = {}
        self._asked: set = set()

    # -- wrapping ------------------------------------------------------------

    def _targets(self) -> dict:
        found = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pfmatch.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    found[value] = f"{layer}.{attr}"
        cli = importlib.import_module("pfmatch.cli")
        found[cli.main] = "cli.main"
        return found

    def _make_wrappers(self) -> dict:
        observers = {
            "graphs.enumerate_cycles": self._saw_cycles,
            "orientation.check_pfaffian": self._saw_pfaffian_report,
            "brute.has_perfect_matching": self._saw_matching_check,
            "brute.count_perfect_matchings": self._saw_matching_count,
            "exactlinalg.det_bareiss": self._saw_determinant,
            "exactlinalg.integer_sqrt_exact": self._saw_root,
        }
        wrappers = {}
        for fn, name in self._targets().items():
            self.names.append(name)
            wrappers[fn] = self._wrap(fn, len(self.names) - 1, observers.get(name))
        return wrappers

    def _wrap(self, fn, code: int, observe):
        tracer = self
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, code, start, end, parent, tracer.request))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()
        self.stack.clear()

    # -- work counts from arguments and results ------------------------------

    def begin_pass(self) -> int:
        """Reset the work counts; returns the index of the pass's first span."""
        self.counts = {}
        return len(self.spans)

    def begin_request(self, request: int) -> None:
        self.request = request
        self._asked.clear()

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _saw_cycles(self, args, kwargs, result) -> None:
        self._add("graphs.cycles_enumerated", len(result))
        self._add("graphs.even_cycles", sum(1 for c in result if len(c) % 2 == 0))

    def _saw_pfaffian_report(self, args, kwargs, result) -> None:
        self._add("orientation.nice_even_cycles", result.nice_even_cycles)

    def _saw_matching_check(self, args, kwargs, result) -> None:
        excluding = kwargs.get("excluding", args[1] if len(args) > 1 else ())
        key = (args[0], tuple(excluding))
        if key in self._asked:
            self._add("brute.has_perfect_matching.repeat_calls", 1)
        self._asked.add(key)
        self._add("brute.has_perfect_matching.true", int(bool(result)))

    def _saw_matching_count(self, args, kwargs, result) -> None:
        self._max("brute.count_perfect_matchings.max_vertices", args[0].n)

    def _saw_determinant(self, args, kwargs, result) -> None:
        n = len(args[0])
        self._max("exactlinalg.det_bareiss.max_dim", n)
        self._add("exactlinalg.det_bareiss.updates_computed", (n - 1) * n * (2 * n - 1) // 6)
        self._max("exactlinalg.max_result_bits", abs(result).bit_length())

    def _saw_root(self, args, kwargs, result) -> None:
        self._max("exactlinalg.max_result_bits", abs(result).bit_length())

    # -- per-pass metrics ----------------------------------------------------

    def pass_metrics(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since begin_pass()."""
        spans, counts = self.spans[first_span:], self.counts
        info = {sid: (code, start, end, parent) for sid, code, start, end, parent, _ in spans}
        covered: dict[int, int] = {}
        for sid, code, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0) + (end - start)

        def ancestors(parent: int):
            while parent >= 0 and parent in info:
                yield self.names[info[parent][0]]
                parent = info[parent][3]

        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        outer_ns: dict[str, int] = {}
        build_ns = 0
        for sid, code, start, end, parent, _ in spans:
            name = self.names[code]
            layer = name.split(".")[0]
            duration = end - start
            self_ns[layer] = self_ns.get(layer, 0) + duration - covered.get(sid, 0)
            calls[name] = calls.get(name, 0) + 1
            above = set(ancestors(parent))
            if name not in above:
                outer_ns[name] = outer_ns.get(name, 0) + duration
            if name in BUILDERS and not above & BUILDERS:
                build_ns += duration

        def layer_calls(layer: str) -> int:
            return sum(c for name, c in calls.items() if name.startswith(layer + "."))

        checks = calls.get("brute.has_perfect_matching", 0)
        even = counts.get("graphs.even_cycles", 0)
        out: dict[str, float] = {}
        for layer in ("cli",) + LAYERS:
            out[f"{layer}.self_ms"] = self_ns.get(layer, 0) / 1e6
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls(layer)
        for name in TIMED:
            out[f"{name}.ms"] = outer_ns.get(name, 0) / 1e6
        out.update({
            "orientation.build.ms": build_ns / 1e6,
            "graphs.cycles_enumerated": counts.get("graphs.cycles_enumerated", 0),
            "graphs.is_cycle_of.calls": calls.get("graphs.is_cycle_of", 0),
            "orientation.nice_even_cycles": counts.get("orientation.nice_even_cycles", 0),
            "orientation.nice_share": counts.get("orientation.nice_even_cycles", 0) / even if even else 0.0,
            "exactlinalg.det_bareiss.max_dim": counts.get("exactlinalg.det_bareiss.max_dim", 0),
            "exactlinalg.det_bareiss.updates_computed": counts.get("exactlinalg.det_bareiss.updates_computed", 0),
            "exactlinalg.max_result_bits": counts.get("exactlinalg.max_result_bits", 0),
            "brute.has_perfect_matching.calls": checks,
            "brute.has_perfect_matching.true_share":
                counts.get("brute.has_perfect_matching.true", 0) / checks if checks else 0.0,
            "brute.has_perfect_matching.repeat_calls": counts.get("brute.has_perfect_matching.repeat_calls", 0),
            "brute.count_perfect_matchings.max_vertices": counts.get("brute.count_perfect_matchings.max_vertices", 0),
            "trace.spans": len(spans),
        })
        return out

    def write(self, path) -> None:
        """Every span as tab-separated text, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tfunction\tstart_ns\tend_ns\tparent\trequest\n")
            for sid, code, start, end, parent, request in sorted(self.spans):
                out.write(f"{sid}\t{self.names[code]}\t{start}\t{end}\t{parent}\t{request}\n")
