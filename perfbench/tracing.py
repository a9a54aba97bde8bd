"""Spans and counters around subtoric's public functions.

The tracer replaces a function name inside the module that calls it
(for example ``subtoric.verify.buchberger_check`` or
``subtoric.binomials.normal_form``) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in
memory until the run ends.  ``uninstall`` puts every original back, and
an untraced run never installs anything.

A layer is a subtoric module; a span's name is ``<module>.<function>``
of the wrapped original, so ``subtoric.cli.enumerate_fiber`` and
``subtoric.fibers.enumerate_fiber`` both count as
``fibers.enumerate_fiber``.  Span times are process CPU time, like the
op times in run.py.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter, defaultdict
from time import process_time

OP_SPAN = "bench.op"

# Function names as their callers see them, per calling module.  Each
# wrapper records a span.  Names missing from a module are skipped, so a
# refactor that drops one leaves its metrics at zero instead of failing.
SPAN_POINTS = {
    "subtoric.verify": (
        "classify",
        "build_generators",
        "buchberger_check",
        "initial_ideal_census",
        "fibers_of_degree",
        "generation_check",
    ),
    "subtoric.binomials": ("normal_form",),
    "subtoric.fibers": (
        "fibers_of_degree",
        "fiber_components",
        "enumerate_fiber",
        "random_walk",
    ),
    "subtoric.cli": (
        "classify",
        "classify_oracle",
        "build_generators",
        "buchberger_check",
        "initial_ideal_census",
        "verify_subset",
        "enumerate_fiber",
        "random_walk",
        "walk_vs_exact",
    ),
}

# Called too often to time; only call and acceptance counts are kept.
COUNT_POINTS = {"subtoric.fibers": ("apply_move",)}

LAYERS = ("tables", "binomials", "ideal", "fibers", "verify", "cli")

TIMED = (
    "tables.classify",
    "tables.classify_oracle",
    "binomials.buchberger_check",
    "binomials.normal_form",
    "ideal.build_generators",
    "fibers.initial_ideal_census",
    "fibers.fibers_of_degree",
    "fibers.fiber_components",
    "fibers.generation_check",
    "fibers.enumerate_fiber",
    "fibers.random_walk",
    "fibers.walk_vs_exact",
    "verify.verify_subset",
    "cli.main",
)

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {}
for _name in TIMED:
    PER_LAYER_UNITS[f"{_name}.calls"] = "calls/op"
    PER_LAYER_UNITS[f"{_name}.self_pct"] = "%"
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.self_pct"] = "%"
PER_LAYER_UNITS.update(
    {
        "binomials.pairs_checked": "count/op",
        "binomials.pairs_skipped": "count/op",
        "binomials.skip_ratio": "ratio",
        "binomials.reduction_steps": "count/op",
        "ideal.generators": "count/op",
        "fibers.census_monomials": "computed/op",
        "fibers.tables_partitioned": "count/op",
        "fibers.fiber_tables": "count/op",
        "fibers.walk_steps_per_s": "1/s",
        "fibers.move_accept_ratio": "ratio",
        "cli.stdout_bytes": "bytes/op",
        "trace.remainder_pct": "%",
        "trace.overhead_pct": "%",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
    }
)
del _name, _layer


def census_monomials(cells: int, degrees) -> int:
    """Sum over degrees d of C(d + cells - 1, cells - 1): the monomials a
    census scans, computed from the grid size rather than counted."""
    return sum(math.comb(d + cells - 1, cells - 1) for d in degrees)


def _on_buchberger(counts, args, result) -> None:
    counts["binomials.pairs_checked"] += result.checked_pairs
    counts["binomials.pairs_skipped"] += result.skipped_coprime


def _on_normal_form(counts, args, result) -> None:
    counts["binomials.reduction_steps"] += len(result[1])


def _on_generators(counts, args, result) -> None:
    counts["ideal.generators"] += len(result)


def _on_census(counts, args, result) -> None:
    shape = args[0].shape
    counts["fibers.census_monomials"] += census_monomials(
        shape.m * shape.n, [row.degree for row in result]
    )


def _on_partition(counts, args, result) -> None:
    counts["fibers.tables_partitioned"] += sum(f.size for f in result)


def _on_fiber(counts, args, result) -> None:
    counts["fibers.fiber_tables"] += result.size


def _on_walk(counts, args, result) -> None:
    counts["fibers.walk_steps"] += result.steps


RESULT_HOOKS = {
    "binomials.buchberger_check": _on_buchberger,
    "binomials.normal_form": _on_normal_form,
    "ideal.build_generators": _on_generators,
    "fibers.initial_ideal_census": _on_census,
    "fibers.fibers_of_degree": _on_partition,
    "fibers.enumerate_fiber": _on_fiber,
    "fibers.random_walk": _on_walk,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans as (parent index, name, start, end) tuples."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, fn, name: str | None = None):
        """A span-recording stand-in for fn."""
        name = name or span_name(fn)
        hook = RESULT_HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                spans[idx] = (parent, name, start, end)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def count_wrap(self, fn):
        name = span_name(fn)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if result is not None:
                counts[name + ".accepted"] += 1
            return result

        return counted

    def install(self) -> None:
        for points, make in ((SPAN_POINTS, self.wrap), (COUNT_POINTS, self.count_wrap)):
            for mod_name, attrs in points.items():
                module = importlib.import_module(mod_name)
                for attr in attrs:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for idx, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed span time not covered by child spans.

    Children of one span run one after another on one thread, so the
    covered part is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for parent, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (_parent, name, start, end) in enumerate(spans):
        out[name] += end - start - child[idx]
    return dict(out)


def layer_metrics(
    spans, counts, ops: int, untraced_s: float, traced_s: float
) -> dict[str, float]:
    """Every per-layer metric from the spans and counts of `ops` traced ops.

    Self times are shares of the summed op span time; the op span's own
    self time is the benchmark's remainder.  ``untraced_s`` and
    ``traced_s`` time the same ops without and with the wrappers.
    """
    selfs = self_times(spans)
    calls = Counter(name for _p, name, _s, _e in spans)
    op_total = sum(end - start for parent, name, start, end in spans if name == OP_SPAN)
    walk_s = sum(end - start for _p, name, start, end in spans if name == "fibers.random_walk")

    def pct(seconds: float) -> float:
        return 100.0 * seconds / op_total if op_total else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_pct"] = pct(selfs.get(name, 0.0))
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = pct(
            sum(s for name, s in selfs.items() if name.split(".", 1)[0] == layer)
        )
    checked, skipped = counts["binomials.pairs_checked"], counts["binomials.pairs_skipped"]
    out.update(
        {
            "binomials.pairs_checked": checked / ops,
            "binomials.pairs_skipped": skipped / ops,
            "binomials.skip_ratio": ratio(skipped, checked + skipped),
            "binomials.reduction_steps": counts["binomials.reduction_steps"] / ops,
            "ideal.generators": counts["ideal.generators"] / ops,
            "fibers.census_monomials": counts["fibers.census_monomials"] / ops,
            "fibers.tables_partitioned": counts["fibers.tables_partitioned"] / ops,
            "fibers.fiber_tables": counts["fibers.fiber_tables"] / ops,
            "fibers.walk_steps_per_s": ratio(counts["fibers.walk_steps"], walk_s),
            "fibers.move_accept_ratio": ratio(
                counts["fibers.apply_move.accepted"], counts["fibers.apply_move.calls"]
            ),
            "cli.stdout_bytes": counts["cli.stdout_bytes"] / ops,
            "trace.remainder_pct": pct(selfs.get(OP_SPAN, 0.0)),
            "trace.overhead_pct": 100.0 * (1.0 - ratio(untraced_s, traced_s)),
            "trace.ops_per_s_untraced": ratio(ops, untraced_s),
            "trace.ops_per_s_traced": ratio(ops, traced_s),
        }
    )
    return out
