"""Self-tests of the benchmark's own pieces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def pass_signature(items) -> list:
    return [
        (item.mask, item.flags) if hasattr(item, "mask") else item.argv for item in items
    ]


class GeneratorTests(unittest.TestCase):
    def setUp(self) -> None:
        self.env = SimpleNamespace(st=run.import_program(), work_dir=Path("inputs"))

    def make(self, workload, seed: int, k: int):
        return pass_signature(workload.make_pass(self.env, workloads.pass_rng(seed, k)))

    def test_same_seed_same_inputs(self) -> None:
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                for k in (0, 1):
                    self.assertEqual(self.make(w, 7, k), self.make(w, 7, k))
                self.assertNotEqual(self.make(w, 7, 0), self.make(w, 8, 0))
                self.assertNotEqual(self.make(w, 7, 0), self.make(w, 7, 1))

    def test_passes_cover_every_band(self) -> None:
        items = workloads.WORKLOADS["certify"].make_pass(self.env, workloads.pass_rng(1, 0))
        kinds = sorted(item.flags[1] and not item.flags[0] for item in items)
        self.assertEqual(len(items), 6)
        self.assertEqual(kinds.count(True), 2)
        sides = [len(item.mask) for item in
                 workloads.WORKLOADS["explore"].make_pass(self.env, workloads.pass_rng(1, 0))]
        self.assertEqual(sides, [4, 5] * 8)


class SelfTimeTests(unittest.TestCase):
    # op [0, 10] holds a [1, 5] (which holds b [2, 3]) and c [6, 9].
    SPANS = [
        (-1, tracing.OP_SPAN, 0.0, 10.0),
        (0, "fibers.a", 1.0, 5.0),
        (1, "binomials.b", 2.0, 3.0),
        (0, "fibers.c", 6.0, 9.0),
    ]

    def test_self_time_subtracts_direct_children(self) -> None:
        self.assertEqual(
            tracing.self_times(self.SPANS),
            {tracing.OP_SPAN: 3.0, "fibers.a": 3.0, "binomials.b": 1.0, "fibers.c": 3.0},
        )

    def test_layer_shares_and_remainder_cover_op_time(self) -> None:
        m = tracing.layer_metrics(self.SPANS, tracing.Counter(), 1, 8.0, 10.0)
        self.assertAlmostEqual(m["fibers.self_pct"], 60.0)
        self.assertAlmostEqual(m["binomials.self_pct"], 10.0)
        self.assertAlmostEqual(m["trace.remainder_pct"], 30.0)
        layers = sum(m[f"{layer}.self_pct"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(layers + m["trace.remainder_pct"], 100.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 20.0)

    def test_tracer_records_parent_links_and_restores(self) -> None:
        tracer = tracing.Tracer()

        def inner():
            return 1

        inner_t = tracer.wrap(inner, "fibers.inner")
        outer_t = tracer.wrap(lambda: inner_t() + 1, "verify.outer")
        self.assertEqual(outer_t(), 2)
        self.assertEqual([(p, n) for p, n, _s, _e in tracer.spans],
                         [(-1, "verify.outer"), (0, "fibers.inner")])
        st = run.import_program()
        original = st.binomials.normal_form
        tracer.install()
        self.assertIsNot(st.binomials.normal_form, original)
        tracer.uninstall()
        self.assertIs(st.binomials.normal_form, original)


class CheckTests(unittest.TestCase):
    def test_staircase_count_matches_general_count(self) -> None:
        for n in (3, 4, 5):
            for _g, lengths in workloads.staircase_catalog(n, n):
                mask = checks.staircase_mask(lengths, n)
                self.assertEqual(
                    checks.staircase_generator_count(lengths, n), len(checks.kept_quads(mask))
                )

    def test_standard_counts_match_brute_force(self) -> None:
        mask = checks.staircase_mask((2, 1, 0), 3)
        leads = [((i, l), (j, k)) for i, j, k, l in checks.kept_quads(mask)]
        cells = [(i, j) for i in range(3) for j in range(3)]
        for d in range(4):
            brute = 0
            for mono in itertools.combinations_with_replacement(cells, d):
                support = set(mono)
                brute += not any(a in support and b in support for a, b in leads)
            self.assertEqual(checks.standard_counts(mask, 3)[d], brute)

    def test_fiber_size_and_components_match_brute_force(self) -> None:
        mask = ((True, False, False), (False, True, False), (False, False, True))
        tables = [
            t for t in itertools.product(range(2), repeat=9) if sum(t) == 3
        ]
        by_key: dict = {}
        for flat in tables:
            rows = tuple(tuple(flat[r * 3 : r * 3 + 3]) for r in range(3))
            by_key.setdefault(checks.table_margins(mask, rows), []).append(rows)
        key = ((1, 1, 1), (1, 1, 1), 0)
        self.assertEqual(checks.fiber_size(mask, *key), len(by_key[key]))
        # The 3x3 diagonal's two off-diagonal permutation tables: no move joins them.
        self.assertEqual(checks.component_count(mask, by_key[key]), 2)


class WorkloadTests(unittest.TestCase):
    def test_every_workload_completes_at_tiny_size(self) -> None:
        for name, w in workloads.TINY.items():
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    res = run.run_one(name, 5, 0.0, trace, workload=w)
                    self.assertTrue(res["correct"], res["notes"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
                    self.assertEqual(set(res["metrics"]), set(units))

    def test_benchmark_json_lists_the_reported_metrics(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER_UNITS
        )


if __name__ == "__main__":
    unittest.main()
