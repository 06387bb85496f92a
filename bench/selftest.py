"""Tests of the benchmark harness itself: python3 bench/selftest.py

These exercise the benchmark's own code (inputs, checks, tracer, child
environment), not the engine; the engine's tests live under tests/.
"""

from __future__ import annotations

import os
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from monocat import cli, rewrite, terms  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.build(w, 5), workloads.build(w, 5), w)

    def test_seed_changes_only_seeded_items(self):
        for w in workloads.WORKLOADS:
            (a, units_a), (b, units_b) = workloads.build(w, 1), workloads.build(w, 2)
            self.assertEqual([x["id"] for x in a], [x["id"] for x in b], w)
            self.assertEqual(units_a, units_b, w)
            fixed_a = [x for x in a if x["fixed"]]
            fixed_b = [x for x in b if x["fixed"]]
            self.assertEqual(fixed_a, fixed_b, w)
            seeded = [(x, y) for x, y in zip(a, b) if not x["fixed"]]
            if w != "homset":
                self.assertTrue(seeded, w)
                self.assertTrue(any(x != y for x, y in seeded), w)

    def test_constructed_pairs_have_equal_images(self):
        sems = [reference.Semantics(rows) for rows in reference.CHECK_PAIRINGS]
        items, _ = workloads.build("word_problem", 3)
        for it in items:
            if it["kind"] == "equal" and it["expect"] == "equal":
                for sem in sems:
                    a = sem.fingerprint(it["source"], it["a_layers"])
                    self.assertEqual(a, sem.fingerprint(it["source"], it["b_layers"]), it["id"])


class Reference(unittest.TestCase):
    def test_zigzag_is_identity_but_invariant_differs(self):
        source, layers = workloads.ZIGZAG
        sem = reference.Semantics(((2, 1), (1, 1)))
        self.assertEqual(sem.fingerprint(source, layers), sem.fingerprint(source, []))
        self.assertEqual(reference.invariant(layers), 1)
        self.assertEqual(reference.invariant([]), 0)

    def test_every_relation_instance_holds(self):
        sem = reference.Semantics(((2, 1), (1, 1)))
        for _, _, src, lhs, rhs in workloads.rule_grid():
            if src <= 8:
                self.assertEqual(sem.fingerprint(src, lhs), sem.fingerprint(src, rhs))
                self.assertEqual(reference.invariant(lhs), reference.invariant(rhs))


def _fake_witness(a, b, mode, caps=rewrite.DEFAULT_CAPS):
    return rewrite.EqualityWitness(terms=(terms.canonical(a), terms.canonical(b)), steps=())


class Checks(unittest.TestCase):
    def test_stub_equal_on_zigzag_is_a_failure(self):
        items, units = workloads.build("word_problem", 1)
        unit = next(u for u, ks in enumerate(units) if items[ks[0]]["id"] == "eq:zigzag~id")
        with mock.patch.object(rewrite, "equal", _fake_witness):
            out = worker.run_unit({"workload": "word_problem", "seed": 1, "unit": unit})
        (rec,) = out["records"]
        self.assertFalse(rec["ok"])
        self.assertIn("known-distinct", rec["error"])

    def test_engine_passes_its_checks(self):
        items, units = workloads.build("word_problem", 1)
        unit = len(units) - 1  # the mode-D batch: fast
        out = worker.run_unit({"workload": "word_problem", "seed": 1, "unit": unit})
        self.assertTrue(all(r["ok"] for r in out["records"]))


class Tracing(unittest.TestCase):
    def test_results_and_exceptions_pass_through(self):
        t = cli.parse_expr("(eta(0,1) * id(1)) ; (id(1) * eps(0,1))")
        plain = terms.canonical(t)
        original = terms.canonical
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(rewrite.canonical, original)  # bound by name there too
            self.assertEqual(terms.canonical(t), plain)
            with self.assertRaises(cli.ParseError) as err:
                cli.parse_expr("eta(0,")
            self.assertIn("position", str(err.exception))
        finally:
            tr.uninstall()
        self.assertIs(terms.canonical, original)
        self.assertIs(rewrite.canonical, original)
        c = tr.counters()
        self.assertEqual(c["terms.canonical.calls"], 1)
        self.assertEqual(c["cli.parse_expr.calls"], 1)

    def test_missing_function_and_cache_are_absent(self):
        traced = dict(tracer.TRACED, **{"rewrite.gone": [("monocat.rewrite", "no_such_function")]})
        caches = dict(tracer.CACHES, **{"rewrite.gone": ("monocat.rewrite", "_no_such_cache")})
        with mock.patch.object(tracer, "TRACED", traced), mock.patch.object(tracer, "CACHES", caches):
            tr = tracer.Tracer()
            tr.install()
            tr.uninstall()
        self.assertIn("rewrite.gone", tr.absent)
        self.assertIn("rewrite.gone.cache", tr.absent)
        self.assertIn("rewrite.equal.witness_ratio", tracer.per_layer(tr.counters(), 1))


class Harness(unittest.TestCase):
    def test_child_environment(self):
        with mock.patch.dict(os.environ, {"MONOCAT_MAX_STATES": "7"}):
            env = run.child_env()
        self.assertNotIn("MONOCAT_MAX_STATES", env)
        self.assertEqual(env["OMP_NUM_THREADS"], "1")
        self.assertEqual(env["OPENBLAS_NUM_THREADS"], "1")

    def test_tail_has_ten_samples_beyond(self):
        samples = [float(k) for k in range(1, 101)]
        p, v = run.tail(samples)
        self.assertEqual((p, v), (90.0, 90.0))
        self.assertEqual(sum(1 for x in samples if x > v), 10)
        self.assertEqual(run.tail([1.0, 2.0, 3.0]), (50.0, 2.0))


if __name__ == "__main__":
    unittest.main()
