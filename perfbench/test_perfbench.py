"""Tests of the benchmark itself: its checker, its known answers and its tracer.

Run from the root of a qhv checkout:

    python3 -m pytest perfbench -q

The per-workload test runs one traced pass of every workload (about 30 s).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gb  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
FIXED = json.loads((run.EXPECTED / "gb-fixed.json").read_text())


def setUpModule():
    os.chdir(ROOT)  # the CLI invocations read goldens/ relative to the checkout


class CheckerTest(unittest.TestCase):
    def test_committed_bases_are_reduced_groebner_bases(self):
        for name, solutions in gb.FIXED_SYSTEMS.items():
            _, gens = gb.fixed_system(name)
            basis = [gb.load_poly(p) for p in FIXED[name]["basis"]]
            self.assertEqual(gb.basis_problems(gens, basis, solutions), [], name)

    def test_committed_elimination_is_the_contraction(self):
        # u0 is linear in the others modulo katsura-4, so the quotient by the
        # contraction has the same dimension (16) as the quotient by the ideal.
        full = [gb.load_poly(p) for p in FIXED["katsura-4"]["basis"]]
        pairs = [(gb.leading(g), g) for g in full]
        kept = [gb.load_poly(p) for p in FIXED["katsura-4-elim-u0"]["basis"]]
        self.assertEqual(FIXED["katsura-4-elim-u0"]["names"], ["u1", "u2", "u3", "u4"])
        for g in kept:
            self.assertEqual(gb.reduce({(0,) + e: c for e, c in g.items()}, pairs), {})
        self.assertEqual(gb.basis_problems([], kept, 16), [])

    def test_checker_rejects_wrong_bases(self):
        _, gens = gb.fixed_system("katsura-4")
        basis = [gb.load_poly(p) for p in FIXED["katsura-4"]["basis"]]
        self.assertTrue(gb.basis_problems(gens, basis[:-1], 16), "dropped element")
        bent = dict(basis[-1])
        exp = next(e for e in bent if e != gb.leading(bent))
        bent[exp] += 1
        self.assertTrue(gb.basis_problems(gens, basis[:-1] + [bent], 16), "bent coefficient")
        doubled = {e: 2 * c for e, c in basis[0].items()}
        self.assertTrue(gb.basis_problems(gens, [doubled] + basis[1:], 16), "not monic")
        self.assertTrue(gb.basis_problems(gens, basis, 15), "wrong dimension")

    def test_random_systems_depend_only_on_the_seed(self):
        first = gb.random_systems(7)
        self.assertEqual(first, gb.random_systems(7))
        self.assertNotEqual(first, gb.random_systems(8))
        self.assertEqual(len(first), gb.RANDOM_SYSTEMS)
        for _, _, gens, solutions in first:
            self.assertTrue(gb.top_forms_regular(gens, gb.RANDOM_VARIABLES))
            self.assertEqual(solutions, 2 ** gb.RANDOM_VARIABLES)

    def test_isolated_triples_count(self):
        from tracer import isolated_triples

        # n = 2: {1,1,1}; n = 3: multisets of {1, 2} of size 3, four of them.
        self.assertEqual(isolated_triples(3), 1 + 4)


class VerifierTest(unittest.TestCase):
    INV = run.Invocation("wps", ["wps"])
    LINES = [json.dumps(dict(json.loads(line), duration_ms=3), separators=(",", ":"))
             for line in (run.EXPECTED / "wps.jsonl").read_text().splitlines()]

    def verdict(self, lines, exit_code=0):
        verifier = run.Verifier()
        child = run.Child(0.0, 1.0, 1.0, 1.0, 1.0, exit_code, False, lines, None, [])
        verifier.check(self.INV, child)
        return verifier.attempted, verifier.failed

    def test_expected_stream_passes(self):
        self.assertEqual(self.verdict(self.LINES), (2, 0))

    def test_every_wrong_or_missing_report_fails_once(self):
        failing = self.LINES[0].replace('"status":"pass"', '"status":"fail"')
        self.assertEqual(self.verdict([failing] + self.LINES[1:], exit_code=1), (2, 1))
        changed = self.LINES[0].replace('"vertex":', '"vertex":1', 1)
        self.assertEqual(self.verdict([changed] + self.LINES[1:]), (2, 1))
        self.assertEqual(self.verdict(self.LINES[:1]), (2, 1))
        self.assertEqual(self.verdict(["not json"]), (2, 2))
        self.assertEqual(self.verdict([], exit_code=-9), (2, 2))
        self.assertEqual(self.verdict(self.LINES + self.LINES[:1], exit_code=1), (3, 1))

    def test_nonzero_exit_fails_even_with_correct_reports(self):
        self.assertEqual(self.verdict(self.LINES, exit_code=1), (2, 1))


class HostClockTest(unittest.TestCase):
    def test_each_stretch_is_scaled_and_calibrations_are_left_out(self):
        ref = hostclock.CAL_REF_S
        points = [(1.0, 1.1, 2 * ref)]
        total, raw = hostclock.scaled(0.0, 2.0, points, ref, 2 * ref)
        self.assertAlmostEqual(raw, 1.9)
        self.assertAlmostEqual(total, 1.0 / 1.5 + 0.9 / 2)
        # an interval that ends inside a calibration stops where it starts
        total, raw = hostclock.scaled(0.0, 1.05, points, ref, ref)
        self.assertAlmostEqual(total, 1.0 / 1.5)
        self.assertAlmostEqual(raw, 1.0)
        total, raw = hostclock.scaled(0.0, 0.5, points, ref, ref)
        self.assertAlmostEqual(total, 0.5)
        self.assertAlmostEqual(raw, 0.5)

    def test_untraced_worker_reports_its_calibrations(self):
        proc = subprocess.run(
            [sys.executable, str(run.WORKER), "cli", "verify", "f4", "--k", "1", "--l", "1"],
            capture_output=True, text=True, env=ENV, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = next(l for l in proc.stderr.splitlines() if l.startswith(hostclock.CLOCK_PREFIX))
        points = json.loads(line[len(hostclock.CLOCK_PREFIX):])
        self.assertGreater(len(points), 0)
        ends = [start for start, _, _ in points[1:]]
        for (start, end, cal), later in zip(points, ends + [float("inf")]):
            self.assertLess(start, end)
            self.assertLess(end, later)
            self.assertGreater(cal, 0)


class TracerTest(unittest.TestCase):
    def test_every_binding_site_is_wrapped(self):
        proc = subprocess.run(
            [sys.executable, str(run.WORKER), "--trace", "cli", "verify", "f4", "--k", "1", "--l", "1"],
            capture_output=True, text=True, env=ENV, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = next(l for l in proc.stderr.splitlines() if l.startswith(run.TRACE_PREFIX))
        trace = json.loads(line[len(run.TRACE_PREFIX):])
        for site in ("qhv.ideals.eliminate", "qhv.degenerations.eliminate",
                     "qhv.degenerations.minimal_generators", "qhv.degenerations.apply",
                     "qhv.degenerations.check_ideal_invariance",
                     "qhv.degenerations.sl2_v4_triple", "qhv.polyring.Polynomial.__rmul__"):
            self.assertIn(site, trace["bindings"])
        spans = trace["spans"]
        for name in ("degenerations.derive_f4_ideal", "ideals.eliminate",
                     "ideals.minimal_generators", "ideals.normal_form", "cli.run"):
            self.assertGreater(spans[name]["calls"], 0, name)
        self.assertEqual(trace["caches"]["derive_f4_ideal"]["misses"], 1)


#: Per-layer metrics and the workloads on which they must be non-zero; on
#: every other workload they must be exactly zero.
NONZERO_ON = {
    "polyring.mul.calls": {"cli-all", "charts"},
    "polyring.subst.calls": {"cli-all", "charts"},
    "ideals.groebner.calls": {"cli-all", "charts", "gb-systems"},
    "ideals.groebner.computed": {"cli-all", "charts", "gb-systems"},
    "ideals.groebner.basis_elems": {"cli-all", "charts", "gb-systems"},
    "ideals.eliminate.self_s": {"cli-all", "charts", "gb-systems"},
    "ideals.normal_form.calls": {"cli-all", "charts"},
    "ideals.minimal_generators.self_s": {"cli-all", "charts"},
    "group_actions.apply.calls": {"cli-all", "charts"},
    "group_actions.sl2_v4_triple.self_s": {"cli-all", "charts"},
    "group_actions.invariance.self_s": {"cli-all", "charts"},
    "degenerations.derive_f4_ideal.lookups": {"cli-all", "charts"},
    "degenerations.chart.lookups": {"cli-all", "charts"},
    "degenerations.gluing.self_s": {"cli-all", "charts"},
    "degenerations.equivariance.self_s": {"cli-all", "charts"},
    "degenerations.adjudicate.self_s": {"cli-all", "charts"},
    "degenerations.quotient.self_s": {"cli-all", "charts"},
    "singular.triples": {"cli-all", "combinatorics"},
    "singular.classify.self_s": {"cli-all", "combinatorics"},
    "ruled.classes_scanned": {"cli-all", "combinatorics"},
    "ruled.minus_one.self_s": {"cli-all", "combinatorics"},
    "ruled.homology.self_s": {"cli-all", "combinatorics"},
    "cli.run.s": {"cli-all", "charts", "combinatorics"},
    "ideals.budget_exceeded": set(),
}


class WorkloadLayerTest(unittest.TestCase):
    def test_spans_are_nonzero_where_the_workload_exercises_the_layer(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                verifier = run.Verifier()
                deadline = time.perf_counter() + run.DEADLINE_S
                result = run.run_pass(run.workload(name, 1), ENV, True, verifier, deadline,
                                      run.Clock())
                self.assertEqual(verifier.failed, 0, verifier.messages)
                metrics, table = run.layer_metrics(result["traces"], result["durations"])
                for metric, workloads in NONZERO_ON.items():
                    self.assertEqual(metrics[metric][0] > 0, name in workloads, metric)
                self.assertLessEqual(table["self_sum_s"], result["wall_s"])


if __name__ == "__main__":
    unittest.main()
