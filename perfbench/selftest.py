"""Self-test of the benchmark: the checker catches wrong answers, and every
workload runs end to end at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)
"""
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

run.import_qtbs()

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import SolveWorkload  # noqa: E402
from qtbs import Perturbation, forward_grad, gradient_graph, parse_network  # noqa: E402
from qtbs import oracle  # noqa: E402


def _tiny_doc(seed=3):
    return inputs.flat_network(random.Random(seed), 12, 60, (1, 4))


class CheckerRejectsWrongAnswers(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK / "selftest"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _solve_report(self, doc):
        path = self.work / "net.json"
        path.write_text(json.dumps(doc))
        return json.loads(SolveWorkload._solve(str(path)))

    def test_solve_with_one_rate_corrupted(self):
        doc = _tiny_doc()
        report = self._solve_report(doc)
        self.assertEqual(check.solve_report(doc, report), [])
        self.assertEqual(check.rates_match_oracle(parse_network(doc), report["rates"]), [])
        flow = sorted(report["rates"])[7]
        for factor in (0.999, 1.001):
            bad = dict(report, rates={**report["rates"], flow: report["rates"][flow] * factor})
            self.assertNotEqual(check.solve_report(doc, bad), [], factor)
            self.assertNotEqual(
                check.rates_match_oracle(parse_network(doc), bad["rates"]), [], factor)

    def test_gradient_with_one_entry_flipped(self):
        net = parse_network(_tiny_doc())
        sol = gradient_graph(net)
        delta = oracle.suggest_delta(net) * 1e4
        for target in (net.flows[0].id, net.links[0].id):
            res = forward_grad(sol, Perturbation(target, -1))
            self.assertEqual(check.gradient_matches_oracle(net, res, delta), [])
            flow, g = next((f, g) for f, g in sorted(res.flow_gradient.items())
                           if f != target and abs(g) > 1e-3)
            flipped = dataclasses.replace(res, flow_gradient={**res.flow_gradient, flow: -g})
            self.assertNotEqual(check.gradient_matches_oracle(net, flipped, delta), [])


class WorkloadsRunTiny(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        spec = run.benchmark_spec()
        for name in run.WORKLOADS:
            for traced in (0, 1):
                with self.subTest(workload=name, trace=traced):
                    report, result = run.run(name, 5, 0.2, traced, tiny=True, probes=2)
                    self.assertTrue(result["correct"], report["problems"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(spec[traced]))

    def test_missing_entry_point_is_reported(self):
        tracer = tracing.Tracer()
        saved = tracing.ENTRY_POINTS
        tracing.ENTRY_POINTS = saved + (("qtbs.solver", "no_such_entry", "solver.gone"),)
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            tracing.ENTRY_POINTS = saved
        self.assertEqual(tracer.missing, ["qtbs.solver.no_such_entry"])

    def test_fails_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "plan-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
