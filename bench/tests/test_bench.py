"""Self-tests of the benchmark: seeded inputs repeat, the answer key agrees
with closed forms, the checker rejects wrong outputs, and the negative
controls come back as FAIL.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import math
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import answers  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        for workload in workloads.WORKLOADS:
            first, second = workloads.build(workload, 7), workloads.build(workload, 7)
            self.assertEqual(first["digest"], second["digest"])
            self.assertEqual(first, second)

    def test_seed_changes_the_random_inputs(self):
        for workload in workloads.WORKLOADS:
            digests = {workloads.build(workload, seed)["digest"] for seed in (1, 2)}
            self.assertEqual(len(digests), 2, workload)

    def test_random_dags_stay_in_their_windows(self):
        plan = workloads.build("groebner", 3)
        lo, hi = workloads.GROEBNER_RANDOM["generators"]
        randoms = [r for r in plan["requests"] if "random" in r["id"]]
        self.assertEqual(len(randoms), workloads.GROEBNER_RANDOM["count"])
        for request in randoms:
            generators = (1 + math.isqrt(1 + 8 * request["expect"]["total"])) // 2
            self.assertTrue(lo <= generators <= hi, request["id"])

    def test_every_request_sees_only_plan_files(self):
        for workload in workloads.WORKLOADS:
            plan = workloads.build(workload, 0)
            for request in plan["requests"]:
                argv = request.get("argv", [])
                paths = [argv[i + 1] for i, a in enumerate(argv) if a in ("--dag", "--theta", "--poly")]
                for path in paths:
                    self.assertIn(path, plan["files"])


class AnswerKey(unittest.TestCase):
    def test_chain_and_antichain_closed_forms(self):
        for n, k in ((1, 2), (4, 3), (6, 2), (5, 4)):
            chain = workloads.chain_edges(n)
            self.assertEqual(len(answers.states(n, k, chain)), answers.chain_states(n, k))
            self.assertEqual(len(answers.box_states(n, k, chain)), answers.chain_states(n, k))
            self.assertEqual(len(answers.states(n, k, [])), k**n)

    def test_published_generator_counts(self):
        self.assertEqual(answers.incomparable_count(answers.box_states(5, 2, [])), 285)
        n, _, edges = workloads.FIG2
        self.assertEqual(answers.incomparable_count(answers.states(n, 3, edges)), 263)

    def test_incomparable_pairs_of_an_antichain(self):
        # Subsets of an n-set: C(2**n, 2) pairs, 3**n - 2**n of them nested.
        for n in range(1, 6):
            pairs = answers.incomparable_pairs(answers.box_states(n, 2, []))
            self.assertEqual(len(pairs), math.comb(2**n, 2) - (3**n - 2**n))
            for g, h in pairs:
                self.assertNotIn(answers.join(g, h), (g, h))

    def test_enumeration_matches_the_box_filter(self):
        rng = random.Random(0)
        for _ in range(20):
            n, k = rng.randint(1, 6), rng.randint(1, 3)
            edges = workloads.random_dag(rng, n)
            self.assertEqual(answers.states(n, k, edges), answers.box_states(n, k, edges))

    def test_relabelled_ladder_keeps_its_lattice_size(self):
        rng = random.Random(1)
        base = answers.states(12, 2, workloads.ladder_edges(12))
        edges = workloads.linear_extension_labels(rng, 12, workloads.ladder_edges(12))
        self.assertTrue(all(u < v for u, v in edges))
        self.assertEqual(len(answers.states(12, 2, edges)), len(base))

    def test_distribution_and_cumulative_agree(self):
        rng = random.Random(2)
        for _ in range(5):
            n, k = rng.randint(2, 5), rng.randint(2, 3)
            edges = workloads.random_dag(rng, n)
            lattice = answers.states(n, k, edges)
            theta = answers.random_theta(rng, n, k)
            dist = answers.distribution(n, edges, theta)
            self.assertEqual(set(dist), set(lattice))
            self.assertEqual(sum(dist.values()), 1)
            zeta = answers.cumulative(lattice, theta)
            self.assertEqual(zeta[lattice[-1]], 1)
            for g in lattice:
                below = sum(p for h, p in dist.items() if all(a <= b for a, b in zip(h, g)))
                self.assertEqual(zeta[g], below)

    def test_suite_totals(self):
        sizes = {"n": 5, "k": 2, "states": 10, "generators": 13, "ideals": 10}
        self.assertEqual(answers.suite_total("groebner", trials=0, **sizes), 78)
        self.assertEqual(answers.suite_total("oracle", trials=3, **sizes), 96)
        self.assertEqual(answers.suite_total("theorem31", trials=2, **sizes), 30)
        self.assertEqual(answers.suite_total("eq5", trials=1, **sizes), 20)
        self.assertEqual(answers.suite_total("moebius", trials=4, **sizes), 8)


class Checker(unittest.TestCase):
    def test_verify_verdicts(self):
        expect = workloads.verify_expect("groebner", True, 10, 0)
        good = {"suite": "groebner", "passed": True, "total": 10, "failures": [], "detail": ""}
        self.assertIsNone(checks.check(expect, 0, json.dumps(good)))
        self.assertIsNotNone(checks.check(expect, 1, json.dumps(good)))
        self.assertIsNotNone(checks.check(expect, 0, json.dumps({**good, "total": 9})))
        self.assertIsNotNone(checks.check(expect, 0, json.dumps({**good, "passed": False})))

    def test_state_lists(self):
        edges = [(1, 2)]
        expect = {"type": "states", "k": 2, "count": 3, "n": 2, "edges": edges}
        self.assertIsNone(checks.check(expect, 0, json.dumps(["00", "01", "11"])))
        self.assertIsNotNone(checks.check(expect, 0, json.dumps(["00", "10", "11"])))
        self.assertIsNotNone(checks.check(expect, 0, json.dumps(["00", "00", "11"])))
        ideals = {**expect, "type": "ideals"}
        self.assertIsNone(checks.check(ideals, 0, json.dumps(["00", "10", "11"])))

    def test_values(self):
        expect = {"type": "distribution", "values": {"0": "1/3", "1": "2/3"}}
        self.assertIsNone(checks.check(expect, 0, json.dumps({"0": "1/3", "1": "2/3"})))
        self.assertIsNotNone(checks.check(expect, 0, json.dumps({"0": "1/3", "1": "1/3"})))


class Counts(unittest.TestCase):
    def test_spair_counts_reproduce_the_baseline(self):
        from maxlin.algebra import hibi_generators
        from maxlin.dag import Dag, transitive_closure
        from maxlin.poset import order_preserving_maps

        def counts(n, k, edges):
            dag = Dag(n=n, k=k, edges=frozenset(edges))
            lattice = order_preserving_maps(transitive_closure(dag), k)
            return tracing.spair_counts(hibi_generators(lattice))

        n, _, edges = workloads.FIG2
        self.assertEqual(
            counts(n, 3, edges), {"algebra.spairs": 34453, "algebra.spairs_coprime": 30438}
        )
        self.assertEqual(counts(5, 2, [])["algebra.spairs"], 40470)

    def test_tail_percentile_leaves_ten_samples(self):
        for samples in (20, 30, 80, 1000):
            pct = run.tail_percentile(samples)
            values = list(range(samples))
            beyond = sum(1 for v in values if v > run.percentile(values, pct))
            self.assertGreaterEqual(beyond, 10)


class NegativeControls(unittest.TestCase):
    def test_controls_fail(self):
        plan = workloads.build("groebner", 0)
        controls = plan["controls"]
        self.assertEqual(len(controls), 3)
        directory = BENCH.parent / ".bench_run" / "selftest"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "fig2.dag").write_text(plan["files"]["fig2.dag"], encoding="utf-8")
        for request in controls:
            status, output = worker.call_control(request["control"], directory)
            self.assertEqual(status, 1, request["id"])
            self.assertFalse(json.loads(output)["passed"])
            self.assertIsNone(worker.judge(request, status, output))


if __name__ == "__main__":
    unittest.main()
