"""Seeded inputs, request lists and answer keys for the three workloads.

`build(workload, seed)` returns a plan: the input files to write (the package
sees only these), the requests to send, and for each request the verdict,
counts or values the benchmark expects. Nothing here imports maxlin; every
expectation comes from `answers`.

Why each workload exists, and which layer it stresses or bypasses, is in
README.md next to this file and in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import answers

WORKLOADS = ("groebner", "poset-scale", "verify-mix")

# Paper figures, embedded so that the inputs do not depend on package data.
FIG2 = (5, 2, [(1, 3), (1, 4), (2, 4), (3, 5), (4, 5)])
FIG3 = (3, 3, [(1, 2), (1, 3)])

# Random DAG windows: the seed picks the DAGs, the window bounds their size so
# that every seed asks for about the same work.
GROEBNER_RANDOM = {"count": 8, "n": 7, "k": 2, "generators": (98, 102)}
MIX_RANDOM = {"count": 2, "n": 6, "k": 3, "states": (100, 120)}

# Broken generator sets for fig2 with k=3, named by the generator's pair of
# states. Replacing a join by the lattice top always fails the Buchberger
# check (unless the join already is the top). Dropping one generator fails it
# except for these pairs, whose remaining set is still a Groebner basis of the
# smaller ideal. Both were found by checking every generator once.
DROP_STILL_GROEBNER = {
    ("00002", "11111"),
    ("00101", "02022"),
    ("00202", "01011"),
    ("00202", "02022"),
    ("00202", "11111"),
    ("00202", "12122"),
    ("01011", "20222"),
    ("02022", "10111"),
    ("02022", "10212"),
    ("02022", "20222"),
    ("02222", "10111"),
}


class Plan:
    """Input files plus requests; each request carries its expectation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, str] = {}
        self.requests: list[dict] = []
        self.controls: list[dict] = []
        self.windows: list[str] = []

    def dag_file(self, name: str, n: int, k: int, edges: list[answers.Edge]) -> str:
        lines = [f"{n} {k}"] + [f"{u} {v}" for u, v in edges]
        self.files[name] = "\n".join(lines) + "\n"
        return name

    def theta_file(self, name: str, theta) -> str:
        rows = [[answers.fraction_text(v) for v in row] for row in theta]
        self.files[name] = json.dumps({"theta": rows}) + "\n"
        return name

    def cli(self, argv: list[str], expect: dict) -> None:
        self.requests.append({"id": " ".join(argv), "argv": argv, "expect": expect})

    def control(self, spec: dict, expect: dict) -> None:
        label = f"control {spec['check']} {spec['mutate']} {spec['pair'][0]}/{spec['pair'][1]}"
        self.controls.append({"id": label, "control": spec, "expect": expect})

    def to_json(self) -> dict:
        digest = hashlib.sha256(
            json.dumps([self.files, self.requests, self.controls], sort_keys=True).encode()
        ).hexdigest()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "windows": self.windows,
            "digest": digest,
            "files": self.files,
            "requests": self.requests,
            "controls": self.controls,
            "warmup": WARMUP[self.workload],
        }


def verify_expect(suite: str, passed: bool, total: int, failures: int | None = None) -> dict:
    return {"type": "verify", "suite": suite, "passed": passed, "total": total, "failures": failures}


def relabel(rng: random.Random, n: int, edges: list[answers.Edge]) -> list[answers.Edge]:
    """Rename vertices by a seeded permutation and shuffle the edge lines."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(out)
    return out


def linear_extension_labels(rng: random.Random, n: int, edges: list[answers.Edge]) -> list[answers.Edge]:
    """Rename vertices along a seeded random linear extension, so that label
    order is a topological order, and shuffle the edge lines."""
    indegree = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        indegree[v] += 1
        children[u].append(v)
    ready = [v for v in range(1, n + 1) if indegree[v] == 0]
    label = [0] * (n + 1)
    for position in range(1, n + 1):
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = position
        for w in children[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    out = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def random_dag(rng: random.Random, n: int) -> list[answers.Edge]:
    density = rng.choice((0.2, 0.3, 0.4))
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < density]
    return relabel(rng, n, edges)


def chain_edges(n: int) -> list[answers.Edge]:
    return [(i, i + 1) for i in range(1, n)]


def ladder_edges(n: int) -> list[answers.Edge]:
    """Two chains a_1<...<a_m and b_1<...<b_m (a_i = 2i-1, b_i = 2i) with
    rungs a_i < b_{i+1}: a width-2 poset whose lattice grows like m**2."""
    m = n // 2
    edges = []
    for i in range(1, m):
        a, b, a2, b2 = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, a2), (b, b2), (a, b2)]
    return edges


# ---------------------------------------------------------------------------
# groebner


def build_groebner(plan: Plan) -> None:
    rng = plan.rng
    n, k, edges = FIG2
    fig2 = plan.dag_file("fig2.dag", n, k, edges)
    fig2_states = answers.states(n, 3, edges)
    fig2_gens = answers.incomparable_count(fig2_states)
    plan.cli(
        ["verify", "groebner", "--dag", fig2, "--k", "3"],
        verify_expect("groebner", True, math.comb(fig2_gens, 2), 0),
    )
    anti = plan.dag_file("antichain5.dag", 5, 2, [])
    anti_gens = answers.incomparable_count(answers.box_states(5, 2, []))
    plan.cli(
        ["verify", "groebner", "--dag", anti],
        verify_expect("groebner", True, math.comb(anti_gens, 2), 0),
    )

    pairs = answers.incomparable_pairs(fig2_states)
    top = fig2_states[-1]
    pair = digit_pair(rng.choice([p for p in pairs if answers.join(*p) != top]))
    spec = {"dag": fig2, "k": 3, "pair": pair, "mutate": "top-join"}
    plan.control(
        {**spec, "check": "groebner"},
        verify_expect("groebner", False, math.comb(fig2_gens, 2)),
    )
    plan.control({**spec, "check": "vanishing"}, verify_expect("vanishing", False, fig2_gens, 1))
    droppable = [p for p in pairs if digit_pair(p) not in DROP_STILL_GROEBNER]
    pair = digit_pair(rng.choice(droppable))
    plan.control(
        {"dag": fig2, "k": 3, "pair": pair, "mutate": "drop", "check": "groebner"},
        verify_expect("groebner", False, math.comb(fig2_gens - 1, 2)),
    )

    window = GROEBNER_RANDOM
    lo, hi = window["generators"]
    plan.windows.append(
        f"{window['count']} random DAGs, n={window['n']}, k={window['k']}, "
        f"{lo}-{hi} generators"
    )
    for index in range(window["count"]):
        while True:
            n = window["n"]
            edges = random_dag(rng, n)
            gens = answers.incomparable_count(answers.box_states(n, window["k"], edges))
            if lo <= gens <= hi:
                break
        name = plan.dag_file(f"random{index}.dag", n, 2, edges)
        plan.cli(
            ["verify", "groebner", "--dag", name],
            verify_expect("groebner", True, math.comb(gens, 2), 0),
        )


def digit_pair(pair) -> tuple[str, str]:
    return (answers.digits(pair[0]), answers.digits(pair[1]))


# ---------------------------------------------------------------------------
# poset-scale

CHAINS = (120, 130, 140, 150, 160)
CHAIN_K3 = 120
LADDERS = (30, 40)
THEOREM31_CHAINS = (20, 22)
THEOREM31_TRIALS = 2


def build_poset_scale(plan: Plan) -> None:
    rng = plan.rng
    plan.windows.append(
        f"chains n={CHAINS[0]}-{CHAINS[-1]} (k=2) and n={CHAIN_K3} (k=3), ladders "
        f"n={LADDERS[0]}-{LADDERS[-1]}, theorem31 chains n={THEOREM31_CHAINS[0]}-"
        f"{THEOREM31_CHAINS[-1]}; the seed relabels vertices only"
    )
    for n in CHAINS:
        edges = relabel(rng, n, chain_edges(n))
        name = plan.dag_file(f"chain{n}.dag", n, 2, edges)
        shape = {"n": n, "edges": edges}
        plan.cli(["lattice", "--dag", name], {"type": "states", "k": 2, "count": answers.chain_states(n, 2), **shape})
        plan.cli(["ideals", "--dag", name], {"type": "ideals", "count": n + 1, **shape})
    n = CHAIN_K3
    edges = relabel(rng, n, chain_edges(n))
    name = plan.dag_file(f"chain{n}k3.dag", n, 3, edges)
    plan.cli(
        ["lattice", "--dag", name],
        {"type": "states", "k": 3, "count": answers.chain_states(n, 3), "n": n, "edges": edges},
    )
    for n in LADDERS:
        edges = linear_extension_labels(rng, n, ladder_edges(n))
        name = plan.dag_file(f"ladder{n}.dag", n, 2, edges)
        count = answers.incomparable_count(answers.states(n, 2, edges))
        plan.cli(
            ["generators", "--dag", name],
            {"type": "generators", "k": 2, "count": count, "n": n, "edges": edges},
        )
    for n in THEOREM31_CHAINS:
        edges = relabel(rng, n, chain_edges(n))
        name = plan.dag_file(f"theorem31-chain{n}.dag", n, 2, edges)
        total = (THEOREM31_TRIALS + 1) * (n + 1)
        plan.cli(
            ["verify", "theorem31", "--dag", name, "--trials", str(THEOREM31_TRIALS), "--seed", str(plan.seed)],
            verify_expect("theorem31", True, total, 0),
        )


# ---------------------------------------------------------------------------
# verify-mix

# (suite, trials): trial counts keep each request near a second or less.
MIX_SUITES = (("oracle", 4), ("moebius", 3), ("eq5", 1), ("vanishing", 0), ("theorem31", 5))


def build_verify_mix(plan: Plan) -> None:
    rng = plan.rng
    inputs = [("fig2", *FIG2[::2], 3), ("fig2", *FIG2[::2], 4), ("fig3", *FIG3[::2], 3)]
    window = MIX_RANDOM
    lo, hi = window["states"]
    plan.windows.append(
        f"fig2 k=3,4; fig3; {window['count']} random DAGs, n={window['n']}, k={window['k']}, "
        f"{lo}-{hi} states"
    )
    for index in range(window["count"]):
        while True:
            n, k = window["n"], window["k"]
            edges = random_dag(rng, n)
            if lo <= len(answers.states(n, k, edges)) <= hi:
                break
        inputs.append((f"random{index}", n, edges, k))
    for base, n, edges, k in inputs:
        name = plan.dag_file(f"{base}-k{k}.dag", n, k, edges)
        states = answers.states(n, k, edges)
        sizes = {
            "n": n,
            "k": k,
            "states": len(states),
            "generators": answers.incomparable_count(states),
            "ideals": len(answers.states(n, 2, edges)),
        }
        for suite, trials in MIX_SUITES:
            argv = ["verify", suite, "--dag", name]
            if trials:
                argv += ["--trials", str(trials), "--seed", str(plan.seed)]
            total = answers.suite_total(suite, trials=trials, **sizes)
            plan.cli(argv, verify_expect(suite, True, total, 0))
        theta = answers.random_theta(rng, n, k)
        theta_name = plan.theta_file(f"{base}-k{k}.theta.json", theta)
        dist = answers.distribution(n, edges, theta)
        plan.cli(
            ["distribution", "--dag", name, "--theta", theta_name],
            {"type": "distribution", "values": text_values(dist)},
        )
        plan.cli(
            ["zeta", "--dag", name, "--theta", theta_name],
            {"type": "zeta", "values": text_values(answers.cumulative(states, theta))},
        )
        lines, values = eval_lines(rng, states, dist)
        poly_name = f"{base}-k{k}.poly"
        plan.files[poly_name] = "\n".join(lines) + "\n"
        plan.cli(
            ["eval", "--dag", name, "--theta", theta_name, "--poly", poly_name],
            {"type": "eval", "values": [answers.fraction_text(v) for v in values]},
        )


def text_values(values: dict) -> dict[str, str]:
    return {answers.digits(g): answers.fraction_text(v) for g, v in values.items()}


def eval_lines(rng: random.Random, states, dist) -> tuple[list[str], list]:
    """Polynomials in p with known values at the joint: total mass minus 1,
    two lattice binomials pulled back to p (both 0 on the model), and a
    product of two state probabilities plus a constant."""

    def p(g) -> str:
        return f"p[{answers.digits(g)}]"

    def below(g):
        return [h for h in states if all(a <= b for a, b in zip(h, g))]

    lines = [" + ".join(p(g) for g in states) + " - 1"]
    values = [0]
    pairs = sorted(
        answers.incomparable_pairs(states), key=lambda pair: len(below(answers.join(*pair)))
    )[:10]
    for g, h in rng.sample(pairs, min(2, len(pairs))):
        meet = tuple(min(a, b) for a, b in zip(g, h))
        terms = [f"{p(a)}*{p(b)}" for a in below(g) for b in below(h)]
        terms += [f"- {p(a)}*{p(b)}" for a in below(meet) for b in below(answers.join(g, h))]
        lines.append(" + ".join(terms).replace("+ -", "-"))
        values.append(0)
    g, h = rng.sample(states, 2)
    lines.append(f"3*{p(g)}*{p(h)} - 1/2")
    values.append(3 * dist.get(g, 0) * dist.get(h, 0) - Fraction(1, 2))
    return lines, values


# Each distinct command once on fig3, so lazy imports and first-call costs are
# paid in set-up rather than by the first timed request.
WARMUP = {
    "groebner": [["verify", "groebner", "--dag", "warmup.dag"]],
    "poset-scale": [
        ["lattice", "--dag", "warmup.dag"],
        ["ideals", "--dag", "warmup.dag"],
        ["generators", "--dag", "warmup.dag"],
        ["verify", "theorem31", "--dag", "warmup.dag", "--trials", "1"],
    ],
    "verify-mix": [
        ["verify", suite, "--dag", "warmup.dag", "--trials", "1"] for suite, _ in MIX_SUITES
    ]
    + [
        ["distribution", "--dag", "warmup.dag", "--theta", "warmup.theta.json"],
        ["zeta", "--dag", "warmup.dag", "--theta", "warmup.theta.json"],
    ],
}

BUILDERS = {
    "groebner": build_groebner,
    "poset-scale": build_poset_scale,
    "verify-mix": build_verify_mix,
}


def build(workload: str, seed: int) -> dict:
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    plan = Plan(workload, seed)
    BUILDERS[workload](plan)
    n, k, edges = FIG3
    plan.dag_file("warmup.dag", n, k, edges)
    plan.theta_file("warmup.theta.json", [[Fraction(1, k)] * k] * n)
    return plan.to_json()
