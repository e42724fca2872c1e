"""The command-line driver: emissions, verify suites, exit codes,
determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin import data
from maxlin.algebra import generator_json, hibi_generators
from maxlin.cli import VERIFY_SUITES, build_parser, main, run
from maxlin.dag import parse_dag, transitive_closure
from maxlin.errors import QUOTE_CAP, quote
from maxlin.poset import ideal_lattice, order_preserving_maps, state_digits
from maxlin.report import Report

from conftest import (
    RELABELLED,
    binomial_of_pair,
    brute_force_ideals,
    brute_force_states,
    dags,
    fractions_built,
    joint_edited_at,
    joint_factored,
    lattice_meet_join,
    random_dag,
    random_table,
    replace_joint,
    state_leq,
    strict_pairs,
)


@pytest.fixture()
def fig_files(tmp_path):
    paths = {}
    for name in ("fig1.poset", "fig2.dag", "fig3.dag"):
        target = tmp_path / name
        target.write_text(data.read(name), encoding="utf-8")
        paths[name] = str(target)
    theta = tmp_path / "theta2.json"
    theta.write_text(json.dumps({"theta": [["1/2", "1/2"]] * 5}), encoding="utf-8")
    paths["theta2"] = str(theta)
    theta3 = tmp_path / "theta3.json"
    theta3.write_text(
        json.dumps({"theta": [["1/6", "1/3", "1/2"]] * 3}), encoding="utf-8"
    )
    paths["theta3"] = str(theta3)
    return paths


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG2_STATES = [
    "00000", "00001", "00011", "00101", "00111",
    "01011", "01111", "10111", "11111",
]

FIG2_IDEALS = [
    "00000", "01000", "10000", "10100", "11000",
    "11010", "11100", "11110", "11111",
]


class TestEmissions:
    def test_lattice_text(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys, ["lattice", "--dag", fig_files["fig2.dag"], "--format", "text"]
        )
        assert code == 0
        assert out.splitlines() == FIG2_STATES

    def test_lattice_json(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["lattice", "--dag", fig_files["fig2.dag"]])
        assert code == 0
        assert json.loads(out) == FIG2_STATES

    def test_lattice_of_long_chain(self, capsys, tmp_path):
        """The enumeration is iterative: a chain longer than Python's
        recursion limit still prints every state."""
        dag = tmp_path / "chain1200.dag"
        dag.write_text("1200 2\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1200)))
        code, out, _ = run_main(capsys, ["lattice", "--dag", str(dag), "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1201
        assert lines[0] == "0" * 1200 and lines[-1] == "1" * 1200

    def test_distribution_of_long_chain(self, capsys, tmp_path):
        """The factored joint is one iterative walk: a 2,000-vertex chain
        with k=1 prints its single state."""
        dag = tmp_path / "chain2000.dag"
        dag.write_text("2000 1\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 2000)))
        theta = tmp_path / "theta2000.json"
        theta.write_text(json.dumps({"theta": [["1"]] * 2000}), encoding="utf-8")
        argv = ["distribution", "--dag", str(dag), "--theta", str(theta), "--format", "text"]
        assert run_main(capsys, argv) == (0, "p" + "0" * 2000 + " = 1\n", "")

    def test_ideals(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["ideals", "--dag", fig_files["fig2.dag"]])
        assert code == 0
        assert json.loads(out) == FIG2_IDEALS

    def test_k_override(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys, ["lattice", "--dag", fig_files["fig3.dag"], "--k", "2"]
        )
        assert code == 0
        assert json.loads(out) == ["000", "001", "010", "011", "111"]

    def test_distribution(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "distribution",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
            ],
        )
        assert code == 0
        values = json.loads(out)
        assert values["11111"] == "1/4"
        assert values["00000"] == "1/32"
        assert list(values) == FIG2_STATES

    def test_zeta(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            ["zeta", "--dag", fig_files["fig2.dag"], "--theta", fig_files["theta2"]],
        )
        assert code == 0
        values = json.loads(out)
        assert values["11111"] == "1"
        assert values["00000"] == "1/32"

    def test_zeta_and_moebius_of_long_chain(self, capsys, tmp_path):
        """The transforms walk the lattice once per coordinate, so a 50-chain
        with k=3 (1,326 states) stays cheap for zeta and the moebius suite."""
        dag = tmp_path / "chain50.dag"
        dag.write_text("50 3\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 50)))
        theta = tmp_path / "theta50.json"
        theta.write_text(json.dumps({"theta": [["1/6", "1/3", "1/2"]] * 50}))
        code, out, _ = run_main(capsys, ["zeta", "--dag", str(dag), "--theta", str(theta)])
        assert code == 0
        values = json.loads(out)
        assert len(values) == 1326
        assert values["2" * 50] == "1"
        code, out, _ = run_main(
            capsys, ["verify", "moebius", "--dag", str(dag), "--trials", "2"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["total"] == 4

    def test_generators_text(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            ["generators", "--dag", fig_files["fig2.dag"], "--format", "text"],
        )
        assert code == 0
        assert sorted(out.splitlines()) == [
            "q[00011]*q[00101] - q[00001]*q[00111]",
            "q[00101]*q[01011] - q[00001]*q[01111]",
            "q[00111]*q[01011] - q[00011]*q[01111]",
            "q[01011]*q[10111] - q[00011]*q[11111]",
            "q[01111]*q[10111] - q[00111]*q[11111]",
        ]

    def test_generators_of_ideals(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "generators",
                "--dag", fig_files["fig1.poset"],
                "--of", "ideals",
                "--format", "text",
            ],
        )
        assert code == 0
        assert sorted(out.splitlines()) == [
            "q[01000]*q[10000] - q[00000]*q[11000]",
            "q[11101]*q[11110] - q[11100]*q[11111]",
        ]

    def test_generators_json_shape(self, capsys, fig_files):
        code, out, _ = run_main(capsys, ["generators", "--dag", fig_files["fig3.dag"]])
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 21
        assert all(
            set(e) == {"pair", "meet", "join", "polynomial"} for e in entries
        )


def ladder_dag_text(n: int) -> str:
    """Two chains a_1 < ... < a_m and b_1 < ... < b_m (a_i = 2i-1, b_i = 2i,
    m = n/2) with rungs a_i < b_(i+1): a width-2 poset, as a 2-state DAG."""
    edges = []
    for i in range(1, n // 2):
        a, b, a2, b2 = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, a2), (b, b2), (a, b2)]
    return f"{n} 2\n" + "".join(f"{u} {v}\n" for u, v in edges)


def relabelled_chain_text(n: int) -> str:
    """A chain whose i-th vertex is labelled 11*i mod n + 1 (n coprime to
    11), so the labels are not a topological order, as a 2-state DAG."""
    labels = [11 * i % n + 1 for i in range(n)]
    return f"{n} 2\n" + "".join(f"{u} {v}\n" for u, v in zip(labels, labels[1:]))


class TestGeneratorsFromArrays:
    """`generators` renders the index arrays, one digit string per state,
    against the generator objects dumped as before: the JSON of
    `to_json_dict` through json.dumps(..., indent=2), and `to_text` lines."""

    SOURCES = {
        "fig2": data.read("fig2.dag"),
        "fig3": data.read("fig3.dag"),
        "random6": "6 3\n1 3\n1 6\n2 6\n4 5\n5 2\n5 3\n5 6\n",
        "ladder20": ladder_dag_text(20),
        "chain30": relabelled_chain_text(30),
    }
    # every source with k = 1..4 on both lattices, but the state lattices of
    # ladder20 with k >= 3 (2,211 states or more) and chain30 with k = 4
    CASES = [
        (source, k, of)
        for source in SOURCES
        for k in (1, 2, 3, 4)
        for of in ("states", "ideals")
        if of == "ideals" or (source, k) not in {("ladder20", 3), ("ladder20", 4), ("chain30", 4)}
    ]

    @staticmethod
    def lattice(text: str, k: int, of: str):
        dag = dataclasses.replace(parse_dag(text), k=k)
        if of == "ideals":
            return ideal_lattice(transitive_closure(dag))
        return order_preserving_maps(transitive_closure(dag), k)

    @pytest.mark.parametrize("source, k, of", CASES)
    def test_same_as_objects(self, capsys, tmp_path, source, k, of):
        text = self.SOURCES[source]
        path = tmp_path / f"{source}.dag"
        path.write_text(text, encoding="utf-8")
        generators = hibi_generators(self.lattice(text, k, of))
        argv = ["generators", "--dag", str(path), "--k", str(k), "--of", of]
        code, out, err = run_main(capsys, [*argv, "--format", "json"])
        expected = json.dumps([g.to_json_dict() for g in generators], indent=2)
        assert (code, out, err) == (0, expected + "\n", "")
        code, out, err = run_main(capsys, [*argv, "--format", "text"])
        expected = "\n".join(g.to_text() for g in generators)
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("of", ["states", "ideals"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_no_objects_and_one_rendering_per_state(self, capsys, tmp_path, monkeypatch, of, fmt):
        import maxlin.algebra as algebra
        import maxlin.cli as cli

        path = tmp_path / "ladder20.dag"
        path.write_text(ladder_dag_text(20), encoding="utf-8")
        states = len(self.lattice(ladder_dag_text(20), 2, of))
        built, rendered = [], []

        def post_init(gen):
            built.append(gen)

        def counted(state):
            rendered.append(state)
            return state_digits(state)

        monkeypatch.setattr(algebra.BinomialGenerator, "__post_init__", post_init)
        monkeypatch.setattr(algebra, "state_digits", counted)
        monkeypatch.setattr(cli, "state_digits", counted)
        code, out, _ = run_main(
            capsys, ["generators", "--dag", str(path), "--of", of, "--format", fmt]
        )
        assert code == 0 and out.count(" - ") > states  # more generators than states
        assert built == []
        assert len(rendered) <= states, len(rendered)


class TestGeneratorsPrinter:
    """`generators` prints what json.dumps(..., indent=2) and a newline join
    print for generators formed apart from the package's lattice: every pair
    (g, h) of brute-force states, g first, with neither below the other, its
    meet and join the coordinate-wise min and max, digits by `str`. The
    two-state lattice of a chain has none."""

    SOURCES = {
        "fig1": data.read("fig1.poset"),
        "fig2": data.read("fig2.dag"),
        "fig3": data.read("fig3.dag"),
        "chain4": "4 2\n1 2\n2 3\n3 4\n",
    }

    @staticmethod
    def expected(states):
        digits = ["".join(map(str, g)) for g in states]
        out = []
        for i, g in enumerate(states):
            for j in range(i + 1, len(states)):
                h = states[j]
                if not all(map(int.__le__, g, h)):
                    meet, join = lattice_meet_join(g, h)
                    out.append(generator_json(digits[i], digits[j], "".join(map(str, meet)), "".join(map(str, join))))
        return json.dumps(out, indent=2) + "\n", "".join(d["polynomial"] + "\n" for d in out) or "\n"

    @pytest.mark.parametrize("of", ["states", "ideals"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("source", list(SOURCES))
    def test_independent_rendering(self, capsys, tmp_path, source, k, of):
        path = tmp_path / f"{source}.dag"
        path.write_text(self.SOURCES[source], encoding="utf-8")
        poset = transitive_closure(parse_dag(self.SOURCES[source]))
        states = brute_force_ideals(poset) if of == "ideals" else brute_force_states(poset, k)
        json_out, text_out = self.expected(states)
        argv = ["generators", "--dag", str(path), "--k", str(k), "--of", of]
        assert run_main(capsys, [*argv, "--format", "json"]) == (0, json_out, "")
        assert run_main(capsys, [*argv, "--format", "text"]) == (0, text_out, "")
        if source == "chain4" and (k == 2 or of == "ideals"):
            assert (json_out, text_out) == ("[]\n", "\n")


class TestStateRendering:
    """`lattice` and `ideals` print the walk's vectors as they come out, at
    every slot width, and never build a tuple per state."""

    def dag_file(self, tmp_path, poset, k) -> str:
        path = tmp_path / "poset.dag"
        edges = "".join(f"{a + 1} {b + 1}\n" for a, b in strict_pairs(poset))
        path.write_text(f"{len(poset.elements)} {k}\n{edges}", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("k", [1, 2, 8, 9, 10])
    @pytest.mark.parametrize("poset", RELABELLED)
    def test_output_is_the_brute_force_states(self, capsys, tmp_path, poset, k):
        dag = self.dag_file(tmp_path, poset, k)
        expected = {
            "lattice": [state_digits(g) for g in brute_force_states(poset, k)],
            "ideals": [state_digits(g) for g in brute_force_ideals(poset)],
        }
        for command, digits in expected.items():
            code, out, err = run_main(capsys, [command, "--dag", dag, "--format", "text"])
            assert (code, out, err) == (0, "\n".join(digits) + "\n", "")
            code, out, err = run_main(capsys, [command, "--dag", dag, "--format", "json"])
            assert (code, out, err) == (0, json.dumps(digits, indent=2) + "\n", "")

    @pytest.mark.parametrize("poset", RELABELLED)
    def test_two_digit_entries_name_the_first_such_state(self, capsys, tmp_path, poset):
        dag = self.dag_file(tmp_path, poset, 2)
        first = next(g for g in brute_force_states(poset, 11) if max(g) > 9)
        code, out, err = run_main(capsys, ["lattice", "--dag", dag, "--k", "11"])
        assert (code, out, err) == (2, "", f"error: state {first} has entries outside 0..9\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_entries_past_a_byte_name_the_first_two_digit_state(self, capsys, tmp_path, fmt):
        poset = RELABELLED[0]
        dag = self.dag_file(tmp_path, poset, 2)
        first = next(g for g in brute_force_states(poset, 300) if max(g) > 9)
        argv = ["lattice", "--dag", dag, "--k", "300", "--format", fmt]
        code, out, err = run_main(capsys, argv)
        assert (code, out, err) == (2, "", f"error: state {first} has entries outside 0..9\n")

    @staticmethod
    def per_state_rendering(states, fmt: str) -> str:
        """The stdout of one `state_digits` call per state, laid out by
        json.dumps(..., indent=2) or joined by newlines."""
        digits = [state_digits(g) for g in states]
        return (json.dumps(digits, indent=2) if fmt == "json" else "\n".join(digits)) + "\n"

    @staticmethod
    def dag_sources(fig_files, tmp_path) -> list[str]:
        """fig1's poset, fig2, fig3 and three random DAGs with scrambled labels."""
        rng = random.Random(83)
        paths = [fig_files[name] for name in ("fig1.poset", "fig2.dag", "fig3.dag")]
        for index in range(3):
            dag = random_dag(rng, max_n=4)
            path = tmp_path / f"random{index}.dag"
            edges = "".join(f"{u} {v}\n" for u, v in sorted(dag.edges))
            path.write_text(f"{dag.n} 2\n{edges}", encoding="utf-8")
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_one_join_is_the_per_state_rendering(self, capsys, tmp_path, fig_files, k, fmt):
        for path in self.dag_sources(fig_files, tmp_path):
            poset = transitive_closure(parse_dag(Path(path).read_text(encoding="utf-8")))
            expected = {
                "lattice": order_preserving_maps(poset, k).states,
                "ideals": ideal_lattice(poset).states,
            }
            for command, states in expected.items():
                argv = [command, "--dag", path, "--k", str(k), "--format", fmt]
                code, out, err = run_main(capsys, argv)
                assert (code, out, err) == (0, self.per_state_rendering(states, fmt), ""), argv

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_entries_past_nine_name_the_first_such_state(self, capsys, tmp_path, fig_files, fmt):
        """With k = 11 the first state with a two-digit entry is named; with
        k = 300 too, though later states have entries bytes() refuses."""
        one = tmp_path / "one.dag"
        one.write_text("1 2\n", encoding="utf-8")
        cases = [(path, 11) for path in self.dag_sources(fig_files, tmp_path)] + [(str(one), 300)]
        for path, k in cases:
            poset = transitive_closure(parse_dag(Path(path).read_text(encoding="utf-8")))
            first = next(g for g in order_preserving_maps(poset, k).states if max(g) > 9)
            argv = ["lattice", "--dag", path, "--k", str(k), "--format", fmt]
            code, out, err = run_main(capsys, argv)
            assert (code, out, err) == (2, "", f"error: state {first} has entries outside 0..9\n")

    def test_no_state_is_rendered_alone(self, capsys, fig_files, monkeypatch):
        import maxlin.algebra as algebra
        import maxlin.cli as cli

        def refuse(state):
            raise AssertionError(f"state {state} rendered on its own")

        monkeypatch.setattr(algebra, "state_digits", refuse)
        monkeypatch.setattr(cli, "state_digits", refuse)
        for k in (1, 2, 3, 9, 10):
            for command in ("lattice", "ideals"):
                for fmt in ("json", "text"):
                    argv = [command, "--dag", fig_files["fig2.dag"], "--k", str(k), "--format", fmt]
                    code, out, err = run_main(capsys, argv)
                    assert code == 0 and out.count("0") >= 5 and err == ""

    def test_lattice_and_ideals_build_no_state_tuples(self, capsys, tmp_path, monkeypatch):
        import maxlin.cli as cli

        built = []

        def keep(build):
            def wrapped(*args):
                built.append(build(*args))
                return built[-1]

            return wrapped

        monkeypatch.setattr(cli, "_state_lattice", keep(cli._state_lattice))
        monkeypatch.setattr(cli, "ideal_lattice", keep(cli.ideal_lattice))
        dag = self.dag_file(tmp_path, RELABELLED[2], 3)
        for command in ("lattice", "ideals"):
            assert run_main(capsys, [command, "--dag", dag])[0] == 0
        assert len(built) == 2
        assert all("states" not in lattice.__dict__ for lattice in built)


class TestContractOnRandomDags:
    """`lattice`, `ideals` and `generators` through `main` on random DAGs
    (n <= 5, scrambled labels, k <= 3, both formats) print the brute-force
    references: `brute_force_states`, `brute_force_ideals`, and
    `binomial_of_pair` of every incomparable pair of those states, the
    lexicographically smaller first; `verify vanishing` and `verify
    groebner` PASS with the README's totals, |G| and C(|G|, 2), |G| the
    number of those pairs."""

    @staticmethod
    def printed(items, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(items, indent=2) + "\n"
        return "".join(f"{item}\n" for item in items) or "\n"

    @staticmethod
    def incomparable(states) -> list:
        return [(g, h) for g, h in combinations(states, 2)
                if not (state_leq(g, h) or state_leq(h, g))]

    @classmethod
    def expected_generators(cls, states, fmt: str) -> str:
        gens = [binomial_of_pair(g, h) for g, h in cls.incomparable(states)]
        return cls.printed([gen.to_json_dict() if fmt == "json" else gen.to_text()
                            for gen in gens], fmt)

    @staticmethod
    def assert_passes(suite: str, total: int, fmt: str, *argv: str) -> None:
        """`verify suite` through `main` PASSes with `total` checks."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", suite, *argv, "--format", fmt])
        assert (code, err.getvalue()) == (0, ""), suite
        if fmt == "json":
            report = json.loads(out.getvalue())
            assert (report["passed"], report["total"], report["failures"]) == (True, total, [])
        else:
            assert out.getvalue().startswith(f"{suite}: PASS ({total} checks)\n")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.integers(1, 3), st.sampled_from(("json", "text")))
    def test_output_is_the_brute_force_reference(self, tmp_path_factory, dag, k, fmt):
        path = tmp_path_factory.mktemp("contract") / "random.dag"
        edges = "".join(f"{u} {v}\n" for u, v in sorted(dag.edges))
        path.write_text(f"{dag.n} {k}\n{edges}", encoding="utf-8")
        poset = transitive_closure(dag)
        states, ideals = brute_force_states(poset, k), brute_force_ideals(poset)
        expected = {
            ("lattice",): self.printed([state_digits(g) for g in states], fmt),
            ("ideals",): self.printed([state_digits(g) for g in ideals], fmt),
            ("generators",): self.expected_generators(states, fmt),
            ("generators", "--of", "ideals"): self.expected_generators(ideals, fmt),
        }
        for command, stdout in expected.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--dag", str(path), "--format", fmt])
            assert (code, out.getvalue(), err.getvalue()) == (0, stdout, ""), command
        count = len(self.incomparable(states))
        self.assert_passes("vanishing", count, fmt, "--dag", str(path))
        self.assert_passes("groebner", math.comb(count, 2), fmt, "--dag", str(path))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.integers(1, 4), st.sampled_from(("json", "text")),
           st.integers(0, 2**32))
    def test_joint_and_symbolic_suites_are_the_brute_force_reference(
        self, tmp_path_factory, dag, k, fmt, seed
    ):
        """`distribution` and `zeta` on a random rational table print
        `joint_factored` at each of the `brute_force_states`, and its sums
        over the states below each; `verify eq5` and `verify theorem31` PASS
        with (trials + 1) checks per state and per ideal."""
        directory = tmp_path_factory.mktemp("contract")
        dag = dataclasses.replace(dag, k=k)
        theta = random_table(dag.n, k, random.Random(seed))
        edges = "".join(f"{u} {v}\n" for u, v in sorted(dag.edges))
        (directory / "random.dag").write_text(f"{dag.n} {k}\n{edges}", encoding="utf-8")
        rows = [[str(v) for v in row] for row in theta.rows]
        (directory / "theta.json").write_text(json.dumps({"theta": rows}), encoding="utf-8")
        poset = transitive_closure(dag)
        states = brute_force_states(poset, k)
        joint = {g: joint_factored(dag, theta, g) for g in states}
        below = {g: sum(joint[h] for h in states if state_leq(h, g)) for g in states}
        for command, values in (("distribution", joint), ("zeta", below)):
            prefix = "p" if command == "distribution" else "q"
            printed = {state_digits(g): str(v) for g, v in values.items()}
            stdout = (json.dumps(printed, indent=2) if fmt == "json"
                      else "\n".join(f"{prefix}{g} = {v}" for g, v in printed.items()))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--dag", str(directory / "random.dag"), "--format", fmt,
                             "--theta", str(directory / "theta.json")])
            assert (code, out.getvalue(), err.getvalue()) == (0, stdout + "\n", ""), command
        trials = 2
        counts = {"eq5": len(states), "theorem31": len(brute_force_ideals(poset))}
        for suite, count in counts.items():
            self.assert_passes(suite, (trials + 1) * count, fmt, "--dag",
                               str(directory / "random.dag"), "--trials", str(trials),
                               "--seed", str(seed))


# (input, command, format) -> (bytes, sha-256) of stdout, taken from the
# coordinate-wise min/max meets and joins, the per-entry str() rendering of
# states and the prefix-by-prefix lattice enumeration; fig2 and chain30 run
# with --k 3. `verify oracle` runs 5 trials with seed 11 on fig2 and fig3 with
# the given --k, taken from the oracle that summed Fraction weights vector by
# vector and compared the two distributions on every vector of the box; a
# "-limit" source sets MAXLIN_ORACLE_LIMIT to that value, just below and at
# k**n, and the guard's exit leaves stdout empty. The `generators --of ideals`
# rows were taken from generator objects dumped by json.dumps(..., indent=2);
# the ideals of chain30 form a chain, so its generator set is empty.
PINNED_STDOUT = {
    ("chain30", "ideals", "json"): (
        1119, "aaffa4f03b9b68d94740cbc099b0ac7daad3cc1cd0abd91d29145d8817b52204"
    ),
    ("chain30", "ideals", "text"): (
        961, "49d271377a706ff83cb9b3e684b7c25f1c0ccebb5503eb6353262901f4cbd28c"
    ),
    ("chain30", "lattice", "json"): (
        17859, "23b4a9878b0db7b21f33a60ab88846bd360e8e992dfafe88837695509dcec2c3"
    ),
    ("chain30", "lattice", "text"): (
        15376, "7e34a1c02af2c8dabd64bcd959e5b7fc438fac66c8af248df59054e69fb761f8"
    ),
    ("fig1", "generators --of ideals", "json"): (
        321, "47bde0ff6d875aacb170d8f95fd11e36ae00cff891223ab0ab9a1140b3ec805d"
    ),
    ("fig1", "generators --of ideals", "text"): (
        76, "6556f90b2033884189ea20f89ebb23d855bd0c04374a1da356ebadafc96e4180"
    ),
    ("fig2", "generators --of ideals", "json"): (
        798, "814d6db32fcd9b0cb1cf71de49e0269c1e365a61a249864f1904287c19307a6b"
    ),
    ("fig2", "generators --of ideals", "text"): (
        190, "1a2cbfc4ad7a46617d5dfe34ced0e5b3b2d12ab03b1772b968e03b6b24c7fcf7"
    ),
    ("chain30", "generators --of ideals", "json"): (
        3, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"
    ),
    ("chain30", "generators --of ideals", "text"): (
        1, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"
    ),
    ("fig2", "generators", "json"): (
        41820, "2abd745a587ac294c6663901bd6c1206dd0f7a57a7c2a1f2a19181f1c069b199"
    ),
    ("fig2", "generators", "text"): (
        9994, "44042496369612638a674b2e8658b48bf112a5f52805def8c028883bdeab2bb7"
    ),
    ("fig2", "lattice", "json"): (
        443, "f28e26ee53cf94d105e691597fe2d4266d086722c7dbf7a1f6fcdc618510c643"
    ),
    ("fig2", "lattice", "text"): (
        240, "fc9721ae586f881f6fe82da04184dcb2fcee81fce166f58fb3d3878cb56220e7"
    ),
    ("ladder20", "generators", "json"): (
        199488, "0b7c1fe9c2113f953e52512d7d2f293e75fd23932ad65ff32dc7fbe0a3785a93"
    ),
    ("ladder20", "generators", "text"): (
        70070, "b40667027106645b5f051deefe68eb666e2d5436d9071b8f4e38d41e27f4db44"
    ),
    ("ladder20", "lattice", "json"): (
        1979, "cd9cead93fed5b721a8651152bed38059dd5ccaaab7d93140ea73bc93775a1f8"
    ),
    ("ladder20", "lattice", "text"): (
        1596, "8c2d051726635e4c65a2453a34af8201aa74dac1e7807f2df32a1ba6c1426b92"
    ),
    ("fig2-k2", "verify oracle", "json"): (
        130, "db7b102a4c9dd40787e17ebaf634aa435c3956a55c9dc1bcb4e0cdfd29e59c9e"
    ),
    ("fig2-k2", "verify oracle", "text"): (
        67, "a8c14d926c1602ef873d94e40a91cb185a2f1c0a49b50ce601f8339bbefc12e9"
    ),
    ("fig2", "verify oracle", "json"): (
        132, "6940229688d67b47d897daa6935595c0abc71ea307ef4b1e47c3160ab637cf3f"
    ),
    ("fig2", "verify oracle", "text"): (
        69, "9e6f509d62807134e4acdf9bc4215bbe407c268ae603939c6f59e9e0323fe90b"
    ),
    ("fig2-k4", "verify oracle", "json"): (
        133, "332c016c286d6bed8848cc8f859696ec2cae86ceed8ccf7e9b0abf1c117b52a8"
    ),
    ("fig2-k4", "verify oracle", "text"): (
        70, "4e9d2e847002b30f0cc0835b716d9413ffce7b33520bc8ec17faf40c433fee6c"
    ),
    ("fig3-k2", "verify oracle", "json"): (
        129, "b0891f364bad44c136a8bc6e9a7827a3d72173e3c5f84f26014a5418c674cb59"
    ),
    ("fig3-k2", "verify oracle", "text"): (
        66, "662a8be36a91c9c4c4203418abf7990dd10f38a64444aceb1bf7aa34d64fda17"
    ),
    ("fig3-k3", "verify oracle", "json"): (
        131, "6c22addba940361fa9bcdf407edbae55ec544076726f73e4274674e92a5df4fb"
    ),
    ("fig3-k3", "verify oracle", "text"): (
        68, "7db2dffe28a6f742a3679a53ae36d854ab69995e2c06198a9ed715ab8d2cbe6c"
    ),
    ("fig2-limit242", "verify oracle", "json"): (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("fig2-limit242", "verify oracle", "text"): (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    ("fig2-limit243", "verify oracle", "json"): (
        132, "6940229688d67b47d897daa6935595c0abc71ea307ef4b1e47c3160ab637cf3f"
    ),
    ("fig2-limit243", "verify oracle", "text"): (
        69, "9e6f509d62807134e4acdf9bc4215bbe407c268ae603939c6f59e9e0323fe90b"
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("case", list(PINNED_STDOUT), ids="-".join)
    def test_stdout_digest(self, capsys, fig_files, tmp_path, monkeypatch, case):
        source, command, fmt = case
        source, _, option = source.partition("-")
        status, k = 0, 3
        if option.startswith("k"):
            k = int(option[1:])
        elif option.startswith("limit"):
            # fig2 with k=3: 3**5 innovation vectors
            monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", option[5:])
            status = 0 if int(option[5:]) >= 3**5 else 2
        if source == "fig1":
            argv = ["--dag", fig_files["fig1.poset"], "--k", str(k)]
        elif source in ("fig2", "fig3"):
            argv = ["--dag", fig_files[f"{source}.dag"], "--k", str(k)]
        elif source == "chain30":
            dag = tmp_path / "chain30.dag"
            dag.write_text(relabelled_chain_text(30), encoding="utf-8")
            argv = ["--dag", str(dag), "--k", "3"]
        else:
            dag = tmp_path / "ladder20.dag"
            dag.write_text(ladder_dag_text(20), encoding="utf-8")
            argv = ["--dag", str(dag)]
        if command.startswith("verify "):
            argv += ["--trials", "5", "--seed", "11"]
        code, out, err = run_main(capsys, [*command.split(), *argv, "--format", fmt])
        assert code == status
        if status == 0:
            assert err == ""
        else:
            assert err.startswith("error: enumeration needs") and err.count("\n") == 1
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_STDOUT[case]


# The factored joint's commands on fig2 with k=3 and on a random DAG with
# n=6, k=3 whose labels are not a topological order; each theta has a zero
# weight and a point mass. The 60-chain with k=3 (1,891 states) runs only
# the verify suites.
JOINT_INPUTS = {
    "fig2": (
        None,
        [["1/6", "1/3", "1/2"], ["2/5", "0", "3/5"], ["1/7", "2/7", "4/7"],
         ["0", "0", "1"], ["3/10", "1/2", "1/5"]],
        "q[01122] - p[00000] - p[01122]\n"
        "p[12222]*q[22222] + p[10000]\n"
        "2*q[01122]*p[01122] - 3*q[00000]\n",
    ),
    "random6": (
        "6 3\n1 3\n1 6\n2 6\n4 5\n5 2\n5 3\n5 6\n",
        [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["5/9", "1/9", "1/3"],
         ["0", "1", "0"], ["2/7", "3/7", "2/7"], ["1/8", "3/8", "1/2"]],
        "q[012112] - p[000000] - p[011111]\n"
        "p[122122]*q[011111] + p[100000]\n"
        "2*q[222222]*p[012112] - 3*q[012112]\n",
    ),
    "chain60": (
        "60 3\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 60)),
        [["1/3", "1/3", "1/3"]] * 60,
        "",
    ),
}


def joint_argv(fig_files, directory, source: str, command: str) -> list[str]:
    dag_text, rows, poly_text = JOINT_INPUTS[source]
    if dag_text is None:
        dag_args = ["--dag", fig_files["fig2.dag"], "--k", "3"]
    else:
        (directory / f"{source}.dag").write_text(dag_text, encoding="utf-8")
        dag_args = ["--dag", str(directory / f"{source}.dag")]
    theta = directory / f"{source}.json"
    theta.write_text(json.dumps({"theta": rows}), encoding="utf-8")
    poly = directory / f"{source}.poly"
    poly.write_text(poly_text, encoding="utf-8")
    if command.startswith("verify "):
        return ["verify", command[7:], *dag_args, "--trials", "5", "--seed", "11"]
    argv = [command, *dag_args, "--theta", str(theta)]
    return argv + ["--poly", str(poly)] if command == "eval" else argv


# (input, command, format) -> (bytes, sha-256) of stdout, taken from the
# per-state products of the conditionals before the joint became one walk;
# the `verify moebius` pins and the 60-chain's were taken from the walks
# that probed g - e_i at every state, before the cover table, and on
# Fraction values throughout.
PINNED_JOINT_STDOUT = {
    ("fig2", "distribution", "json"): (
        682, "5f24143438b4dc2624510604e30cfd9176b1f18272139728cf9f2f4ccff13d7f"
    ),
    ("fig2", "distribution", "text"): (
        479, "52577bda73f955d6f1eba97228a317530a69f3f619ae232599f789978a7f1502"
    ),
    ("fig2", "zeta", "json"): (
        690, "acfe6a8ea0c7d60a198f4160caf61a31e0a85fe6b60fb2c5d9c38bbbb6b7f48b"
    ),
    ("fig2", "zeta", "text"): (
        487, "1838a4c7dc8340af228294a0916a7f91377ebd326a1ca5e98cad472b1f210055"
    ),
    ("fig2", "eval", "json"): (
        243, "976d250d2fe29b6a387dfc9fd9e98ccda2f332f2aa3c4987c6ce98c3670e8920"
    ),
    ("fig2", "eval", "text"): (
        111, "8a9f6c86a9f46b29ce0bcdfe8d6f1f0f45c6a70fc7fdf3f690751bbbbdcdd8c8"
    ),
    ("fig2", "verify oracle", "json"): (
        132, "6940229688d67b47d897daa6935595c0abc71ea307ef4b1e47c3160ab637cf3f"
    ),
    ("fig2", "verify oracle", "text"): (
        69, "9e6f509d62807134e4acdf9bc4215bbe407c268ae603939c6f59e9e0323fe90b"
    ),
    ("fig2", "verify eq5", "json"): (
        131, "163228ba249eb8afcfaec02e4210d2278dd3885865e5f2124a49f613fd4b1fed"
    ),
    ("fig2", "verify eq5", "text"): (
        68, "56c90868b98cb86513fadc694646373c589f7fadedf0c73aa728603aaddd9ca0"
    ),
    ("fig2", "verify theorem31", "json"): (
        144, "af15e319ef7ef00d7baa2b6b3bf3ca59446cbf80a9aad66fa13600bb6238a3d6"
    ),
    ("fig2", "verify theorem31", "text"): (
        81, "20d9894b060527f72b6504afebcb16b7700d36d35cde7feeb74e0d85ff7d4614"
    ),
    ("random6", "distribution", "json"): (
        1218, "1e75eded184db0340cedc4911e150866ca20503de4191203cf86f7d7ead9e2da"
    ),
    ("random6", "distribution", "text"): (
        875, "f7e790bbdae53a45c9b1745a5926592cff775e74cec136021b43d7ecf422cb13"
    ),
    ("random6", "zeta", "json"): (
        1212, "a31f650b01fc176ed9270e6b9095e25a4843a91ec5b8fa548799984a7fc1675c"
    ),
    ("random6", "zeta", "text"): (
        869, "560ac452991db01ef527b21fb0581bb22946a4c66a839071ffdff609e11d9b0c"
    ),
    ("random6", "eval", "json"): (
        258, "b6dc0d6fbeeed7e50f80eb68c31d481d07579cdd3b3d43d9e78e5bdd3dfdfb23"
    ),
    ("random6", "eval", "text"): (
        126, "8b55f585b5c4c360a9b5f212afbe85ca65f8a0aa74cb0d2100e792ca6e39114b"
    ),
    ("random6", "verify oracle", "json"): (
        132, "024fb3672abfe9a9baee877d5dbe2f40392641c9af2fbf431dfd2263e32ff757"
    ),
    ("random6", "verify oracle", "text"): (
        69, "0bf6d9dd431d941dfaa2e744715f1c46b85b096cf57602b06441c2a7ac7eaee2"
    ),
    ("random6", "verify eq5", "json"): (
        131, "90d1098661256d5b98fc7d23a68ddbcba684460c984948d0efc011c401ff8eb9"
    ),
    ("random6", "verify eq5", "text"): (
        68, "196f2c99ac113d43f09b9f568495d4d87548652a2db1efdb7b749edc027a24eb"
    ),
    ("random6", "verify theorem31", "json"): (
        145, "aa262fa94c4f476c3e1e1031a137aed95df3ea3e970dbbfe81e473b752032c1b"
    ),
    ("random6", "verify theorem31", "text"): (
        82, "08be2df2b938fda07fbad25c7dd5bdef42863cb20fca7bc72b2bcf3be62c5db1"
    ),
    ("fig2", "verify moebius", "json"): (
        121, "766b9129bcdc073197a39d14c2dc013cb9becbb2fe04c6428bb4ec6ef549808e"
    ),
    ("fig2", "verify moebius", "text"): (
        58, "23c383ced03353f8f7a94af8bc0234e62069a6e3959f4d8896e64aa4b3b3645d"
    ),
    ("random6", "verify moebius", "json"): (
        121, "766b9129bcdc073197a39d14c2dc013cb9becbb2fe04c6428bb4ec6ef549808e"
    ),
    ("random6", "verify moebius", "text"): (
        58, "23c383ced03353f8f7a94af8bc0234e62069a6e3959f4d8896e64aa4b3b3645d"
    ),
    ("chain60", "verify moebius", "json"): (
        121, "766b9129bcdc073197a39d14c2dc013cb9becbb2fe04c6428bb4ec6ef549808e"
    ),
    ("chain60", "verify moebius", "text"): (
        58, "23c383ced03353f8f7a94af8bc0234e62069a6e3959f4d8896e64aa4b3b3645d"
    ),
    ("chain60", "verify eq5", "json"): (
        135, "2e477bbeb16bae510a1c55b7ae4f004b52d59f5bbc6910cb8a89343d3163584e"
    ),
    ("chain60", "verify eq5", "text"): (
        72, "177531d3a2d26f7fe9bb166b53691916d2e47e7b6d6ff22dd46b96d7d2d72f8b"
    ),
}


class TestPinnedJointOutput:
    @pytest.mark.parametrize("case", list(PINNED_JOINT_STDOUT), ids="-".join)
    def test_stdout_digest(self, capsys, fig_files, tmp_path, case):
        source, command, fmt = case
        argv = joint_argv(fig_files, tmp_path, source, command)
        code, out, err = run_main(capsys, [*argv, "--format", fmt])
        assert (code, err) == (0, "")
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_JOINT_STDOUT[case]


# `verify groebner` on passing inputs: (total, detail) per (input, k), as
# the counting certificate printed them before the lead test replaced it.
# The detail's counts are |L|, sum down(m) and sum down(m)*up(m).
PINNED_GROEBNER = {
    ("fig2", 2): (10, "5 generators map to 0; standard/image monomials in degrees 1-3: "
                  "9/9, 40/40, 125/125"),
    ("fig2", 3): (34453, "263 generators map to 0; standard/image monomials in degrees 1-3: "
                  "40/40, 557/557, 4395/4395"),
    ("fig2", 4): (6053460, "3480 generators map to 0; standard/image monomials in degrees 1-3: "
                  "125/125, 4395/4395, 75664/75664"),
    ("fig2", 5): (328128153, "25618 generators map to 0; standard/image monomials in degrees "
                  "1-3: 315/315, 24152/24152, 815820/815820"),
    ("fig2", 6): (8777793753, "132498 generators map to 0; standard/image monomials in degrees "
                  "1-3: 686/686, 103143/103143, 6306184/6306184"),
    ("fig3", 3): (210, "21 generators map to 0; standard/image monomials in degrees 1-3: "
                  "14/14, 84/84, 330/330"),
    ("antichain5", 2): (40470, "285 generators map to 0; standard/image monomials in degrees "
                        "1-3: 32/32, 243/243, 1024/1024"),
    ("fig1-ideals", 2): (1, "2 generators map to 0; standard/image monomials in degrees 1-3: "
                         "8/8, 34/34, 104/104"),
}

GROEBNER_TEXT = "groebner: PASS (%d checks)\n  %s\n"
GROEBNER_JSON = """{
  "suite": "groebner",
  "passed": true,
  "total": %d,
  "failures": [],
  "detail": "%s"
}
"""


class TestPinnedGroebnerOutput:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", list(PINNED_GROEBNER), ids=lambda case: f"{case[0]}-k{case[1]}")
    def test_stdout(self, capsys, fig_files, tmp_path, fig1_poset, case, fmt):
        source, k = case
        dag = tmp_path / "input.dag"
        if source == "antichain5":
            dag.write_text("5 2\n", encoding="utf-8")
        elif source == "fig1-ideals":
            # the ideals of fig1 are the order-preserving 0-1 maps of its dual
            dag.write_text("5 2\n3 1\n3 2\n4 3\n5 3\n", encoding="utf-8")
            lattice = order_preserving_maps(transitive_closure(parse_dag(dag.read_text())), 2)
            assert lattice == ideal_lattice(fig1_poset)
        else:
            dag = fig_files[f"{source}.dag"]
        argv = ["verify", "groebner", "--dag", str(dag), "--k", str(k), "--format", fmt]
        template = GROEBNER_TEXT if fmt == "text" else GROEBNER_JSON
        assert run_main(capsys, argv) == (0, template % PINNED_GROEBNER[case], "")


class TestFractionsPerState:
    """`distribution` and `zeta` walk the joint on integer numerators over
    one denominator: they build one Fraction per printed state, besides the
    O(n*k) ones of reading the table. `eval` sums integer numerators too: it
    builds a few Fractions per line, one per term and one for its value."""

    @pytest.mark.parametrize("source", ["fig2", "random6", "chain60"])
    @pytest.mark.parametrize("command", ["distribution", "zeta"])
    def test_one_fraction_per_printed_state(
        self, capsys, fig_files, tmp_path, monkeypatch, source, command
    ):
        argv = joint_argv(fig_files, tmp_path, source, command)
        code, built = fractions_built(monkeypatch, lambda: main([*argv, "--format", "text"]))
        states = capsys.readouterr().out.splitlines()
        rows = JOINT_INPUTS[source][1]
        n, k = len(rows), len(rows[0])
        assert code == 0 and len(states) > n * k
        assert built <= len(states) + 4 * n * k, built

    def test_eval_binds_only_named_variables(self, capsys, fig_files, tmp_path, monkeypatch):
        """`eval` on the 60-chain with k=3 (1,891 states) builds no Fraction
        per state for the joint or its zeta coordinates, besides reading the
        table: it looks up only the two variables the polynomial names."""
        argv = joint_argv(fig_files, tmp_path, "chain60", "eval")
        with open(argv[-1], "w", encoding="utf-8") as poly:
            poly.write(f"q[{'2' * 60}] - p[{'0' * 60}]\n")
        code, built = fractions_built(monkeypatch, lambda: main([*argv, "--format", "text"]))
        value = 1 - Fraction(1, 3**60)  # q at the top is 1, p at the bottom 3**-60
        assert (code, capsys.readouterr().out) == (
            0, f"q[{'2' * 60}] - p[{'0' * 60}] = {value}\n"
        )
        lines, n, k = 1, 60, 3
        assert built <= 4 * lines + 4 * n * k, built

    def test_eval_of_the_pinned_fig2_lines(self, capsys, fig_files, tmp_path, monkeypatch):
        argv = joint_argv(fig_files, tmp_path, "fig2", "eval")
        code, built = fractions_built(monkeypatch, lambda: main([*argv, "--format", "text"]))
        lines = capsys.readouterr().out.splitlines()
        rows = JOINT_INPUTS["fig2"][1]
        n, k = len(rows), len(rows[0])
        assert code == 0 and len(lines) == 3
        assert built <= 4 * len(lines) + 4 * n * k, built


class TestVariablesPerState:
    """`verify groebner` and `verify vanishing` test each generator on the
    packed per-coordinate pieces of the monomial map, not on a monomial per
    state: on a pass they build no q-variable, and at most one x-variable
    per piece, n*k."""

    @pytest.mark.parametrize("suite", ["groebner", "vanishing"])
    def test_fig2_k4(self, capsys, fig_files, monkeypatch, suite):
        import maxlin.algebra as algebra

        built = {"q": 0, "x": 0}

        def counting(family, make):
            def counted(*args):
                built[family] += 1
                return make(*args)

            return counted

        monkeypatch.setattr(algebra, "q_var", counting("q", algebra.q_var))
        monkeypatch.setattr(algebra, "x_var", counting("x", algebra.x_var))
        argv = ["verify", suite, "--dag", fig_files["fig2.dag"], "--k", "4"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0 and json.loads(out)["passed"]
        n, k = 5, 4
        assert built["q"] == 0
        assert built["x"] <= n * k, built


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["vanishing", "theorem31", "oracle", "moebius", "eq5", "groebner"]
    )
    def test_suites_pass_on_fig2(self, capsys, fig_files, suite):
        code, out, _ = run_main(
            capsys,
            [
                "verify", suite,
                "--dag", fig_files["fig2.dag"],
                "--seed", "7",
                "--trials", "5",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["suite"] == suite

    def test_oracle_report_detail(self, capsys, fig_files):
        code, out, _ = run_main(
            capsys,
            [
                "verify", "oracle",
                "--dag", fig_files["fig2.dag"],
                "--seed", "7",
                "--trials", "50",
            ],
        )
        assert code == 0
        assert json.loads(out)["detail"] == "50/50 trials, 9 states each, exact match"

    def test_failing_suite_exits_nonzero(self, capsys, fig_files, monkeypatch):
        import maxlin.cli as cli

        monkeypatch.setattr(
            cli,
            "roundtrip_check",
            lambda lattice, trials, seed: Report(
                "moebius", total=1, failures=["trial 0: zeta then inverse"]
            ),
        )
        code, out, _ = run_main(
            capsys, ["verify", "moebius", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failures"] == ["trial 0: zeta then inverse"]

    def test_oracle_limit_env(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "4")
        code, _, err = run_main(
            capsys, ["verify", "oracle", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 2
        assert "guard" in err

    def test_oracle_limit_env_not_an_integer(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "abc")
        code, out, err = run_main(
            capsys, ["verify", "oracle", "--dag", fig_files["fig2.dag"]]
        )
        assert (code, out) == (2, "")
        assert err == "error: MAXLIN_ORACLE_LIMIT must be an integer, got 'abc'\n"

    def test_oracle_guard_trips_before_any_enumeration(self, capsys, tmp_path, monkeypatch):
        # 2**30 innovation vectors: no lattice is built before the guard trips
        import maxlin.model as model

        def no_lattice(*args):
            raise AssertionError("the state lattice was enumerated")

        monkeypatch.setattr(model, "order_preserving_maps", no_lattice)
        dag = tmp_path / "antichain30.dag"
        dag.write_text("30 2\n", encoding="utf-8")
        assert run_main(capsys, ["verify", "oracle", "--dag", str(dag)]) == (
            2,
            "",
            "error: enumeration needs 2**30 = 1073741824 innovation vectors but the"
            " guard is 10000000; MAXLIN_ORACLE_LIMIT sets the guard\n",
        )

    def test_groebner_certificate_at_scale(self, capsys, fig_files):
        # 125 states and 3,480 generators: S-pair reduction took seconds here
        code, out, _ = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"], "--k", "4"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["total"] == 6053460
        assert report["detail"] == (
            "3480 generators map to 0; standard/image monomials in degrees 1-3: "
            "125/125, 4395/4395, 75664/75664"
        )

    def test_groebner_fig2_k6(self, capsys, fig_files):
        """686 states and 132,498 generators pass under the default guard."""
        code, out, _ = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"], "--k", "6"]
        )
        assert code == 0
        assert json.loads(out)["detail"] == (
            "132498 generators map to 0; standard/image monomials in degrees 1-3: "
            "686/686, 103143/103143, 6306184/6306184"
        )

    @pytest.mark.parametrize(
        "suite, variable, limit, message",
        [
            (
                "oracle",
                "MAXLIN_ORACLE_LIMIT",
                "31",
                "enumeration needs 2**5 = 32 innovation vectors but the guard is 31",
            ),
            (
                "groebner",
                "MAXLIN_HILBERT_LIMIT",
                "80",
                "the Hilbert counts need 9**2 = 81 state pairs but the guard is 80",
            ),
        ],
    )
    def test_guard_names_its_variable(
        self, capsys, fig_files, monkeypatch, suite, variable, limit, message
    ):
        monkeypatch.setenv(variable, limit)
        argv = ["verify", suite, "--dag", fig_files["fig2.dag"], "--trials", "1"]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}; {variable} sets the guard\n"
        monkeypatch.setenv(variable, str(int(limit) + 1))
        assert run_main(capsys, argv)[0] == 0

    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    def test_trials_below_zero_are_refused(self, capsys, fig_files, suite):
        argv = ["verify", suite, "--dag", fig_files["fig2.dag"], "--trials"]
        with pytest.raises(SystemExit) as caught:
            main([*argv, "-1"])
        captured = capsys.readouterr()
        assert (caught.value.code, captured.out) == (2, "")
        assert "argument --trials: must be at least 0, got -1" in captured.err
        code, out, err = run_main(capsys, [*argv, "0"])
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_trials_not_an_integer_is_refused(self, capsys, fig_files):
        with pytest.raises(SystemExit) as caught:
            main(["verify", "oracle", "--dag", fig_files["fig2.dag"], "--trials", "2.5"])
        captured = capsys.readouterr()
        assert (caught.value.code, captured.out) == (2, "")
        assert "argument --trials: invalid int value: '2.5'" in captured.err

    def test_hilbert_guard_trips_before_any_generator(self, capsys, fig_files, monkeypatch):
        import maxlin.algebra as algebra
        import maxlin.cli as cli

        def no_generators(lattice):
            raise AssertionError("generators built before the guard")

        monkeypatch.setattr(algebra, "hibi_generators", no_generators)
        monkeypatch.setattr(algebra, "generator_arrays", no_generators)
        monkeypatch.setattr(cli, "generator_arrays", no_generators)
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "1")
        code, out, err = run_main(capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"]])
        assert (code, out) == (2, "")
        assert err == (
            "error: the Hilbert counts need 9**2 = 81 state pairs but the guard is 1;"
            " MAXLIN_HILBERT_LIMIT sets the guard\n"
        )

    @pytest.mark.parametrize(
        "argv, need",
        [
            (["generators"], "the generators need"),
            (["generators", "--of", "ideals"], "the generators need"),
            (["verify", "vanishing"], "the vanishing check needs"),
        ],
    )
    def test_pair_scan_guard_names_the_command(self, capsys, fig_files, monkeypatch, argv, need):
        """`generators` and `verify vanishing` scan the same |L|**2/2 state
        pairs as `verify groebner`, under the same guard, checked before any
        generator is built; the line names the command's own need."""
        import maxlin.cli as cli

        def no_generators(lattice):
            raise AssertionError("generators built before the guard")

        states = 9  # fig2's states with k=2, and its order ideals
        argv = [*argv, "--dag", fig_files["fig2.dag"]]
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", str(states**2))
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, "") and out
        monkeypatch.setattr(cli, "generator_arrays", no_generators)
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", str(states**2 - 1))
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {need} {states}**2 = {states**2} state pairs but the guard is"
            f" {states**2 - 1}; MAXLIN_HILBERT_LIMIT sets the guard\n"
        )

    def test_hilbert_limit_env_not_an_integer(self, capsys, fig_files, monkeypatch):
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "1e7")
        code, out, err = run_main(
            capsys, ["verify", "groebner", "--dag", fig_files["fig2.dag"]]
        )
        assert (code, out) == (2, "")
        assert err == "error: MAXLIN_HILBERT_LIMIT must be an integer, got '1e7'\n"


class TestBrokenWalk:
    """A deliberately broken factored joint, or a broken right-hand side of
    eq5, makes the suites that read it fail with failure lines."""

    @staticmethod
    def verify(capsys, fig_files, suite):
        argv = ["verify", suite, "--dag", fig_files["fig2.dag"], "--k", "3", "--trials", "3"]
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["passed"] is False and report["failures"]
        return report

    def test_theta_at_the_parents_maximum(self, capsys, fig_files, monkeypatch):
        import maxlin.model as model

        joint = model.full_distribution

        def theta_for_alpha(dag, theta, *args):
            broken = model.ParamTable(theta.rows)
            object.__setattr__(broken, "cumulative", theta.rows)
            return joint(dag, broken, *args)

        replace_joint(monkeypatch, theta_for_alpha)
        for suite in ("oracle", "eq5"):
            self.verify(capsys, fig_files, suite)

    @pytest.mark.parametrize("suite", ["oracle", "eq5"])
    def test_dropped_state(self, capsys, fig_files, monkeypatch, suite):
        replace_joint(monkeypatch, joint_edited_at((0, 1, 1, 2, 2), lambda value: Fraction(0)))
        report = self.verify(capsys, fig_files, suite)
        assert any("01122" in line for line in report["failures"])

    @pytest.mark.parametrize("suite", ["oracle", "eq5"])
    def test_one_prefix_product_too_many(self, capsys, fig_files, monkeypatch, suite):
        """The joint and eq5's right side share `model._level_products`.
        Broken in the model module alone, it breaks the joint only, and both
        the innovation oracle and eq5's right side, which the transforms
        module binds to the intact routine, catch it."""
        import maxlin.model as model
        import maxlin.transforms as transforms

        level_products = model._level_products

        def last_factor_from_the_state_before(rows, states, product):
            # each state past the first takes its last factor from the state
            # before it
            states = list(states)
            shifted = [(*g[:-1], h[-1]) for h, g in zip(states, states[1:])]
            return level_products(rows, states[:1] + shifted, product)

        assert transforms._level_products is model._level_products
        monkeypatch.setattr(model, "_level_products", last_factor_from_the_state_before)
        self.verify(capsys, fig_files, suite)

    def test_one_alpha_on_the_right_side_of_eq5(self, capsys, fig_files, monkeypatch):
        import maxlin.transforms as transforms

        products = transforms._level_products

        def corrupt(rows, states, product):
            rows = [list(row) for row in rows]
            rows[3][1] += 1
            return products(rows, states, product)

        monkeypatch.setattr(transforms, "_level_products", corrupt)
        report = self.verify(capsys, fig_files, "eq5")
        # exactly the states at level 1 of vertex 4 fail
        assert all(line.split()[-1][3] == "1" for line in report["failures"])


class TestEval:
    def test_sum_to_one_relation(self, capsys, fig_files, tmp_path):
        poly = tmp_path / "relations.poly"
        poly.write_text(
            "# the normalization relation\n"
            "p[00000]+p[00001]+p[00011]+p[00101]+p[00111]"
            "+p[01011]+p[01111]+p[10111]+p[11111] - 1\n",
            encoding="utf-8",
        )
        code, out, _ = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 0
        results = json.loads(out)
        assert len(results) == 1
        assert results[0]["value"] == "0"

    def test_bad_polynomial_exits_two(self, capsys, fig_files, tmp_path):
        poly = tmp_path / "bad.poly"
        poly.write_text("p[00000] +", encoding="utf-8")
        code, _, err = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 2
        assert "error" in err

    def test_off_lattice_vector_is_zero(self, capsys, fig_files, tmp_path):
        # 10000 has entries below k but is not monotone, so it has probability 0
        poly = tmp_path / "off.poly"
        poly.write_text("p[10000]\np[00000] + p[10000]\n", encoding="utf-8")
        code, out, _ = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 0
        assert [r["value"] for r in json.loads(out)] == ["0", "1/32"]

    @pytest.mark.parametrize("variable", ["p[1000]", "p[20000]"])
    def test_vector_outside_the_cube_exits_two(self, capsys, fig_files, tmp_path, variable):
        # wrong length, or an entry of at least k
        poly = tmp_path / "bad.poly"
        poly.write_text(variable, encoding="utf-8")
        code, out, err = run_main(
            capsys,
            [
                "eval",
                "--dag", fig_files["fig2.dag"],
                "--theta", fig_files["theta2"],
                "--poly", str(poly),
            ],
        )
        assert code == 2
        assert out == ""
        assert err == f"error: no value for variable {variable}\n"


    def test_names_the_first_unbound_variable_in_term_order(self, capsys, fig_files, tmp_path):
        # p[1000] cancels and comes back after p[20000], so it is named second
        poly = tmp_path / "bad.poly"
        poly.write_text("p[1000] + p[20000] - p[1000] + p[1000]\n", encoding="utf-8")
        argv = ["eval", "--dag", fig_files["fig2.dag"], "--theta", fig_files["theta2"]]
        code, out, err = run_main(capsys, argv + ["--poly", str(poly)])
        assert (code, out, err) == (2, "", "error: no value for variable p[20000]\n")

    def test_q_variables_take_the_zeta_coordinates(self, capsys, tmp_path):
        # on the 2-chain 1 -> 2 the states are 00, 01, 11, and q_g sums p
        # over the states below g
        dag = tmp_path / "chain2.dag"
        dag.write_text("2 2\n1 2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [["1/3", "2/3"], ["1/4", "3/4"]]}), encoding="utf-8")
        poly = tmp_path / "q.poly"
        poly.write_text(
            "q[11] - 1\nq[01] - p[00] - p[01]\nq[00]\n2*q[01]*p[11]\n", encoding="utf-8"
        )
        argv = ["eval", "--dag", str(dag), "--theta", str(theta), "--poly", str(poly)]
        code, out, err = run_main(capsys, argv + ["--format", "text"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "q[11] - 1 = 0",
            "q[01] - p[00] - p[01] = 0",
            "q[00] = 1/12",
            "2*q[01]*p[11] = 4/9",
        ]

    def test_off_lattice_q_variable_exits_two(self, capsys, tmp_path):
        dag = tmp_path / "chain2.dag"
        dag.write_text("2 2\n1 2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [["1/2", "1/2"]] * 2}), encoding="utf-8")
        poly = tmp_path / "q.poly"
        poly.write_text("q[10]\n", encoding="utf-8")
        argv = ["eval", "--dag", str(dag), "--theta", str(theta), "--poly", str(poly)]
        assert run_main(capsys, argv) == (2, "", "error: no value for variable q[10]\n")


    def test_repeated_variable_past_the_cap_fails_as_it_is_parsed(self, capsys, tmp_path):
        """10,000 copies of p[00]^1000 joined by "*" (110 KB) are one term
        whose summed exponent is past the cap: refused before any
        arithmetic, at once, rather than after seconds of multiplying."""
        dag = tmp_path / "chain2.dag"
        dag.write_text("2 2\n1 2\n", encoding="utf-8")
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"theta": [["1/3", "2/3"], ["1/4", "3/4"]]}), encoding="utf-8")
        line = "*".join(["p[00]^1000"] * 10_000)
        poly = tmp_path / "long.poly"
        poly.write_text(line + "\n", encoding="utf-8")
        argv = ["eval", "--dag", str(dag), "--theta", str(theta), "--poly", str(poly)]
        start = time.perf_counter()
        code, out, err = run_main(capsys, argv)
        elapsed = time.perf_counter() - start
        message = f"exponent 10000000 of p[00] exceeds the cap of 1000 in {quote(line)}"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(line) > 100_000 and elapsed < 1.0, elapsed


class TestBenchmarkAnswers:
    """Every request and negative control of the benchmark's workloads at
    one seed, on the files the workload writes: the requests run through
    `main` and the controls through the benchmark's `call_control`, each
    judged by the benchmark's own answer key and checker (read from bench/)."""

    # requests and controls per workload
    SIZES = {"groebner": (10, 3), "poset-scale": (15, 0), "verify-mix": (40, 0)}

    @pytest.mark.parametrize("workload", SIZES)
    def test_every_answer(self, workload, capsys, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import checks
        import worker
        import workloads

        plan = workloads.build(workload, 3)
        for name, text in plan["files"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert (len(plan["requests"]), len(plan["controls"])) == self.SIZES[workload]
        for request in plan["requests"]:
            code, out, err = run_main(capsys, request["argv"])
            assert checks.check(request["expect"], code, out) is None, request["id"]
            assert err == ""
        for control in plan["controls"]:
            code, out = worker.call_control(control["control"])
            assert checks.check(control["expect"], code, out) is None, control["id"]


class TestLongInputInErrors:
    """An error line quotes at most QUOTE_CAP characters of the input, and
    the length of what it cut."""

    LONG = 5_000_000

    def cut(self, text: str) -> str:
        return f"{text[:QUOTE_CAP]!r}... ({len(text)} characters)"

    def test_quote_keeps_text_up_to_the_cap(self):
        text = "x\u00e9\n" * QUOTE_CAP
        assert quote(text[:QUOTE_CAP]) == repr(text[:QUOTE_CAP])
        assert quote(text[: QUOTE_CAP + 1]) == self.cut(text[: QUOTE_CAP + 1])

    def test_theta_entry(self, tmp_path):
        entry = "x" * self.LONG
        theta = json.dumps({"theta": [[entry, "1"], ["1/2", "1/2"]]})
        code, out, err = distribution_on_a_two_chain(tmp_path, theta)
        message = f"bad rational {self.cut(entry)}: expected an integer, a/b or a decimal"
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) <= 300

    def test_dag_line(self, capsys, tmp_path):
        line = "1 2 " + "3" * self.LONG
        dag = tmp_path / "long.dag"
        dag.write_text(f"2 2\n{line}\n", encoding="utf-8")
        code, out, err = run_main(capsys, ["lattice", "--dag", str(dag)])
        expected = f"error: line 2: expected two integers, got {self.cut(line)}\n"
        assert (code, out, err) == (2, "", expected)
        assert len(err.encode()) <= 300

    def test_polynomial_identifier(self, capsys, fig_files, tmp_path):
        name = "a" * self.LONG
        poly = tmp_path / "long.poly"
        poly.write_text(name + "\n", encoding="utf-8")
        argv = ["eval", "--dag", fig_files["fig2.dag"], "--theta", fig_files["theta2"]]
        code, out, err = run_main(capsys, argv + ["--poly", str(poly)])
        cut = self.cut(name)
        assert (code, out, err) == (2, "", f"error: unknown variable family {cut} in {cut}\n")
        assert len(err.encode()) <= 300

    def test_variable_index(self, capsys, tmp_path):
        # a p-variable whose index is no state of the 2-chain is unbound
        variable = "p[" + "0" * 100_000 + "]"
        (tmp_path / "chain2.dag").write_text("2 2\n1 2\n", encoding="utf-8")
        theta = json.dumps({"theta": [["1/2", "1/2"]] * 2})
        (tmp_path / "theta.json").write_text(theta, encoding="utf-8")
        (tmp_path / "long.poly").write_text(variable + "\n", encoding="utf-8")
        argv = ["eval", "--dag", str(tmp_path / "chain2.dag")]
        argv += ["--theta", str(tmp_path / "theta.json"), "--poly", str(tmp_path / "long.poly")]
        code, out, err = run_main(capsys, argv)
        expected = f"error: no value for variable {self.cut(variable)}\n"
        assert (code, out, err) == (2, "", expected)
        assert len(err.encode()) < 300


class TestErrorsAndDeterminism:
    def test_cyclic_dag_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "cyclic.dag"
        bad.write_text("2 2\n1 2\n2 1\n", encoding="utf-8")
        code, _, err = run_main(capsys, ["lattice", "--dag", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, ["lattice", "--dag", str(tmp_path / "nope.dag")]
        )
        assert code == 2
        assert "error" in err

    def test_missing_theta_exits_two(self, capsys, fig_files):
        code, _, err = run_main(
            capsys, ["distribution", "--dag", fig_files["fig2.dag"]]
        )
        assert code == 2
        assert "--theta" in err

    @pytest.mark.parametrize("command", ["distribution", "zeta", "eval"])
    def test_missing_theta_exits_two_before_the_lattice(
        self, capsys, monkeypatch, fig_files, tmp_path, command
    ):
        """The three commands on the joint check --theta first, in one branch."""
        import maxlin.cli as cli

        def no_lattice(dag):
            raise AssertionError("the lattice was built before --theta was checked")

        monkeypatch.setattr(cli, "_state_lattice", no_lattice)
        argv = [command, "--dag", fig_files["fig2.dag"]]
        if command == "eval":
            argv += ["--poly", str(tmp_path / "unread.poly")]
        code, out, err = run_main(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: the {command} command needs --theta\n"

    @pytest.mark.parametrize("command", ["lattice", "distribution", "zeta"])
    def test_eleven_states_exits_two(self, capsys, fig_files, tmp_path, command):
        # state strings are one digit per vertex, so k >= 11 has no encoding
        theta = tmp_path / "theta11.json"
        theta.write_text(json.dumps({"theta": [["1/11"] * 11] * 3}), encoding="utf-8")
        argv = [command, "--dag", fig_files["fig3.dag"], "--k", "11"]
        if command != "lattice":
            argv += ["--theta", str(theta)]
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_identical_config_identical_output(self, capsys, fig_files):
        argv = [
            "verify", "eq5",
            "--dag", fig_files["fig3.dag"],
            "--seed", "3",
            "--trials", "4",
        ]
        code1, out1, _ = run_main(capsys, argv)
        code2, out2, _ = run_main(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_run_with_config_object(self, fig_files, capsys):
        """The namespace the parser returns is the configuration `run` takes."""
        args = build_parser().parse_args(
            ["lattice", "--dag", fig_files["fig2.dag"], "--format", "text"]
        )
        assert run(args) == 0
        assert capsys.readouterr().out.splitlines() == FIG2_STATES

    def test_main_parses_with_the_parser_built_at_import(self, fig_files, capsys, monkeypatch):
        import maxlin.cli as cli

        def no_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        argv = ["lattice", "--dag", fig_files["fig2.dag"], "--format", "text"]
        for _ in range(2):
            code, out, err = run_main(capsys, argv)
            assert (code, out.splitlines(), err) == (0, FIG2_STATES, "")


# The theta grammar: an integer, a/b or a plain decimal, in ASCII digits.
RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")

# ASCII digits and the characters Fraction() also takes, plus Arabic-Indic
# digits and the fullwidth digit one.
THETA_CHARS = "0129/.-+_ eE\u0661\u0662\uff11"

# Entries of a 2 x 2 table: 0, 1/2 and 1 spelled in and out of the grammar
# (Fraction() takes every spelling here but the last three), random text
# over THETA_CHARS, and JSON numbers.
THETA_ENTRIES = st.one_of(
    st.sampled_from(
        ["0", "1", "1/2", "0.5", "2/4", "-0", "+1/2", " 1/2", "1/2\n", "0_1/2", "1/0_2",
         "5e-1", "50E-2", "1.", ".5", "\u0661/\u0662", "1/\uff12", "1/2.0", "1 /2", "0x1"]
    ),
    st.text(THETA_CHARS, max_size=8),
    st.integers(-1, 2),
    st.floats(),
)


def distribution_on_a_two_chain(directory, theta_text: str) -> tuple[int, str, str]:
    """(status, stdout, stderr) of `distribution` on the 2-chain with k=2
    and the given theta file text."""
    dag, theta = directory / "chain2.dag", directory / "theta.json"
    dag.write_text("2 2\n1 2\n", encoding="utf-8")
    theta.write_text(theta_text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["distribution", "--dag", str(dag), "--theta", str(theta)])
    return code, out.getvalue(), err.getvalue()


def loads_or_one_error_line(code: int, out: str, err: str) -> bool:
    if code == 0:
        return err == "" and bool(json.loads(out))
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestThetaInput:
    @pytest.mark.parametrize(
        "rows",
        [
            [["\u0661/\u0662", "1_0/2_0"], ["+1/2", "0.5"]],
            [["1e-100000", "1"], ["1/2", "1/2"]],
            [["1e-4000000", "1"], ["1/2", "1/2"]],
            [[" 1/2", "1/2"], ["1/2", "1/2"]],
            [[1e-05, "1"], ["1/2", "1/2"]],
        ],
    )
    def test_outside_the_grammar_exits_two(self, tmp_path, rows):
        code, out, err = distribution_on_a_two_chain(tmp_path, json.dumps({"theta": rows}))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: bad rational .*: expected an integer, a/b or a decimal\n", err)

    def test_numbers_and_decimals_load(self, tmp_path):
        theta = json.dumps({"theta": [[0.25, "0.75"], ["-0/3", 1]]})
        code, out, err = distribution_on_a_two_chain(tmp_path, theta)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"00": "0", "01": "1/4", "11": "3/4"}

    def test_deeper_than_the_recursion_limit_exits_two(self, tmp_path):
        depth = 3000
        assert depth > sys.getrecursionlimit()
        theta = '{"theta": [' + "[" * depth + "]" * depth + "]}"
        code, out, err = distribution_on_a_two_chain(tmp_path, theta)
        assert (code, out) == (2, "")
        assert err == f"error: parameter file {tmp_path / 'theta.json'} nests too deeply\n"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.lists(st.lists(THETA_ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2),
            st.lists(st.lists(THETA_ENTRIES, max_size=3), max_size=3),
        )
    )
    def test_any_entries_load_or_exit_two(self, tmp_path_factory, rows):
        """Entries outside the grammar always exit 2; tables in it load or
        exit 2 on the table's own checks (row length, sign, sum)."""
        directory = tmp_path_factory.mktemp("theta")
        code, out, err = distribution_on_a_two_chain(directory, json.dumps({"theta": rows}))
        assert loads_or_one_error_line(code, out, err)
        if not all(RATIONAL.fullmatch(str(v)) for row in rows for v in row):
            assert code == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.text('{}[]",: theta0129/.-e\u0661', max_size=40))
    def test_any_text_loads_or_exits_two(self, tmp_path_factory, text):
        directory = tmp_path_factory.mktemp("theta")
        assert loads_or_one_error_line(*distribution_on_a_two_chain(directory, text))
