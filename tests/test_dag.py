"""DAG parsing, validation, reachability, and the closure poset."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin.dag import Dag, parse_dag, topological_order, transitive_closure
from maxlin.errors import BadVertexError, CyclicGraphError, DagSyntaxError

from conftest import catalog_dags, dags, random_dag, strict_pairs

FIG2_TEXT = "5 2\n1 3\n1 4\n2 4\n3 5\n4 5"


def write_dag(dag: Dag) -> str:
    """The DAG file of a DAG, edges smallest-first."""
    return f"{dag.n} {dag.k}\n" + "".join(f"{u} {v}\n" for u, v in sorted(dag.edges))


class TestParse:
    def test_fig2(self):
        dag = parse_dag(FIG2_TEXT)
        assert (dag.n, dag.k) == (5, 2)
        assert len(dag.edges) == 5
        assert (1, 3) in dag.edges

    def test_single_vertex(self):
        dag = parse_dag("1 3\n")
        assert (dag.n, dag.k) == (1, 3)
        assert dag.edges == frozenset()

    def test_two_cycle_rejected(self):
        with pytest.raises(CyclicGraphError):
            parse_dag("2 2\n1 2\n2 1")

    def test_longer_cycle_rejected(self):
        with pytest.raises(CyclicGraphError):
            parse_dag("3 2\n1 2\n2 3\n3 1")

    def test_self_loop_rejected(self):
        with pytest.raises(CyclicGraphError):
            parse_dag("2 2\n1 1")

    def test_comments_and_whitespace(self):
        text = "# header\n  5 2  \n1 3 # edge\n\n1 4\n2 4\n3 5\n4 5\n"
        assert parse_dag(text) == parse_dag(FIG2_TEXT)

    @pytest.mark.parametrize("text", ["", "5\n", "5 2\n1\n", "5 2\n1 2 3\n", "a b\n"])
    def test_malformed(self, text):
        with pytest.raises(DagSyntaxError):
            parse_dag(text)

    def test_duplicate_edge(self):
        with pytest.raises(DagSyntaxError):
            parse_dag("2 2\n1 2\n1 2")

    def test_vertex_out_of_range(self):
        with pytest.raises(BadVertexError):
            parse_dag("2 2\n1 3")
        with pytest.raises(BadVertexError):
            parse_dag("2 2\n0 1")

    def test_bad_state_count(self):
        with pytest.raises(DagSyntaxError):
            parse_dag("2 0\n1 2")

    @pytest.mark.parametrize(
        "line", ["\u0662 \u0662", "1_0 2", "+1 2", "1 2.0", "0x1 2", "1 \u00b2"]
    )
    def test_only_ascii_integers(self, line):
        with pytest.raises(DagSyntaxError, match="expected two integers"):
            parse_dag(f"{line}\n")
        with pytest.raises(DagSyntaxError, match="line 2: expected two integers"):
            parse_dag(f"12 2\n{line}\n")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dags(), st.integers(1, 11))
    def test_write_parse_roundtrip(self, dag, k):
        dag = dataclasses.replace(dag, k=k)
        assert parse_dag(write_dag(dag)) == dag

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        dags(),
        st.lists(st.text(alphabet="0129-+_# \t\u0662\u00b2x", max_size=8), max_size=4),
    )
    def test_junk_lines_raise_only_input_errors(self, dag, junk):
        try:
            parse_dag(write_dag(dag) + "\n".join(junk))
        except (DagSyntaxError, BadVertexError, CyclicGraphError):
            pass

    def test_serialize_roundtrip(self):
        rng = random.Random(11)
        for _ in range(40):
            dag = random_dag(rng)
            assert parse_dag(write_dag(dag)) == dag


class TestTopologicalOrder:
    def test_fig2(self):
        assert topological_order(parse_dag(FIG2_TEXT)) == [1, 2, 3, 4, 5]

    def test_single(self):
        assert topological_order(parse_dag("1 2\n")) == [1]

    def test_edgeless_tie_break(self):
        assert topological_order(Dag(n=3, k=2)) == [1, 2, 3]

    def test_scrambled_labels(self):
        dag = Dag(n=3, k=2, edges=frozenset({(3, 1), (3, 2)}))
        assert topological_order(dag) == [3, 1, 2]

    def test_edges_respect_order(self):
        rng = random.Random(5)
        for _ in range(40):
            dag = random_dag(rng)
            position = {v: i for i, v in enumerate(topological_order(dag))}
            for u, v in dag.edges:
                assert position[u] < position[v]


class TestTransitiveClosure:
    def test_fig2_strict_pairs(self):
        closure = transitive_closure(parse_dag(FIG2_TEXT))
        assert set(strict_pairs(closure)) == {
            (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)
        }

    def test_fig3(self):
        closure = transitive_closure(parse_dag("3 3\n1 2\n1 3"))
        assert set(strict_pairs(closure)) == {(1, 2), (1, 3)}

    def test_edgeless_antichain(self):
        closure = transitive_closure(Dag(n=3, k=2))
        assert strict_pairs(closure) == []

    def test_transitive_edge_collapses(self):
        closure = transitive_closure(parse_dag("3 2\n1 2\n2 3\n1 3"))
        assert set(strict_pairs(closure)) == {(1, 2), (1, 3), (2, 3)}
        assert closure.covers() == [(1, 2), (2, 3)]

    def test_poset_axioms_exhaustively(self):
        rng = random.Random(23)
        for _ in range(25):
            dag = random_dag(rng)
            closure = transitive_closure(dag)
            elements = closure.elements
            for a in elements:
                assert closure.leq(a, a)
                for b in elements:
                    if a != b and closure.leq(a, b):
                        assert not closure.leq(b, a)
                    for c in elements:
                        if closure.leq(a, b) and closure.leq(b, c):
                            assert closure.leq(a, c)

    def test_strict_relation_matches_ancestors(self):
        """u < v in the closure iff a search up `dag.parents` from v reaches u."""
        for _, dag in catalog_dags(2):
            closure = transitive_closure(dag)
            for v in range(1, dag.n + 1):
                ancestors, stack = set(), [v]
                while stack:
                    for u in dag.parents(stack.pop()):
                        if u not in ancestors:
                            ancestors.add(u)
                            stack.append(u)
                below = {u for u in range(1, dag.n + 1) if u != v and closure.leq(u, v)}
                assert below == ancestors
