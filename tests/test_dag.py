"""DAG parsing, validation, reachability, and the closure poset."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin import data
from maxlin.dag import Dag, parse_dag, transitive_closure
from maxlin.errors import BadVertexError, CyclicGraphError, DagSyntaxError

from conftest import catalog_dags, checked_poset, covers_below, dags, random_dag, strict_pairs

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


def syntax_error(lineno: int, got: str) -> tuple:
    return DagSyntaxError, f"line {lineno}: expected two integers, got {got}"


def fig2_with(*edges) -> Dag:
    return Dag(n=5, k=2, edges=frozenset(edges))


# Each input's `Dag`, or its error class and message, as the parser before the
# one-regex line read gave them. int() refuses a string of more than 4,300
# digits, leading zeros included; str.splitlines() also ends a line at \v, \f,
# \r, \x1c-\x1e, \x85, \u2028 and \u2029, while str.split() splits at them
# and at \xa0, \u3000 and \x1f too.
PARSE_GOLDENS = [
    ("5\u30002\n1\u30003\n", fig2_with((1, 3))),
    ("5\xa02\n1 3\xa0\n", fig2_with((1, 3))),
    ("5 2\x0b1 3\n", fig2_with((1, 3))),
    ("5 2\n1\x0b3\n", syntax_error(2, "'1'")),
    ("5 2\x0c1 3\x0c", fig2_with((1, 3))),
    ("5 2\n1\x0c3\n", syntax_error(2, "'1'")),
    ("\t5\t2\t\n1\t\t3\n \t2 4\t \n", fig2_with((1, 3), (2, 4))),
    ("5 2\r\n1 3\r\n2 4\r\n", fig2_with((1, 3), (2, 4))),
    ("5 2\r1 3\r", fig2_with((1, 3))),
    ("5 2 # header\n1 3# edge\n#\n2 4 #\n", fig2_with((1, 3), (2, 4))),
    ("5 2\n1 # 3\n", syntax_error(2, "'1'")),
    ("5 2\n1#3\n", syntax_error(2, "'1'")),
    ("\n\n5 2\n\n   \n\t\n1 3\n\n", fig2_with((1, 3))),
    ("  \n", (DagSyntaxError, "empty input: missing 'n k' header line")),
    ("# only a comment\n", (DagSyntaxError, "empty input: missing 'n k' header line")),
    ("5 2\n1 " + "1" * 5000 + "\n", syntax_error(2, f"'1 {'1' * 78}'... (5002 characters)")),
    ("1" * 5000 + " 2\n", syntax_error(1, f"'{'1' * 80}'... (5002 characters)")),
    ("5 2\n1 " + "0" * 4299 + "3\n", fig2_with((1, 3))),
    ("5 2\n1 " + "0" * 4300 + "3\n", syntax_error(2, f"'1 {'0' * 78}'... (4303 characters)")),
    ("5 2\n-" + "0" * 4299 + "1 3\n", (BadVertexError, "edge endpoint -1 outside 1..5")),
    ("+1 2\n", syntax_error(1, "'+1 2'")),
    ("5 2\n+1 3\n", syntax_error(2, "'+1 3'")),
    ("1_0 2\n", syntax_error(1, "'1_0 2'")),
    ("5 2\n1_0 3\n", syntax_error(2, "'1_0 3'")),
    ("\u0662 \u0662\n", syntax_error(1, "'\u0662 \u0662'")),
    ("5 2\n1 \u0663\n", syntax_error(2, "'1 \u0663'")),
    ("5 2\n1 \u00b2\n", syntax_error(2, "'1 \u00b2'")),
    ("5 2\n\uff11 3\n", syntax_error(2, "'\uff11 3'")),
    ("5 2\n1\x1f3\n", fig2_with((1, 3))),
    ("5 2\n1\x853\n", syntax_error(2, "'1'")),
    ("5 2\n1 3\n1\t3\n", (DagSyntaxError, "line 3: duplicate edge 1 -> 3")),
    ("5 2\n1 3 4\n", syntax_error(2, "'1 3 4'")),
    ("5 2\n- 3\n", syntax_error(2, "'- 3'")),
    ("5 2\n1 -3\n", (BadVertexError, "edge endpoint -3 outside 1..5")),
    ("-1 2\n", (BadVertexError, "vertex count must be positive, got -1")),
    ("5 0\n", (DagSyntaxError, "state count must be >= 1, got 0")),
    ("5 2\n3 1\n1 3\n", (CyclicGraphError, "no topological order: cycle through vertices [1, 3]")),
    ("5 2\n0x1 3\n", syntax_error(2, "'0x1 3'")),
    ("5 2\n1 3 \x00\n", syntax_error(2, "'1 3 \\x00'")),
    ("5 2\n\x001 3\n", syntax_error(2, "'\\x001 3'")),
]


class TestParseGoldens:
    @pytest.mark.parametrize("text, expected", PARSE_GOLDENS)
    def test_same_dag_or_message(self, text, expected):
        if isinstance(expected, Dag):
            assert parse_dag(text) == expected
            return
        error, message = expected
        with pytest.raises(error) as info:
            parse_dag(text)
        assert type(info.value) is error and str(info.value) == message


class TestTopologicalOrder:
    def test_fig2(self):
        assert parse_dag(FIG2_TEXT).order == (1, 2, 3, 4, 5)

    def test_single(self):
        assert parse_dag("1 2\n").order == (1,)

    def test_edgeless_tie_break(self):
        assert Dag(n=3, k=2).order == (1, 2, 3)

    def test_scrambled_labels(self):
        dag = Dag(n=3, k=2, edges=frozenset({(3, 1), (3, 2)}))
        assert dag.order == (3, 1, 2)

    def test_edges_respect_order(self):
        rng = random.Random(5)
        for _ in range(40):
            dag = random_dag(rng)
            position = {v: i for i, v in enumerate(dag.order)}
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
        covers = [(a, b) for b in closure.elements for a in covers_below(closure, b)]
        assert covers == [(1, 2), (2, 3)]

    def test_poset_axioms_exhaustively(self):
        rng = random.Random(23)
        for _ in range(25):
            dag = random_dag(rng)
            closure = transitive_closure(dag)
            elements, relation = closure.elements, closure.relation
            for a in elements:
                assert (a, a) in relation
                for b in elements:
                    if a != b and (a, b) in relation:
                        assert (b, a) not in relation
                    for c in elements:
                        if (a, b) in relation and (b, c) in relation:
                            assert (a, c) in relation

    def test_strict_relation_matches_ancestors(self):
        """u < v in the closure iff a search up `dag.parents` from v reaches u."""
        for _, dag in catalog_dags(2):
            closure = transitive_closure(dag)
            relation = closure.relation
            for v in range(1, dag.n + 1):
                ancestors, stack = set(), [v]
                while stack:
                    for u in dag.parents(stack.pop()):
                        if u not in ancestors:
                            ancestors.add(u)
                            stack.append(u)
                below = {u for u in range(1, dag.n + 1) if u != v and (u, v) in relation}
                assert below == ancestors


def reference_down(dag: Dag) -> tuple[int, ...]:
    """The closure's down-set masks formed apart: each vertex's bit OR its
    parents' masks, in topological order."""
    down = [0] * dag.n
    for v in dag.order:
        down[v - 1] = 1 << v - 1
        for u in dag.parents(v):
            down[v - 1] |= down[u - 1]
    return tuple(down)


class TestClosurePoset:
    """`transitive_closure` builds its poset without an axiom check; the
    checking reference `checked_poset` accepts the same masks, formed apart,
    and its greedy picks find the same lower covers."""

    @staticmethod
    def assert_matches_validating(dag: Dag) -> None:
        closure = transitive_closure(dag)
        checked = checked_poset(tuple(range(1, dag.n + 1)), reference_down(dag))
        assert closure == checked
        assert closure.down == checked.down
        assert closure.lower_covers == checked.lower_covers

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dags())
    def test_random_dags(self, dag):
        self.assert_matches_validating(dag)

    def test_catalog_and_figures(self):
        for _, dag in catalog_dags(2):
            self.assert_matches_validating(dag)
        for name in ("fig1.poset", "fig2.dag", "fig3.dag"):
            self.assert_matches_validating(parse_dag(data.read(name)))

    @pytest.mark.parametrize("labelling", ["forward", "reverse", "random", "middle-out"])
    def test_relabelled_300_chains(self, labelling):
        n = 300
        labels = {
            "forward": list(range(1, n + 1)),
            "reverse": list(range(n, 0, -1)),
            "random": random.Random(300).sample(range(1, n + 1), n),
            "middle-out": sorted(range(1, n + 1), key=lambda x: (abs(2 * x - n), x)),
        }[labelling]
        self.assert_matches_validating(Dag(n=n, k=2, edges=frozenset(zip(labels, labels[1:]))))

    def test_three_complete_layers_of_160(self):
        layers = [range(1 + 160 * t, 161 + 160 * t) for t in range(3)]
        edges = {(u, v) for below, above in zip(layers, layers[1:]) for u in below for v in above}
        self.assert_matches_validating(Dag(n=480, k=2, edges=frozenset(edges)))
