"""The max-of-parents model, its brute-force oracle, the accumulation model,
and the two-state correspondence between them."""

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxlin.model as model
from maxlin import data
from maxlin.algebra import state_digits
from maxlin.cli import main
from maxlin.dag import Dag, transitive_closure
from maxlin.errors import (
    BadStateError,
    BadVertexError,
    MaxlinError,
    TooLargeError,
)
from maxlin.model import (
    ParamTable,
    _Factors,
    cbn_correspondence_check,
    cbn_distribution,
    conditional_probability,
    full_distribution,
    integer_view,
    oracle_distribution,
    oracle_equivalence_check,
)
from maxlin.poset import StateLattice, ideal_lattice, order_preserving_maps

from conftest import (
    accumulation_by_state,
    alpha_for_theta_walk,
    cbn_conditional,
    catalog_dags,
    dags,
    eliminate_simplex,
    expanded_theorem31_failures,
    fractions_built,
    joint_by_state,
    joint_edited_at,
    joint_factored,
    poly_of,
    random_table,
    replace_joint,
    symbolic_table,
    table_from_rows,
    theta_var,
    uniform_table,
)


def tv(i, j):
    return poly_of(theta_var(i, j))


class TestParamTable:
    def test_row_must_sum_to_one(self):
        with pytest.raises(ValueError) as caught:
            ParamTable(((Fraction(1, 2), Fraction(1, 3)),))
        assert str(caught.value) == "row 1 sums to 5/6, not 1"
        with pytest.raises(ValueError) as caught:
            ParamTable(((),))
        assert str(caught.value) == "row 1 sums to 0, not 1"

    def test_row_must_be_nonnegative(self):
        with pytest.raises(ValueError) as caught:
            ParamTable(((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(-1, 2))))
        assert str(caught.value) == "row 2 has a negative weight"

    def test_rows_must_agree_on_k(self):
        with pytest.raises(ValueError) as caught:
            ParamTable(((Fraction(1),), (Fraction(1, 2), Fraction(1, 2))))
        assert str(caught.value) == "row 2 has 2 entries, expected 1"

    def test_cumulative_rows_are_the_partial_sums(self):
        # rational and integer rows end in their sum, symbolic rows in 1
        table = table_from_rows([[Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]])
        assert table.cumulative == ((Fraction(1, 6), Fraction(1, 2), 1),)
        assert ParamTable(((2, 0, 3),)).cumulative == ((2, 2, 5),)
        assert symbolic_table(1, 2).cumulative == ((tv(1, 0), 1),)

    def test_json_roundtrip(self):
        table = ParamTable.from_json_dict({"theta": [["1/2", "1/2"], ["1/4", "3/4"]]})
        assert table.rows[1][0] == Fraction(1, 4)
        data = {"theta": [[str(v) for v in row] for row in table.rows]}
        assert ParamTable.from_json_dict(data) == table

    def test_random_tables_are_valid_and_bounded(self):
        # the suites' draw is integer rows; the tests' rational table is the
        # same draw, each row over its sum
        for seed in range(50):
            table = ParamTable.random(4, 3, random.Random(seed))
            assert all(type(v) is int and 1 <= v <= 200 for row in table.rows for v in row)
            assert [row[-1] for row in table.cumulative] == [sum(row) for row in table.rows]
            rational = random_table(4, 3, random.Random(seed))
            for row, ints in zip(rational.rows, table.rows):
                assert sum(row) == 1
                assert all(v > 0 for v in row)
                assert all(v.denominator <= 1000 for v in row)
                assert [v * sum(ints) for v in row] == list(ints)

    def test_integer_rows_are_checked(self):
        # integer rows are a scaled table: nonnegative, with a positive sum
        with pytest.raises(ValueError) as caught:
            ParamTable(((-1, 3), (2, 2)))
        assert str(caught.value) == "row 1 has a negative weight"
        with pytest.raises(ValueError) as caught:
            ParamTable(((1, 2), (0, 0)))
        assert str(caught.value) == "row 2 sums to 0, not 1"
        with pytest.raises(ValueError) as caught:
            ParamTable(((3, 1), (2, -2)))
        assert str(caught.value) == "row 2 has a negative weight"
        # a row mixing ints and Fractions is a rational row
        with pytest.raises(ValueError) as caught:
            ParamTable(((1, Fraction(1, 2)),))
        assert str(caught.value) == "row 1 sums to 3/2, not 1"
        assert ParamTable(((0, 3), (2, 2))).cumulative == ((0, 3), (2, 4))

    def test_level_table(self):
        table = ParamTable.levels(2, 4)
        assert table.rows == ((1, 2, 4, 8),) * 2
        # alpha_{v,m} is the mask of the levels 0..m, ending in the row sum
        assert table.cumulative == ((1, 3, 7, 15),) * 2
        assert ParamTable.levels(3, 2).swapped().cumulative == ((2, 3),) * 3

    def test_symbolic_rows(self):
        table = symbolic_table(2, 3)
        assert table.rows[1][1] == tv(2, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_level_joint_multiplied_out_is_the_symbolic_joint(self, k):
        # a level mask stands for the sum of the weights at its levels, and
        # the mask of every level for the symbolic table's constant 1
        for _, dag in catalog_dags(k):
            factored = joint_by_state(dag, ParamTable.levels(dag.n, k), _Factors)
            symbolic = joint_by_state(dag, symbolic_table(dag.n, k))
            assert {g: level_product(f, k) for g, f in factored.items()} == symbolic

    def test_swapped(self):
        table = table_from_rows([[Fraction(1, 4), Fraction(3, 4)]])
        assert table.swapped().rows == ((Fraction(3, 4), Fraction(1, 4)),)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_swapped_is_the_validated_table_of_reversed_rows(self, k):
        """`swapped`'s rows, cumulative rows and the types of both are those
        of a table validated from the reversed rows, on integer, rational,
        mixed, level and symbolic tables."""
        rng = random.Random(k)
        mixed = ParamTable(((0,) * (k - 1) + (Fraction(1),), (1,) + (0,) * (k - 1)))
        tables = [
            ParamTable.random(3, k, rng),
            random_table(3, k, rng),
            mixed,
            ParamTable.levels(3, k),
            symbolic_table(3, k),
        ]
        for table in tables:
            swapped = table.swapped()
            fresh = ParamTable(tuple(tuple(reversed(row)) for row in table.rows))
            assert type(swapped) is ParamTable
            for got, want in ((swapped.rows, fresh.rows), (swapped.cumulative, fresh.cumulative)):
                assert got == want
                assert [list(map(type, row)) for row in got] == [
                    list(map(type, row)) for row in want
                ]


def level_product(factors, k: int):
    """A tuple of per-vertex level masks multiplied out over the symbolic
    table: the sum of the weights at its levels per vertex, the mask of all
    k levels being the constant 1."""
    return math.prod(
        (
            Fraction(1) if mask == (1 << k) - 1 else sum(tv(v, j) for j in range(k) if mask >> j & 1)
            for v, mask in enumerate(factors, 1)
        ),
        start=Fraction(1),
    )


class TestConditionalProbability:
    def test_source_above_floor_takes_own_weight(self, fig2_dag):
        theta = symbolic_table(5, 2)
        value = conditional_probability(fig2_dag, theta, 4, (0, 0, 0, 1, 1))
        assert value == tv(4, 1)

    def test_full_row_sum_is_one(self, fig2_dag):
        theta = symbolic_table(5, 2)
        value = conditional_probability(fig2_dag, theta, 5, (0, 0, 0, 1, 1))
        assert value == Fraction(1)

    def test_below_parent_maximum_is_zero(self, fig2_dag):
        theta = uniform_table(5, 2)
        assert conditional_probability(fig2_dag, theta, 5, (0, 0, 0, 1, 0)) == 0

    def test_partial_sum_at_parent_maximum(self):
        dag = Dag(n=2, k=3, edges=frozenset({(1, 2)}))
        theta = symbolic_table(2, 3)
        value = conditional_probability(dag, theta, 2, (1, 1))
        assert value == tv(2, 0) + tv(2, 1)

    def test_errors(self, fig2_dag):
        theta = uniform_table(5, 2)
        with pytest.raises(BadVertexError):
            conditional_probability(fig2_dag, theta, 6, (0, 0, 0, 0, 0))
        with pytest.raises(BadStateError):
            conditional_probability(fig2_dag, theta, 1, (0, 0, 0, 0, 2))
        with pytest.raises(ValueError):
            conditional_probability(fig2_dag, uniform_table(5, 3), 1, (0,) * 5)


class TestFactoredJoint:
    def test_symbolic_fig2_matches_published_monomials(self, fig2_dag):
        dist = joint_by_state(fig2_dag, symbolic_table(5, 2))
        expected = {
            (0, 0, 0, 0, 0): tv(1, 0) * tv(2, 0) * tv(3, 0) * tv(4, 0) * tv(5, 0),
            (0, 0, 0, 0, 1): tv(1, 0) * tv(2, 0) * tv(3, 0) * tv(4, 0) * tv(5, 1),
            (0, 0, 0, 1, 1): tv(1, 0) * tv(2, 0) * tv(3, 0) * tv(4, 1),
            (0, 0, 1, 0, 1): tv(1, 0) * tv(2, 0) * tv(3, 1) * tv(4, 0),
            (0, 0, 1, 1, 1): tv(1, 0) * tv(2, 0) * tv(3, 1) * tv(4, 1),
            (0, 1, 0, 1, 1): tv(1, 0) * tv(2, 1) * tv(3, 0),
            (0, 1, 1, 1, 1): tv(1, 0) * tv(2, 1) * tv(3, 1),
            (1, 0, 1, 1, 1): tv(1, 1) * tv(2, 0),
            (1, 1, 1, 1, 1): tv(1, 1) * tv(2, 1),
        }
        assert dist == expected

    def test_non_state_has_probability_zero(self, fig2_dag):
        theta = uniform_table(5, 2)
        assert joint_factored(fig2_dag, theta, (1, 0, 0, 0, 0)) == 0

    def test_distribution_sums_to_one(self):
        rng = random.Random(7)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                theta = random_table(dag.n, k, rng)
                dist = joint_by_state(dag, theta)
                assert sum(dist.values()) == 1

    def test_support_is_exactly_the_lattice(self):
        rng = random.Random(8)
        for _, dag in catalog_dags(2):
            lattice = order_preserving_maps(transitive_closure(dag), 2)
            theta = random_table(dag.n, 2, rng)
            for g in product(range(2), repeat=dag.n):
                value = joint_factored(dag, theta, g)
                assert (value > 0) == (g in lattice)

    def test_point_mass_theta(self, fig2_dag):
        theta = table_from_rows([[1, 0]] * 5)
        dist = joint_by_state(fig2_dag, theta)
        assert dist[(0, 0, 0, 0, 0)] == 1
        assert sum(dist.values()) == 1

    def test_single_vertex_distribution_is_theta(self):
        dag = Dag(n=1, k=3)
        theta = table_from_rows([[Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]])
        dist = joint_by_state(dag, theta)
        assert dist == {(0,): Fraction(1, 6), (1,): Fraction(1, 3), (2,): Fraction(1, 2)}


def sparse_table(n: int, k: int, rng: random.Random) -> ParamTable:
    """Rational rows with zero weights: each row is a point mass on a random
    level or has random zeros among its weights."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.4:
            row = [0] * k
            row[rng.randrange(k)] = 1
        else:
            nums = [rng.choice((0, rng.randint(1, 9))) for _ in range(k)]
            nums[rng.randrange(k)] += 1
            row = [Fraction(a, sum(nums)) for a in nums]
        rows.append(row)
    return table_from_rows(rows)


def tables(n: int, k: int, rng: random.Random) -> list[ParamTable]:
    return [random_table(n, k, rng), sparse_table(n, k, rng), symbolic_table(n, k)]


def assert_joint_is_the_factored_joint(dag: Dag, theta: ParamTable) -> None:
    """The joint on the state lattice is the per-state product of the
    checked conditionals, and so is the joint at every vector of the box,
    0 off the lattice."""
    expected = {g: joint_factored(dag, theta, g) for g in product(range(dag.k), repeat=dag.n)}
    box = StateLattice(dag.n, dag.k, tuple(expected))
    assert full_distribution(dag, theta, box) == list(expected.values())
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    assert full_distribution(dag, theta, lattice) == [expected[g] for g in lattice]


class TestFactoredWalk:
    """`full_distribution` against `joint_factored`."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_catalog(self, k):
        rng = random.Random(100 + k)
        for _, dag in catalog_dags(k):
            for theta in tables(dag.n, k, rng):
                assert_joint_is_the_factored_joint(dag, theta)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 4), st.integers(0, 2), st.integers(0, 2**32))
    def test_random_dags(self, dag, k, kind, seed):
        dag = dataclasses.replace(dag, k=k)
        theta = tables(dag.n, k, random.Random(seed))[kind]
        assert_joint_is_the_factored_joint(dag, theta)

    def test_products_per_walk_node(self, fig2_dag):
        # one product call per state, on its n conditionals in vertex order
        calls = []

        def counted(factors):
            calls.append(list(factors))
            return math.prod(calls[-1])

        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        theta = random_table(5, 2, random.Random(7))
        joint = full_distribution(fig2_dag, theta, lattice, counted)
        assert joint == full_distribution(fig2_dag, theta, lattice)
        assert calls == [
            [conditional_probability(fig2_dag, theta, v, g) for v in range(1, 6)] for g in lattice
        ]

    def test_long_chain_is_iterative(self):
        dag = Dag(n=2000, k=1, edges=frozenset((i, i + 1) for i in range(1, 2000)))
        lattice = StateLattice(2000, 1, ((0,) * 2000,))
        assert full_distribution(dag, uniform_table(2000, 1), lattice) == [1]

    def test_lattice_of_another_shape_is_refused(self, fig2_dag):
        theta = uniform_table(5, 2)
        for n, k in ((4, 2), (6, 2), (5, 3), (5, 1)):
            lattice = StateLattice(n, k, ((0,) * n,))
            with pytest.raises(ValueError, match=f"state lattice is {n}x{k}, graph needs 5x2"):
                full_distribution(fig2_dag, theta, lattice)


def reference_oracle(dag: Dag, theta: ParamTable) -> dict:
    """The oracle vector by vector: each vertex takes the max of the
    innovations of its ancestors and itself, found by following parents, and
    each innovation vector weighs the product of its n weights."""
    ancestry = {}
    for v in range(1, dag.n + 1):
        seen, stack = {v}, [v]
        while stack:
            for u in dag.parents(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        ancestry[v] = seen
    out = {}
    for z in product(range(dag.k), repeat=dag.n):
        outcome = tuple(max(z[u - 1] for u in ancestry[v]) for v in range(1, dag.n + 1))
        weight = Fraction(1)
        for i, level in enumerate(z):
            weight *= theta.rows[i][level]
        out[outcome] = out.get(outcome, Fraction(0)) + weight
    return out


def mixed_denominator_table(n: int, k: int, rng: random.Random) -> ParamTable:
    """Rational rows whose entries have unlike denominators: k-1 weights
    a/(q*k) with q in 1..12 and a in 0..q, and the rest of the row last."""
    rows = []
    for _ in range(n):
        head = []
        for _ in range(k - 1):
            q = rng.randint(1, 12)
            head.append(Fraction(rng.randint(0, q), q * k))
        rows.append([*head, 1 - sum(head)])
    return table_from_rows(rows)


def assert_integer_joint_is_the_factored_joint(dag: Dag, theta: ParamTable) -> None:
    """The joint on the table's integer view gives integer numerators over
    the view's D: on every vector of the box they are the product of the
    checked conditionals of the table itself."""
    view, denominator = integer_view(theta)
    numerators = joint_by_state(dag, view)
    assert all(type(v) is int for v in numerators.values())
    for g in product(range(dag.k), repeat=dag.n):
        assert Fraction(numerators.get(g, 0), denominator) == joint_factored(dag, theta, g), g


class TestIntegerView:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_catalog(self, k):
        rng = random.Random(300 + k)
        for name, dag in catalog_dags(k):
            for make in (random_table, sparse_table, mixed_denominator_table):
                assert_integer_joint_is_the_factored_joint(dag, make(dag.n, k, rng))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 4), st.integers(0, 2), st.integers(0, 2**32))
    def test_random_dags(self, dag, k, kind, seed):
        dag = dataclasses.replace(dag, k=k)
        make = (random_table, sparse_table, mixed_denominator_table)[kind]
        assert_integer_joint_is_the_factored_joint(dag, make(dag.n, k, random.Random(seed)))

    def test_scales_each_row_by_the_lcm_of_both_rows(self):
        theta = table_from_rows([[Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], [1, 0, 0]])
        view, denominator = integer_view(theta)
        assert view.rows == ((1, 2, 3), (1, 0, 0))
        assert view.cumulative == ((1, 3, 6), (1, 1, 1))
        assert denominator == 6
        # partial sums of a row have denominators that divide its lcm, so the
        # lcm of both rows is the weights' lcm; the view is a scaled table,
        # its cumulative rows its own partial sums, whatever the table holds
        object.__setattr__(theta, "cumulative", ((Fraction(1, 7), Fraction(1, 2), 1), (1, 1, 1)))
        view, denominator = integer_view(theta)
        assert view.rows == ((1, 2, 3), (1, 0, 0))
        assert view.cumulative == ((1, 3, 6), (1, 1, 1))
        assert denominator == 6


def box_failures(dag: Dag, trials: int, seed: int, oracle=reference_oracle) -> list[str]:
    """The oracle check's failure lines, found by evaluating the joint at
    every vector of the box in every trial against `oracle`; the joint and
    the state lattice are looked up in the model module, so a patched one
    is used."""
    lattice = model.order_preserving_maps(transitive_closure(dag), dag.k)
    box = StateLattice(dag.n, dag.k, tuple(product(range(dag.k), repeat=dag.n)))
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        theta = ParamTable.random(dag.n, dag.k, rng)
        by_oracle = oracle(dag, theta)
        for g, factored in zip(box.states, model.full_distribution(dag, theta, box)):
            if factored != by_oracle.get(g, Fraction(0)):
                failures.append(f"trial {trial}: state {state_digits(g)}")
            elif (factored == 0) != (g not in lattice):
                failures.append(f"trial {trial}: support at {state_digits(g)}")
    return failures


class TestOracle:
    def test_single_vertex(self):
        dag = Dag(n=1, k=3)
        theta = table_from_rows([[Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]])
        by_oracle = oracle_distribution(dag, [theta])[0]
        for j in range(3):
            assert by_oracle.get((j,), Fraction(0)) == theta.rows[0][j]

    def test_matches_factored_on_fig2(self, fig2_dag):
        rng = random.Random(13)
        for _ in range(5):
            theta = random_table(5, 2, rng)
            by_oracle = oracle_distribution(fig2_dag, [theta])[0]
            for g in product(range(2), repeat=5):
                assert joint_factored(fig2_dag, theta, g) == by_oracle.get(g, Fraction(0))

    def test_non_state_unreachable(self, fig2_dag):
        theta = uniform_table(5, 2)
        assert oracle_distribution(fig2_dag, [theta])[0].get((1, 0, 0, 0, 0), Fraction(0)) == 0

    def test_enumeration_guard(self, fig2_dag, monkeypatch):
        """Called from the library, the oracle reads MAXLIN_ORACLE_LIMIT and
        names it when the guard trips."""
        theta = uniform_table(5, 2)
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "32")
        assert sum(oracle_distribution(fig2_dag, [theta])[0].values()) == 1
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "31")
        with pytest.raises(TooLargeError) as caught:
            oracle_distribution(fig2_dag, [theta])
        assert str(caught.value) == (
            "enumeration needs 2**5 = 32 innovation vectors but the guard is 31;"
            " MAXLIN_ORACLE_LIMIT sets the guard"
        )
        with pytest.raises(TooLargeError, match="MAXLIN_ORACLE_LIMIT"):
            oracle_equivalence_check(fig2_dag, trials=1, seed=0)
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "many")
        with pytest.raises(MaxlinError) as caught:
            oracle_distribution(fig2_dag, [theta])
        assert str(caught.value) == "MAXLIN_ORACLE_LIMIT must be an integer, got 'many'"

    def test_corrupted_cumulative_row_is_caught(self, fig2_dag):
        # the factored joint reads the table's cumulative rows and the oracle
        # reads the weights only, so a wrong alpha entry shows as a mismatch
        dag = dataclasses.replace(fig2_dag, k=3)
        for i, j in ((0, 0), (4, 1)):
            theta = random_table(5, 3, random.Random(17))
            assert joint_by_state(dag, theta) == oracle_distribution(dag, [theta])[0]
            rows = [list(row) for row in theta.cumulative]
            rows[i][j] += Fraction(1, 7)
            object.__setattr__(theta, "cumulative", tuple(map(tuple, rows)))
            assert joint_by_state(dag, theta) != oracle_distribution(dag, [theta])[0]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32))
    def test_matches_vector_by_vector_reference(self, dag, k, seed):
        dag = dataclasses.replace(dag, k=k)
        theta = random_table(dag.n, k, random.Random(seed))
        assert oracle_distribution(dag, [theta])[0] == reference_oracle(dag, theta)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_kernel_on_zero_weights_and_unlike_denominators(self, k):
        rng = random.Random(200 + k)
        for name, dag in catalog_dags(k):
            for make in (sparse_table, mixed_denominator_table):
                theta = make(dag.n, k, rng)
                by_oracle = oracle_distribution(dag, [theta])[0]
                assert by_oracle == reference_oracle(dag, theta), name
                # a sum over D = 1 stays an int, any other becomes a Fraction
                kind = int if integer_view(theta)[1] == 1 else Fraction
                assert all(type(v) is kind for v in by_oracle.values())

    def test_symbolic_table_is_refused(self, fig2_dag):
        with pytest.raises(ValueError) as caught:
            oracle_distribution(fig2_dag, [symbolic_table(5, 2)])
        assert str(caught.value) == "the innovation oracle needs a rational parameter table"

    def test_one_fraction_per_outcome(self, fig2_dag, monkeypatch):
        # the box is summed on integer numerators: only the per-outcome sums
        # become Fractions, never a vector's weight
        dag = dataclasses.replace(fig2_dag, k=4)
        theta = random_table(5, 4, random.Random(23))
        by_oracle, built = fractions_built(
            monkeypatch, lambda: oracle_distribution(dag, [theta])[0]
        )
        assert len(by_oracle) == 125
        assert built <= len(by_oracle) + dag.n * dag.k

    def test_integer_tables_build_no_fraction(self, fig2_dag, monkeypatch):
        """Over D = 1 the per-outcome sums stay ints, equal to the reference's
        Fractions, so `verify oracle`'s integer tables build no Fraction."""
        dag = dataclasses.replace(fig2_dag, k=3)
        tables = [ParamTable.random(5, 3, random.Random(seed)) for seed in (1, 2)]
        oracles, built = fractions_built(
            monkeypatch, lambda: oracle_distribution(dag, tables)
        )
        assert built == 0
        for theta, by_oracle in zip(tables, oracles):
            assert all(type(v) is int for v in by_oracle.values())
            assert by_oracle == reference_oracle(dag, theta)

    @pytest.mark.parametrize("mutant", ["dropped", "perturbed", "zero_off_lattice"])
    def test_mutant_walk_fails_with_the_box_loops_lines(self, fig2_dag, monkeypatch, mutant):
        dag = dataclasses.replace(fig2_dag, k=3)
        mutants = {
            "dropped": ((0, 1, 1, 2, 2), lambda value: Fraction(0)),
            "perturbed": ((0, 0, 1, 1, 2), lambda value: value + Fraction(1, 10**9)),
            "zero_off_lattice": ((2, 0, 0, 0, 0), lambda value: Fraction(0)),
        }
        replace_joint(monkeypatch, joint_edited_at(*mutants[mutant]))
        report = oracle_equivalence_check(dag, trials=3, seed=5)
        expected = box_failures(dag, trials=3, seed=5)
        assert report.failures == expected
        assert report.total == 3 * 3**5
        if mutant == "zero_off_lattice":
            # the box's own zero off the lattice: no vector differs in value
            # or support
            assert expected == [] and report.detail == "3/3 trials, 40 states each, exact match"
        else:
            assert len(expected) == 3 and report.detail == ""

    def test_lattice_missing_a_state_fails_with_support_lines(self, fig2_dag, monkeypatch):
        # the walk and the oracle agree on a vector the lattice lacks
        lattice_of = model.order_preserving_maps
        missing = (0, 0, 1, 1, 1)

        def without_one(poset, k):
            lattice = lattice_of(poset, k)
            return StateLattice(lattice.n, k, tuple(g for g in lattice if g != missing))

        monkeypatch.setattr(model, "order_preserving_maps", without_one)
        report = oracle_equivalence_check(fig2_dag, trials=2, seed=9)
        expected = box_failures(fig2_dag, trials=2, seed=9)
        assert report.failures == expected == [
            "trial 0: support at 00111",
            "trial 1: support at 00111",
        ]
        assert report.total == 2 * 2**5

    def test_lattice_with_an_extra_state_fails_with_support_lines(self, fig2_dag, monkeypatch):
        # a vector the lattice has but neither the walk nor the oracle reaches
        lattice_of = model.order_preserving_maps
        extra = (2, 0, 0, 0, 0)

        def with_one_more(poset, k):
            lattice = lattice_of(poset, k)
            return StateLattice(lattice.n, k, (*lattice, extra))

        dag = dataclasses.replace(fig2_dag, k=3)
        monkeypatch.setattr(model, "order_preserving_maps", with_one_more)
        report = oracle_equivalence_check(dag, trials=2, seed=9)
        assert report.failures == box_failures(dag, trials=2, seed=9) == [
            "trial 0: support at 20000",
            "trial 1: support at 20000",
        ]

    def test_mutant_oracle_fails_with_the_box_loops_lines(self, fig2_dag, monkeypatch):
        # leaving parent 2 out of vertex 4's maximum puts mass on vectors
        # with g_4 < g_2, which neither the walk nor the lattice has
        dag = dataclasses.replace(fig2_dag, k=3)
        walk = model._innovation_walk

        def without_edge(dag):
            return dataclasses.replace(dag, edges=dag.edges - {(2, 4)})

        monkeypatch.setattr(
            model, "_innovation_walk", lambda dag, tables: walk(without_edge(dag), tables)
        )
        report = oracle_equivalence_check(dag, trials=2, seed=9)
        expected = box_failures(
            dag, trials=2, seed=9, oracle=lambda dag, theta: reference_oracle(without_edge(dag), theta)
        )
        assert report.failures == expected
        assert "trial 0: state 01000" in expected
        assert sum(line.startswith("trial 0:") for line in expected) > 1

    def test_one_walk_per_request(self, fig2_dag, tmp_path, monkeypatch, capsys):
        # every trial's oracle comes from one walk of the box; with no trial
        # nothing is walked, but the guard still trips before anything
        walk = model._innovation_walk
        calls = []

        def counted(dag, tables):
            calls.append(len(tables))
            return walk(dag, tables)

        monkeypatch.setattr(model, "_innovation_walk", counted)
        path = tmp_path / "fig2.dag"
        path.write_text(data.read("fig2.dag"), encoding="utf-8")
        argv = ["verify", "oracle", "--dag", str(path), "--k", "3"]
        assert main([*argv, "--trials", "5"]) == 0
        assert calls == [5]
        assert main([*argv, "--trials", "0"]) == 0
        assert calls == [5]
        assert oracle_distribution(fig2_dag, []) == [] and calls == [5]
        capsys.readouterr()
        monkeypatch.setenv("MAXLIN_ORACLE_LIMIT", "242")
        assert main([*argv, "--trials", "0"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: enumeration needs 3**5 = 243 innovation vectors but the guard is 242;"
            " MAXLIN_ORACLE_LIMIT sets the guard\n",
        )
        with pytest.raises(TooLargeError, match="MAXLIN_ORACLE_LIMIT"):
            oracle_distribution(dataclasses.replace(fig2_dag, k=3), [])
        assert calls == [5]

    def test_box_of_several_blocks_matches_the_reference(self):
        # 3**9 vectors are nine blocks of 3**7, and the odometer's second
        # vertex, 2, reads its parent 4 at the first; the labels are not a
        # topological order
        edges = {(4, 2), (2, 9), (4, 7), (7, 9), (9, 1), (3, 1), (5, 3), (5, 6), (6, 8), (8, 1)}
        dag = Dag(n=9, k=3, edges=frozenset(edges))
        assert dag.k**dag.n > model._BLOCK
        rng = random.Random(41)
        thetas = [sparse_table(9, 3, rng), mixed_denominator_table(9, 3, rng)]
        for theta, by_oracle in zip(thetas, oracle_distribution(dag, thetas)):
            assert by_oracle == reference_oracle(dag, theta)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tables_are_independent(self, k):
        # a table's dict is the same alone as beside other tables
        rng = random.Random(60 + k)
        for name, dag in catalog_dags(k):
            thetas = [
                make(dag.n, k, rng)
                for make in (random_table, sparse_table, mixed_denominator_table)
            ]
            alone = [oracle_distribution(dag, [theta])[0] for theta in thetas]
            assert oracle_distribution(dag, thetas) == alone, name
            assert oracle_distribution(dag, thetas[::-1]) == alone[::-1], name

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        dags(max_n=6),
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(0, 2**32),
        st.sampled_from(["intact", "dropped", "perturbed"]),
    )
    def test_report_is_the_box_loops_report(self, dag, k, trials, seed, mutant):
        # the report the shared walk gives is the one that a reference
        # oracle per trial and a loop over the whole box give
        dag = dataclasses.replace(dag, k=k)
        mutants = {
            "dropped": ((k - 1,) * dag.n, lambda value: 0),
            "perturbed": ((0,) * dag.n, lambda value: value + 1),
        }
        with pytest.MonkeyPatch.context() as patch:
            if mutant != "intact":
                replace_joint(patch, joint_edited_at(*mutants[mutant]))
            report = oracle_equivalence_check(dag, trials, seed)
            expected = box_failures(dag, trials, seed)
        states = len(order_preserving_maps(transitive_closure(dag), k))
        assert report.failures == expected
        assert report.total == trials * k**dag.n
        assert bool(expected) == (mutant != "intact" and trials > 0)
        passed = f"{trials}/{trials} trials, {states} states each, exact match"
        assert report.detail == ("" if expected else passed)

    def test_memory_holds_one_block(self):
        # the whole box of the 10-chain with k=3 is 59,049 outcome tuples,
        # more than 8 MB; one block of them is well under 4 MB
        dag = Dag(n=10, k=3, edges=frozenset((i, i + 1) for i in range(1, 10)))
        tracemalloc.start()
        try:
            report = oracle_equivalence_check(dag, trials=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4_000_000

    def test_equivalence_suite(self, fig2_dag):
        report = oracle_equivalence_check(fig2_dag, trials=5, seed=3)
        assert report.passed
        assert "5/5 trials, 9 states each, exact match" == report.detail

    def test_oracle_dropping_a_parent_fails_through_the_cli(
        self, capsys, tmp_path, monkeypatch
    ):
        # vertex 4 of fig2 has parents 1 and 2; an oracle that leaves 2 out
        # of the maximum disagrees with the factored joint
        import maxlin.model as model

        walk = model._innovation_walk

        def drop_parent(dag, tables):
            edges = dag.edges - {(2, 4)}
            return walk(dataclasses.replace(dag, edges=edges), tables)

        monkeypatch.setattr(model, "_innovation_walk", drop_parent)
        path = tmp_path / "fig2.dag"
        path.write_text(data.read("fig2.dag"), encoding="utf-8")
        code = main(["verify", "oracle", "--dag", str(path), "--k", "3", "--trials", "2"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        report = json.loads(captured.out)
        assert report["passed"] is False and report["failures"]


class TestAccumulationModel:
    def test_conditional_goldens(self, fig1_poset):
        theta = symbolic_table(5, 2)
        assert cbn_conditional(fig1_poset, theta, 3, (1, 1, 0, 0, 0)) == tv(3, 0)
        assert cbn_conditional(fig1_poset, theta, 4, (1, 1, 0, 0, 0)) == Fraction(1)
        assert cbn_conditional(fig1_poset, theta, 4, (1, 1, 0, 1, 0)) == Fraction(0)

    def test_conditional_requires_two_states(self, fig1_poset):
        with pytest.raises(ValueError):
            cbn_conditional(fig1_poset, uniform_table(5, 3), 1, (0,) * 5)
        with pytest.raises(BadStateError):
            cbn_conditional(fig1_poset, uniform_table(5, 2), 1, (0, 0, 0, 0, 2))

    def test_distribution_requires_two_states_over_the_poset(self, fig1_poset):
        for theta in (uniform_table(5, 3), uniform_table(4, 2)):
            with pytest.raises(ValueError, match="needs a 5x2 table and lattice"):
                cbn_distribution(fig1_poset, theta, ideal_lattice(fig1_poset))
        three = StateLattice(5, 3, ((0, 0, 0, 0, 0), (0, 0, 0, 0, 2)))
        four = StateLattice(4, 2, ((0, 0, 0, 0), (1, 0, 0, 0)))
        for bad in (three, four):
            with pytest.raises(ValueError, match="needs a 5x2 table and lattice"):
                cbn_distribution(fig1_poset, uniform_table(5, 2), bad)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(), st.integers(0, 2**32))
    def test_matches_the_per_element_reference(self, dag, seed):
        """The joint checks the table once and each state once; the product
        of the checked per-element conditionals is the reference, on a
        symbolic table, a random one and one with zero weights."""
        poset = transitive_closure(dag)
        rng = random.Random(seed)
        zeros = [rng.choice([(1, 0), (0, 1), (Fraction(1, 3), Fraction(2, 3))]) for _ in range(dag.n)]
        for theta in (
            symbolic_table(dag.n, 2),
            random_table(dag.n, 2, rng),
            table_from_rows(zeros),
        ):
            expected = {
                g: math.prod(
                    (cbn_conditional(poset, theta, e, g) for e in poset.elements),
                    start=Fraction(1),
                )
                for g in ideal_lattice(poset)
            }
            assert accumulation_by_state(poset, theta) == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(0, 2**32))
    def test_off_the_ideals_a_factor_is_zero(self, dag, seed):
        """On every 0-1 vector, ideal or not, the joint is the product of the
        per-element conditionals, on a random table, one with zero weights
        and an integer view; on a positive table it is 0 exactly off the
        ideals. On the level table with `_Factors` every value has n
        factors, a 0 among them exactly off the ideals."""
        poset = transitive_closure(dag)
        rng = random.Random(seed)
        box = StateLattice(dag.n, 2, tuple(product((0, 1), repeat=dag.n)))
        off = [g not in ideal_lattice(poset) for g in box]
        zeros = [rng.choice([(1, 0), (0, 1), (Fraction(1, 3), Fraction(2, 3))]) for _ in range(dag.n)]
        rational = random_table(dag.n, 2, rng)
        view, denominator = integer_view(rational)

        def reference(theta):
            return [
                math.prod(cbn_conditional(poset, theta, e, g) for e in poset.elements)
                for g in box
            ]

        for theta in (rational, table_from_rows(zeros)):
            assert cbn_distribution(poset, theta, box) == reference(theta)
        numerators = cbn_distribution(poset, view, box)
        assert numerators == [value * denominator for value in reference(rational)]
        assert [value == 0 for value in numerators] == off
        factored = cbn_distribution(poset, ParamTable.levels(dag.n, 2), box, _Factors)
        assert all(type(f) is _Factors and len(f) == dag.n for f in factored)
        assert [0 in f for f in factored] == off

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(), st.integers(0, 2**32))
    def test_integer_view_gives_numerators_over_its_denominator(self, dag, seed):
        """On a table's `integer_view` every value is the rational joint's
        times D, an element that cannot occur yet contributing d_v."""
        poset = transitive_closure(dag)
        rng = random.Random(seed)
        rows = []
        for d in range(7, 7 + dag.n):  # unlike denominators, zero weights too
            a = rng.randint(0, d)
            rows.append([Fraction(a, d), Fraction(d - a, d)])
        theta = table_from_rows(rows)
        view, denominator = integer_view(theta)
        expected = {g: v * denominator for g, v in accumulation_by_state(poset, theta).items()}
        assert accumulation_by_state(poset, view) == expected

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags())
    def test_level_joint_multiplied_out_is_the_symbolic_joint(self, dag):
        """With `_Factors` as the product every value is one level mask per
        vertex, in vertex order, the element that cannot occur yet
        included."""
        poset = transitive_closure(dag)
        factored = accumulation_by_state(poset, ParamTable.levels(dag.n, 2), _Factors)
        assert all(isinstance(f, _Factors) and len(f) == dag.n for f in factored.values())
        symbolic = accumulation_by_state(poset, symbolic_table(dag.n, 2))
        assert {g: level_product(f, 2) for g, f in factored.items()} == symbolic

    def test_symbolic_fig1_matches_published_monomials(self, fig1_poset):
        dist = accumulation_by_state(fig1_poset, symbolic_table(5, 2))
        expected = {
            (0, 0, 0, 0, 0): tv(1, 0) * tv(2, 0),
            (1, 0, 0, 0, 0): tv(1, 1) * tv(2, 0),
            (0, 1, 0, 0, 0): tv(1, 0) * tv(2, 1),
            (1, 1, 0, 0, 0): tv(1, 1) * tv(2, 1) * tv(3, 0),
            (1, 1, 1, 0, 0): tv(1, 1) * tv(2, 1) * tv(3, 1) * tv(4, 0) * tv(5, 0),
            (1, 1, 1, 1, 0): tv(1, 1) * tv(2, 1) * tv(3, 1) * tv(4, 1) * tv(5, 0),
            (1, 1, 1, 0, 1): tv(1, 1) * tv(2, 1) * tv(3, 1) * tv(4, 0) * tv(5, 1),
            (1, 1, 1, 1, 1): tv(1, 1) * tv(2, 1) * tv(3, 1) * tv(4, 1) * tv(5, 1),
        }
        assert dist == expected

    def test_distribution_sums_to_one_and_supported_on_ideals(self, fig1_poset):
        rng = random.Random(31)
        theta = random_table(5, 2, rng)
        dist = accumulation_by_state(fig1_poset, theta)
        assert sum(dist.values()) == 1
        assert set(dist) == set(ideal_lattice(fig1_poset))
        assert all(v > 0 for v in dist.values())

    def test_single_element_chain(self):
        poset = transitive_closure(Dag(n=1, k=2))
        theta = table_from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        assert accumulation_by_state(poset, theta) == {
            (0,): Fraction(1, 3),
            (1,): Fraction(2, 3),
        }


class TestTwoStateCorrespondence:
    def test_state_bijection_golden(self, fig2_dag):
        """Ideal t pairs with state |L| - 1 - t, its complement."""
        closure = transitive_closure(fig2_dag)
        states = order_preserving_maps(closure, 2).states
        image = dict(zip(ideal_lattice(closure).states, reversed(states)))
        assert image[(1, 0, 1, 0, 0)] == (0, 1, 0, 1, 1)
        assert image[(1, 1, 1, 1, 1)] == (0, 0, 0, 0, 0)
        assert image[(0, 0, 0, 0, 0)] == (1, 1, 1, 1, 1)

    def test_example_pair_monomials(self, fig2_dag):
        closure = transitive_closure(fig2_dag)
        accum = accumulation_by_state(closure, symbolic_table(5, 2))
        maxmodel = joint_by_state(fig2_dag, symbolic_table(5, 2))
        assert accum[(1, 0, 1, 0, 0)] == tv(1, 1) * tv(2, 0) * tv(3, 1)
        assert maxmodel[(0, 1, 0, 1, 1)] == tv(1, 0) * tv(2, 1) * tv(3, 0)

    def test_fig2_check_passes(self, fig2_dag):
        report = cbn_correspondence_check(fig2_dag, trials=20, seed=5)
        assert report.passed

    def test_single_vertex_trivial(self):
        report = cbn_correspondence_check(Dag(n=1, k=2), trials=3, seed=0)
        assert report.passed

    def test_catalog_passes(self):
        for name, dag in catalog_dags(2):
            report = cbn_correspondence_check(dag, trials=5, seed=11)
            assert report.passed, name

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=7), st.sampled_from(["none", "unswapped", "alpha"]), st.integers(0, 6))
    def test_passes_exactly_when_the_expanded_check_does(self, dag, mutant, v):
        """The level-table check against the polynomials multiplied out, on
        the code as it is and under two broken models: weights not swapped,
        and a joint taking alpha_{v,m} where theta_{v,g_v} belongs. Every
        state the expanded check fails fails the level check too."""
        with pytest.MonkeyPatch.context() as patch:
            if mutant == "unswapped":
                patch.setattr(ParamTable, "swapped", lambda self: self)
            elif mutant == "alpha":
                replace_joint(patch, alpha_for_theta_walk(v % dag.n + 1))
            report = cbn_correspondence_check(dag, trials=0, seed=0)
            expanded = expanded_theorem31_failures(dag)
        assert report.passed == (not expanded) == (mutant == "none")
        assert set(report.failures) >= {f"symbolic: {line}" for line in expanded}

    def test_unswapped_weights_fail_from_the_bottom_ideal(self, fig2_dag, monkeypatch):
        monkeypatch.setattr(ParamTable, "swapped", lambda self: self)
        report = cbn_correspondence_check(fig2_dag, trials=0, seed=0)
        assert not report.passed and report.total == 9
        assert report.failures[0] == "symbolic: ideal 00000 vs state 11111"

    def test_symbolic_half_compares_factor_tuples(self, fig2_dag, monkeypatch):
        """The level table's values are factor tuples on both sides; each
        trial's values are integers."""
        kinds = []
        accumulation, joint = model.cbn_distribution, model.full_distribution

        def recorded(function):
            def call(*args):
                values = function(*args)
                kinds.append(set(map(type, values)))
                return values

            return call

        monkeypatch.setattr(model, "cbn_distribution", recorded(accumulation))
        monkeypatch.setattr(model, "full_distribution", recorded(joint))
        assert cbn_correspondence_check(fig2_dag, trials=2, seed=3).passed
        assert kinds == [{_Factors}] * 2 + [{int}] * 4

    def test_unreversed_ideals_fail(self, fig2_dag, monkeypatch):
        """The check pairs by position, so ideals complemented from the
        two-state walk's states but left in the walk's order fail it."""

        def unreversed(poset):
            states = order_preserving_maps(poset, 2).states
            return StateLattice(len(states[0]), 2, [tuple(1 - v for v in g) for g in states])

        monkeypatch.setattr(model, "ideal_lattice", unreversed)
        assert not cbn_correspondence_check(fig2_dag, trials=2, seed=1).passed

    @pytest.mark.parametrize(
        "name, fmt, size, digest",
        [
            ("fig2.dag", "json", 2428, "28437247c336fe26abdea326658cdab1d60aef490e5eb362d8760a12e0750e5c"),
            ("fig2.dag", "text", 2575, "c3fa47d61741dcb1e6d57449ea071a6444f7ad16a76cee788840ba71efa2498b"),
            ("fig3.dag", "json", 1272, "dae30407291c270c3b06d27789c8c306dcdc690ea8a2903d212652075cac5b77"),
            ("fig3.dag", "text", 1323, "65590f9d80e4ac509ef7607d9a2435f4a0876120db7e750172bfe3c98c33ad1c"),
        ],
    )
    def test_unswapped_weights_full_output(
        self, capsys, monkeypatch, tmp_path, name, fmt, size, digest
    ):
        """Every failure line, in order, with the total and the empty
        detail: `verify theorem31 --trials 5 --seed 11` with the weights
        left unswapped, pinned by length and SHA-256."""
        monkeypatch.setattr(ParamTable, "swapped", lambda self: self)
        path = tmp_path / name
        path.write_text(data.read(name), encoding="utf-8")
        argv = ["verify", "theorem31", "--dag", str(path), "--trials", "5", "--seed", "11"]
        assert main([*argv, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)


class TestEliminateSimplex:
    def test_row_sum_becomes_one(self):
        poly = tv(1, 0) + tv(1, 1) + tv(1, 2)
        assert eliminate_simplex(poly, 1, 3) == 1

    def test_rational_passthrough(self):
        assert eliminate_simplex(Fraction(1, 2), 3, 2) == Fraction(1, 2)

    def test_rejects_degree_above_one(self):
        """Only table entries are reduced; a product of them would be
        mis-reduced term by term, so it is refused with its degree."""
        with pytest.raises(ValueError, match="degree at most 1, not 2"):
            eliminate_simplex(tv(1, 0) * tv(1, 2), 1, 3)
        with pytest.raises(ValueError, match="not 3"):
            eliminate_simplex(tv(1, 2) ** 3 + tv(1, 0), 1, 3)


class TestMonotoneCoupling:
    @pytest.mark.parametrize("name,k", [("fig2", 2), ("fig3", 3), ("diamond", 2)])
    def test_upward_shift_never_lowers_tail_probabilities(self, name, k):
        from conftest import catalog_dag

        dag = catalog_dag(name, k)
        rng = random.Random(47)
        theta = random_table(dag.n, k, rng)
        lattice = order_preserving_maps(transitive_closure(dag), k)
        base = full_distribution(dag, theta, lattice)

        def tail(dist, vertex, m):
            return sum(v for g, v in zip(lattice, dist) if g[vertex - 1] >= m)

        for shift_vertex in range(1, dag.n + 1):
            for level in range(k - 1):
                rows = [list(row) for row in theta.rows]
                moved = rows[shift_vertex - 1][level] / 2
                rows[shift_vertex - 1][level] -= moved
                rows[shift_vertex - 1][level + 1] += moved
                shifted = full_distribution(
                    dag, table_from_rows(rows), lattice
                )
                for vertex in range(1, dag.n + 1):
                    for m in range(k):
                        assert tail(shifted, vertex, m) >= tail(base, vertex, m)
