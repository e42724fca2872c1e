"""Cumulative coordinates, Moebius inversion, the cumulative weight rows,
and the factorization that links them."""

import dataclasses
import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maxlin.model as model
import maxlin.transforms as transforms
from maxlin import data
from maxlin.cli import main
from maxlin.dag import Dag, transitive_closure
from maxlin.model import (
    _UNFACTORED,
    ParamTable,
    _Factors,
    cbn_distribution,
    full_distribution,
)
from maxlin.poset import StateLattice, ideal_lattice, order_preserving_maps, state_digits
from maxlin.transforms import (
    _level_products,
    eq5_check,
    moebius_inverse,
    roundtrip_check,
    zeta_factorization_check,
    zeta_transform,
)

from conftest import (
    CATALOG,
    RingPolynomial,
    alpha_for_theta_walk,
    as_map,
    catalog_dag,
    catalog_dags,
    cbn_conditional,
    dags,
    dual,
    eliminate_simplex,
    evaluate,
    expanded_eq5_failures,
    increasing_column_sum_covers,
    joint_edited_at,
    joint_factored,
    p_var,
    poly_of,
    random_table,
    replace_joint,
    state_leq,
    symbolic_table,
    table_from_rows,
    theta_var,
    uniform_table,
    x_ratios,
)


def tv(i, j):
    return poly_of(theta_var(i, j))


def random_lattice_function(lattice, rng):
    return [Fraction(rng.randint(-500, 500), rng.randint(1, 40)) for _ in lattice]


def quadratic_zeta(values, lattice):
    """Reference zeta of a state-keyed function: for every state, sum the
    values at all states below it, found by comparing every pair of states."""
    out = {}
    for g in lattice:
        total = Fraction(0)
        for h in lattice:
            if h in values and state_leq(h, g):
                total = total + values[h]
        out[g] = total
    return out


def back_substitution_moebius(values, lattice):
    """Reference Moebius inverse: unitriangular back-substitution along the
    lexicographic linear extension, comparing every pair of states."""
    out = {}
    for g in lattice:
        total = values.get(g, Fraction(0))
        for h, done in out.items():
            if h != g and state_leq(h, g):
                total = total - done
        out[g] = total
    return out


def replace_cover_table(monkeypatch, table):
    """Make `table(lattice)` the cover table of every StateLattice."""
    covers = functools.cached_property(table)
    covers.__set_name__(StateLattice, "covers")
    monkeypatch.setattr(StateLattice, "covers", covers)


def lattices_of(dag, ks):
    """The state lattices of the reachability poset and of its dual for each
    k in ks, and the ideal lattices of both."""
    poset = transitive_closure(dag)
    for order in (poset, dual(poset)):
        for k in ks:
            yield order_preserving_maps(order, k)
        yield ideal_lattice(order)


def check_walks_against_quadratic(values, lattice):
    """Both walks of a list aligned with the states against the quadratic
    references on the state-keyed function."""
    by_state = as_map(lattice, values)
    assert as_map(lattice, zeta_transform(values, lattice)) == quadratic_zeta(by_state, lattice)
    expected = back_substitution_moebius(by_state, lattice)
    assert as_map(lattice, moebius_inverse(values, lattice)) == expected


def check_walk_against_quadratic(lattice, rng):
    # Rational values with some states at 0, and one variable per state, so
    # each h <= g must be summed into g exactly once.
    rational = [
        Fraction(rng.randint(-50, 50), rng.randint(1, 9)) if rng.random() < 0.8 else 0
        for _ in lattice
    ]
    symbolic = [poly_of(p_var(g)) for g in lattice]
    for values in (rational, symbolic):
        check_walks_against_quadratic(values, lattice)


class TestZeta:
    def test_fig3_symbolic_sum(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        dist = full_distribution(fig3_dag, symbolic_table(3, 3), lattice)
        cumulative = as_map(lattice, zeta_transform(dist, lattice))
        dist = as_map(lattice, dist)
        below = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        expected = RingPolynomial()
        for h in below:
            expected = expected + dist[h]
        assert cumulative[(0, 1, 2)] == expected

    def test_bottom_state(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        theta = uniform_table(5, 2)
        dist = full_distribution(fig2_dag, theta, lattice)
        cumulative = zeta_transform(dist, lattice)
        assert lattice.states[0] == (0,) * 5
        assert cumulative[0] == dist[0]

    def test_top_state_is_total_mass(self):
        rng = random.Random(3)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                lattice = order_preserving_maps(transitive_closure(dag), k)
                theta = random_table(dag.n, k, rng)
                cumulative = zeta_transform(full_distribution(dag, theta, lattice), lattice)
                assert lattice.states[-1] == lattice.top and cumulative[-1] == 1

    def test_monotone_for_nonnegative_input(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        rng = random.Random(9)
        theta = random_table(5, 2, rng)
        cumulative = zeta_transform(full_distribution(fig2_dag, theta, lattice), lattice)
        cumulative = as_map(lattice, cumulative)
        for g in lattice:
            for h in lattice:
                if state_leq(g, h):
                    assert cumulative[g] <= cumulative[h]

    @pytest.mark.parametrize("walk", [zeta_transform, moebius_inverse])
    def test_wrong_length_is_refused(self, fig2_dag, walk):
        """A list must hold one value per state: one short or one over is
        refused, with both lengths named."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        assert len(lattice) == 9
        for size in (0, 8, 10):
            with pytest.raises(ValueError, match=f"^{size} values for a lattice of 9 states$"):
                walk([Fraction(1)] * size, lattice)


def aligned_and_reference(function: str, dag: Dag, rng: random.Random):
    """The lattice, the list that `function` returns on it, and the
    state-keyed brute-force reference: the per-vertex and per-element
    conditionals multiplied out, or the quadratic zeta and Moebius."""
    poset = transitive_closure(dag)
    if function == "cbn_distribution":
        lattice, theta = ideal_lattice(poset), random_table(dag.n, 2, rng)
        reference = {
            g: math.prod((cbn_conditional(poset, theta, e, g) for e in poset.elements))
            for g in lattice
        }
        return lattice, cbn_distribution(poset, theta, lattice), reference
    lattice = order_preserving_maps(poset, dag.k)
    if function == "full_distribution":
        theta = random_table(dag.n, dag.k, rng)
        reference = {g: joint_factored(dag, theta, g) for g in lattice}
        return lattice, full_distribution(dag, theta, lattice), reference
    values = random_lattice_function(lattice, rng)
    walk, quadratic = {
        "zeta_transform": (zeta_transform, quadratic_zeta),
        "moebius_inverse": (moebius_inverse, back_substitution_moebius),
    }[function]
    return lattice, walk(values, lattice), quadratic(as_map(lattice, values), lattice)


class TestAlignedWithStates:
    """The joint, the accumulation model's joint, zeta and Moebius each
    return a list of one value per state of the lattice they are given, in
    the order of `lattice.states`."""

    @pytest.mark.parametrize(
        "function", ["full_distribution", "cbn_distribution", "zeta_transform", "moebius_inverse"]
    )
    @pytest.mark.parametrize("name,k", [("fig2", 3), ("fig3", 3), ("diamond", 2), ("single", 4)])
    def test_one_value_per_state_as_the_reference_gives_it(self, function, name, k):
        dag = catalog_dag(name, k)
        lattice, values, reference = aligned_and_reference(function, dag, random.Random(name))
        assert type(values) is list and len(values) == len(lattice)
        assert as_map(lattice, values) == reference


class TestWalkAgainstQuadratic:
    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG])
    def test_catalog(self, name):
        rng = random.Random(name)
        for lattice in lattices_of(dict(catalog_dags(2))[name], ks=(1, 2, 3, 4)):
            check_walk_against_quadratic(lattice, rng)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=7))
    def test_random_dags(self, dag):
        # k = 3 above 5 vertices gives up to 2,187 states, too many for the
        # quadratic references in a unit test.
        rng = random.Random(repr(dag))
        for lattice in lattices_of(dag, ks=(1, 2, 3) if dag.n <= 5 else (1, 2)):
            check_walk_against_quadratic(lattice, rng)


class TestCoverTable:
    """The lattice's cover table, and the walks on it against the quadratic
    references on random DAGs with k = 1..4, for integer, Fraction and
    level-table factor-tuple values."""

    @staticmethod
    def cover_pairs(lattice):
        """Every pair of state indices (g, h) with h = g - e_i for some i,
        found by comparing every pair of states."""
        index = {g: t for t, g in enumerate(lattice.states)}
        return {
            (index[g], index[h])
            for g in lattice
            for h in lattice
            if sum(g) == sum(h) + 1 and state_leq(h, g)
        }

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 4), st.integers(0, 2**32))
    def test_walks_match_the_quadratic_references(self, dag, k, seed):
        dag = dataclasses.replace(dag, k=k)
        lattice = order_preserving_maps(transitive_closure(dag), k)
        # the quadratic references are O(|L|**2) per call
        assume(len(lattice) <= 150)
        covers = lattice.covers
        assert len(covers) == len(set(covers))
        assert set(covers) == self.cover_pairs(lattice)
        rng = random.Random(seed)
        integers = [rng.randint(-50, 50) if rng.random() < 0.8 else 0 for _ in lattice]
        fractions = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 9)) if rng.random() < 0.8 else 0
            for _ in lattice
        ]
        for values in (integers, fractions):
            check_walks_against_quadratic(values, lattice)
        # the level-table joint held as factor tuples: every sum of the zeta
        # walk adds two products that differ in one factor, at disjoint
        # levels, so each state's value stays one product of level masks.
        # A mask is the sum of the weights 1 << j at its levels, so the
        # product of the masks is the value on the level rows as a plain
        # integer table, and it is the quadratic zeta of that joint.
        theta = ParamTable.levels(dag.n, k)
        factored = zeta_transform(full_distribution(dag, theta, lattice), lattice)
        assert all(isinstance(f, _Factors) for f in factored)
        joint = full_distribution(dag, ParamTable(theta.rows), lattice)
        expected = quadratic_zeta(as_map(lattice, joint), lattice)
        assert as_map(lattice, [math.prod(f) for f in factored]) == expected

    def test_built_once_and_only_by_the_walks(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        assert "covers" not in vars(lattice)
        zeta_transform([0] * len(lattice), lattice)
        table = vars(lattice)["covers"]
        moebius_inverse([0] * len(lattice), lattice)
        assert lattice.covers is table

    @pytest.mark.parametrize("command", ["lattice", "ideals", "generators"])
    def test_not_built_by_the_enumerating_commands(self, capsys, monkeypatch, tmp_path, command):
        def no_table(lattice):
            raise AssertionError("cover table built")

        replace_cover_table(monkeypatch, no_table)
        path = tmp_path / "fig2.dag"
        path.write_text(data.read("fig2.dag"), encoding="utf-8")
        assert main([command, "--dag", str(path), "--k", "3"]) == 0
        assert capsys.readouterr().err == ""


class TestLevelProducts:
    """eq5's right-hand side, one `product` call per state, against a
    product of the state's entries formed here."""

    @staticmethod
    def per_state(rows, states):
        return [math.prod((row[v] for row, v in zip(rows, g)), start=Fraction(1)) for g in states]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_catalog(self, k):
        rng = random.Random(200 + k)
        for _, dag in catalog_dags(k):
            states = order_preserving_maps(transitive_closure(dag), k).states
            for theta in (random_table(dag.n, k, rng), symbolic_table(dag.n, k)):
                rows = theta.cumulative
                got = _level_products(rows, states, theta.product)
                assert got == self.per_state(rows, states)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 4), st.integers(0, 2**32))
    def test_any_order_of_any_vectors(self, dag, k, seed):
        # correct on vectors in any order, repeats included
        rng = random.Random(seed)
        rows = random_table(dag.n, k, rng).rows
        states = [tuple(rng.randrange(k) for _ in range(dag.n)) for _ in range(20)]
        states += states[:3]
        assert _level_products(rows, states, math.prod) == self.per_state(rows, states)


class TestMoebiusInverse:
    def test_roundtrip_both_ways(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        rng = random.Random(100)
        for _ in range(100):
            values = random_lattice_function(lattice, rng)
            assert moebius_inverse(zeta_transform(values, lattice), lattice) == values
            assert zeta_transform(moebius_inverse(values, lattice), lattice) == values

    def test_point_mass_recovery(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        cumulative = [Fraction(int(g == lattice.top)) for g in lattice]
        recovered = as_map(lattice, moebius_inverse(cumulative, lattice))
        assert recovered[lattice.top] == 1
        assert all(v == 0 for g, v in recovered.items() if g != lattice.top)

    def test_single_state_lattice(self):
        lattice = order_preserving_maps(transitive_closure(Dag(n=1, k=1)), 1)
        values = [Fraction(5, 7)]
        assert moebius_inverse(values, lattice) == values

    def test_suite(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        report = roundtrip_check(lattice, trials=25, seed=1)
        assert report.passed and report.total == 50


class TestAlphaTable:
    """The cumulative rows alpha that a ParamTable builds from its weights."""

    def test_partial_sums_golden(self):
        theta = table_from_rows([[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]])
        assert theta.cumulative == ((Fraction(1, 4), Fraction(1, 2), Fraction(1)),)

    def test_two_state_first_entry_is_theta0(self):
        theta = table_from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        assert theta.cumulative[0][0] == Fraction(1, 3)

    def test_point_mass_gives_all_ones(self):
        theta = table_from_rows([[1, 0, 0]])
        assert theta.cumulative == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_integer_rows_end_in_their_sum(self):
        # integer rows are a scaled table, such as an integer view
        assert ParamTable(((1, 2, 3), (4, 0, 0))).cumulative == ((1, 3, 6), (4, 4, 4))

    def test_rejects_decreasing_row(self):
        # the partial sums 1/2, 1/4, 1 would decrease: a negative weight
        with pytest.raises(ValueError, match="negative"):
            ParamTable(((Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4)),))

    def test_rejects_row_not_ending_in_one(self):
        # the partial sums 1/4, 1/2 would not end in 1
        with pytest.raises(ValueError, match="not 1"):
            ParamTable(((Fraction(1, 4), Fraction(1, 4)),))

    def test_symbolic_rows_end_in_one(self):
        theta = symbolic_table(2, 3)
        assert theta.cumulative[1] == (tv(2, 0), tv(2, 0) + tv(2, 1), Fraction(1))

    def test_roundtrips(self):
        rng = random.Random(21)
        for _ in range(40):
            theta = random_table(3, 4, rng)
            for row, alpha in zip(theta.rows, theta.cumulative):
                assert alpha[-1] == 1
                assert (alpha[0], *(b - a for a, b in zip(alpha, alpha[1:]))) == row


class TestXTable:
    """The multiplicative parameters x of the tests' reference helper."""

    def test_three_state_relations(self):
        theta = table_from_rows([[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]])
        alpha = theta.cumulative[0]
        x = x_ratios(theta)[0]
        assert x == [Fraction(1, 2), Fraction(1, 2)]
        assert x[0] * x[1] == alpha[0]
        assert x[0] == alpha[1]

    def test_two_state_x_equals_alpha(self):
        theta = table_from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        assert x_ratios(theta) == [[Fraction(1, 3)]]

    def test_zero_weight_divides(self):
        theta = table_from_rows([[0, 0, 1]])
        with pytest.raises(ZeroDivisionError):
            x_ratios(theta)

    def test_reconstruction_roundtrip(self):
        rng = random.Random(77)
        for _ in range(40):
            theta = random_table(2, 4, rng)
            for x, alpha in zip(x_ratios(theta), theta.cumulative):
                assert [math.prod(x[: 4 - j - 1]) for j in range(4)] == list(alpha)


def check_levels(dag):
    """The symbolic eq5 check on the DAG's state lattice: the level table,
    whose values are factor tuples."""
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    return zeta_factorization_check(dag, ParamTable.levels(dag.n, dag.k), lattice)


class TestZetaFactorization:
    def test_symbolic_fig3(self, fig3_dag):
        report = check_levels(fig3_dag)
        assert report.passed and report.total == 14

    def test_symbolic_fig2(self, fig2_dag):
        report = check_levels(fig2_dag)
        assert report.passed and report.total == 9

    def test_eq5_builds_one_lattice_and_one_level_table(self, fig2_dag, monkeypatch):
        """One lattice per request; the level table is checked once as factor
        tuples, and each trial's table is drawn as integer rows and checked
        on integers."""
        lattices, checks = [], []
        build, check = transforms.order_preserving_maps, transforms.zeta_factorization_check

        def counted_build(*args):
            lattices.append(1)
            return build(*args)

        def counted_check(dag, theta, lattice):
            ints = all(type(v) is int for row in theta.rows for v in row)
            checks.append((ints, theta == ParamTable.levels(dag.n, dag.k), theta.product))
            return check(dag, theta, lattice)

        monkeypatch.setattr(transforms, "order_preserving_maps", counted_build)
        monkeypatch.setattr(transforms, "zeta_factorization_check", counted_check)
        report = eq5_check(dataclasses.replace(fig2_dag, k=3), trials=4, seed=2)
        assert report.passed and report.total == 5 * 40
        assert len(lattices) == 1
        assert checks == [(True, True, _Factors)] + [(True, False, math.prod)] * 4

    def test_given_lattice_is_the_one_checked(self, fig3_dag):
        """The check reads the lattice's states, whether its vectors are
        the walk's bytes or int tuples."""
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        theta = random_table(3, 3, random.Random(4))
        report = zeta_factorization_check(fig3_dag, theta, lattice)
        assert report.passed and report.total == len(lattice) == 14
        rebuilt = StateLattice(3, 3, lattice.states)
        assert zeta_factorization_check(fig3_dag, theta, rebuilt) == report

    def test_specific_identity_q012(self, fig3_dag):
        """On the table reduced entry by entry, the identity is exact."""
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        rows = symbolic_table(3, 3).rows
        reduced = table_from_rows([[eliminate_simplex(v, 3, 3) for v in row] for row in rows])
        cumulative = zeta_transform(full_distribution(fig3_dag, reduced, lattice), lattice)
        assert as_map(lattice, cumulative)[(0, 1, 2)] == tv(1, 0) * (tv(2, 0) + tv(2, 1))

    def test_random_tables_on_catalog(self):
        # rational tables through their integer view, and integer tables as
        # they are
        rng = random.Random(55)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                lattice = order_preserving_maps(transitive_closure(dag), k)
                for theta in (random_table(dag.n, k, rng), ParamTable.random(dag.n, k, rng)):
                    assert zeta_factorization_check(dag, theta, lattice).passed

    def test_monomial_image_evaluates_to_cumulative_coordinate(self):
        # evaluating q_g's monomial image at the multiplicative parameters
        # (with t = 1) rebuilds the product of cumulative weights, which is
        # the cumulative coordinate itself
        from maxlin.algebra import Polynomial, monomial_map, q_var, t_var, x_var

        rng = random.Random(99)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                theta = random_table(dag.n, k, rng)
                x = x_ratios(theta)
                lattice = order_preserving_maps(transitive_closure(dag), k)
                cumulative = zeta_transform(
                    full_distribution(dag, theta, lattice), lattice
                )
                mapping = monomial_map(lattice)
                assignment = {t_var(): Fraction(1)}
                for i in range(1, dag.n + 1):
                    for r in range(k - 1):
                        assignment[x_var(i, r)] = x[i - 1][r]
                for g, value in zip(lattice, cumulative):
                    image = Polynomial({mapping.image(q_var(g)): 1})
                    assert evaluate(image, assignment) == value


class TestFactors:
    """The factor tuples of the symbolic checks: products kept as their
    factors, each a level mask on the level table."""

    def test_sum_adds_the_one_differing_factor(self):
        # disjoint level sets in the one differing slot sum to their union
        for t in range(3):
            left = _Factors((0b11, 0b1, 0b101))
            right = _Factors((*left[:t], 0b1000, *left[t + 1 :]))
            union = _Factors((*left[:t], left[t] | 0b1000, *left[t + 1 :]))
            assert left + right == union == right + left
        assert _Factors((0b1,)) + _Factors((0b110,)) == (0b111,)

    def test_overlapping_levels_are_unfactored(self):
        # theta_0 + (theta_0 + theta_1) has a coefficient 2: no level set
        for left, right in (((0b1,), (0b11,)), ((5, 0b110), (5, 0b10)), ((7, 3), (7, 3))):
            assert _Factors(left) + _Factors(right) is _UNFACTORED
            assert _Factors(right) + _Factors(left) is _UNFACTORED

    def test_other_sums_are_unfactored(self):
        one = _Factors((0b1, 0b1))
        for other in (
            one,
            _Factors((0b10, 0b10)),
            _Factors((0b1,)),
            _Factors((0b1, 0b1, 0b10)),
            Fraction(0),
            0,
            _UNFACTORED,
        ):
            assert one + other is _UNFACTORED
            assert other + one is _UNFACTORED
        assert _UNFACTORED + Fraction(0) is _UNFACTORED
        assert _UNFACTORED != one and Fraction(0) != one


def verify_eq5(capsys, argv) -> dict:
    code = main(["verify", "eq5", *argv])
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert code == (0 if report["passed"] else 1)
    return report


class TestFactorPath:
    """Symbolic eq5 on the level table's factor tuples against the expanded
    check, and walks broken on purpose, which must fail in the symbolic
    branch itself."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_catalog_passes(self, k):
        for _, dag in catalog_dags(k):
            report = check_levels(dag)
            assert report.passed and report.total == len(
                order_preserving_maps(transitive_closure(dag), k)
            )

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dags(),
        st.sampled_from([2, 3, 4]),
        st.sampled_from(["none", "flipped", "alpha"]),
        st.integers(0, 7),
    )
    def test_passes_exactly_when_the_expanded_check_does(self, dag, k, mutant, v):
        """The level-table verdict is the expanded one, on the code as it is,
        with the cover table in increasing column sum, and with a joint
        taking alpha_{v,m} where theta_{v,g_v} belongs; every state the
        expanded check fails fails the level check too."""
        # the expanded check is exponential in n
        assume(k**dag.n <= 1024)
        dag = dataclasses.replace(dag, k=k)
        with pytest.MonkeyPatch.context() as patch:
            if mutant == "flipped":
                replace_cover_table(patch, increasing_column_sum_covers)
            elif mutant == "alpha":
                replace_joint(patch, alpha_for_theta_walk(v % dag.n + 1))
            report = eq5_check(dag, trials=0, seed=0)
            expanded = expanded_eq5_failures(dag, symbolic_table(dag.n, k))
        assert report.passed == (not expanded)
        assert set(report.failures) >= {f"symbolic: {line}" for line in expanded}
        if mutant == "alpha":
            assert not report.passed

    @pytest.fixture()
    def fig2_path(self, tmp_path):
        path = tmp_path / "fig2.dag"
        path.write_text(data.read("fig2.dag"), encoding="utf-8")
        return str(path)

    @staticmethod
    def symbolic_failures(capsys, fig2_path) -> list[str]:
        # no random trials: every failure line comes from the symbolic branch
        report = verify_eq5(capsys, ["--dag", fig2_path, "--k", "3", "--trials", "0"])
        assert not report["passed"] and report["failures"]
        assert all(line.startswith("symbolic: state ") for line in report["failures"])
        return report["failures"]

    def test_walk_in_increasing_column_sum(self, capsys, fig2_dag, fig2_path, monkeypatch):
        # the same pairs as the lattice's own table, in the reverse
        # coordinate order
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        flipped = increasing_column_sum_covers(lattice)
        assert sorted(flipped) == sorted(lattice.covers) and flipped != lattice.covers
        replace_cover_table(monkeypatch, increasing_column_sum_covers)
        self.symbolic_failures(capsys, fig2_path)

    @pytest.mark.parametrize("drop", [0, 7, -1])
    def test_dropped_cover_pair(self, capsys, fig2_path, monkeypatch, drop):
        table = StateLattice.covers.func

        def drop_one(lattice):
            pairs = list(table(lattice))
            del pairs[drop]
            return tuple(pairs)

        replace_cover_table(monkeypatch, drop_one)
        self.symbolic_failures(capsys, fig2_path)

    def test_theta_at_the_parents_maximum(self, capsys, fig2_path, monkeypatch):
        joint = model.full_distribution

        def theta_for_alpha(dag, theta, *args):
            broken = ParamTable(theta.rows)
            object.__setattr__(broken, "cumulative", theta.rows)
            return joint(dag, broken, *args)

        replace_joint(monkeypatch, theta_for_alpha)
        self.symbolic_failures(capsys, fig2_path)

    def test_dropped_state(self, capsys, fig2_path, monkeypatch):
        replace_joint(monkeypatch, joint_edited_at((0, 1, 1, 2, 2), lambda value: Fraction(0)))
        assert "symbolic: state 01122" in self.symbolic_failures(capsys, fig2_path)

    def test_one_alpha_on_the_right_side(self, capsys, fig2_dag, fig2_path, monkeypatch):
        products = transforms._level_products

        def corrupt(rows, states, product):
            rows = [list(row) for row in rows]
            rows[3][1] += 1
            return products(rows, states, product)

        monkeypatch.setattr(transforms, "_level_products", corrupt)
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        # exactly the states at level 1 of vertex 4 fail
        assert self.symbolic_failures(capsys, fig2_path) == [
            f"symbolic: state {state_digits(g)}" for g in lattice if g[3] == 1
        ]


class TestNoExpansion:
    """Symbolic eq5 and theorem31 form no polynomials, so they run in time
    polynomial in n."""

    def test_forty_chain_through_the_cli(self, capsys, tmp_path):
        path = tmp_path / "chain40.dag"
        path.write_text("40 3\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 40)))
        report = verify_eq5(capsys, ["--dag", str(path), "--trials", "1"])
        # the 3-level maps of a 40-chain: C(42, 2) = 861 states
        assert report["passed"] and report["total"] == 2 * 861
        assert report["detail"] == "symbolic + 1 random tables, 861 states each"
