"""Cumulative coordinates, Moebius inversion, the cumulative weight rows,
and the factorization that links them."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin.algebra import Polynomial, p_var, theta_var
from maxlin.dag import Dag, transitive_closure
from maxlin.errors import SupportMismatchError
from maxlin.model import ParamTable, eliminate_simplex, full_distribution
from maxlin.poset import ideal_lattice, order_preserving_maps, state_leq
from maxlin.transforms import (
    _level_products,
    moebius_inverse,
    roundtrip_check,
    zeta_factorization_check,
    zeta_transform,
)

from conftest import CATALOG, catalog_dags, dags, x_ratios


def tv(i, j):
    return Polynomial.from_variable(theta_var(i, j))


def random_lattice_function(lattice, rng):
    return {g: Fraction(rng.randint(-500, 500), rng.randint(1, 40)) for g in lattice}


def quadratic_zeta(values, lattice):
    """Reference zeta: for every state, sum the values at all states below it,
    found by comparing every pair of states."""
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


def lattices_of(dag, ks):
    """The state lattices of the reachability poset and of its dual for each
    k in ks, and the ideal lattices of both."""
    poset = transitive_closure(dag)
    for order in (poset, poset.dual()):
        for k in ks:
            yield order_preserving_maps(order, k)
        yield ideal_lattice(order)


def check_walk_against_quadratic(lattice, rng):
    # Rational values with some states left out (they count as 0), and one
    # variable per state, so each h <= g must be summed into g exactly once.
    rational = {
        g: Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        for g in lattice
        if rng.random() < 0.8
    }
    symbolic = {g: Polynomial.from_variable(p_var(g)) for g in lattice}
    for values in (rational, symbolic):
        cumulative = zeta_transform(values, lattice)
        assert list(cumulative) == list(lattice)
        assert cumulative == quadratic_zeta(values, lattice)
        assert moebius_inverse(values, lattice) == back_substitution_moebius(values, lattice)


class TestZeta:
    def test_fig3_symbolic_sum(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        dist = full_distribution(fig3_dag, ParamTable.symbolic(3, 3), lattice)
        cumulative = zeta_transform(dist, lattice)
        below = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
        expected = Polynomial.zero()
        for h in below:
            expected = expected + dist[h]
        assert cumulative[(0, 1, 2)] == expected

    def test_bottom_state(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        theta = ParamTable.uniform(5, 2)
        dist = full_distribution(fig2_dag, theta, lattice)
        cumulative = zeta_transform(dist, lattice)
        assert cumulative[lattice.bottom] == dist[lattice.bottom]

    def test_top_state_is_total_mass(self):
        rng = random.Random(3)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                lattice = order_preserving_maps(transitive_closure(dag), k)
                theta = ParamTable.random(dag.n, k, rng)
                cumulative = zeta_transform(full_distribution(dag, theta, lattice), lattice)
                assert cumulative[lattice.top] == 1

    def test_monotone_for_nonnegative_input(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        rng = random.Random(9)
        theta = ParamTable.random(5, 2, rng)
        cumulative = zeta_transform(full_distribution(fig2_dag, theta, lattice), lattice)
        for g in lattice:
            for h in lattice:
                if state_leq(g, h):
                    assert cumulative[g] <= cumulative[h]

    def test_support_mismatch(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        with pytest.raises(SupportMismatchError):
            zeta_transform({(1, 0, 0, 0, 0): Fraction(1)}, lattice)


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


class TestLevelProducts:
    """eq5's right-hand side, formed as prefix products along the states,
    against one product per state."""

    @staticmethod
    def per_state(rows, states):
        return [math.prod((row[v] for row, v in zip(rows, g)), start=Fraction(1)) for g in states]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_catalog(self, k):
        rng = random.Random(200 + k)
        for _, dag in catalog_dags(k):
            states = order_preserving_maps(transitive_closure(dag), k).states
            for theta in (ParamTable.random(dag.n, k, rng), ParamTable.symbolic(dag.n, k)):
                rows = theta.cumulative
                assert _level_products(rows, states) == self.per_state(rows, states)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 4), st.integers(0, 2**32))
    def test_any_order_of_any_vectors(self, dag, k, seed):
        # correct on vectors in any order, repeats included; the order only
        # decides how many products are shared
        rng = random.Random(seed)
        rows = ParamTable.random(dag.n, k, rng).rows
        states = [tuple(rng.randrange(k) for _ in range(dag.n)) for _ in range(20)]
        states += states[:3]
        assert _level_products(rows, states) == self.per_state(rows, states)


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
        cumulative = {g: Fraction(1) for g in lattice if g == lattice.top}
        recovered = moebius_inverse(cumulative, lattice)
        assert recovered[lattice.top] == 1
        assert all(v == 0 for g, v in recovered.items() if g != lattice.top)

    def test_single_state_lattice(self):
        lattice = order_preserving_maps(transitive_closure(Dag(n=1, k=1)), 1)
        values = {(0,): Fraction(5, 7)}
        assert moebius_inverse(values, lattice) == values

    def test_suite(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        report = roundtrip_check(lattice, trials=25, seed=1)
        assert report.passed and report.total == 50


class TestAlphaTable:
    """The cumulative rows alpha that a ParamTable builds from its weights."""

    def test_partial_sums_golden(self):
        theta = ParamTable.from_rows([[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]])
        assert theta.cumulative == ((Fraction(1, 4), Fraction(1, 2), Fraction(1)),)

    def test_two_state_first_entry_is_theta0(self):
        theta = ParamTable.from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        assert theta.cumulative[0][0] == Fraction(1, 3)

    def test_point_mass_gives_all_ones(self):
        theta = ParamTable.from_rows([[1, 0, 0]])
        assert theta.cumulative == ((Fraction(1), Fraction(1), Fraction(1)),)

    def test_rejects_decreasing_row(self):
        # the partial sums 1/2, 1/4, 1 would decrease: a negative weight
        with pytest.raises(ValueError, match="negative"):
            ParamTable(((Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4)),))

    def test_rejects_row_not_ending_in_one(self):
        # the partial sums 1/4, 1/2 would not end in 1
        with pytest.raises(ValueError, match="not 1"):
            ParamTable(((Fraction(1, 4), Fraction(1, 4)),))

    def test_symbolic_rows_end_in_one(self):
        theta = ParamTable.symbolic(2, 3)
        assert theta.cumulative[1] == (tv(2, 0), tv(2, 0) + tv(2, 1), Fraction(1))

    def test_roundtrips(self):
        rng = random.Random(21)
        for _ in range(40):
            theta = ParamTable.random(3, 4, rng)
            for row, alpha in zip(theta.rows, theta.cumulative):
                assert alpha[-1] == 1
                assert (alpha[0], *(b - a for a, b in zip(alpha, alpha[1:]))) == row


class TestXTable:
    """The multiplicative parameters x of the tests' reference helper."""

    def test_three_state_relations(self):
        theta = ParamTable.from_rows([[Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]])
        alpha = theta.cumulative[0]
        x = x_ratios(theta)[0]
        assert x == [Fraction(1, 2), Fraction(1, 2)]
        assert x[0] * x[1] == alpha[0]
        assert x[0] == alpha[1]

    def test_two_state_x_equals_alpha(self):
        theta = ParamTable.from_rows([[Fraction(1, 3), Fraction(2, 3)]])
        assert x_ratios(theta) == [[Fraction(1, 3)]]

    def test_zero_weight_divides(self):
        theta = ParamTable.from_rows([[0, 0, 1]])
        with pytest.raises(ZeroDivisionError):
            x_ratios(theta)

    def test_reconstruction_roundtrip(self):
        rng = random.Random(77)
        for _ in range(40):
            theta = ParamTable.random(2, 4, rng)
            for x, alpha in zip(x_ratios(theta), theta.cumulative):
                assert [math.prod(x[: 4 - j - 1]) for j in range(4)] == list(alpha)


class TestZetaFactorization:
    def test_symbolic_fig3(self, fig3_dag):
        report = zeta_factorization_check(fig3_dag, ParamTable.symbolic(3, 3))
        assert report.passed and report.total == 14

    def test_symbolic_fig2(self, fig2_dag):
        report = zeta_factorization_check(fig2_dag, ParamTable.symbolic(5, 2))
        assert report.passed and report.total == 9

    def test_specific_identity_q012(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        dist = full_distribution(fig3_dag, ParamTable.symbolic(3, 3), lattice)
        cumulative = zeta_transform(dist, lattice)
        lhs = eliminate_simplex(cumulative[(0, 1, 2)], 3, 3)
        rhs = eliminate_simplex(tv(1, 0) * (tv(2, 0) + tv(2, 1)), 3, 3)
        assert lhs == rhs

    def test_random_tables_on_catalog(self):
        rng = random.Random(55)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                theta = ParamTable.random(dag.n, k, rng)
                assert zeta_factorization_check(dag, theta).passed

    def test_monomial_image_evaluates_to_cumulative_coordinate(self):
        # evaluating q_g's monomial image at the multiplicative parameters
        # (with t = 1) rebuilds the product of cumulative weights, which is
        # the cumulative coordinate itself
        from maxlin.algebra import Polynomial, monomial_map, q_var, t_var, x_var

        rng = random.Random(99)
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                theta = ParamTable.random(dag.n, k, rng)
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
                for g in lattice:
                    image = Polynomial.from_term(mapping.image(q_var(g)), 1)
                    assert image.evaluate(assignment) == cumulative[g]
