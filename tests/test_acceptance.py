"""Acceptance suite: every criterion checked at exact rational/polynomial
equality (zero tolerance), printing one pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the lines as they print.
"""

import functools
import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

from maxlin.algebra import (
    Polynomial,
    buchberger_check,
    evaluate_at_distribution,
    hibi_generators,
    hilbert_check,
    monomial_map,
    parse_polynomial,
    q_var,
    t_var,
    verify_vanishing,
    x_var,
)
from maxlin.cli import main
from maxlin.dag import transitive_closure
from maxlin.model import (
    ParamTable,
    cbn_correspondence_check,
    full_distribution,
    integer_view,
    oracle_equivalence_check,
)
from maxlin.poset import order_preserving_maps
from maxlin.transforms import (
    moebius_inverse,
    zeta_factorization_check,
    zeta_transform,
)

from conftest import (
    accumulation_by_state,
    as_map,
    catalog_dags,
    chain_product,
    eliminate_simplex,
    image_ideal,
    incomparable_pairs,
    joint_by_state,
    order_ideals,
    poly_of,
    random_dag,
    random_table,
    state_leq,
    substitute,
    substitute_variables,
    symbolic_table,
    table_from_rows,
    theta_var,
    x_ratios,
)

FIG2_STATES = [
    "00000", "00001", "00011", "00101", "00111",
    "01011", "01111", "10111", "11111",
]

FIG2_IDEALS = [
    "00000", "01000", "10000", "10100", "11000",
    "11010", "11100", "11110", "11111",
]

FIG2_GENERATORS = {
    "q[00011]*q[00101] - q[00001]*q[00111]",
    "q[00101]*q[01011] - q[00001]*q[01111]",
    "q[00111]*q[01011] - q[00011]*q[01111]",
    "q[01011]*q[10111] - q[00011]*q[11111]",
    "q[01111]*q[10111] - q[00111]*q[11111]",
}

FIG1_GENERATORS = {
    "q[01000]*q[10000] - q[00000]*q[11000]",
    "q[11101]*q[11110] - q[11100]*q[11111]",
}

# the published generating set of the two-state model's vanishing ideal on
# the fig2 graph, in the probability coordinates
FIG2_P_GENERATORS = [
    "p[00000]+p[00001]+p[00011]+p[00101]+p[00111]"
    "+p[01011]+p[01111]+p[10111]+p[11111] - 1",
    "p[01111]*p[10111] - p[00101]*p[11111] - p[00111]*p[11111]",
    "p[01011]*p[10111] - p[00000]*p[11111] - p[00001]*p[11111] - p[00011]*p[11111]",
    "p[00111]*p[01011] - p[00011]*p[01111]",
    "p[00101]*p[01011] - p[00000]*p[01111] - p[00001]*p[01111]",
    "p[00011]*p[00101] - p[00000]*p[00111] - p[00001]*p[00111]",
]


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d}: FAIL - {title}")
                raise
            print(f"[acceptance] criterion {number:2d}: PASS - {title}")

        return wrapper

    return decorate


def cli_lines(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, buffer.getvalue()
    return buffer.getvalue().splitlines()


def dag_file(tmp_path, name):
    from maxlin import data

    target = tmp_path / name
    target.write_text(data.read(name), encoding="utf-8")
    return str(target)


def tv(i, j):
    return poly_of(theta_var(i, j))


@criterion(1, "lattice and ideals commands reproduce the 9+9 fig2 vectors")
def test_criterion_01_fig2_reproduction(tmp_path):
    fig2 = dag_file(tmp_path, "fig2.dag")
    assert cli_lines(["lattice", "--dag", fig2, "--format", "text"]) == FIG2_STATES
    assert cli_lines(["ideals", "--dag", fig2, "--format", "text"]) == FIG2_IDEALS


@criterion(2, "the symbolic factored joint on fig2 equals the 9 published monomials")
def test_criterion_02_symbolic_distribution(fig2_dag):
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


@criterion(3, "the symbolic accumulation model on the fig1 poset equals the 8 published monomials")
def test_criterion_03_accumulation_model(fig1_poset):
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


@criterion(4, "the two-state correspondence holds symbolically on fig2, including the published pair")
def test_criterion_04_two_state_correspondence(fig2_dag):
    report = cbn_correspondence_check(fig2_dag, trials=0, seed=0)
    assert report.passed and report.total == 9
    closure = transitive_closure(fig2_dag)
    accum = accumulation_by_state(closure, symbolic_table(5, 2))
    maxmodel = joint_by_state(fig2_dag, symbolic_table(5, 2))
    assert accum[(1, 0, 1, 0, 0)] == tv(1, 1) * tv(2, 0) * tv(3, 1)
    assert maxmodel[(0, 1, 0, 1, 1)] == tv(1, 0) * tv(2, 1) * tv(3, 0)
    swap = {theta_var(i, j): poly_of(theta_var(i, 1 - j))
            for i in range(1, 6) for j in (0, 1)}
    assert substitute_variables(accum[(1, 0, 1, 0, 0)], swap) == maxmodel[(0, 1, 0, 1, 1)]


@criterion(5, "cumulative coordinates factor into cumulative weights, symbolically and on 100 random tables")
def test_criterion_05_factorization_identity(fig2_dag, fig3_dag):
    # the specific worked identity: the cumulative coordinate of state 012
    # equals the product of the level-0 weight at vertex 1 and the
    # cumulative level-1 weight at vertex 2, exactly on the table reduced
    # entry by entry modulo the row relations
    lattice3 = order_preserving_maps(transitive_closure(fig3_dag), 3)
    rows = [[eliminate_simplex(v, 3, 3) for v in row] for row in symbolic_table(3, 3).rows]
    dist = full_distribution(fig3_dag, table_from_rows(rows), lattice3)
    cumulative = as_map(lattice3, zeta_transform(dist, lattice3))
    assert cumulative[(0, 1, 2)] == tv(1, 0) * (tv(2, 0) + tv(2, 1))

    for dag, n, k in ((fig2_dag, 5, 2), (fig3_dag, 3, 3)):
        lattice = order_preserving_maps(transitive_closure(dag), k)
        levels = ParamTable.levels(n, k)
        assert zeta_factorization_check(dag, levels, lattice).passed
        rng = random.Random(0)
        for _ in range(100):
            theta = random_table(n, k, rng)
            assert zeta_factorization_check(dag, theta, lattice).passed


@criterion(6, "the emitted binomial generators match the published sets and count incomparable pairs")
def test_criterion_06_generators(tmp_path):
    fig2 = dag_file(tmp_path, "fig2.dag")
    lines = cli_lines(["generators", "--dag", fig2, "--format", "text"])
    assert set(lines) == FIG2_GENERATORS
    fig1 = dag_file(tmp_path, "fig1.poset")
    lines = cli_lines(
        ["generators", "--dag", fig1, "--of", "ideals", "--format", "text"]
    )
    assert set(lines) == FIG1_GENERATORS

    rng = random.Random(6)
    for _ in range(50):
        k = rng.choice((2, 3))
        dag = random_dag(rng, k=k)
        lattice = order_preserving_maps(transitive_closure(dag), k)
        assert len(hibi_generators(lattice)) == len(incomparable_pairs(lattice))


@criterion(7, "every binomial generator vanishes under the monomial map for the whole catalog, k in 2..4")
def test_criterion_07_vanishing(fig3_dag):
    lattice3 = order_preserving_maps(transitive_closure(fig3_dag), 3)
    image = substitute(parse_polynomial("q[012]"), monomial_map(lattice3))
    expected = Polynomial({((t_var(), 1), (x_var(1, 0), 1), (x_var(1, 1), 1), (x_var(2, 0), 1)): 1})
    assert image == expected

    for k in (2, 3, 4):
        for name, dag in catalog_dags(k):
            lattice = order_preserving_maps(transitive_closure(dag), k)
            report = verify_vanishing(hibi_generators(lattice), monomial_map(lattice))
            assert report.passed, (name, k, report.failures[:1])


@criterion(8, "the 6 published probability-coordinate generators vanish on 100 random fig2 joints")
def test_criterion_08_published_p_generators(fig2_dag):
    lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
    polynomials = [parse_polynomial(text) for text in FIG2_P_GENERATORS]
    rng = random.Random(0)
    for _ in range(100):
        view, denominator = integer_view(random_table(5, 2, rng))
        numerators = as_map(lattice, full_distribution(fig2_dag, view, lattice))
        for text, poly in zip(FIG2_P_GENERATORS, polynomials):
            assert evaluate_at_distribution(poly, lattice, numerators, denominator) == 0, text


@criterion(9, "the factored joint equals the innovation oracle on the whole box, catalog-wide")
def test_criterion_09_oracle_equivalence():
    for k in (1, 2, 3):
        for name, dag in catalog_dags(k):
            report = oracle_equivalence_check(dag, trials=50, seed=9)
            assert report.passed, (name, k, report.failures[:1])


@criterion(10, "zeta/Moebius and the cumulative weight rows round-trip exactly")
def test_criterion_10_roundtrips(fig2_dag):
    lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
    rng = random.Random(10)
    for _ in range(100):
        values = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 60)) for _ in lattice]
        assert moebius_inverse(zeta_transform(values, lattice), lattice) == values
        assert zeta_transform(moebius_inverse(values, lattice), lattice) == values

    for k in (2, 3, 4):
        for _ in range(25):
            theta = random_table(4, k, rng)
            for row, alpha, x in zip(theta.rows, theta.cumulative, x_ratios(theta)):
                assert (alpha[0], *(b - a for a, b in zip(alpha, alpha[1:]))) == row
                assert [math.prod(x[: k - j - 1]) for j in range(k)] == list(alpha)


@criterion(11, "states biject order-reversingly with the product poset's order ideals, catalog-wide")
def test_criterion_11_lattice_correspondence(fig3_dag):
    lattice3 = order_preserving_maps(transitive_closure(fig3_dag), 3)
    product_poset = chain_product(transitive_closure(fig3_dag), 2)
    assert len(lattice3) == 14
    assert len(order_ideals(product_poset)) == 14
    mmap3 = monomial_map(lattice3)
    image = mmap3.image(q_var((0, 1, 2)))
    assert image == ((t_var(), 1), (x_var(1, 0), 1), (x_var(1, 1), 1), (x_var(2, 0), 1))
    assert mmap3.image(q_var((2, 2, 2))) == ((t_var(), 1),)
    assert image_ideal(mmap3, (0, 0, 0)) == set(product_poset.elements)

    for k in (2, 3):
        for name, dag in catalog_dags(k):
            poset = transitive_closure(dag)
            lattice = order_preserving_maps(poset, k)
            prod = chain_product(poset, k - 1)
            ideals = order_ideals(prod)
            assert len(lattice) == len(ideals), (name, k)
            mmap = monomial_map(lattice)
            images = {g: image_ideal(mmap, g) for g in lattice}
            assert len(set(images.values())) == len(lattice)
            members = {
                frozenset(e for e, bit in zip(prod.elements, ind) if bit)
                for ind in ideals
            }
            assert set(images.values()) == members
            for g in lattice:
                for h in lattice:
                    if state_leq(g, h):
                        assert images[g] >= images[h]


@criterion(
    12,
    "the binomial generators pass the Buchberger criterion and the Hilbert-count"
    " certificate for every catalog lattice",
)
def test_criterion_12_groebner():
    for k in (2, 3):
        for name, dag in catalog_dags(k):
            lattice = order_preserving_maps(transitive_closure(dag), k)
            generators = hibi_generators(lattice)
            report = buchberger_check(generators)
            assert report.passed, (name, k, report.failures[:1])
            certificate = hilbert_check(lattice, generators)
            assert certificate.passed, (name, k, certificate.failures[:2])
            assert certificate.total == report.total
