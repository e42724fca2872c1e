"""Shared fixtures: the figure inputs, the fixed DAG catalog, independent
brute-force enumerators, the reference polynomial ring (sums, products and
powers of `Polynomial`), the general division algorithm (which refuses
non-canonical monomials), lattice functions keyed by state, the symbolic,
rational and reduced tables, the expanded eq5 and theorem31 checks, broken
joints to run them under and the helper that installs one, generic
substitution, the monomial map one variable at a time, the Hilbert
certificate's old degree 1-3 counts, the vanishing check and the
certificate on multiplied-out images and a lead set, reference helpers
(the order, meet and join of states, the generator of a pair, the dual of a
poset, its covers and order ideals, the order-ideal test, the axiom
violations and maximal lower elements of a relation by all pairs, the
uniform table, the accumulation model one element at a time), the polynomial grammar one token at a time
and Fraction evaluation, and random generators for property-style tests."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from maxlin import cli, data, model, transforms
from maxlin.algebra import (
    FAMILIES,
    MAX_EXPONENT,
    BinomialGenerator,
    GeneratorArrays,
    MonomialMap,
    Polynomial,
    Variable,
    _lead_split,
    generator_arrays,
    mono_degree,
    mono_from_dict,
    mono_mul,
    q_var,
    state_digits,
    t_var,
    x_var,
)
from maxlin.dag import Dag, parse_dag, transitive_closure
from maxlin.errors import BadStateError, ParseError, UnboundVariableError, quote, shorten
from maxlin.model import ParamTable, Value, cbn_distribution, conditional_probability
from maxlin.poset import (
    Label,
    Poset,
    State,
    StateLattice,
    bit_positions,
    ideal_lattice,
    order_preserving_maps,
)
from maxlin.report import Report
from maxlin.transforms import zeta_transform

# The fixed catalog used by the acceptance suite: 20 DAGs with n <= 5,
# including the two bundled figure graphs, chains, antichains, forks,
# colliders, diamonds, a transitive edge, and scrambled vertex labels.
CATALOG: list[tuple[str, int, tuple[tuple[int, int], ...]]] = [
    ("fig2", 5, ((1, 3), (1, 4), (2, 4), (3, 5), (4, 5))),
    ("fig3", 3, ((1, 2), (1, 3))),
    ("fig1_covers", 5, ((1, 3), (2, 3), (3, 4), (3, 5))),
    ("single", 1, ()),
    ("chain2", 2, ((1, 2),)),
    ("chain3", 3, ((1, 2), (2, 3))),
    ("chain4", 4, ((1, 2), (2, 3), (3, 4))),
    ("chain5", 5, ((1, 2), (2, 3), (3, 4), (4, 5))),
    ("antichain2", 2, ()),
    ("antichain3", 3, ()),
    ("collider", 3, ((1, 3), (2, 3))),
    ("diamond", 4, ((1, 2), (1, 3), (2, 4), (3, 4))),
    ("diamond_tail", 5, ((1, 2), (1, 3), (2, 4), (3, 4), (4, 5))),
    ("n_poset", 4, ((1, 3), (2, 3), (2, 4))),
    ("y_poset", 4, ((1, 3), (2, 3), (3, 4))),
    ("transitive_triangle", 3, ((1, 2), (2, 3), (1, 3))),
    ("transitive_plus", 4, ((1, 2), (2, 3), (1, 3), (3, 4))),
    ("scrambled", 4, ((4, 2), (1, 2), (4, 3))),
    ("reversed_fork", 3, ((3, 1), (3, 2))),
    ("bipartite22", 4, ((1, 3), (1, 4), (2, 3), (2, 4))),
]


# Small posets whose labels are not a topological order, so the walk's
# linear extension permutes the coordinates: the chain 1 < 0, the chain
# 2 < 0 < 1, 2 below both 0 and 1, 0 and 2 below 1, and 1 below 0 beside 2.
RELABELLED = [
    Poset((0, 1), (0b11, 0b10)),
    Poset((0, 1, 2), (0b101, 0b111, 0b100)),
    Poset((0, 1, 2), (0b101, 0b110, 0b100)),
    Poset((0, 1, 2), (0b001, 0b111, 0b100)),
    Poset((0, 1, 2), (0b011, 0b010, 0b100)),
]


def catalog_dag(name: str, k: int) -> Dag:
    for entry, n, edges in CATALOG:
        if entry == name:
            return Dag(n=n, k=k, edges=frozenset(edges))
    raise KeyError(name)


def catalog_dags(k: int) -> list[tuple[str, Dag]]:
    return [(name, Dag(n=n, k=k, edges=frozenset(edges))) for name, n, edges in CATALOG]


@pytest.fixture(scope="session")
def fig2_dag() -> Dag:
    return parse_dag(data.read("fig2.dag"))


@pytest.fixture(scope="session")
def fig3_dag() -> Dag:
    return parse_dag(data.read("fig3.dag"))


@pytest.fixture(scope="session")
def fig1_poset() -> Poset:
    return transitive_closure(parse_dag(data.read("fig1.poset")))


def antichain(labels: tuple[Label, ...]) -> Poset:
    return Poset.from_relation(labels, ((a, a) for a in labels))


def chain(length: int) -> Poset:
    """The chain 0 < 1 < ... < length-1."""
    elems = tuple(range(length))
    return Poset.from_relation(elems, ((a, b) for a in elems for b in elems[a:]))


def order_ideals(poset: Poset) -> list[State]:
    """All order ideals as 0-1 indicator tuples over `poset.elements`,
    lexicographically ordered: the states of `ideal_lattice`."""
    return list(ideal_lattice(poset).states)


def covers_below(poset: Poset, b: Label) -> tuple[Label, ...]:
    """The elements b covers: the maximal elements strictly below b."""
    covers = poset._lower_covers[poset.elements.index(b)]
    return tuple(poset.elements[j] for j in bit_positions(covers))


def is_order_ideal(poset: Poset, indicator: State) -> bool:
    """Whether a 0-1 vector over `poset.elements` is downward closed: the
    box filter that the ideal enumerations are compared against."""
    if len(indicator) != len(poset.elements) or any(b not in (0, 1) for b in indicator):
        raise BadStateError(f"indicator {indicator!r} is not a 0-1 vector over the poset")
    members = sum(1 << i for i, b in enumerate(indicator) if b)
    return all(not poset.down[i] & ~members for i in bit_positions(members))


def ideal_members(poset: Poset, indicator: State) -> frozenset[Label]:
    return frozenset(e for e, bit in zip(poset.elements, indicator) if bit)


def image_ideal(mmap: MonomialMap, g: State) -> frozenset[tuple[int, int]]:
    """The x-support of q_g's image under a monomial map, x[i, r] read as
    the element (vertex i, r): under `monomial_map` of a DAG's state
    lattice, the order ideal of chain_product(P, k-1) that g corresponds to."""
    return frozenset(v.index for v, _ in mmap.image(q_var(g)) if v.family == "x")


def brute_force_states(poset: Poset, k: int) -> list[tuple[int, ...]]:
    """Independent enumeration: filter the whole k**n box by checking every
    related pair directly against the poset relation."""
    n = len(poset.elements)
    relation = poset.relation
    out = []
    for g in product(range(k), repeat=n):
        ok = True
        for i, a in enumerate(poset.elements):
            for j, b in enumerate(poset.elements):
                if (a, b) in relation and g[i] > g[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(g)
    return out


def brute_force_ideals(poset: Poset) -> list[tuple[int, ...]]:
    """Independent enumeration of downward-closed indicator vectors."""
    n = len(poset.elements)
    relation = poset.relation
    out = []
    for ind in product((0, 1), repeat=n):
        ok = True
        for i, a in enumerate(poset.elements):
            if not ind[i]:
                continue
            for j, b in enumerate(poset.elements):
                if (b, a) in relation and not ind[j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(ind)
    return out


def incomparable_pairs(lattice: StateLattice) -> list[tuple[State, State]]:
    """All unordered incomparable pairs, listed as (g, h) with g before h in
    the lattice's lexicographic state order.

    Lexicographic order is a linear extension of the lattice order, so a
    later state is never below an earlier one, and (g, h) is incomparable
    iff g is not below h: iff g's mask in `lattice.masks` has a bit outside h's.
    """
    states = lattice.states
    masks = list(lattice.masks)
    out = []
    for i, (g, m) in enumerate(zip(states, masks)):
        out.extend(
            (g, states[j]) for j in range(i + 1, len(states)) if m & ~masks[j]
        )
    return out


def axiom_violations(down) -> tuple[set, set]:
    """Every violation of antisymmetry and transitivity among the masks of a
    reflexive relation, by positions, checked on all pairs and triples: the
    pairs (j, i) with j != i related both ways, and the triples (c, j, i)
    with c <= j <= i but not c <= i."""
    n = len(down)
    leq = [[bool(down[b] >> a & 1) for b in range(n)] for a in range(n)]
    pairs = {(j, i) for j in range(n) for i in range(n) if j != i and leq[j][i] and leq[i][j]}
    triples = {
        (c, j, i)
        for c, j, i in product(range(n), repeat=3)
        if leq[c][j] and leq[j][i] and not leq[c][i]
    }
    return pairs, triples


def maximal_below(down, i: int) -> int:
    """The lower covers of position i as a mask: the maximal elements
    strictly below i, each compared with every other one."""
    below = [j for j in range(len(down)) if j != i and down[i] >> j & 1]
    return sum(1 << j for j in below if not any(m != j and down[m] >> j & 1 for m in below))


def strict_pairs(poset: Poset) -> list:
    """All (a, b) with a < b, sorted by element position."""
    e, relation = poset.elements, poset.relation
    return [(a, b) for a in e for b in e if a != b and (a, b) in relation]


def dual(poset: Poset) -> Poset:
    """The same elements with the order reversed."""
    return Poset.from_relation(poset.elements, ((b, a) for a, b in poset.relation))


def state_leq(g: State, h: State) -> bool:
    return all(a <= b for a, b in zip(g, h))


def lattice_meet_join(g: State, h: State) -> tuple[State, State]:
    """Coordinate-wise (min, max); both lie in any lattice containing g and h."""
    meet = tuple(min(a, b) for a, b in zip(g, h))
    join = tuple(max(a, b) for a, b in zip(g, h))
    return meet, join


def binomial_of_pair(g: State, h: State) -> BinomialGenerator:
    """The generator of an incomparable pair, meet and join by `lattice_meet_join`."""
    if state_leq(g, h) or state_leq(h, g):
        raise ValueError(f"states {g} and {h} are comparable")
    return BinomialGenerator(g, h, *lattice_meet_join(g, h))


class RingPolynomial(Polynomial):
    """The reference ring: a `Polynomial` with sums, differences, products
    and nonnegative powers, a number standing for the constant polynomial.
    Arithmetic with a plain `Polynomial` on either side gives a
    `RingPolynomial`; `lift` turns a parsed one into a ring element."""

    __slots__ = ()

    @classmethod
    def _raw(cls, terms: dict) -> "RingPolynomial":
        """Trusting constructor for the arithmetic: the dict must already be
        canonical (Fraction coefficients, no zeros)."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def one(cls) -> "RingPolynomial":
        return cls({(): 1})

    @classmethod
    def constant(cls, c) -> "RingPolynomial":
        return cls({(): c})

    @staticmethod
    def _coerce(value) -> Polynomial | None:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return RingPolynomial.constant(value)
        return None

    def __add__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            value = terms.get(mono)
            if value is None:
                terms[mono] = coeff
            else:
                value = value + coeff
                if value:
                    terms[mono] = value
                else:
                    del terms[mono]
        return RingPolynomial._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "RingPolynomial":
        return RingPolynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-lift(other))

    def __rsub__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return lift(other) + (-self)

    def __mul__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                value = terms.get(mono)
                value = c1 * c2 if value is None else value + c1 * c2
                if value:
                    terms[mono] = value
                else:
                    del terms[mono]
        return RingPolynomial._raw(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RingPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = RingPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def lift(poly: Polynomial) -> RingPolynomial:
    """A polynomial, such as `parse_polynomial`'s, as a ring element."""
    return RingPolynomial._raw(dict(poly.terms))


def poly_of(var: Variable) -> RingPolynomial:
    """The polynomial of one variable."""
    return RingPolynomial({((var, 1),): 1})


def total_degree(poly: Polynomial) -> int:
    """The largest degree of a term; 0 for the zero polynomial."""
    return max((mono_degree(m) for m in poly.terms), default=0)


def theta_var(i: int, j: int) -> Variable:
    """The formal weight theta[i,j]; the polynomial grammar keeps the family."""
    return Variable("theta", (i, j))


def table_from_rows(rows) -> ParamTable:
    """A table from rows of polynomials or of numbers, each number made a
    Fraction."""
    return ParamTable(
        tuple(tuple(v if isinstance(v, RingPolynomial) else Fraction(v) for v in row) for row in rows)
    )


def symbolic_table(n: int, k: int) -> ParamTable:
    """Rows of the formal weight variables theta[i,j]: the multiplied-out
    counterpart of `ParamTable.levels`."""
    return ParamTable(
        tuple(tuple(poly_of(theta_var(i, j)) for j in range(k)) for i in range(1, n + 1))
    )


def random_table(n: int, k: int, rng: random.Random) -> ParamTable:
    """The rational table of `ParamTable.random`'s draw: each row of
    integers over its sum, so reduced denominators stay at or below 200 * k."""
    rows = ParamTable.random(n, k, rng).rows
    return ParamTable(tuple(tuple(Fraction(a, sum(row)) for a in row) for row in rows))


def uniform_table(n: int, k: int) -> ParamTable:
    """n rows of k equal weights."""
    return table_from_rows([[Fraction(1, k)] * k] * n)


def eliminate_simplex(value: Value, n: int, k: int) -> Value:
    """Canonical form modulo the row relations of a value of degree at most
    one, such as every entry of a symbolic table: each term
    c * theta[i,k-1] is cancelled by adding c times the row relation
    1 - sum_j theta[i,j], which is 0 on the simplex. Reducing is a ring
    homomorphism, so an identity that holds on the simplex becomes an exact
    polynomial identity when it is computed from the table's reduced entries.

    Raises:
        ValueError: the value has degree above one.
    """
    if not isinstance(value, RingPolynomial):
        return value
    degree = total_degree(value)
    if degree > 1:
        raise ValueError(f"eliminate_simplex reduces values of degree at most 1, not {degree}")
    tops = {theta_var(i, k - 1): i for i in range(1, n + 1)}
    for mono, c in list(value.terms.items()):
        i = tops.get(mono[0][0]) if mono else None
        if i is not None:
            relation = {((theta_var(i, j), 1),): -c for j in range(k)}
            value = value + RingPolynomial({(): c, **relation})
    return value


def p_var(state: State) -> Variable:
    """The variable p[g] of a state; the polynomial grammar keeps the family."""
    return Variable("p", tuple(state))


def alpha_var(i: int, j: int) -> Variable:
    """The variable alpha[i,j]; the polynomial grammar keeps the family."""
    return Variable("alpha", (i, j))


def x_ratios(theta: ParamTable) -> list[list[Fraction]]:
    """The multiplicative parameters of a rational table: entry r of row i-1
    is alpha_{i,k-r-2} / alpha_{i,k-r-1}, so the product of entries
    0..k-j-2 of a row rebuilds the cumulative weight alpha_{i,j}."""
    return [
        [row[j - 1] / row[j] for j in range(len(row) - 1, 0, -1)] for row in theta.cumulative
    ]


def joint_factored(dag: Dag, theta: ParamTable, g) -> Value:
    """The joint at one vector, as the product of the checked per-vertex
    conditionals; 0 exactly when g is not order-preserving for the
    reachability poset or a weight it uses is 0."""
    return math.prod(
        (conditional_probability(dag, theta, i, g) for i in range(1, dag.n + 1)),
        start=Fraction(1),
    )


def cbn_conditional(poset: Poset, theta: ParamTable, i, g) -> Value:
    """Conditional probability of the event-accumulation model on a poset,
    checked one element at a time: an element can only occur once
    everything it covers has occurred; given that, it occurs with its own
    two-state weight. The per-element reference of `cbn_distribution`."""
    if theta.k != 2:
        raise ValueError(f"the accumulation model is two-state, table has k={theta.k}")
    if len(g) != len(poset.elements) or any(v not in (0, 1) for v in g):
        raise BadStateError(f"vector {tuple(g)!r} is not a 0-1 vector over the poset")
    pos = poset.elements.index(i)
    if all(g[poset.elements.index(j)] == 1 for j in covers_below(poset, i)):
        return theta.rows[pos][g[pos]]
    return Fraction(1) if g[pos] == 0 else Fraction(0)


def expanded_eq5_failures(dag: Dag, theta: ParamTable) -> list[str]:
    """eq5 with every value multiplied out: the zeta transform of the
    expanded joint against one product of cumulative weights per state, on
    the table reduced modulo the row relations. Exponential in n; on
    `symbolic_table` the oracle of the level-table path on small DAGs."""
    n, k = theta.n, theta.k
    rows = [[eliminate_simplex(v, n, k) for v in row] for row in theta.rows]
    reduced = table_from_rows(rows)
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    cumulative = zeta_transform(model.full_distribution(dag, reduced, lattice), lattice)
    return [
        f"state {state_digits(g)}"
        for g, value in zip(lattice, cumulative)
        if value != math.prod((row[v] for row, v in zip(reduced.cumulative, g)), start=Fraction(1))
    ]


def expanded_theorem31_failures(dag: Dag) -> list[str]:
    """theorem31's symbolic half with every value multiplied out: at each
    ideal of the reachability poset, the accumulation model on
    `symbolic_table` against the two-state max model on its swapped table at
    the complemented state, as polynomials. The oracle of the level-table
    path on small DAGs."""
    dag2 = Dag(n=dag.n, k=2, edges=dag.edges)
    closure = transitive_closure(dag2)
    theta = symbolic_table(dag.n, 2)
    ideals = ideal_lattice(closure)
    states = order_preserving_maps(closure, 2)
    maxmodel = as_map(states, model.full_distribution(dag2, theta.swapped(), states))
    failures = []
    for g, value in zip(ideals, cbn_distribution(closure, theta, ideals)):
        image = tuple(1 - v for v in g)
        if value != maxmodel[image]:
            failures.append(f"ideal {state_digits(g)} vs state {state_digits(image)}")
    return failures


def as_map(lattice: StateLattice, values) -> dict[State, Value]:
    """A lattice function given as a list aligned with `lattice.states`,
    keyed by state, for comparing against the state-keyed references."""
    assert len(values) == len(lattice), f"{len(values)} values, {len(lattice)} states"
    return dict(zip(lattice.states, values))


def joint_by_state(dag: Dag, theta: ParamTable, product=math.prod) -> dict[State, Value]:
    """`full_distribution` on the DAG's state lattice, keyed by state."""
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    return as_map(lattice, model.full_distribution(dag, theta, lattice, product))


def accumulation_by_state(
    poset: Poset, theta: ParamTable, product=math.prod
) -> dict[State, Value]:
    """`cbn_distribution` on the poset's ideal lattice, keyed by state."""
    lattice = ideal_lattice(poset)
    return as_map(lattice, cbn_distribution(poset, theta, lattice, product))


def increasing_column_sum_covers(lattice: StateLattice) -> tuple[tuple[int, int], ...]:
    """A wrong cover table: every index pair (g, g - e_i) of states, found
    from the states, with coordinates in increasing order of their column
    sums (ties by position) and states in lex order, where
    `StateLattice.covers` takes them in decreasing column sum."""
    states = lattice.states
    index = {g: t for t, g in enumerate(states)}
    columns = list(zip(*states))
    coords = sorted(range(lattice.n), key=lambda i: sum(columns[i]))
    pairs = (
        (t, index.get((*g[:i], g[i] - 1, *g[i + 1 :])))
        for i in coords
        for t, g in enumerate(states)
        if g[i]
    )
    return tuple(pair for pair in pairs if pair[1] is not None)


def replace_joint(monkeypatch, joint) -> None:
    """Make `joint` the `full_distribution` of every module that reads the
    name: the model's checks, eq5's left side and the CLI's commands. The
    references here look it up in the model module, so they read it too."""
    for module in (model, transforms, cli):
        monkeypatch.setattr(module, "full_distribution", joint)


def joint_edited_at(state: State, edit):
    """A broken `model.full_distribution`: the joint with the value at
    `state`, wherever a lattice has it, replaced by `edit(value)`."""
    joint = model.full_distribution

    def edited(dag: Dag, theta: ParamTable, lattice: StateLattice, *product) -> list:
        out = joint(dag, theta, lattice, *product)
        if state in lattice:
            t = lattice.states.index(state)
            out[t] = edit(out[t])
        return out

    return edited


def alpha_for_theta_walk(vertex: int):
    """A broken `model.full_distribution`: the joint at each lattice state as
    the product of its conditionals in vertex order, except that at
    `vertex`, above its parents' maximum m, the factor is alpha_{v,m} where
    theta_{v,g_v} belongs."""

    def joint(dag: Dag, theta: ParamTable, lattice: StateLattice, product=math.prod) -> list:
        out = []
        for g in lattice.states:
            factors = []
            for v in range(1, dag.n + 1):
                m = max((g[u - 1] for u in dag.parents(v)), default=0)
                if g[v - 1] == m or v == vertex:
                    factors.append(theta.cumulative[v - 1][m])
                else:
                    factors.append(theta.rows[v - 1][g[v - 1]])
            out.append(product(factors))
        return out

    return joint


def substitute_variables(poly: Polynomial, mapping) -> RingPolynomial:
    """Generic substitution: each mapped variable replaced by its image, a
    polynomial or a rational; the others pass through."""
    out = RingPolynomial()
    for mono, coeff in poly.terms.items():
        term = RingPolynomial.constant(coeff)
        for v, e in mono:
            term = term * (mapping[v] if v in mapping else poly_of(v)) ** e
        out = out + term
    return out


def substitute(poly: Polynomial, mmap: MonomialMap) -> RingPolynomial:
    """Apply a monomial map to a polynomial in q-variables by generic
    polynomial substitution; non-q variables pass through untouched. The
    reference for the packed-image comparison of `verify_vanishing`.

    Raises:
        UnmappedVariableError: a q-variable is missing from the map.
    """
    q_vars = [v for v in poly.variables() if v.family == "q"]
    return substitute_variables(
        poly, {v: RingPolynomial({mmap.image(v): 1}) for v in q_vars}
    )


def monomial_map_by_variable(lattice: StateLattice) -> MonomialMap:
    """`monomial_map` one variable at a time: each image collected as a dict
    of exponents and sorted by `mono_from_dict`."""
    k = lattice.k
    images = {}
    for g in lattice:
        exps = {t_var(): 1}
        for idx, v in enumerate(g):
            for r in range(k - v - 1):
                exps[x_var(idx + 1, r)] = 1
        images[q_var(g)] = mono_from_dict(exps)
    return MonomialMap(images)


# ---------------------------------------------------------------------------
# The degree 1-3 counts of the Hilbert certificate before its lead test: the
# slow references for the lead test and the cover-table counts.


def standard_counts(size: int, leads: set[tuple[int, int]]) -> tuple[int, int, int]:
    """Degree-1, 2 and 3 monomials in `size` variables that no quadratic
    lead x_a*x_b (a <= b, given as index pairs) divides.

    A degree-3 monomial x_a*x_b*x_c (a <= b <= c) is standard when none of
    x_a*x_b, x_a*x_c, x_b*x_c is a lead: a triangle, loops included, of the
    graph joining a and b when x_a*x_b is not a lead. Row a of the graph is
    a bitset over b."""
    full = (1 << size) - 1
    rows = [full] * size
    for a, b in leads:
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
    triangles = 0
    for a in range(size):
        row_a = rows[a] >> a << a  # c >= a
        for b in range(a, size):
            if row_a >> b & 1:
                triangles += (row_a & rows[b] >> b << b).bit_count()
    return size, size * (size + 1) // 2 - len(leads), triangles


def multichain_counts(masks) -> tuple[int, int, int]:
    """Multichains h1 <= ... <= hd of length d = 1, 2, 3 among states given
    by their `StateLattice.masks`, where h <= g iff h's bits lie in g's.

    With down(m) and up(m) the states below and above m, there are
    sum down(m) of length 2, and sum down(m)*up(m) of length 3, counted by
    their middle member m."""
    down = [sum(not h & ~m for h in masks) for m in masks]
    up = [sum(not m & ~h for h in masks) for m in masks]
    return len(masks), sum(down), sum(d * u for d, u in zip(down, up))


def fractions_built(monkeypatch, fn):
    """fn's result and the number of Fractions it built, counted through
    `Fraction.__new__` and `Fraction._from_coprime_ints`."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(
            Fraction,
            "_from_coprime_ints",
            classmethod(lambda cls, *a: built.append(1) or coprime(*a)),
        )
    result = fn()
    monkeypatch.undo()
    return result, len(built)


# ---------------------------------------------------------------------------
# `verify_vanishing` and `hilbert_check` along their earlier path, the slow
# references for the packed per-coordinate images and the lead flag table:
# every state's image a monomial, each generator's two products multiplied
# out, and the leads collected in a set.


def reference_vanishing(generators, mmap: MonomialMap) -> Report:
    """`verify_vanishing` with the images of all the states looked up first
    and each generator's two image products multiplied out by `mono_mul`."""
    arrays = GeneratorArrays.of(generators)
    images = [mmap.image(q_var(s)) for s in arrays.states]
    failures = []
    for t, (g, h, meet, join) in enumerate(zip(*arrays.columns())):
        left, right = mono_mul(images[g], images[h]), mono_mul(images[meet], images[join])
        if left != right:
            image = Polynomial({left: 1, right: -1})
            failures.append(f"{arrays[t].to_text()} maps to {image.to_text()}")
    detail = f"{len(arrays)} generators map to 0" if not failures else ""
    return Report("vanishing", total=len(arrays), failures=failures, detail=detail)


def reference_hilbert_check(lattice: StateLattice, generators=None) -> Report:
    """`hilbert_check` on the map built one variable at a time, the
    multichains counted over all pairs of masks, and the set of the
    `_lead_split` leads: the count of the distinct incomparable leads, and
    the first incomparable pair that is not in the set."""
    generators = generator_arrays(lattice) if generators is None else generators
    arrays = GeneratorArrays.of(generators, lattice.states)
    vanishing = reference_vanishing(arrays, monomial_map_by_variable(lattice))
    masks = list(lattice.masks)
    size = len(masks)
    chains = multichain_counts(masks)
    incomparable = size * (size - 1) // 2 - (chains[1] - size)
    leads = {lead for lead, _ in _lead_split(arrays)}
    unled = incomparable - sum(
        1 for a, b in leads if masks[a] & ~masks[b] and masks[b] & ~masks[a]
    )
    failures = []
    if unled:
        a, b = next(p for p in combinations(range(size), 2)
                    if masks[p[0]] & ~masks[p[1]] and p not in leads)
        first = "*".join(q_var(lattice.states[i]).key_text() for i in (a, b))
        failures.append(
            f"{unled} of {incomparable} incomparable pairs lead no generator, the first {first}"
        )
    failures += vanishing.failures
    pairs = len(arrays) * (len(arrays) - 1) // 2
    if failures:
        detail = "image monomials in degrees 1-3: " + ", ".join(map(str, chains))
        return Report("groebner", total=pairs, failures=failures, detail=detail)
    counts = ", ".join(f"{c}/{c}" for c in chains)
    detail = (
        f"{len(arrays)} generators map to 0; standard/image monomials in degrees 1-3: {counts}"
    )
    return Report("groebner", total=pairs, detail=detail)


def random_dag(rng: random.Random, max_n: int = 5, k: int = 2) -> Dag:
    """A random DAG with scrambled labels (edges follow a random topological
    order, so acyclicity holds by construction)."""
    n = rng.randint(1, max_n)
    order = rng.sample(range(1, n + 1), n)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.add((order[i], order[j]))
    return Dag(n=n, k=k, edges=frozenset(edges))


@st.composite
def dags(draw, max_n: int = 8) -> Dag:
    """A DAG on 1..n whose edges follow a drawn vertex order, so acyclic."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    candidates = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    return Dag(n=n, k=2, edges=frozenset(e for e, kept in zip(candidates, keep) if kept))


# ---------------------------------------------------------------------------
# The general division algorithm under degrevlex, with monomials as sorted
# (Variable, exponent) tuples: the reference for `buchberger_check`, and its
# scan-based comparison the reference for `MonomialOrder.key`.


def mono_divides(a, b) -> bool:
    exps = dict(b)
    return all(exps.get(v, 0) >= e for v, e in a)


def mono_div(num, den):
    """Quotient of monomials; raises if den does not divide num."""
    if not mono_divides(den, num):
        raise ValueError(f"{den} does not divide {num}")
    exps = dict(num)
    for v, e in den:
        exps[v] -= e
    return mono_from_dict(exps)


def mono_lcm(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = max(exps.get(v, 0), e)
    return mono_from_dict(exps)


def degrevlex_compare(a, b) -> int:
    """-1, 0 or 1 as a <, =, > b: the higher degree wins; at equal degree,
    scanning from the smallest variable, the monomial with the smaller
    exponent on the first variable where they differ is the larger one."""
    if a == b:
        return 0
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    i = j = 0
    while i < len(a) or j < len(b):
        if i < len(a) and (j >= len(b) or a[i][0] < b[j][0]):
            return -1
        if j < len(b) and (i >= len(a) or b[j][0] < a[i][0]):
            return 1
        ea, eb = a[i][1], b[j][1]
        if ea != eb:
            return 1 if ea < eb else -1
        i += 1
        j += 1
    return 0


def leading_term(poly: Polynomial):
    """(monomial, coefficient) of the largest term by `degrevlex_compare`."""
    best = None
    for mono in poly.terms:
        if best is None or degrevlex_compare(mono, best) > 0:
            best = mono
    if best is None:
        raise ValueError("the zero polynomial has no leading term")
    return best, poly.terms[best]


def s_polynomial(f: Polynomial, g: Polynomial) -> RingPolynomial:
    mf, cf = leading_term(f)
    mg, cg = leading_term(g)
    lcm = mono_lcm(mf, mg)
    left = RingPolynomial({mono_div(lcm, mf): 1 / cf}) * f
    return left - RingPolynomial({mono_div(lcm, mg): 1 / cg}) * g


def is_canonical(mono) -> bool:
    """A sorted tuple of (Variable, positive exponent), each variable once."""
    return all(e > 0 for _, e in mono) and all(a < b for (a, _), (b, _) in zip(mono, mono[1:]))


def reduce_modulo(poly: Polynomial, basis: list[Polynomial]) -> RingPolynomial:
    """Remainder of the standard division algorithm modulo a basis list: the
    leading term is cancelled against the first basis element whose leading
    monomial divides it, or else moved to the remainder.

    A non-canonical monomial, such as a variable written twice, is refused
    before dividing: the products the division forms are canonical, so such
    a term would never cancel and the division would never end."""
    for p in (poly, *basis):
        for mono in p.terms:
            if not is_canonical(mono):
                raise AssertionError(f"non-canonical monomial {mono!r}")
    leads = [leading_term(b) for b in basis]
    remainder = RingPolynomial()
    while not poly.is_zero:
        mono, coeff = leading_term(poly)
        for b, (lead, lead_coeff) in zip(basis, leads):
            if mono_divides(lead, mono):
                poly = poly - RingPolynomial({mono_div(mono, lead): coeff / lead_coeff}) * b
                break
        else:
            term = RingPolynomial({mono: coeff})
            remainder = remainder + term
            poly = poly - term
    return remainder


# ---------------------------------------------------------------------------
# The polynomial grammar and evaluation as they were before `parse_polynomial`
# read its tokens in one loop and `evaluate_at_distribution` summed integer
# numerators: a token-at-a-time parser and Fraction evaluation, the slow
# references for both.

REFERENCE_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_]+|.)")


def _is_number(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


class ReferenceParser:
    """The grammar one token at a time, each factor's parts by `peek` and
    `take`. Within a term, the exponents of a repeated variable add up with
    no cap on their sum."""

    def __init__(self, text: str):
        self.text = text
        # `\s*` backtracks, so `.` also matches trailing whitespace: drop it
        self.tokens = [tok for tok in REFERENCE_TOKEN.findall(text) if tok.strip()]
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of polynomial in {quote(self.text)}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {quote(tok)} in {quote(self.text)}")
        self.pos += 1
        return tok

    def parse(self) -> RingPolynomial:
        terms: dict = {}
        tok = "+"  # the first term needs no sign
        while tok in ("+", "-"):
            coeff, mono = self.parse_term()
            terms[mono] = terms.get(mono, 0) + coeff
            if not terms[mono]:
                del terms[mono]
            tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing junk {quote(tok)} in {quote(self.text)}")
        return RingPolynomial._raw(terms)

    def parse_term(self) -> tuple[Fraction, tuple]:
        """The signs before a term and its factors, as (coefficient, monomial)."""
        coeff, exps = Fraction(1), {}
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                coeff = -coeff
        while True:
            if _is_number(self.peek() or ""):
                coeff *= self.parse_rational()
            else:
                var, exp = self.parse_power()
                exps[var] = exps.get(var, 0) + exp
            if self.peek() != "*":
                return coeff, mono_from_dict(exps)
            self.take()

    def parse_rational(self) -> Fraction:
        num = int(self.take())
        if self.peek() == "/":
            self.take()
            den = self.take()
            if not _is_number(den) or int(den) == 0:
                raise ParseError(f"bad denominator {quote(den)} in {quote(self.text)}")
            return Fraction(num, int(den))
        return Fraction(num)

    def parse_power(self) -> tuple[Variable, int]:
        var = self.parse_variable()
        if self.peek() != "^":
            return var, 1
        self.take()
        digits = self.take()
        if not _is_number(digits):
            raise ParseError(f"bad exponent {quote(digits)} in {quote(self.text)}")
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(
                f"exponent {shorten(digits)} exceeds the cap of {MAX_EXPONENT} "
                f"in {quote(self.text)}"
            )
        return var, int(digits)

    def parse_variable(self) -> Variable:
        name = self.take()
        if name == "t":
            return t_var()
        if name not in FAMILIES:
            raise ParseError(f"unknown variable family {quote(name)} in {quote(self.text)}")
        self.take("[")
        first = self.take()
        if not _is_number(first):
            raise ParseError(f"bad index {quote(first)} in {quote(self.text)}")
        if name in ("p", "q"):
            self.take("]")
            return Variable(name, tuple(int(c) for c in first))
        if self.peek() == ",":
            self.take()
            second = self.take()
            if not _is_number(second):
                raise ParseError(f"bad index {quote(second)} in {quote(self.text)}")
            self.take("]")
            return Variable(name, (int(first), int(second)))
        self.take("]")
        return Variable(name, (int(first),))


class CappedReferenceParser(ReferenceParser):
    """`ReferenceParser` with MAX_EXPONENT held on each variable's summed
    exponent in a term, checked when the term ends, the first such variable
    in monomial order named."""

    def parse_term(self) -> tuple[Fraction, tuple]:
        coeff, mono = super().parse_term()
        for v, e in mono:
            if e > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {e} of {shorten(v.key_text())} exceeds the cap of "
                    f"{MAX_EXPONENT} in {quote(self.text)}"
                )
        return coeff, mono


def reference_parse(text: str, parser=ReferenceParser) -> RingPolynomial:
    """The polynomial `parser` reads from the text; a number past int()'s
    digit limit is a ParseError with int()'s message."""
    try:
        return parser(text).parse()
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def evaluate(poly: Polynomial, assignment) -> Fraction:
    """Exact evaluation term by term in Fractions; every variable must be
    assigned a rational, the first unassigned one in term order, then in
    monomial order, is named."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for v, e in mono:
            if v not in assignment:
                raise UnboundVariableError(f"no value for variable {shorten(v.key_text())}")
            value = value * Fraction(assignment[v]) ** e
        total += value
    return total


def evaluate_at_joint(poly: Polynomial, n: int, k: int, dist, cumulative=None) -> Fraction:
    """`evaluate` at a Fraction joint `dist` over states, and at its zeta
    coordinates `cumulative` for q-variables, if given; a p-variable of the
    n-by-k cube missing from `dist` is 0, any other missing variable unbound."""
    values = {"p": dist, "q": cumulative or {}}
    assignment = {}
    for v in poly.variables():
        if v.index in values.get(v.family, ()):
            assignment[v] = values[v.family][v.index]
        elif v.family == "p" and len(v.index) == n and max(v.index, default=0) < k:
            assignment[v] = 0
    return evaluate(poly, assignment)
