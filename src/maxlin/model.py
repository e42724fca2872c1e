"""Exact evaluation of the max-of-parents model and of the event-accumulation
model on a poset, plus the two-state correspondence between them.

Tables hold rational rows (probabilities are Fractions) or integer rows, a
scaled table whose values are integer numerators over the product of its row
sums. The model's formulas are generic in the entries, so rows of other ring
values, such as the tests' reference polynomials, give the same formulas
over them; the innovation oracle alone needs rational rows. A joint forms
each value by one call of the table's `product` on its n per-vertex
factors: `math.prod`, except on the level table (`ParamTable.levels`),
whose values are symbolic, so no polynomial is formed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product, repeat
from math import lcm, prod
from numbers import Rational
from operator import add, getitem, itemgetter, mul
from typing import Union

from .dag import Dag, transitive_closure
from .errors import ParseError, check_size, quote
from .poset import (
    Poset,
    State,
    StateLattice,
    ideal_lattice,
    order_preserving_maps,
    state_digits,
)
from .report import Report

Value = Union[int, Fraction]

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_fraction(text: str) -> Fraction:
    """An integer, a fraction a/b or a plain decimal in ASCII digits, e.g.
    "3", "-1/2", "0.25"; exponents, signs other than a leading "-", "_",
    whitespace and non-ASCII digits are refused before `Fraction` sees them."""
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {quote(text)}: expected an integer, a/b or a decimal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # 1/0, or past int()'s digit limit
        raise ParseError(f"bad rational {quote(text)}: {exc}") from None


@dataclass(frozen=True)
class ParamTable:
    """Per-vertex innovation distributions: row i-1 holds the k state weights
    of vertex i. Rows of Fractions must be nonnegative and sum to exactly 1;
    rows of ints are a scaled table, nonnegative with a positive sum d_v;
    rows of other ring values, such as the tests' reference polynomials,
    are not checked.

    `cumulative` holds the model's change of coordinates, built once: entry j
    of row i-1 is alpha_{i,j}, the weight of the levels 0..j at vertex i. The
    last entry is the row's sum (1 on a rational row, d_v on an integer row)
    for rational or integer rows, and the constant 1 for other rows, so
    polynomial output keeps the reduced form the weights satisfy on the
    simplex. `product` forms a joint's value from its n per-vertex factors.
    """

    product = prod
    rows: tuple[tuple[Value, ...], ...]
    cumulative: tuple[tuple[Value, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("parameter table needs at least one row")
        k = len(self.rows[0])
        cumulative = (_cumulative(row, i, k) for i, row in enumerate(self.rows, 1))
        object.__setattr__(self, "cumulative", tuple(cumulative))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])

    def swapped(self) -> "ParamTable":
        """Rows reversed, in a table of this type; for k=2 the weights swap."""
        return type(self)(tuple(tuple(reversed(row)) for row in self.rows))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParamTable":
        if not isinstance(data, dict) or "theta" not in data:
            raise ParseError('parameter file must be a JSON object with a "theta" key')
        rows = data["theta"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError('"theta" must be a list of rows of rational strings')
        return cls(tuple(tuple(parse_fraction(str(v)) for v in row) for row in rows))

    @classmethod
    def random(cls, n: int, k: int, rng: random.Random) -> "ParamTable":
        """Strictly positive integer rows of k uniform weights in 1..200: a
        scaled table, row v standing for the rational row of its weights
        over their sum d_v."""
        return cls(tuple(tuple(rng.randint(1, 200) for _ in range(k)) for _ in range(n)))

    @classmethod
    def levels(cls, n: int, k: int) -> "ParamTable":
        """The level table: the weight theta_{v,j} is the int 1 << j, so a sum
        of distinct weights of a row is the bitmask of its levels, and
        alpha_{v,m} is the mask of the levels 0..m. Its `product` is
        `_Factors`: a mask stands for the formal sum of the weights at its
        levels, and the joint is the symbolic one."""
        return _LevelTable((tuple(1 << j for j in range(k)),) * n)


def _cumulative(row: tuple, number: int, k: int) -> tuple:
    """A row's `ParamTable.cumulative` row: the running sums of a rational or
    integer row, of another those of all but its last entry, then 1. The
    row is checked as row `number` of a table of width k."""
    if len(row) != k:
        raise ValueError(f"row {number} has {len(row)} entries, expected {k}")
    ints = all(type(v) is int for v in row)  # cheaper than the Rational test
    if not ints and not all(isinstance(v, Rational) for v in row):
        return (*accumulate(row[:-1]), Fraction(1))
    sums = tuple(accumulate(row))
    if any(v < 0 for v in row):
        raise ValueError(f"row {number} has a negative weight")
    total = sums[-1] if sums else 0
    if total != 1 and not (total and (ints or all(isinstance(v, int) for v in row))):
        raise ValueError(f"row {number} sums to {total}, not 1")
    return sums


class _Factors(tuple):
    """A product of one factor per vertex, held as the tuple of its factors and
    never multiplied out, so the class is itself a joint's `product`. On the
    level table a factor is a nonzero level mask, standing for the sum of the
    formal weights theta_{v,j} at its levels j. Each factor is then a linear
    form in its own vertex's weights, with coefficients 0 and 1, so two
    tuples are equal exactly when their products are equal as polynomials.

    Two products that differ in exactly one factor add exactly by adding
    that factor, A*x + A*y = A*(x + y), and x + y is a mask again when x
    and y share no level: their union. That is every sum of the zeta walk on
    the factored joint: it takes coordinates in decreasing column sum, a
    reverse topological order, so when coordinate i is summed every child
    of i already carries its cumulative weight, and the two summands differ
    only in the factor of i, at disjoint levels. Any other sum, or one with
    a value that is not a product of this shape (such as a plain 0), is
    `_UNFACTORED`, which compares unequal to every product."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, _Factors) and len(other) == len(self):
            for t, (a, b) in enumerate(zip(self, other)):
                if a != b:
                    if not a & b and self[t + 1 :] == other[t + 1 :]:
                        return _Factors((*self[:t], a | b, *self[t + 1 :]))
                    break
        return _UNFACTORED

    __radd__ = __add__


class _Unfactored:
    """A sum that is not one product of factors; every sum with it is one."""

    def __add__(self, other) -> "_Unfactored":
        return self

    __radd__ = __add__


_UNFACTORED = _Unfactored()


class _LevelTable(ParamTable):
    """A `ParamTable.levels` table, whose values are factor tuples."""
    product = _Factors


def _check_table(dag: Dag, theta: ParamTable) -> None:
    if theta.n != dag.n or theta.k != dag.k:
        raise ValueError(
            f"parameter table is {theta.n}x{theta.k}, graph needs {dag.n}x{dag.k}"
        )


def _level_products(rows, states, product) -> list:
    """For each state g, in order, one `product` call on the n factors
    rows[i][g[i]], coordinates i in order."""
    return [product(map(getitem, rows, g)) for g in states]


def full_distribution(dag: Dag, theta: ParamTable, lattice: StateLattice) -> list[Value]:
    """The factored joint as a list aligned with `lattice.states`: at each
    vector the product over vertices v of the conditional of g_v given its
    DAG parents' maximum m (0 for a source): theta_{v,g_v} above m,
    alpha_{v,m} at m and 0 below, so a vector off the DAG's lattice gets 0.
    On the lattice the values sum to 1 on a rational table, and to
    D = prod(d_v) on an integer one. The codes g_v*k + m, formed in C-level
    passes over the columns, pick each state's conditionals from rows of
    k*k, and one `theta.product` call forms its value in vertex order."""
    _check_table(dag, theta)
    n, k = dag.n, dag.k
    if (lattice.n, lattice.k) != (n, k):
        raise ValueError(f"state lattice is {lattice.n}x{lattice.k}, graph needs {n}x{k}")
    rows = [[row[g] if g > m else alpha[g] if g == m else 0 for g in range(k) for m in range(k)]
            for row, alpha in zip(theta.rows, theta.cumulative)]
    columns = list(zip(*lattice.states))
    codes = []
    for column, parents in zip(columns, map(dag.parents, range(1, n + 1))):
        code = map(mul, column, repeat(k))
        if len(parents) == 1:
            code = map(add, code, columns[parents[0] - 1])
        elif parents:
            code = map(add, code, map(max, *[columns[u - 1] for u in parents]))
        codes.append(code)
    return _level_products(rows, zip(*codes), theta.product)


def integer_view(theta: ParamTable) -> tuple[ParamTable, int]:
    """A rational table with row v scaled by d_v, the lcm of its denominators,
    and D = prod(d_v): integer rows are a scaled table, whose cumulative rows
    end in d_v, and a product of one entry per vertex is a numerator over D.
    An integer table is its own view, with D = 1."""
    rows = theta.rows
    if all(type(v) is int for row in rows for v in row):
        return theta, 1
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    scaled = (tuple(v.numerator * d // v.denominator for v in r) for r, d in zip(rows, scales))
    return ParamTable(tuple(scaled)), prod(scales)


def oracle_distribution(dag: Dag, tables) -> list[dict[State, Value]]:
    """The oracle probabilities of each of a sequence of rational tables,
    one dict per table, from a single walk of the k**n box shared by all of
    them; states the model cannot reach are absent. With no tables nothing
    is walked.

    The arithmetic is on integers: on each table's `integer_view` an
    innovation vector weighs the product of its n numerators, and the
    weights are summed per outcome. Each sum then becomes one Fraction over
    that table's D, exactly the sum of the vectors' products of weights; D
    is 1 on an integer table, whose sums stay ints. The box's size is
    checked against MAXLIN_ORACLE_LIMIT before any vector is walked, and the
    walk holds one block of outcomes at a time, whatever k**n is.

    Raises:
        ValueError: a table does not fit the DAG, or is not rational.
    """
    views = []
    for theta in tables:
        _check_table(dag, theta)
        if not all(isinstance(v, Rational) for row in theta.rows for v in row):
            raise ValueError("the innovation oracle needs a rational parameter table")
        views.append(integer_view(theta))
    _check_box(dag)
    if not views:
        return []
    outcomes, sums = _innovation_walk(dag, [view.rows for view, _ in views])
    return [
        dict(zip(outcomes, totals))
        if denominator == 1
        else {g: Fraction(total, denominator) for g, total in zip(outcomes, totals)}
        for (_, denominator), totals in zip(views, sums)
    ]


def _check_box(dag: Dag) -> None:
    count = dag.k**dag.n
    what = f"enumeration needs {dag.k}**{dag.n} = {count} innovation vectors"
    check_size("MAXLIN_ORACLE_LIMIT", count, what)


# The most innovation vectors the oracle solves together, so the walk's
# memory holds one block of outcomes, whatever k**n is.
_BLOCK = 4096


def _innovation_walk(dag: Dag, tables: list) -> tuple[list[State], list[list[int]]]:
    """Every outcome of the box under the structural equations
    X_v = max(Z_v, max of X_u over the parents u of v), each once in vertex
    order, and per table the summed weight of the innovation vectors that
    yield it, aligned with the outcomes. rows[v][j] of a table is the
    integer numerator of level j at vertex v + 1 over the row's common
    denominator, and a vector weighs the product of its n numerators.

    Positions follow the topological order, so each X_v reads parents at
    earlier positions only. The first positions are a `product` odometer;
    for each of its vectors the last r positions, the most with
    k**r <= _BLOCK, are solved together level by level, each prefix
    reading its parents' maximum once. Outcomes are keyed in position order
    by an integer id. A vector's weight is its head's product times its
    entry in the outer product of the tail rows, built once per table."""
    n, k = dag.n, dag.k
    order = [v - 1 for v in dag.order]
    position = {v: t for t, v in enumerate(order)}
    parents = [[position[u - 1] for u in dag.parents(v + 1)] for v in order]
    r = 0
    while r < n and k ** (r + 1) <= _BLOCK:
        r += 1
    split = n - r
    levels = range(k)
    # capped[m][z] is the outcome (max(z, m),) of innovation z under a
    # parents' maximum m
    capped = [[(max(z, m),) for z in levels] for m in levels]
    heads, tails = [], []
    for rows in tables:
        heads.append([rows[v] for v in order[:split]])
        weights = [1]
        for v in order[split:]:
            weights = [w * x for w in weights for x in rows[v]]
        tails.append(weights)
    ids: dict[State, int] = {}
    sums: list[list[int]] = [[] for _ in tables]
    for z in product(levels, repeat=split):
        prefix: State = ()
        for t, level in enumerate(z):
            prefix += capped[max([prefix[p] for p in parents[t]], default=0)][level]
        block = [prefix]
        for t in range(split, n):
            ps = parents[t]
            if not ps:
                block = [x + s for x in block for s in capped[0]]
            elif len(ps) == 1:
                p = ps[0]
                block = [x + s for x in block for s in capped[x[p]]]
            else:
                get = itemgetter(*ps)
                block = [x + s for x in block for s in capped[max(get(x))]]
        block_ids = [ids.setdefault(g, len(ids)) for g in block]
        for totals, head_rows, weights in zip(sums, heads, tails):
            totals.extend([0] * (len(ids) - len(totals)))
            head = prod(map(getitem, head_rows, z))
            for i, w in zip(block_ids, weights):
                totals[i] += head * w
    vertex_order = [position[v] for v in range(n)]
    return [tuple([g[t] for t in vertex_order]) for g in ids], sums


def cbn_distribution(poset: Poset, theta: ParamTable, lattice: StateLattice) -> list[Value]:
    """The accumulation model's joint over the order ideals of the poset, as
    a list aligned with `lattice.states`, the ideals written as 0-1
    indicator vectors, as `ideal_lattice(poset)` gives them. An element can
    only occur once everything it covers has occurred; given that, it
    occurs with its own two-state weight. An element that cannot occur yet,
    and has not, has the factor its cumulative row ends in: 1 on a rational
    table, and d_v on an integer one, whose values are then numerators over
    the product of the d_v. A 0-1 vector that is not an ideal has a factor
    0. Each value is one `theta.product` call on its n factors in vertex
    order; on the level table it is that tuple."""
    n = len(poset.elements)
    if (theta.n, theta.k, lattice.n, lattice.k) != (n, 2, n, 2):
        got = f"{theta.n}x{theta.k} and {lattice.n}x{lattice.k}"
        raise ValueError(f"the accumulation model needs a {n}x2 table and lattice, got {got}")
    tops = [row[-1] for row in theta.cumulative]
    elements = list(zip(theta.rows, tops, poset.lower_covers))
    return [
        theta.product([row[v] if not below & ~mask else 0 if v else top
                       for (row, top, below), v in zip(elements, g)])
        for g, mask in zip(lattice.states, lattice.masks)
    ]


def cbn_correspondence_check(dag: Dag, trials: int, seed: int) -> Report:
    """Check that the accumulation model on the reachability poset equals the
    two-state max model after complementing states and swapping the two
    weights per vertex: symbolically, on the level table with both sides
    held as per-vertex factors, and on seeded random integer tables, both
    sides as numerators over the product of the row sums. `ideal_lattice`
    lists the ideals as the two-state walk's states complemented, in reverse,
    so ideal t pairs with state |L| - 1 - t.
    """
    dag2 = Dag(n=dag.n, k=2, edges=dag.edges)
    closure = transitive_closure(dag2)
    ideals = ideal_lattice(closure)
    states = order_preserving_maps(closure, 2)
    failures: list[str] = []

    def compare(theta: ParamTable, label: str) -> None:
        accum = cbn_distribution(closure, theta, ideals)
        maxmodel = full_distribution(dag2, theta.swapped(), states)
        pairs = zip(ideals, reversed(states.states), accum, reversed(maxmodel))
        for g, image, value, other in pairs:
            if value != other:
                failures.append(f"{label}: ideal {state_digits(g)} vs state {state_digits(image)}")

    compare(ParamTable.levels(dag.n, 2), "symbolic")
    rng = random.Random(seed)
    for trial in range(trials):
        compare(ParamTable.random(dag.n, 2, rng), f"trial {trial}")
    total = (trials + 1) * len(ideals)
    detail = (
        f"{len(ideals)} states match symbolically and on {trials} random tables"
        if not failures
        else ""
    )
    return Report("theorem31", total=total, failures=failures, detail=detail)


def oracle_equivalence_check(dag: Dag, trials: int, seed: int) -> Report:
    """Check the factored joint against the brute-force innovation oracle on
    the whole k**n box, and that the factored joint vanishes exactly off the
    state lattice, for seeded random strictly positive tables. The box's
    size is checked against MAXLIN_ORACLE_LIMIT before anything is
    enumerated. Every trial's table is drawn first, and one walk of the box
    gives the oracle of all of them.

    Each trial's table has integer rows, so it compares the oracle's
    integers with the joint's at each vector the oracle or the lattice
    names, in lex order; elsewhere only a state both miss could fail. Every
    trial counts k**n checks."""
    _check_box(dag)
    rng = random.Random(seed)
    tables = [ParamTable.random(dag.n, dag.k, rng) for _ in range(trials)]
    oracles = oracle_distribution(dag, tables)
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    members = set(lattice.states)
    named = StateLattice(dag.n, dag.k, sorted(members.union(*oracles)))
    failures: list[str] = []
    for trial, (theta, by_oracle) in enumerate(zip(tables, oracles)):
        for g, factored in zip(named.states, full_distribution(dag, theta, named)):
            if factored != by_oracle.get(g, 0):
                failures.append(f"trial {trial}: state {state_digits(g)}")
            elif (factored == 0) != (g not in members):
                failures.append(f"trial {trial}: support at {state_digits(g)}")
    detail = (
        f"{trials}/{trials} trials, {len(lattice)} states each, exact match"
        if not failures
        else ""
    )
    return Report("oracle", total=trials * dag.k**dag.n, failures=failures, detail=detail)
