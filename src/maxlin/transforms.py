"""The coordinate change on the state lattice: cumulative (zeta) coordinates
and their Moebius inverse, and the checks that the cumulative coordinates
factor into the cumulative weight rows of the parameter table."""

from __future__ import annotations

import random
from math import lcm
from typing import Sequence

from .dag import Dag, transitive_closure
from .model import ParamTable, Value, _level_products, full_distribution, integer_view
from .poset import StateLattice, order_preserving_maps, state_digits
from .report import Report


def zeta_transform(values: Sequence[Value], lattice: StateLattice) -> list[Value]:
    """Cumulative coordinates of a function given as a list aligned with
    `lattice.states`: the entry of state g is the sum of the entries of the
    states h <= g (coordinate-wise).

    Raises:
        ValueError: the list does not hold one value per state.
    """
    return _cover_walk(values, lattice, inverse=False)


def moebius_inverse(values: Sequence[Value], lattice: StateLattice) -> list[Value]:
    """The unique inverse of zeta_transform: the same walk undone."""
    return _cover_walk(values, lattice, inverse=True)


def _cover_walk(values, lattice: StateLattice, inverse: bool) -> list[Value]:
    """Prefix sums along the lattice's fibres: out[g] += out[g - e_i] for
    each pair of `StateLattice.covers`, coordinates in decreasing order of
    their column sums and states in lex order, so each h <= g is summed into
    g along one path of states (see StateLattice). The inverse takes
    differences over the table reversed. O(|covers|)."""
    if len(values) != len(lattice):
        raise ValueError(f"{len(values)} values for a lattice of {len(lattice)} states")
    out = list(values)
    if inverse:
        for g, below in reversed(lattice.covers):
            out[g] = out[g] - out[below]
    else:
        for g, below in lattice.covers:
            out[g] = out[g] + out[below]
    return out


def zeta_factorization_check(dag: Dag, theta: ParamTable, lattice: StateLattice) -> Report:
    """Check that the cumulative coordinate of every lattice state factors as
    the product over vertices of the cumulative weight at the state's level.

    The left side is zeta of the factored joint; the right side is one
    `theta.product` call per state on the cumulative weights at its levels,
    through `_level_products` as the joint's are, on other rows and codes.
    `lattice` is the DAG's state lattice.

    Exact for rational tables, as integer numerators over the one D of the
    table's `integer_view`; an integer table is compared as it is. On the
    level table (`ParamTable.levels`) the check is symbolic: each value is
    held as its tuple of per-vertex level masks, each mask the formal sum
    of the weights at its levels, and equal tuples are equal products. A
    zeta sum adds the one factor in which its summands differ when their
    levels are disjoint, and is a failure otherwise, so no polynomial is
    ever formed.
    """
    theta, _ = integer_view(theta)
    cumulative = zeta_transform(full_distribution(dag, theta, lattice), lattice)
    products = _level_products(theta.cumulative, lattice.states, theta.product)
    failures = [
        f"state {state_digits(g)}"
        for g, value, expected in zip(lattice.states, cumulative, products)
        if value != expected
    ]
    detail = f"{len(lattice)} states factor exactly" if not failures else ""
    return Report("eq5", total=len(lattice), failures=failures, detail=detail)


def eq5_check(dag: Dag, trials: int, seed: int) -> Report:
    """The eq5 suite: zeta_factorization_check on the level table (the
    symbolic check) and on seeded random integer tables, all on one state
    lattice."""
    lattice = order_preserving_maps(transitive_closure(dag), dag.k)
    symbolic = zeta_factorization_check(dag, ParamTable.levels(dag.n, dag.k), lattice)
    failures = [f"symbolic: {f}" for f in symbolic.failures]
    total = symbolic.total
    rng = random.Random(seed)
    for trial in range(trials):
        report = zeta_factorization_check(dag, ParamTable.random(dag.n, dag.k, rng), lattice)
        total += report.total
        failures.extend(f"trial {trial}: {f}" for f in report.failures)
    detail = (
        f"symbolic + {trials} random tables, {symbolic.total} states each"
        if not failures
        else ""
    )
    return Report("eq5", total=total, failures=failures, detail=detail)


def roundtrip_check(lattice: StateLattice, trials: int, seed: int) -> Report:
    """Check zeta then Moebius and Moebius then zeta are identities on seeded
    random rational lattice functions, walked on integers over their lcm."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        draws = [(rng.randint(-1000, 1000), rng.randint(1, 60)) for _ in lattice]
        scale = lcm(*(b for _, b in draws))
        values = [a * (scale // b) for a, b in draws]
        if moebius_inverse(zeta_transform(values, lattice), lattice) != values:
            failures.append(f"trial {trial}: zeta then inverse")
        if zeta_transform(moebius_inverse(values, lattice), lattice) != values:
            failures.append(f"trial {trial}: inverse then zeta")
    detail = f"{trials} random functions round-trip" if not failures else ""
    return Report("moebius", total=2 * trials, failures=failures, detail=detail)
