"""The benchmark's answer key: expected verdicts, counts and values, computed
without importing the package under test.

Everything here is deliberately naive (plain loops over tuples) so that it
shares no algorithm with maxlin: lattices are enumerated vertex by vertex in
a topological order, or by filtering the whole k**n box; distributions come
from summing innovation vectors; cumulative coordinates from the product of
cumulative weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

Edge = tuple[int, int]
State = tuple[int, ...]


def topological(n: int, edges: list[Edge]) -> list[int]:
    """Vertices 1..n ordered so every edge points forward (DFS post-order)."""
    parents: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        parents[v].append(u)
    order: list[int] = []
    done = [False] * (n + 1)
    for root in range(1, n + 1):
        stack = [(root, False)]
        while stack:
            v, expanded = stack.pop()
            if done[v]:
                continue
            if expanded:
                done[v] = True
                order.append(v)
                continue
            stack.append((v, True))
            stack.extend((u, False) for u in parents[v] if not done[u])
    return order


def ancestors(n: int, edges: list[Edge]) -> list[frozenset[int]]:
    """ancestors[v]: every u != v with a directed path u -> v (index 0 unused)."""
    out: list[frozenset[int]] = [frozenset()] * (n + 1)
    parents: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        parents[v].append(u)
    for v in topological(n, edges):
        acc: set[int] = set()
        for u in parents[v]:
            acc.add(u)
            acc |= out[u]
        out[v] = frozenset(acc)
    return out


def is_state(g: State, edges: list[Edge]) -> bool:
    """Order-preserving along every edge, hence along the whole closure."""
    return all(g[u - 1] <= g[v - 1] for u, v in edges)


def box_states(n: int, k: int, edges: list[Edge]) -> list[State]:
    """The state lattice by brute-force filtering of the k**n box."""
    return [g for g in product(range(k), repeat=n) if is_state(g, edges)]


def states(n: int, k: int, edges: list[Edge]) -> list[State]:
    """The state lattice, lexicographically sorted, assigning vertices in a
    topological order: each vertex ranges from its parents' maximum to k-1,
    so every partial assignment extends and no branch is wasted."""
    order = topological(n, edges)
    parents: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        parents[v].append(u)
    out: list[State] = []
    value = [0] * (n + 1)

    def assign(t: int) -> None:
        if t == n:
            out.append(tuple(value[1:]))
            return
        v = order[t]
        for level in range(max((value[u] for u in parents[v]), default=0), k):
            value[v] = level
            assign(t + 1)

    assign(0)
    out.sort()
    return out


def chain_states(n: int, k: int) -> int:
    """A chain of n vertices has C(n+k-1, k-1) states."""
    return math.comb(n + k - 1, k - 1)


def incomparable(g: State, h: State) -> bool:
    """Neither state lies below the other."""
    lo = hi = False
    for a, b in zip(g, h):
        if a < b:
            lo = True
        elif a > b:
            hi = True
        if lo and hi:
            return True
    return False


def incomparable_pairs(lattice: list[State]) -> list[tuple[State, State]]:
    """Unordered incomparable pairs (g, h), g before h in the given order."""
    return [(g, h) for i, g in enumerate(lattice) for h in lattice[i + 1 :] if incomparable(g, h)]


def incomparable_count(lattice: list[State]) -> int:
    """The number of Hibi generators, one per incomparable pair."""
    return len(incomparable_pairs(lattice))


def join(g: State, h: State) -> State:
    """Coordinate-wise maximum, the join in the state lattice."""
    return tuple(max(a, b) for a, b in zip(g, h))


def random_theta(rng, n: int, k: int) -> list[list[Fraction]]:
    """Strictly positive rational weight rows that sum to exactly 1."""
    rows = []
    for _ in range(n):
        nums = [rng.randint(1, 30) for _ in range(k)]
        rows.append([Fraction(a, sum(nums)) for a in nums])
    return rows


def distribution(n: int, edges: list[Edge], theta: list[list[Fraction]]) -> dict[State, Fraction]:
    """Exact joint by summing over every innovation vector z: each vertex
    takes the maximum innovation over itself and its ancestors."""
    k = len(theta[0])
    anc = ancestors(n, edges)
    reach = [sorted({v - 1} | {u - 1 for u in anc[v]}) for v in range(1, n + 1)]
    out: dict[State, Fraction] = {}
    for z in product(range(k), repeat=n):
        weight = Fraction(1)
        for i, level in enumerate(z):
            weight *= theta[i][level]
        g = tuple(max(z[p] for p in positions) for positions in reach)
        out[g] = out.get(g, Fraction(0)) + weight
    return out


def cumulative(lattice: list[State], theta: list[list[Fraction]]) -> dict[State, Fraction]:
    """Cumulative coordinates in closed form: the product over vertices of
    the weight of the innovation states up to the state's level."""
    alpha = [[sum(row[: j + 1], Fraction(0)) for j in range(len(row))] for row in theta]
    out = {}
    for g in lattice:
        value = Fraction(1)
        for i, level in enumerate(g):
            value *= alpha[i][level]
        out[g] = value
    return out


def digits(g: State) -> str:
    return "".join(str(v) for v in g)


def fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def suite_total(suite: str, *, n: int, k: int, states: int, generators: int, ideals: int, trials: int) -> int:
    """The number of checks each verify suite reports on a passing run."""
    return {
        "groebner": math.comb(generators, 2),
        "vanishing": generators,
        "oracle": trials * k**n,
        "theorem31": (trials + 1) * ideals,
        "eq5": (trials + 1) * states,
        "moebius": 2 * trials,
    }[suite]
