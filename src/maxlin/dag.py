"""Directed acyclic graphs: parsing, validation, reachability, closure poset."""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .errors import BadVertexError, CyclicGraphError, DagSyntaxError, quote
from .poset import Poset

# A line of the file format: two integers in ASCII digits with an optional
# "-", or none, then a comment or the end; whitespace is any that str.split()
# takes. An empty branch matches faster than an optional group.
_LINE = re.compile(r"\s*(?:(-?[0-9]+)\s+(-?[0-9]+)\s*|)(?:#|\Z)")


@dataclass(frozen=True)
class Dag:
    """A validated DAG on vertices 1..n with an innovation state count k.

    Vertex labels are 1-indexed throughout, matching the file format.
    Acyclicity is checked once at construction, by the peeling that fixes the
    topological order `order` (Kahn-style, smallest label first), so
    downstream code never re-checks it or peels again.
    """

    n: int
    k: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    _parents: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadVertexError(f"vertex count must be positive, got {self.n}")
        if self.k < 1:
            raise ValueError(f"state count must be >= 1, got {self.k}")
        up: list[list[int]] = [[] for _ in range(self.n)]
        down: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if u == v:
                raise CyclicGraphError(f"self-loop at vertex {u}")
            for w in (u, v):
                if not 1 <= w <= self.n:
                    raise BadVertexError(f"edge endpoint {w} outside 1..{self.n}")
            up[v - 1].append(u)
            down[u - 1].append(v)
        object.__setattr__(self, "_parents", tuple(tuple(sorted(l)) for l in up))
        indegree = [len(parents) for parents in up]
        heap = [v for v in range(1, self.n + 1) if indegree[v - 1] == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in down[v - 1]:
                indegree[w - 1] -= 1
                if indegree[w - 1] == 0:
                    heapq.heappush(heap, w)
        if len(order) != self.n:
            stuck = [v for v in range(1, self.n + 1) if indegree[v - 1] > 0]
            raise CyclicGraphError(f"no topological order: cycle through vertices {stuck}")
        object.__setattr__(self, "order", tuple(order))

    def parents(self, v: int) -> tuple[int, ...]:
        if not 1 <= v <= self.n:
            raise BadVertexError(f"vertex {v} outside 1..{self.n}")
        return self._parents[v - 1]


def parse_dag(text: str) -> Dag:
    """Parse the DAG file format.

    Line 1 is "n k"; each later non-empty line is "u v" for an edge u -> v,
    integers written in ASCII digits with an optional "-". "#" starts a
    comment; blank lines and extra whitespace are ignored.

    Raises:
        DagSyntaxError: malformed line or duplicate edge.
        CyclicGraphError: the edges admit no topological order.
        BadVertexError: an endpoint outside 1..n.
    """
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _LINE.match(raw)
        if match is not None and match[1] is None:  # blank, or a comment alone
            continue
        try:
            if match is None:
                raise ValueError
            a, b = int(match[1]), int(match[2])  # ValueError past int()'s digit limit
        except ValueError:
            got = quote(raw.split("#", 1)[0].strip())
            raise DagSyntaxError(f"line {lineno}: expected two integers, got {got}") from None
        if header is None:
            header = (a, b)
            continue
        if (a, b) in edges:
            raise DagSyntaxError(f"line {lineno}: duplicate edge {a} -> {b}")
        edges.add((a, b))
    if header is None:
        raise DagSyntaxError("empty input: missing 'n k' header line")
    n, k = header
    if k < 1:
        raise DagSyntaxError(f"state count must be >= 1, got {k}")
    return Dag(n=n, k=k, edges=frozenset(edges))


def transitive_closure(dag: Dag) -> Poset:
    """The reachability poset: j <= i iff j = i or there is a path j -> i.

    Vertex v's strict down-set is its parents OR their strict down-sets,
    taken in topological order; a parent is a lower cover of v iff it lies
    in no parent's strict down-set. The masks are a partial order by
    construction; this is the only code that builds a `Poset`."""
    strict = [0] * (dag.n + 1)  # by label
    down, covers = [0] * dag.n, [0] * dag.n
    for v in dag.order:
        below = parents = 0
        for u in dag._parents[v - 1]:
            below |= strict[u]
            parents |= 1 << u - 1
        covers[v - 1] = parents & ~below
        strict[v] = parents | below
        down[v - 1] = strict[v] | 1 << v - 1
    return Poset(tuple(range(1, dag.n + 1)), tuple(down), tuple(covers))
