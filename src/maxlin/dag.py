"""Directed acyclic graphs: parsing, validation, reachability, closure poset."""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

from .errors import BadVertexError, CyclicGraphError, DagSyntaxError
from .poset import Poset

# An integer of the file format: ASCII digits with an optional minus sign.
_INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Dag:
    """A validated DAG on vertices 1..n with an innovation state count k.

    Vertex labels are 1-indexed throughout, matching the file format.
    Acyclicity is checked once at construction, so downstream code never
    re-checks it.
    """

    n: int
    k: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    _parents: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_children", tuple(tuple(sorted(l)) for l in down))
        topological_order(self)  # raises CyclicGraphError on a cycle

    def parents(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._parents[v - 1]

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise BadVertexError(f"vertex {v} outside 1..{self.n}")


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
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
                raise ValueError(line)
            a, b = int(parts[0]), int(parts[1])  # ValueError past int()'s digit limit
        except ValueError:
            raise DagSyntaxError(f"line {lineno}: expected two integers, got {line!r}") from None
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


def topological_order(dag: Dag) -> list[int]:
    """Kahn-style peeling with a smallest-label-first tie-break."""
    indegree = [len(parents) for parents in dag._parents]
    heap = [v for v in range(1, dag.n + 1) if indegree[v - 1] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in dag._children[v - 1]:
            indegree[w - 1] -= 1
            if indegree[w - 1] == 0:
                heapq.heappush(heap, w)
    if len(order) != dag.n:
        stuck = [v for v in range(1, dag.n + 1) if indegree[v - 1] > 0]
        raise CyclicGraphError(f"no topological order: cycle through vertices {stuck}")
    return order


def transitive_closure(dag: Dag) -> Poset:
    """The reachability poset: j <= i iff j = i or there is a path j -> i.

    Vertex v's down-set mask is its own bit OR the masks of its parents,
    taken in topological order."""
    down = [0] * dag.n
    for v in topological_order(dag):
        mask = 1 << (v - 1)
        for u in dag.parents(v):
            mask |= down[u - 1]
        down[v - 1] = mask
    return Poset(tuple(range(1, dag.n + 1)), tuple(down))
