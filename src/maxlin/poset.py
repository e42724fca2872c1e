"""Finite posets, order ideals, order-preserving maps, and state lattices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import add, getitem, or_
from typing import Hashable, Iterator, Sequence

Label = Hashable
State = tuple[int, ...]


# Byte v < 10 becomes the digit v; bytes 10..255 are deleted.
DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_NOT_DIGITS = bytes(range(10, 256))


def state_digits(state: Sequence[int]) -> str:
    """The state as a digit string, e.g. (0, 1, 2) -> "012"; every entry
    must be one digit, so that the string decodes to a single state."""
    try:
        text = bytes(state).translate(DIGITS, _NOT_DIGITS).decode()
    except ValueError:  # an entry outside 0..255
        text = ""
    if len(text) != len(state):
        raise ValueError(f"state {tuple(state)} has entries outside 0..9")
    return text


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, lowest first."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


@dataclass(frozen=True)
class Poset:
    """A finite partial order stored as one down-set mask per element, with
    its Hasse diagram: the record of `dag.transitive_closure`, the package's
    only producer, whose masks are a partial order by construction, so
    nothing here checks them.

    `elements` fixes the coordinate order used by indicator vectors and state
    vectors; bit j of `down[i]` is set iff elements[j] <= elements[i], and bit
    j of `lower_covers[i]` iff elements[i] covers elements[j].
    """

    elements: tuple[Label, ...]
    down: tuple[int, ...]
    lower_covers: tuple[int, ...]

    @property
    def relation(self) -> frozenset[tuple[Label, Label]]:
        """Every pair (a, b) with a <= b, reflexive pairs included. The
        benchmark tracer's `dag.relation_pairs` count is its only reader;
        it and `bit_positions` leave once that count reads the masks."""
        e = self.elements
        return frozenset(
            (e[j], e[i]) for i, mask in enumerate(self.down) for j in bit_positions(mask)
        )


@dataclass(frozen=True)
class StateLattice:
    """The distributive lattice of length-n vectors over {0..k-1}, ordered
    coordinate-wise, closed under coordinate-wise min and max.

    `vectors` holds the states in lexicographic order, and that order is a
    linear extension of the lattice order. `order_preserving_maps` builds
    them from the two-state walk along a linear extension of the poset
    (`_monotone_vectors`), whose 0-1 vectors are the poset's filters: for
    k >= 3 each state is the sum of a multichain of k-1 filters
    (`_multichains`). They are `bytes` of the entries whenever an entry
    fits in a byte (k <= 256), int tuples otherwise; `ideal_lattice`
    complements the two-state walk's bytes. `state_digits` spells them.
    `states`, the same vectors as int tuples, is built on first use, so
    printing a lattice from `vectors` never makes a tuple per state.

    The walks on `covers` need the states to be all the monotone maps of a
    poset, as `order_preserving_maps` and `ideal_lattice` build them: then
    every line g + t*e_i meets the states in an interval, and lowering g to a
    state h <= g in increasing order of column sums passes through states only.
    """

    n: int
    k: int
    vectors: Sequence[Sequence[int]]

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, g: object) -> bool:
        return g in self._members

    @cached_property
    def states(self) -> tuple[State, ...]:
        return tuple(map(tuple, self.vectors))

    @cached_property
    def _members(self) -> frozenset[State]:
        return frozenset(self.states)

    @cached_property
    def masks(self) -> dict[int, int]:
        """Each state in unary, coordinate i holding g_i ones among k-1 bits,
        mapped to its index in `states`, in that order. g <= h iff g's bits lie
        in h's, and the meet and join (coordinate-wise min and max) of two
        states have the AND and the OR of their masks; so the masks also
        decide vanishing under the x-map (`algebra.verify_vanishing`)."""
        table = [[((1 << v) - 1) << i * (self.k - 1) for v in range(self.k)] for i in range(self.n)]
        masks = (sum(map(getitem, table, g)) for g in self.vectors)
        return {m: t for t, m in enumerate(masks)}

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every index pair (g, g - e_i) of states, coordinates in decreasing
        order of column sums, g in lex order; built once, on the masks."""
        states, masks, width = self.states, self.masks, self.k - 1
        columns = list(zip(*states))
        coords = sorted(range(self.n), key=lambda i: -sum(columns[i]))
        index = masks.get
        pairs = [(t, index(m ^ (1 << i * width + g[i] - 1))) for i in coords
                 for t, (g, m) in enumerate(zip(states, masks)) if g[i]]
        return tuple(pair for pair in pairs if pair[1] is not None)

    @property
    def top(self) -> State:
        return tuple(self.vectors[-1])


def _monotone_vectors(poset: Poset) -> list[bytes]:
    """All 0-1 vectors monotone along the poset relation, the indicators of
    its filters (up-sets), as `bytes` of the entries in lexicographic order.

    The walk visits the positions along a linear extension, so no position
    is bounded from above by an earlier one. The next vector raises the last
    0 position to 1 and resets every later position to the least value the
    prefix allows; it never meets a dead end. A vector is one int with a
    byte per position, so elementwise max is OR: the reset is the OR of the
    prefix's vector and the 1s of every element above the raised one. The
    int holds the vector twice: in coordinate order in its low half, and in
    the walk's order in its high half, whose trailing 1s end at the position
    to raise. The low half's bytes are kept, and one sort of them puts the
    vectors in lexicographic order (linear when the extension is the identity).
    """
    n = len(poset.elements)
    order = sorted(range(n), key=lambda i: poset.down[i].bit_count())
    # ones[i]: the byte of every element above element i, i itself included,
    # in both halves, built along the covers from the walk's last position back.
    ones = [0] * n
    for t in range(n - 1, -1, -1):
        i = order[t]
        ones[i] |= 1 << 8 * i | 1 << 8 * (n + t)
        covers = poset.lower_covers[i]
        while covers:
            j = (covers & -covers).bit_length() - 1
            covers &= covers - 1
            ones[j] |= ones[i]
    ones = [ones[i] for i in order]
    # (t, least) per raised position t, increasing, least the vector its raise
    # gave: the top one before t is the least that agrees with this one before t.
    stack = [(-1, 0)]
    vec = 0
    out: list[bytes] = []
    while True:
        raw = vec.to_bytes(2 * n, "little")
        out.append(raw[:n])
        raw = raw.rstrip(b"\1")  # both halves once every entry is 1
        if not raw:
            break
        t = len(raw) - n - 1
        while stack[-1][0] >= t:
            stack.pop()
        vec = stack[-1][1] | ones[t]
        stack.append((t, vec))
    out.sort()
    return out


# Swaps the bytes 0 and 1: complements a 0-1 vector.
_COMPLEMENT = bytes.maketrans(b"\0\1", b"\1\0")


def _multichains(filters: list[bytes], k: int) -> list:
    """The vectors 1_{F_1} + ... + 1_{F_{k-1}} of the multichains
    F_1 >= ... >= F_{k-1} of `filters`, the two-state walk's vectors: every
    monotone map g over {0..k-1}, whose F_v = {x : g_x >= v} is a filter.
    Lexicographic order; `bytes` of the entries when k <= 256, int tuples
    otherwise.

    A filter is one int with a slot of w bytes per position, coordinate 0
    highest, so adding ints adds vectors, and ints compare as vectors do
    lexicographically. The filters inside filter b are all lex-<= b: those
    holding no element outside b, one OR of the per-element "filters holding
    x" bytes over b's complement, read as `compress` selectors. The chains
    grow one filter at a time from the smallest, grouped by their largest
    filter: the chains topped by b are b added to every chain topped by a
    filter inside b, one C-level map per filter and level. The sums are
    sorted as ints and converted by one `to_bytes` each.
    """
    n, count = len(filters[0]), len(filters)
    w = ((k - 1).bit_length() + 7) // 8  # bytes per slot
    wide = bytearray(n * w)
    ints = []
    for v in filters:
        wide[w - 1 :: w] = v
        ints.append(int.from_bytes(wide, "big"))
    # holding[x]: byte a is 1 iff filters[a] holds element x.
    columns = b"".join(filters)
    holding = [int.from_bytes(columns[x::n], "little") for x in range(n)]
    every = int.from_bytes(b"\1" * count, "little")
    # filters[a] lies in filters[b] iff it holds no element outside it, and then
    # a <= b: inside[b] has b + 1 selector bytes, byte a 1 iff it does.
    outside = (reduce(or_, compress(holding, v.translate(_COMPLEMENT)), 0) for v in filters)
    inside = [(every ^ out).to_bytes(b + 1, "little") for b, out in enumerate(outside)]
    groups = [[a] for a in ints]
    for _ in range(k - 2):
        groups = [
            list(map(add, chain.from_iterable(compress(groups, below)), repeat(b)))
            for b, below in zip(ints, inside)
        ]
    states = sorted(chain.from_iterable(groups))
    vectors = list(map(int.to_bytes, states, repeat(n * w), repeat("big")))
    if w == 1:
        return vectors
    entries = map(int.from_bytes, zip(*[iter(b"".join(vectors))] * w), repeat("big"))
    return list(zip(*[entries] * n)) if n else [()]


def order_preserving_maps(poset: Poset, k: int) -> StateLattice:
    """The lattice of all vectors g over {0..k-1} with a <= b implying
    g_a <= g_b, coordinates taken in `poset.elements` order: the zero vector
    for k = 1, the two-state walk's filters for k = 2, and the sums of their
    multichains for k >= 3."""
    if k < 1:
        raise ValueError(f"chain size must be >= 1, got {k}")
    filters = _monotone_vectors(poset) if k > 1 else [bytes(len(poset.elements))]
    vectors = _multichains(filters, k) if k > 2 else filters
    return StateLattice(len(poset.elements), k, tuple(vectors))


def ideal_lattice(poset: Poset) -> StateLattice:
    """Order ideals as a 2-state lattice of 0-1 indicator vectors over
    `poset.elements`: inclusion is the coordinate-wise order on indicators,
    intersection/union are min/max. An indicator is an ideal iff its
    complement is a two-state monotone map, so the ideals are the two-state
    walk's vectors complemented, one translate each; complementing reverses
    lexicographic order, so they are taken in reverse."""
    ideals = (v.translate(_COMPLEMENT) for v in reversed(_monotone_vectors(poset)))
    return StateLattice(len(poset.elements), 2, tuple(ideals))
