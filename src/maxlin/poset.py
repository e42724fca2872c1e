"""Finite posets, order ideals, order-preserving maps, and state lattices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem
from typing import Hashable, Iterator, Sequence

from .errors import BadStateError

Label = Hashable
State = tuple[int, ...]


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, lowest first."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


@dataclass(frozen=True)
class Poset:
    """A finite partial order stored as one down-set mask per element.

    `elements` fixes the coordinate order used by indicator vectors and state
    vectors; bit j of `down[i]` is set iff elements[j] <= elements[i]. The
    axioms are checked once at construction, in one OR per greedy pick, and
    the same pass yields the Hasse diagram.
    """

    elements: tuple[Label, ...]
    down: tuple[int, ...]
    _lower_covers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("duplicate poset elements")
        if len(self.down) != n:
            raise ValueError(f"{len(self.down)} down-set masks for {n} elements")
        for i, (e, mask) in enumerate(zip(self.elements, self.down)):
            if mask < 0 or mask >> n:
                raise ValueError(f"down-set of {e!r} reaches outside the element set")
            if not mask >> i & 1:
                raise ValueError(f"relation is not reflexive at {e!r}")
        down, e = self.down, self.elements
        strict = [mask ^ (1 << i) for i, mask in enumerate(down)]
        counts = [mask.bit_count() for mask in down]
        minimal = sum(1 << i for i, count in enumerate(counts) if count == 1)
        covers = []
        for i, below in enumerate(strict):
            # Picks j, each the end bit of `rest` with the larger down-set, cover i's
            # strict down-set (a minimal element has nothing below it to check or
            # add); each holds its own inside, so by induction the axioms hold.
            below_below, rest = 0, below & ~minimal
            while rest:
                j, low = rest.bit_length() - 1, (rest & -rest).bit_length() - 1
                j = low if counts[low] > counts[j] else j
                if outside := strict[j] & ~below:
                    if outside >> i & 1:
                        raise ValueError(f"relation is not antisymmetric on ({e[j]!r}, {e[i]!r})")
                    c = e[(outside & -outside).bit_length() - 1]
                    raise ValueError(f"relation is not transitive on ({c!r}, {e[j]!r}, {e[i]!r})")
                below_below |= strict[j]
                rest &= ~down[j]
            covers.append(below & ~below_below)
        object.__setattr__(self, "_lower_covers", tuple(covers))

    @classmethod
    def from_relation(cls, elements, pairs) -> "Poset":
        """The poset on `elements` whose relation is `pairs`, every (a, b)
        with a <= b, reflexive pairs included."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        down = [0] * len(elements)
        for a, b in pairs:
            if a not in index or b not in index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) outside the element set")
            down[index[b]] |= 1 << index[a]
        return cls(elements, tuple(down))

    @property
    def relation(self) -> frozenset[tuple[Label, Label]]:
        """Every pair (a, b) with a <= b, reflexive pairs included."""
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
    them by one walk along a linear extension of the poset
    (`_monotone_vectors`), one OR per state on unary vectors and one sort of
    bytes at the end, and keeps them as the walk gives them: `bytes` of the
    entries when k <= 9, int tuples otherwise; `ideal_lattice` complements
    the two-state walk's bytes. `states`, the same vectors as int tuples, is
    built on first use, so printing a lattice from `vectors` never makes a
    tuple per state.

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
        states have the AND and the OR of their masks."""
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


# A byte of r low one-bits -> r: decodes the bytes of a unary slot.
_UNARY_BYTES = bytes.maketrans(bytes((1 << r) - 1 for r in range(9)), bytes(range(9)))


def _monotone_vectors(poset: Poset, k: int) -> list:
    """All vectors over {0..k-1} monotone along the poset relation, in
    lexicographic order, as `bytes` of the entries when k <= 9 and as int
    tuples otherwise.

    The walk visits the positions along a linear extension, so no position
    is bounded from above by an earlier one. The next vector raises the last
    position below k-1 and resets every later position to the least value
    the prefix allows; it never meets a dead end. A vector is one int with a
    slot of ceil((k-1)/8) bytes per position, the value v as v low one-bits,
    so elementwise max is OR: the reset is the OR of the prefix's vector and
    the raised value copied into the slots of every element above the raised
    one. The int holds the vector twice: in coordinate order in its low
    half, and in the walk's order in its high half, whose trailing full
    slots end at the position to raise. The low half's bytes are kept. A
    little-endian unary slot compares as bytes like its value, so one sort of
    those bytes puts the vectors in lexicographic order (linear when the
    extension is the identity), and one translate per vector decodes it.
    """
    if k < 1:
        raise ValueError(f"chain size must be >= 1, got {k}")
    n = len(poset.elements)
    order = sorted(range(n), key=lambda i: poset.down[i].bit_count())
    width = (k + 6) // 8 or 1  # bytes per slot; k = 1 keeps one empty byte
    size = n * width
    full = ((1 << (k - 1)) - 1).to_bytes(width, "little")
    # ones[i]: the lowest bit of the slot of every element above element i,
    # i itself included, in both halves, built along the covers from the
    # walk's last position back.
    ones = [0] * n
    for t in range(n - 1, -1, -1):
        i = order[t]
        ones[i] |= 1 << 8 * width * i | 1 << 8 * (size + width * t)
        covers = poset._lower_covers[i]
        while covers:
            j = (covers & -covers).bit_length() - 1
            covers &= covers - 1
            ones[j] |= ones[i]
    ones = [ones[i] for i in order]
    # prefix[t]: the least vector that agrees with the current one before t.
    prefix = [0] * n
    vec = 0
    out: list[bytes] = []
    while True:
        raw = vec.to_bytes(2 * size, "little")
        out.append(raw[:size])
        # Strips whole slots only: a slot's top byte is one of full's bytes
        # only when the slot is full; it strips the low half when all are.
        raw = raw.rstrip(full)
        if not raw:
            break
        t = len(raw) // width - n - 1
        raised = int.from_bytes(raw[-width:], "little") << 1 | 1
        vec = prefix[t] | ones[t] * raised
        prefix[t + 1 :] = [vec] * (n - t - 1)
    out.sort()
    if width == 1:
        return [v.translate(_UNARY_BYTES) for v in out]
    return [tuple(map(sum, zip(*[iter(v.translate(_UNARY_BYTES))] * width))) for v in out]


def order_preserving_maps(poset: Poset, k: int) -> StateLattice:
    """The lattice of all vectors g over {0..k-1} with a <= b implying
    g_a <= g_b, coordinates taken in `poset.elements` order."""
    return StateLattice(len(poset.elements), k, tuple(_monotone_vectors(poset, k)))


# Swaps the bytes 0 and 1: complements a decoded 0-1 vector.
_COMPLEMENT = bytes.maketrans(b"\0\1", b"\1\0")


def ideal_lattice(poset: Poset) -> StateLattice:
    """Order ideals as a 2-state lattice of 0-1 indicator vectors over
    `poset.elements`: inclusion is the coordinate-wise order on indicators,
    intersection/union are min/max. An indicator is an ideal iff its
    complement is a two-state monotone map, so the ideals are the two-state
    walk's vectors complemented, one translate each; complementing reverses
    lexicographic order, so they are taken in reverse."""
    ideals = (v.translate(_COMPLEMENT) for v in reversed(_monotone_vectors(poset, 2)))
    return StateLattice(len(poset.elements), 2, tuple(ideals))


def is_order_ideal(poset: Poset, indicator: State) -> bool:
    if len(indicator) != len(poset.elements) or any(b not in (0, 1) for b in indicator):
        raise BadStateError(f"indicator {indicator!r} is not a 0-1 vector over the poset")
    members = sum(1 << i for i, b in enumerate(indicator) if b)
    return all(not poset.down[i] & ~members for i in bit_positions(members))


def chain_product(poset: Poset, m: int) -> Poset:
    """The product poset with elements (e, r) for r in 0..m-1 and
    (a, r) <= (b, s) iff a <= b and r <= s."""
    if m < 0:
        raise ValueError(f"chain size must be >= 0, got {m}")
    elems = tuple((e, r) for e in poset.elements for r in range(m))
    pairs = (
        ((a, r), (b, s)) for a, b in poset.relation for r in range(m) for s in range(r, m)
    )
    return Poset.from_relation(elems, pairs)
