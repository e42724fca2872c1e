"""Finite posets, order ideals, order-preserving maps, and state lattices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterator

from .errors import BadStateError, NotAStateError

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
    axioms are checked once at construction, in one OR per related pair,
    and the same pass yields the Hasse diagram.
    """

    elements: tuple[Label, ...]
    down: tuple[int, ...]
    _index: dict[Label, int] = field(init=False, repr=False, compare=False)
    _lower_covers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != n:
            raise ValueError("duplicate poset elements")
        if len(self.down) != n:
            raise ValueError(f"{len(self.down)} down-set masks for {n} elements")
        for i, (e, mask) in enumerate(zip(self.elements, self.down)):
            if mask < 0 or mask >> n:
                raise ValueError(f"down-set of {e!r} reaches outside the element set")
            if not mask >> i & 1:
                raise ValueError(f"relation is not reflexive at {e!r}")
        strict = [mask ^ (1 << i) for i, mask in enumerate(self.down)]
        covers = []
        for i, below in enumerate(strict):
            # below_below: everything strictly below something strictly below
            # i; the rest of i's strict down-set are its lower covers.
            below_below = 0
            for j in bit_positions(below):
                below_below |= strict[j]
            if below_below >> i & 1:
                j = next(j for j in bit_positions(below) if strict[j] >> i & 1)
                raise ValueError(
                    "relation is not antisymmetric on "
                    f"({self.elements[j]!r}, {self.elements[i]!r})"
                )
            if below_below & ~below:
                j = next(j for j in bit_positions(below) if strict[j] & ~below)
                c = bit_positions(strict[j] & ~below)[0]
                raise ValueError(
                    "relation is not transitive on "
                    f"({self.elements[c]!r}, {self.elements[j]!r}, {self.elements[i]!r})"
                )
            covers.append(below & ~below_below)
        object.__setattr__(self, "_index", index)
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

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, element: Label) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ValueError(f"{element!r} is not a poset element") from None

    @property
    def relation(self) -> frozenset[tuple[Label, Label]]:
        """Every pair (a, b) with a <= b, reflexive pairs included."""
        e = self.elements
        return frozenset(
            (e[j], e[i]) for i, mask in enumerate(self.down) for j in bit_positions(mask)
        )

    def covers_below(self, b: Label) -> tuple[Label, ...]:
        """The elements b covers: the maximal elements strictly below b."""
        return tuple(
            self.elements[j] for j in bit_positions(self._lower_covers[self.index(b)])
        )


@dataclass(frozen=True)
class StateLattice:
    """The distributive lattice of length-n vectors over {0..k-1}, ordered
    coordinate-wise, closed under coordinate-wise min and max.

    `states` is sorted lexicographically and that order is a linear extension
    of the lattice order. `order_preserving_maps` and `ideal_lattice` build
    it by one walk along a linear extension of the poset (`_monotone_vectors`),
    one OR per state on unary vectors, and one sort at the end.

    The walks on `covers` need the states to be all the monotone maps of a
    poset, as `order_preserving_maps` and `ideal_lattice` build them: then
    every line g + t*e_i meets the states in an interval, and lowering g to a
    state h <= g in increasing order of column sums passes through states only.
    """

    n: int
    k: int
    states: tuple[State, ...]
    _members: frozenset[State] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.states))

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, g: object) -> bool:
        return g in self._members

    @cached_property
    def masks(self) -> dict[int, int]:
        """Each state in unary, coordinate i holding g_i ones among k-1 bits,
        mapped to its index in `states`, in that order. g <= h iff g's bits lie
        in h's, and the meet and join (coordinate-wise min and max) of two
        states have the AND and the OR of their masks."""
        width = self.k - 1
        masks = (sum(((1 << v) - 1) << (i * width) for i, v in enumerate(g)) for g in self.states)
        return {m: t for t, m in enumerate(masks)}

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every index pair (g, g - e_i) of states, coordinates in decreasing
        order of column sums, g in lex order; built once, on the masks."""
        states, masks, width = self.states, self.masks, self.k - 1
        coords = sorted(range(self.n), key=lambda i: -sum(g[i] for g in states))
        index = masks.get
        pairs = [(t, index(m ^ (1 << i * width + g[i] - 1))) for i in coords
                 for t, (g, m) in enumerate(zip(states, masks)) if g[i]]
        return tuple(pair for pair in pairs if pair[1] is not None)

    @property
    def top(self) -> State:
        return self.states[-1]


# A byte of r low one-bits -> r: decodes the bytes of a unary slot.
_UNARY_BYTES = bytes.maketrans(bytes((1 << r) - 1 for r in range(9)), bytes(range(9)))


def _monotone_vectors(poset: Poset, k: int, *, reverse: bool = False) -> list[State]:
    """All vectors over {0..k-1} monotone along the poset relation, in
    lexicographic order; with reverse=True the vectors must be
    order-reversing instead (used for order-ideal indicators).

    The walk visits the positions along a linear extension (the dual's for
    reverse=True), so no position is bounded from above by an earlier one.
    The next vector raises the last position below k-1 and resets every later
    position to the least value the prefix allows; it never meets a dead end.
    A vector is one int with a slot of ceil((k-1)/8) bytes per position, the
    value v as v one-bits, so elementwise max is OR: the reset is the OR of
    the prefix's vector and the raised value copied into the slots of every
    element above the raised one. The walk's order is lexicographic in the
    extension's positions; one sort at the end restores coordinate order,
    and it is linear when the extension is the identity.
    """
    if k < 1:
        raise ValueError(f"chain size must be >= 1, got {k}")
    n = len(poset.elements)
    order = sorted(range(n), key=lambda i: poset.down[i].bit_count(), reverse=reverse)
    width = (k + 6) // 8 or 1  # bytes per slot; k = 1 keeps one empty byte
    full = ((1 << (k - 1)) - 1).to_bytes(width, "little")
    # ones[i]: the lowest bit of the slot of every element above element i
    # in the walk's order, i itself included, built along the covers from
    # the last position back.
    ones = [0] * n
    for t in range(n - 1, -1, -1):
        i = order[t]
        ones[i] |= 1 << 8 * width * t
        covers = poset._lower_covers[i]
        while covers:
            j = (covers & -covers).bit_length() - 1
            covers &= covers - 1
            if reverse:
                ones[i] |= ones[j]
            else:
                ones[j] |= ones[i]
    ones = [ones[i] for i in order]
    pos = [0] * n
    for t, i in enumerate(order):
        pos[i] = t
    permute = tuple if order == list(range(n)) else itemgetter(*pos)
    # prefix[t]: the least vector that agrees with the current one before t.
    prefix = [0] * n
    vec = 0
    out: list[State] = []
    while True:
        raw = vec.to_bytes(n * width, "little")
        values = raw.translate(_UNARY_BYTES)
        if width > 1:
            values = tuple(map(sum, zip(*[iter(values)] * width)))
        out.append(permute(values))
        # Strips whole slots only: a slot's top byte is one of full's bytes
        # only when the slot is full.
        raw = raw.rstrip(full)
        if not raw:
            out.sort()
            return out
        t = len(raw) // width - 1
        raised = int.from_bytes(raw[-width:], "little") << 1 | 1
        vec = prefix[t] | ones[t] * raised
        prefix[t + 1 :] = [vec] * (n - t - 1)


def order_preserving_maps(poset: Poset, k: int) -> StateLattice:
    """The lattice of all vectors g over {0..k-1} with a <= b implying
    g_a <= g_b, coordinates taken in `poset.elements` order."""
    states = _monotone_vectors(poset, k)
    return StateLattice(n=len(poset.elements), k=k, states=tuple(states))


def order_ideals(poset: Poset) -> list[State]:
    """All order ideals as 0-1 indicator vectors over `poset.elements`,
    lexicographically ordered. An indicator is an ideal iff it never drops
    from 0 back to 1 going down the order."""
    return _monotone_vectors(poset, 2, reverse=True)


def ideal_lattice(poset: Poset) -> StateLattice:
    """Order ideals as a 2-state lattice: inclusion is the coordinate-wise
    order on indicators, intersection/union are min/max."""
    return StateLattice(n=len(poset.elements), k=2, states=tuple(order_ideals(poset)))


def is_order_ideal(poset: Poset, indicator: State) -> bool:
    if len(indicator) != len(poset.elements) or any(b not in (0, 1) for b in indicator):
        raise BadStateError(f"indicator {indicator!r} is not a 0-1 vector over the poset")
    members = sum(1 << i for i, b in enumerate(indicator) if b)
    return all(not poset.down[i] & ~members for i in bit_positions(members))


def is_order_preserving(poset: Poset, g: State, k: int) -> bool:
    if len(g) != len(poset.elements) or any(not 0 <= v < k for v in g):
        raise BadStateError(f"vector {g!r} is not over {{0..{k - 1}}}^{len(poset.elements)}")
    return all(
        g[j] <= v
        for v, covers in zip(g, poset._lower_covers)
        for j in bit_positions(covers)
    )


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


def state_to_ideal(poset: Poset, g: State, k: int) -> frozenset[tuple[Label, int]]:
    """Send a lattice state to its order ideal in chain_product(poset, k-1):
    all (e_i, r) with r <= k - g_i - 2.

    The map is an order-reversing bijection onto the product's order ideals.

    Raises:
        NotAStateError: g is not order-preserving for the poset.
    """
    if not is_order_preserving(poset, g, k):
        raise NotAStateError(f"{g!r} is not order-preserving for the poset")
    return frozenset(
        (e, r) for e, v in zip(poset.elements, g) for r in range(k - v - 1)
    )
