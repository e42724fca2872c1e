"""Multivariate polynomials with rational coefficients as data, read from
the text grammar, evaluated at a joint distribution and printed, with no
ring arithmetic; binomial generators of distributive lattices, their
monomial parameterization, a Hilbert-function certificate that the
generators are a Groebner basis of the toric ideal, and a Buchberger check.

Rational coefficients are ``fractions.Fraction`` (always reduced, positive
denominator). Variables are named by family and index; the fixed total order
on variables is (family name, index tuple), compared lexicographically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import (
    ParseError, UnboundVariableError, UnmappedVariableError, check_size, quote, shorten
)
from .poset import State, StateLattice, state_digits
from .report import Report

Scalar = Union[int, Fraction]

FAMILIES = ("alpha", "p", "q", "t", "theta", "x")


class Variable(NamedTuple):
    """A named indexed variable. Variables order as their (family, index)
    tuples, the package-wide variable order."""

    family: str
    index: tuple[int, ...] = ()

    def key_text(self) -> str:
        """Machine form used by the polynomial grammar, e.g. q[01011], theta[3,1]."""
        if self.family == "t":
            return "t"
        if self.family in ("p", "q"):
            return f"{self.family}[{state_digits(self.index)}]"
        return f"{self.family}[{','.join(str(i) for i in self.index)}]"


def q_var(state: State) -> Variable:
    return Variable("q", tuple(state))


def t_var() -> Variable:
    return Variable("t")


def x_var(i: int, r: int) -> Variable:
    return Variable("x", (i, r))


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (Variable, positive exponent)

Monomial = tuple[tuple[Variable, int], ...]


def mono_from_dict(exps: Mapping[Variable, int]) -> Monomial:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted monomials; exponents are positive so nothing drops."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial with Fraction coefficients in canonical form: no zero
    coefficients stored, monomials keyed by their sorted variable tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is Fraction else Fraction(coeff)
                if c:
                    clean[mono] = c
        self.terms: dict[Monomial, Fraction] = clean

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Variable]:
        return {v for mono in self.terms for v, _ in mono}

    # emission

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        terms = sorted(self.terms.items(), key=lambda mc: (mono_degree(mc[0]), mc[0]))
        for mono, coeff in reversed(terms):
            factors = [v.key_text() + (f"^{e}" if e > 1 else "") for v, e in mono]
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()})"


# ---------------------------------------------------------------------------
# polynomial grammar
#
#   poly   := ['-'] term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := coefficient | variable ['^' int]
#   variable := 't' | family '[' indices ']'
#
# p/q indices are digit strings ("q[01011]"); theta/alpha/x take one or two
# comma-separated integers ("theta[3,1]", "x[2]"). Digits are ASCII 0-9 only,
# and an exponent above MAX_EXPONENT is refused, so evaluation stays bounded.

MAX_EXPONENT = 1000

# A token after any whitespace: a whole p- or q-variable (family, index and
# exponent digits in groups 1-3, whitespace allowed between its parts), else
# in group 4 a run of ASCII digits, of letters and "_", or one other character.
_TOKEN = re.compile(
    r"\s*(?:([pq])\s*\[\s*([0-9]+)\s*\](?:\s*\^\s*([0-9]+))?|([0-9]+|[A-Za-z_]+|.))"
)
_INDEX = bytes.maketrans(b"0123456789", bytes(range(10)))  # ASCII digit -> its value
_CAP = f"exceeds the cap of {MAX_EXPONENT}"


def parse_polynomial(text: str) -> Polynomial:
    """Parse one polynomial in the text grammar, e.g.
    "q[01011]*q[10111] - q[00011]*q[11111]" or "1/2*p[00]^2 - p[01]".

    One regex scan gives the tokens; one loop reads them, in `state` at a
    term's start, after "*" or after a factor, and looks ahead for "/" and
    "^". An error names the token where it is found, a whole p- or q-variable
    by its family letter. Like terms are summed, each monomial kept where it
    first appears and a cancelled one entering again at the end, and
    `evaluate_at_distribution` meets the variables in that order. A
    repeated variable's exponents add up, and the sum is capped as one is."""

    def error(what: str) -> ParseError:
        return ParseError(f"{what} in {quote(text)}")

    terms: dict[Monomial, Scalar] = {}
    tokens = [*_TOKEN.findall(text.rstrip()), ("", "", "", None)]  # tok None: the end
    state, num, den, exps, i = "term", 1, 1, {}, 0
    try:
        while True:
            family, digits, exp, tok = tokens[i]
            i += 1
            if state == "after":
                if tok == "*":
                    state = "factor"
                    continue
                mono = mono_from_dict(exps)
                for v, e in mono:
                    if e > MAX_EXPONENT:
                        raise error(f"exponent {e} of {shorten(v.key_text())} {_CAP}")
                coeff = terms.get(mono, 0) + (num if den == 1 else Fraction(num, den))
                terms[mono] = coeff
                if not coeff:
                    del terms[mono]
                if tok is None:
                    return Polynomial(terms)  # each int coefficient made a Fraction
                if tok != "+" and tok != "-":
                    raise error(f"trailing junk {quote(tok or family)}")
                state, num, den, exps = "term", 1, 1, {}
            if state == "term" and (tok == "+" or tok == "-"):
                num = -num if tok == "-" else num
                continue
            if tok is None:
                raise error("unexpected end of polynomial")
            state = "after"
            if tok.isascii() and tok.isdigit():  # a coefficient
                num *= int(tok)
                if tokens[i][3] == "/":
                    family, _, _, tok = tokens[i + 1]
                    i += 2
                    if tok is None:
                        raise error("unexpected end of polynomial")
                    if not (tok.isascii() and tok.isdigit()) or int(tok) == 0:
                        raise error(f"bad denominator {quote(tok or family)}")
                    den *= int(tok)
                continue
            if family:
                var = Variable(family, tuple(digits.encode().translate(_INDEX)))
            elif tok == "t":
                var = t_var()
            else:
                var, i = _indexed_variable(tok, tokens, i, error)
            if not exp and tokens[i][3] == "^":
                family, _, _, exp = tokens[i + 1]
                i += 2
                if exp is None:
                    raise error("unexpected end of polynomial")
                if not (exp.isascii() and exp.isdigit()):
                    raise error(f"bad exponent {quote(exp or family)}")
            if exp:
                exp = exp.lstrip("0") or "0"
                if len(exp) > len(str(MAX_EXPONENT)) or int(exp) > MAX_EXPONENT:
                    raise error(f"exponent {shorten(exp)} {_CAP}")
            exps[var] = exps.get(var, 0) + (int(exp) if exp else 1)
    except ValueError as exc:  # a number with more digits than int() converts
        raise ParseError(str(exc)) from None


def _indexed_variable(name: str, tokens: list, i: int, error) -> tuple[Variable, int]:
    """The variable the family `name` starts, its bracketed indices read from
    tokens[i:], and the index of the token after it; t is read apart."""

    def take(expected: str | None = None) -> str:
        nonlocal i
        family, _, _, tok = tokens[i]
        i += 1
        if tok is None:
            raise error("unexpected end of polynomial")
        if expected is not None and (tok or family) != expected:
            raise error(f"expected {expected!r} but found {quote(tok or family)}")
        return tok or family

    def index() -> str:
        tok = take()
        if not (tok.isascii() and tok.isdigit()):
            raise error(f"bad index {quote(tok)}")
        return tok

    if name not in FAMILIES:
        raise error(f"unknown variable family {quote(name)}")
    take("[")
    first = index()
    after = take()
    if after == "," and name not in ("p", "q"):
        second = index()
        take("]")
        return Variable(name, (int(first), int(second))), i
    if after != "]":
        raise error(f"expected ']' but found {quote(after)}")
    return Variable(name, (int(first),)), i  # not p or q: `_TOKEN` takes a whole one


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """The degree-reverse-lexicographic order.

    Variables rank by the package-wide variable order (family, then index),
    so q-variables rank by the lexicographic order of their states, which is
    a linear extension of the lattice order.
    """

    @staticmethod
    def key(mono: Monomial) -> tuple:
        """The degree, then the variables in increasing order, each repeated
        by its exponent. At equal degree the lists first differ at the smallest
        variable whose exponents differ, and the list holding more copies of
        it is the smaller, as in degrevlex."""
        variables = tuple(v for v, e in mono for _ in range(e))
        return len(variables), variables

    def leading_term(self, poly: Polynomial) -> tuple[Monomial, Fraction]:
        if poly.is_zero:
            raise ValueError("the zero polynomial has no leading term")
        lead = max(poly.terms, key=self.key)
        return lead, poly.terms[lead]


# ---------------------------------------------------------------------------
# binomial generators of a distributive lattice


@dataclass(frozen=True)
class BinomialGenerator:
    """q_g*q_h - q_meet*q_join for one incomparable lattice pair (g, h)."""

    g: State
    h: State
    meet: State
    join: State

    def __post_init__(self) -> None:
        if {self.g, self.h} == {self.meet, self.join}:
            raise ValueError(
                f"binomial of g={self.g}, h={self.h}, meet={self.meet},"
                f" join={self.join} is zero: its two monomials coincide"
            )

    def polynomial(self) -> Polynomial:
        g, h, meet, join = (((q_var(s), 1),) for s in _STATES(self))
        return Polynomial({mono_mul(g, h): 1, mono_mul(meet, join): -1})

    def to_text(self) -> str:
        return self.to_json_dict()["polynomial"]

    def to_json_dict(self) -> dict:
        return generator_json(*map(state_digits, _STATES(self)))


_STATES = attrgetter("g", "h", "meet", "join")


def generator_json(g: str, h: str, meet: str, join: str) -> dict:
    """A generator's JSON object, its four states given as digit strings; its
    "polynomial" is the one spelling of the text q_g*q_h - q_meet*q_join."""
    polynomial = f"q[{g}]*q[{h}] - q[{meet}]*q[{join}]"
    return {"pair": [g, h], "meet": meet, "join": join, "polynomial": polynomial}


@dataclass(frozen=True)
class GeneratorArrays:
    """A generator set as four parallel lists of indices into `states`, read
    as a sequence: item t is the `BinomialGenerator` (states[g[t]], ...)."""

    states: Sequence[State]
    g: list[int]
    h: list[int]
    meet: list[int]
    join: list[int]

    @classmethod
    def of(cls, generators, states: Sequence[State] = ()) -> "GeneratorArrays":
        """Arrays as they are when no `states` are given or they index these
        very states; a list of `BinomialGenerator`s, or arrays over other
        states, re-indexed once, into `states` and the states it names in
        lexicographic order, as `buchberger_check` needs. Arrays are
        re-indexed by their indices, so a zero generator stays as it is."""
        if isinstance(generators, cls):
            if not states or generators.states is states:
                return generators
            old, columns = generators.states, generators.columns()
        else:  # generator t's four states at 4t..4t+3
            old = [s for generator in generators for s in _STATES(generator)]
            columns = [range(c, len(old), 4) for c in range(4)]
        named = {old[i] for column in columns for i in column}
        states = tuple(sorted(named.union(states)))
        index = {s: i for i, s in enumerate(states)}
        return cls(states, *([index[old[i]] for i in column] for column in columns))

    def columns(self) -> tuple[list[int], list[int], list[int], list[int]]:
        return self.g, self.h, self.meet, self.join

    def __len__(self) -> int:
        return len(self.g)

    def __getitem__(self, t: int) -> BinomialGenerator:
        return BinomialGenerator(*(self.states[c[t]] for c in self.columns()))


def generator_arrays(lattice: StateLattice) -> GeneratorArrays:
    """One binomial per incomparable pair (g, h), g before h in the
    lattice's lexicographic state order, a linear extension: so (g, h) is
    incomparable iff g's mask in `lattice.masks` has a bit outside h's. The
    meet and join are the states with the AND and the OR of the pair's masks."""
    index = lattice.masks
    masks = list(index)
    g, h, meet, join = [], [], [], []
    for i, a in enumerate(masks):
        for j, b in enumerate(masks[i + 1 :], i + 1):
            if a & ~b:
                g.append(i)
                h.append(j)
                meet.append(index[a & b])
                join.append(index[a | b])
    return GeneratorArrays(lattice.states, g, h, meet, join)


def hibi_generators(lattice: StateLattice) -> list[BinomialGenerator]:
    """The `generator_arrays` of the lattice as a list; empty for chains."""
    return list(generator_arrays(lattice))


# ---------------------------------------------------------------------------
# monomial parameterizations


@dataclass(frozen=True)
class MonomialMap:
    """Assignment of every lattice q-variable to a squarefree monomial that
    contains the homogenizing variable t with exponent 1."""

    images: dict[Variable, Monomial]

    def image(self, var: Variable) -> Monomial:
        if var not in self.images:
            raise _unmapped(var)
        return self.images[var]


def _unmapped(var: Variable) -> UnmappedVariableError:
    return UnmappedVariableError(f"variable {shorten(var.key_text())} is not in the map")


def monomial_map(lattice: StateLattice) -> MonomialMap:
    """q_g -> t * prod of x[i, r] over the order ideal that g corresponds to
    in the product of the underlying poset with a (k-1)-chain, k = lattice.k:
    the pairs (i, r) with r < k - g_i - 1, coordinate i of a state taken to
    belong to vertex i+1 (`_image`). On an ideal lattice (k = 2) the x[i, 0]
    of g are the elements outside the ideal g."""
    return MonomialMap({q_var(g): _image(g, lattice.k) for g in lattice})


_T = ((t_var(), 1),)  # the factor t of every image


def _image(g: State, k: int) -> Monomial:
    """The image monomial of the state g, the x-map's one spelling; variables
    sort by (family, index), so t and then the x[i+1, r] in coordinate order
    are already sorted."""
    return _T + tuple((x_var(i + 1, r), 1) for i, v in enumerate(g) for r in range(k - v - 1))


def verify_vanishing(generators: Sequence, mmap: MonomialMap | StateLattice) -> Report:
    """Check that every generator maps to the zero polynomial: q_g*q_h and
    q_meet*q_join have the same monomial image.

    Each state's image is packed into an int once, so a generator maps to 0
    iff the two sums of packed images agree; only a failing generator has
    its images multiplied out, to print its image. The map is a
    `MonomialMap`, whose images `_pack_images` packs, or a lattice standing
    for its own `monomial_map`, whose images are read off `lattice.masks`:
    x[i+1, r] divides the image of g iff bit k-2-r of g's coordinate i is
    clear, so two products of images agree iff the two pairs of masks have
    the same AND and the same OR, that is, the same sums once each mask bit
    is spread to a 2-bit slot. A state named off the lattice is unmapped,
    as in the map itself."""
    arrays = GeneratorArrays.of(generators)
    if isinstance(mmap, StateLattice):
        if arrays.states != mmap.states:
            for s in arrays.states:
                if s not in mmap:
                    raise _unmapped(q_var(s))
            arrays = GeneratorArrays.of(arrays, mmap.states)  # aligned with the masks
        packed = [int(f"{m:b}", 4) for m in mmap.masks]
        states, k = arrays.states, mmap.k
        image = lambda i: _image(states[i], k)
    else:
        images = [mmap.image(q_var(s)) for s in arrays.states]
        packed, image = _pack_images(images), images.__getitem__
    failures = []
    for t, (g, h, meet, join) in enumerate(zip(*arrays.columns())):
        if packed[g] + packed[h] != packed[meet] + packed[join]:
            left = mono_mul(image(g), image(h))
            right = mono_mul(image(meet), image(join))
            image_text = Polynomial({left: 1, right: -1}).to_text()
            failures.append(f"{arrays[t].to_text()} maps to {image_text}")
    detail = f"{len(arrays)} generators map to 0" if not failures else ""
    return Report("vanishing", total=len(arrays), failures=failures, detail=detail)


def _pack_images(images: Sequence[Monomial]) -> list[int]:
    """Each monomial packed into an int, one slot of bits per variable
    holding its exponent.

    A slot is wide enough for the sum of two of the exponents, so adding two
    packed ints never carries from one slot into the next: the packed image
    of a product of two monomials is the sum of their ints, and two such
    products are equal iff their sums are."""
    slots = dict.fromkeys(v for m in images for v, _ in m)
    width = (2 * max((e for m in images for _, e in m), default=0)).bit_length()
    for s, v in enumerate(slots):
        slots[v] = s * width
    return [sum(e << slots[v] for v, e in m) for m in images]


def evaluate_at_distribution(
    poly: Polynomial,
    lattice: StateLattice,
    numerators: Mapping[State, int],
    denominator: int = 1,
    cumulative: Mapping[State, int] | None = None,
) -> Fraction:
    """The value at the joint given as integer numerators over one
    denominator D, as `full_distribution` gives them on a table's
    `integer_view`, keyed by state: p_g is numerators[g]/D and q_g is
    cumulative[g]/D. A p of the n-by-k cube off the lattice is 0; any other
    variable with no value raises, the first in term order, then in monomial
    order. With L the lcm of the coefficients' denominators, a term c*N/D**d
    (N the product of its integer factors) adds c*L*N to the sum S_d of its
    degree, and the value is one Fraction, sum(S_d * D**(top - d)) / (L * D**top)."""
    values = {"p": numerators, "q": cumulative or {}}
    scale = lcm(*(c.denominator for c in poly.terms.values()))
    sums: dict[int, int] = {}
    for mono, coeff in poly.terms.items():
        product, degree = coeff.numerator * (scale // coeff.denominator), 0
        for v, e in mono:
            value = values[v.family].get(v.index) if v.family in values else None
            if value is None:
                if v.family != "p" or len(v.index) != lattice.n or max(v.index) >= lattice.k:
                    raise UnboundVariableError(f"no value for variable {shorten(v.key_text())}")
                value = 0
            product *= value if e == 1 else value**e
            degree += e
        sums[degree] = sums.get(degree, 0) + product
    top = max(sums, default=0)
    total = sum(s * denominator ** (top - d) for d, s in sums.items())
    return Fraction(total, scale * denominator**top)


# ---------------------------------------------------------------------------
# Buchberger criterion

IndexMonomial = tuple[int, ...]


def default_lattice_order(generators: Sequence[BinomialGenerator]) -> MonomialOrder:
    """The order both Groebner checks use; it is the same for every set."""
    return MonomialOrder()


def _rewrite(mono: IndexMonomial, lead: IndexMonomial, tail: IndexMonomial) -> IndexMonomial:
    """mono / lead * tail, skipping the indices of lead that mono lacks: for
    two leads, _rewrite(lead_j, lead_i, tail_i) is lcm / lead_i * tail_i."""
    rest = list(mono)
    for i in lead:
        if i in rest:
            rest.remove(i)
    return tuple(sorted(rest + list(tail)))


def buchberger_check(generators: Sequence) -> Report:
    """Check the Buchberger criterion: the S-polynomial of every generator
    pair reduces to 0 modulo the generator set, so the set is a Groebner
    basis under the degree-reverse-lexicographic order over the lattice's
    linear extension.

    Divided by its leading coefficient, every generator is lead - tail with
    two quadratic monomials, the lead by `default_lattice_order`, so the
    S-polynomial of a pair is the difference of the monomials
    lcm/lead_j*tail_j and lcm/lead_i*tail_i. A monomial is rewritten by
    replacing the lead of the lowest-index generator dividing it with that
    generator's tail, as the division algorithm would; the pair reduces to 0
    exactly when both monomials reach the same normal form.
    Monomials are sorted tuples of indices into the states; only the choice
    of each lead and a failure line spell them in q-variables.

    By Buchberger's first criterion, a pair whose leading monomials are
    coprime reduces to 0 modulo the two generators alone, so only the pairs
    whose leads share a variable are formed and reduced; the others count as
    checked and passing. A generator whose lead is its tail is zero: it
    rewrites nothing and forms no pair, and its pairs count as skipped."""
    arrays = GeneratorArrays.of(generators)
    order = default_lattice_order(arrays)

    def q_monomial(mono: IndexMonomial) -> Monomial:
        return tuple((q_var(arrays.states[i]), mono.count(i)) for i in dict.fromkeys(mono))

    # [lead, tail] per generator, each a sorted pair: a hand-built generator
    # may name a monomial's states in either order
    split = [
        sorted((tuple(sorted((g, h))), tuple(sorted((meet, join)))),
               key=lambda mono: order.key(q_monomial(mono)), reverse=True)
        for g, h, meet, join in zip(*arrays.columns())
    ]
    by_lead: dict[IndexMonomial, int] = {}
    by_var: dict[int, list[int]] = {}
    nonzero = [i for i, (lead, tail) in enumerate(split) if lead != tail]
    for i in nonzero:
        lead = split[i][0]
        by_lead.setdefault(lead, i)
        for var in lead:
            by_var.setdefault(var, []).append(i)

    def normal_form(mono: IndexMonomial) -> IndexMonomial:
        while True:
            found = [by_lead[p] for p in combinations(mono, 2) if p in by_lead]
            if not found:
                return mono
            lead, tail = split[min(found)]
            mono = _rewrite(mono, lead, tail)

    failures = []
    reduced = 0
    for i in nonzero:
        lead_i, tail_i = split[i]
        # the later generators whose leads share a variable with lead_i
        for j in sorted({j for var in lead_i for j in by_var[var] if j > i}):
            reduced += 1
            lead_j, tail_j = split[j]
            nf_i = normal_form(_rewrite(lead_j, lead_i, tail_i))
            nf_j = normal_form(_rewrite(lead_i, lead_j, tail_j))
            if nf_i != nf_j:
                text = Polynomial({q_monomial(nf_j): 1, q_monomial(nf_i): -1}).to_text()
                failures.append(
                    f"S-polynomial of {arrays[i].to_text()} and "
                    f"{arrays[j].to_text()} leaves {text}"
                )
    pairs = len(split) * (len(split) - 1) // 2
    counts = f"({reduced} reduced, {pairs - reduced} skipped: coprime leading monomials)"
    if failures:
        detail = f"{len(failures)} of {pairs} S-polynomials do not reduce to 0 {counts}"
    else:
        detail = f"{pairs} S-polynomials reduce to 0 {counts}"
    return Report("groebner", total=pairs, failures=failures, detail=detail)


# ---------------------------------------------------------------------------
# Hilbert-function certificate


def hilbert_check(lattice: StateLattice, generators: Sequence | None = None) -> Report:
    """Certify that the generators are a Groebner basis of the toric ideal
    I = ker(phi) of the lattice's monomial map phi, under the
    degree-reverse-lexicographic order over the lattice's linear extension.

    Two conditions: every generator maps to 0 (G in I, `verify_vanishing`
    on the lattice's masks), and every incomparable pair's q_g*q_h
    is some generator's leading monomial (the lead test, which marks each
    incomparable lead once in a table of |L|**2 flags). Then in every degree a
    standard monomial of G (no leading monomial of G divides it) is a
    multichain h1 <= ... <= hd of L; distinct multichains have distinct
    images phi(m), since phi(q_h1*...*q_hd) fixes the multiset of values in
    each coordinate and a multichain is sorted in every coordinate; and as
    in(G) lies in in(I), the standard monomials are at least the images. So
    the three counts agree, in(G) = in(I), and G is a Groebner basis of I.
    The lattice's own generators pass: meet and join come before g and h in
    the linear extension, so q_g*q_h leads.

    The multichains of length 1, 2, 3 number |L|, sum down(m) and
    sum down(m)*up(m) (`_down_up`), and the comparable pairs sum down(m) - |L|;
    the detail line gives the three as the standard/image counts, which they
    equal on a pass. The states must be all the monotone maps of a poset, as
    `StateLattice.covers` needs, and a `GeneratorArrays` must index them.

    On a failure, one line names how many incomparable pairs lead no
    generator and the first of them; then come the generators that do not
    map to 0, and the detail line gives the image counts. `total` counts the
    generator pairs, as in `buchberger_check`.

    Raises:
        TooLargeError: |L|**2 exceeds MAXLIN_HILBERT_LIMIT (`check_pair_scan`);
            with no `generators`, checked before the lattice's own are built.
    """
    check_pair_scan(lattice, "the Hilbert counts need")
    size = len(lattice)
    generators = generator_arrays(lattice) if generators is None else generators
    arrays = GeneratorArrays.of(generators, lattice.states)
    vanishing = verify_vanishing(arrays, lattice)
    down, up = _down_up(lattice)
    chains = (size, sum(down), sum(d * u for d, u in zip(down, up)))
    incomparable = size * (size - 1) // 2 - (chains[1] - size)
    masks = list(lattice.masks)
    # led[a * size + b] marks each incomparable lead q_a*q_b, a < b, once. A
    # lead is the larger of the sorted (g, h) and (meet, join), as in
    # `MonomialOrder`; as indices are below size, sorted pairs compare as
    # their flag positions do. Only an edited generator's (meet, join) can
    # lead, and one whose sorted (meet, join) is its (g, h) is zero and leads
    # nothing. With a < b, a comes before b in the linear extension, so b is
    # not below a, and the pair is incomparable iff a is not below b.
    led = bytearray(size * size)
    for g, h, meet, join in zip(*arrays.columns()):
        if g > h:
            g, h = h, g
        lead = g * size + h
        if meet * size + join >= lead:
            a, b = (meet, join) if meet < join else (join, meet)
            if a * size + b == lead:
                continue
            if a * size + b > lead:
                g, h, lead = a, b, a * size + b
        if not led[lead] and masks[g] & ~masks[h]:
            led[lead] = 1
    unled = incomparable - led.count(1)
    failures = []
    if unled:
        a, b = next(p for p in combinations(range(size), 2)
                    if masks[p[0]] & ~masks[p[1]] and not led[p[0] * size + p[1]])
        first = "*".join(q_var(lattice.states[i]).key_text() for i in (a, b))
        failures.append(
            f"{unled} of {incomparable} incomparable pairs lead no generator, the first {first}"
        )
    failures += vanishing.failures
    pairs = len(arrays) * (len(arrays) - 1) // 2
    if not failures:
        counts = ", ".join(f"{c}/{c}" for c in chains)
        detail = (
            f"{len(arrays)} generators map to 0; "
            f"standard/image monomials in degrees 1-3: {counts}"
        )
        return Report("groebner", total=pairs, detail=detail)
    detail = "image monomials in degrees 1-3: " + ", ".join(map(str, chains))
    return Report("groebner", total=pairs, failures=failures, detail=detail)


def check_pair_scan(lattice: StateLattice, need: str) -> None:
    """Check |L|**2 against MAXLIN_HILBERT_LIMIT, which bounds the |L|**2/2
    state pairs that `generator_arrays` scans; `need` names what needs them,
    as in "the Hilbert counts need"."""
    size = len(lattice)
    what = f"{need} {size}**2 = {size * size} state pairs"
    check_size("MAXLIN_HILBERT_LIMIT", size * size, what)


def _down_up(lattice: StateLattice) -> tuple[list[int], list[int]]:
    """The states below and above each state, itself included: zeta of the
    all-ones function by one walk over `StateLattice.covers`, and the same
    walk over the table reversed, summing downwards. O(|covers|)."""
    down, up = [1] * len(lattice), [1] * len(lattice)
    covers = lattice.covers
    for g, below in covers:
        down[g] += down[below]
    for g, below in reversed(covers):
        up[below] += up[g]
    return down, up
