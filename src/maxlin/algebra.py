"""Exact multivariate polynomials over the rationals, binomial generators of
distributive lattices, their monomial parameterization, a Hilbert-function
certificate that the generators are a Groebner basis of the toric ideal, and
a Buchberger check.

Rational coefficients are ``fractions.Fraction`` (always reduced, positive
denominator). Variables are named by family and index; the fixed total order
on variables is (family name, index tuple), compared lexicographically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import attrgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import ParseError, TooLargeError, UnboundVariableError, UnmappedVariableError
from .poset import (
    State,
    StateLattice,
    incomparable_pairs,
    lattice_meet_join,
    state_leq,
    unary_masks,
)
from .report import Report

Scalar = Union[int, Fraction]

FAMILIES = ("alpha", "p", "q", "t", "theta", "x")


class Variable:
    """A named indexed variable, totally ordered by (family, index).

    Instances are interned (one object per name) with a precomputed sort key
    and hash: polynomial arithmetic, substitution and the grammar compare and
    hash a variable for every factor they touch, and interning lets equality
    short-circuit on identity.
    """

    __slots__ = ("family", "index", "_key", "_hash")

    _interned: dict[tuple, "Variable"] = {}

    def __new__(cls, family: str, index: tuple[int, ...] = ()):
        key = (family, tuple(index))
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        if family not in FAMILIES:
            raise ValueError(f"unknown variable family {family!r}")
        obj = super().__new__(cls)
        object.__setattr__(obj, "family", family)
        object.__setattr__(obj, "index", key[1])
        object.__setattr__(obj, "_key", key)
        object.__setattr__(obj, "_hash", hash(key))
        cls._interned[key] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Variable) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Variable") -> bool:
        return self._key < other._key

    def __le__(self, other: "Variable") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "Variable") -> bool:
        return self._key > other._key

    def __ge__(self, other: "Variable") -> bool:
        return self._key >= other._key

    def __repr__(self) -> str:
        return f"Variable({self.family!r}, {self.index!r})"

    def key_text(self) -> str:
        """Machine form used by the polynomial grammar, e.g. q[01011], theta[3,1]."""
        if self.family == "t":
            return "t"
        if self.family in ("p", "q"):
            return f"{self.family}[{state_digits(self.index)}]"
        return f"{self.family}[{','.join(str(i) for i in self.index)}]"


def p_var(state: State) -> Variable:
    return Variable("p", tuple(state))


def q_var(state: State) -> Variable:
    return Variable("q", tuple(state))


def t_var() -> Variable:
    return Variable("t")


def theta_var(i: int, j: int) -> Variable:
    return Variable("theta", (i, j))


def x_var(i: int, r: int) -> Variable:
    return Variable("x", (i, r))


# Byte v < 10 becomes the digit v; bytes 10..255 are deleted.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_NOT_DIGITS = bytes(range(10, 256))


def state_digits(state: Sequence[int]) -> str:
    """The state as a digit string, e.g. (0, 1, 2) -> "012"; every entry
    must be one digit, so that the string decodes to a single state."""
    try:
        text = bytes(state).translate(_DIGITS, _NOT_DIGITS).decode()
    except ValueError:  # an entry outside 0..255
        text = ""
    if len(text) != len(state):
        raise ValueError(f"state {tuple(state)} has entries outside 0..9")
    return text


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_fraction(text: str) -> Fraction:
    """An integer, a fraction a/b or a plain decimal in ASCII digits, e.g.
    "3", "-1/2", "0.25"; exponents, signs other than a leading "-", "_",
    whitespace and non-ASCII digits are refused before `Fraction` sees them."""
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {text!r}: expected an integer, a/b or a decimal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # 1/0, or past int()'s digit limit
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def fraction_text(value: Scalar) -> str:
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (Variable, positive exponent)

Monomial = tuple[tuple[Variable, int], ...]

EMPTY_MONOMIAL: Monomial = ()


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

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Trusting constructor for internal arithmetic: the dict must already
        be canonical (Fraction coefficients, no zeros)."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    # construction helpers

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({EMPTY_MONOMIAL: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({EMPTY_MONOMIAL: c})

    @classmethod
    def from_variable(cls, v: Variable) -> "Polynomial":
        return cls({((v, 1),): 1})

    @classmethod
    def from_term(cls, mono: Monomial, coeff: Scalar) -> "Polynomial":
        return cls({mono: coeff})

    # ring structure

    @staticmethod
    def _coerce(value) -> "Polynomial | None":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return None

    def __add__(self, other) -> "Polynomial":
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
        return Polynomial._raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                value = terms.get(mono)
                value = c1 * c2 if value is None else value + c1 * c2
                if value:
                    terms[mono] = value
                else:
                    del terms[mono]
        return Polynomial._raw(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = Polynomial.one()
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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Variable]:
        return {v for mono in self.terms for v, _ in mono}

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    # evaluation and substitution

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Fraction:
        """Exact evaluation; every variable must be assigned a rational."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for v, e in mono:
                if v not in assignment:
                    raise UnboundVariableError(f"no value for variable {v.key_text()}")
                value = value * Fraction(assignment[v]) ** e
            total += value
        return total

    def substitute(self, mapping: Mapping[Variable, "Polynomial | Scalar"]) -> "Polynomial":
        """Replace mapped variables by polynomials; others pass through."""
        out = Polynomial.zero()
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(coeff)
            for v, e in mono:
                image = mapping.get(v)
                if image is None:
                    term = term * Polynomial.from_term(((v, e),), 1)
                else:
                    image_poly = self._coerce(image)
                    if image_poly is None:
                        raise TypeError(f"bad substitution image for {v.key_text()}")
                    term = term * image_poly**e
            out = out + term
        return out

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
                factors.insert(0, fraction_text(mag))
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

_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_]+|.)")


def _is_number(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        tok = m.group(1)
        if tok.strip():
            tokens.append(tok)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of polynomial in {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.parse_term(self.parse_sign())
        while self.peek() in ("+", "-"):
            poly = poly + self.parse_term(self.parse_sign())
        if self.peek() is not None:
            raise ParseError(f"trailing junk {self.peek()!r} in {self.text!r}")
        return poly

    def parse_sign(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign

    def parse_term(self, sign: int) -> Polynomial:
        poly = Polynomial.constant(sign)
        poly = poly * self.parse_factor()
        while self.peek() == "*":
            self.take("*")
            poly = poly * self.parse_factor()
        return poly

    def parse_factor(self) -> Polynomial:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of polynomial in {self.text!r}")
        if _is_number(tok):
            return Polynomial.constant(self.parse_rational())
        return self.parse_power()

    def parse_rational(self) -> Fraction:
        num = int(self.take())
        if self.peek() == "/":
            self.take("/")
            den = self.take()
            if not _is_number(den) or int(den) == 0:
                raise ParseError(f"bad denominator {den!r} in {self.text!r}")
            return Fraction(num, int(den))
        return Fraction(num)

    def parse_power(self) -> Polynomial:
        var = self.parse_variable()
        exp = 1
        if self.peek() == "^":
            self.take("^")
            digits = self.take()
            if not _is_number(digits):
                raise ParseError(f"bad exponent {digits!r} in {self.text!r}")
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {digits} exceeds the cap of {MAX_EXPONENT} in {self.text!r}"
                )
            exp = int(digits)
        return Polynomial.from_term(((var, exp),) if exp else EMPTY_MONOMIAL, 1)

    def parse_variable(self) -> Variable:
        name = self.take()
        if name == "t":
            return t_var()
        if name not in FAMILIES:
            raise ParseError(f"unknown variable family {name!r} in {self.text!r}")
        self.take("[")
        first = self.take()
        if not _is_number(first):
            raise ParseError(f"bad index {first!r} in {self.text!r}")
        if name in ("p", "q"):
            self.take("]")
            return Variable(name, tuple(int(c) for c in first))
        if self.peek() == ",":
            self.take(",")
            second = self.take()
            if not _is_number(second):
                raise ParseError(f"bad index {second!r} in {self.text!r}")
            self.take("]")
            return Variable(name, (int(first), int(second)))
        self.take("]")
        return Variable(name, (int(first),))


def parse_polynomial(text: str) -> Polynomial:
    """Parse one polynomial in the text grammar, e.g.
    "q[01011]*q[10111] - q[00011]*q[11111]" or "1/2*p[00]^2 - p[01]"."""
    try:
        return _Parser(text).parse()
    except ValueError as exc:  # a number with more digits than int() converts
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """The degree-reverse-lexicographic order over a fixed variable universe.

    Variables rank by the package-wide variable order (family, then index),
    so q-variables rank by the lexicographic order of their states, which is
    a linear extension of the lattice order.
    """

    def __init__(self, variables: Iterable[Variable]):
        self.variables = tuple(sorted(set(variables)))

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

    @classmethod
    def from_pair(cls, g: State, h: State) -> "BinomialGenerator":
        if state_leq(g, h) or state_leq(h, g):
            raise ValueError(f"states {g} and {h} are comparable")
        meet, join = lattice_meet_join(g, h)
        return cls(g=g, h=h, meet=meet, join=join)

    def monomials(self) -> tuple[Monomial, Monomial]:
        """q_g*q_h and q_meet*q_join."""
        return (
            _quadratic(q_var(self.g), q_var(self.h)),
            _quadratic(q_var(self.meet), q_var(self.join)),
        )

    def polynomial(self) -> Polynomial:
        left, right = self.monomials()
        return Polynomial({left: 1, right: -1})

    def to_text(self) -> str:
        return self.to_json_dict()["polynomial"]

    def to_json_dict(self) -> dict:
        g, h, meet, join = map(state_digits, (self.g, self.h, self.meet, self.join))
        return {
            "pair": [g, h],
            "meet": meet,
            "join": join,
            "polynomial": f"q[{g}]*q[{h}] - q[{meet}]*q[{join}]",
        }


def _quadratic(a: Variable, b: Variable) -> Monomial:
    if a is b:  # variables are interned
        return ((a, 2),)
    return ((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1))


def hibi_generators(lattice: StateLattice) -> list[BinomialGenerator]:
    """One binomial per incomparable pair, in the deterministic pair order;
    empty for chains.

    Meet and join are read off the lattice's `unary_masks`: the state whose
    mask is the AND, and the state whose mask is the OR, of the pair's
    masks. So they are the lattice's own state tuples."""
    masks = unary_masks(lattice)
    mask_of = dict(zip(lattice.states, masks))
    state_of = dict(zip(masks, lattice.states))
    generators = []
    for g, h in incomparable_pairs(lattice):
        a, b = mask_of[g], mask_of[h]
        generators.append(BinomialGenerator(g, h, state_of[a & b], state_of[a | b]))
    return generators


# ---------------------------------------------------------------------------
# monomial parameterizations


@dataclass(frozen=True)
class MonomialMap:
    """Assignment of every lattice q-variable to a squarefree monomial that
    contains the homogenizing variable t with exponent 1."""

    images: dict[Variable, Monomial]

    def image(self, var: Variable) -> Monomial:
        if var not in self.images:
            raise UnmappedVariableError(f"variable {var.key_text()} is not in the map")
        return self.images[var]


def monomial_map(lattice: StateLattice) -> MonomialMap:
    """q_g -> t * prod of x[i, r] over the order ideal that g corresponds to
    in the product of the underlying poset with a (k-1)-chain, k = lattice.k:
    the pairs (i, r) with r < k - g_i - 1, coordinate i of a state taken to
    belong to vertex i+1. On an ideal lattice (k = 2) the x[i, 0] of g are
    the elements outside the ideal g."""
    k = lattice.k
    images: dict[Variable, Monomial] = {}
    for g in lattice:
        exps: dict[Variable, int] = {t_var(): 1}
        for idx, v in enumerate(g):
            for r in range(k - v - 1):
                exps[x_var(idx + 1, r)] = 1
        images[q_var(g)] = mono_from_dict(exps)
    return MonomialMap(images)


def substitute(poly: Polynomial, mmap: MonomialMap) -> Polynomial:
    """Apply a monomial map to a polynomial in q-variables; non-q variables
    pass through untouched.

    Raises:
        UnmappedVariableError: a q-variable is missing from the map.
    """
    q_vars = [v for v in poly.variables() if v.family == "q"]
    return poly.substitute({v: Polynomial.from_term(mmap.image(v), 1) for v in q_vars})


def verify_vanishing(generators: Sequence[BinomialGenerator], mmap: MonomialMap) -> Report:
    """Check that every generator maps to the zero polynomial: q_g*q_h and
    q_meet*q_join have the same monomial image.

    Each distinct state's image is packed into an int once (`_pack_images`),
    so a generator maps to 0 iff the two sums of packed images agree. Only a
    failing generator has its images multiplied out, to print its image."""
    states = _states_of(generators)
    images = {s: mmap.image(q_var(s)) for s in states}
    packed = dict(zip(states, _pack_images(list(images.values()))))
    failures = []
    for gen in generators:
        if packed[gen.g] + packed[gen.h] != packed[gen.meet] + packed[gen.join]:
            left = mono_mul(images[gen.g], images[gen.h])
            right = mono_mul(images[gen.meet], images[gen.join])
            image = Polynomial({left: 1, right: -1})
            failures.append(f"{gen.to_text()} maps to {image.to_text()}")
    detail = f"{len(generators)} generators map to 0" if not failures else ""
    return Report("vanishing", total=len(generators), failures=failures, detail=detail)


_STATES = attrgetter("g", "h", "meet", "join")


def _states_of(generators: Sequence[BinomialGenerator]) -> list[State]:
    """The states the generators name, each once, in order of first use."""
    return list(dict.fromkeys(chain.from_iterable(map(_STATES, generators))))


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
    probs: Mapping[State, Scalar],
    cumulative: Mapping[State, Scalar] | None = None,
) -> Fraction:
    """Evaluate a polynomial in p-variables at a distribution, exactly; its
    q-variables take the values of `cumulative`, when given."""
    assignment = {p_var(g): Fraction(v) for g, v in probs.items()}
    if cumulative is not None:
        assignment.update((q_var(g), Fraction(v)) for g, v in cumulative.items())
    return poly.evaluate(assignment)


# ---------------------------------------------------------------------------
# Buchberger criterion

IndexMonomial = tuple[int, ...]


def default_lattice_order(generators: Sequence[BinomialGenerator]) -> MonomialOrder:
    return MonomialOrder(map(q_var, _states_of(generators)))


def _lead_split(
    generators: Sequence[BinomialGenerator], states: Sequence[State]
) -> list[tuple[IndexMonomial, IndexMonomial]]:
    """Each generator as (lead, tail), two sorted pairs of indices into
    `states`, which must be in lexicographic order; both Groebner checks
    read their leads from here.

    q-variables rank as their states do, so a product of them is the sorted
    tuple of its variables' indices, each repeated by its exponent, and
    degrevlex compares such tuples as `MonomialOrder.key` does: by length,
    then lexicographically. A quadratic binomial's lead is its larger pair."""
    index = {s: i for i, s in enumerate(states)}
    split = []
    for gen in generators:
        left = tuple(sorted((index[gen.g], index[gen.h])))
        right = tuple(sorted((index[gen.meet], index[gen.join])))
        split.append((left, right) if left > right else (right, left))
    return split


def _rewrite(mono: IndexMonomial, lead: IndexMonomial, tail: IndexMonomial) -> IndexMonomial:
    """mono / lead * tail, skipping the indices of lead that mono lacks: for
    two leads, _rewrite(lead_j, lead_i, tail_i) is lcm / lead_i * tail_i."""
    rest = list(mono)
    for i in lead:
        if i in rest:
            rest.remove(i)
    return tuple(sorted(rest + list(tail)))


def buchberger_check(generators: Sequence[BinomialGenerator]) -> Report:
    """Check the Buchberger criterion: the S-polynomial of every generator
    pair reduces to 0 modulo the generator set, so the set is a Groebner
    basis under the degree-reverse-lexicographic order over the lattice's
    linear extension.

    Divided by its leading coefficient, every generator is lead - tail with
    two quadratic monomials, so the S-polynomial of a pair is the difference
    of the monomials lcm/lead_j*tail_j and lcm/lead_i*tail_i. A monomial is
    rewritten by replacing the lead of the lowest-index generator dividing it
    with that generator's tail, as the division algorithm would; the pair
    reduces to 0 exactly when both monomials reach the same normal form.
    Monomials are index tuples; only a failure line spells them in
    q-variables.

    By Buchberger's first criterion, a pair whose leading monomials are
    coprime reduces to 0 modulo the two generators alone, so only the pairs
    whose leads share a variable are formed and reduced; the others count as
    checked and passing."""
    states = sorted(_states_of(generators))
    split = _lead_split(generators, states)
    by_lead: dict[IndexMonomial, int] = {}
    by_var: dict[int, list[int]] = {}
    for i, (lead, _) in enumerate(split):
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

    def q_monomial(mono: IndexMonomial) -> Monomial:
        return tuple((q_var(states[i]), mono.count(i)) for i in dict.fromkeys(mono))

    failures = []
    reduced = 0
    for i, (lead_i, tail_i) in enumerate(split):
        # the later generators whose leads share a variable with lead_i
        for j in sorted({j for var in lead_i for j in by_var[var] if j > i}):
            reduced += 1
            lead_j, tail_j = split[j]
            nf_i = normal_form(_rewrite(lead_j, lead_i, tail_i))
            nf_j = normal_form(_rewrite(lead_i, lead_j, tail_j))
            if nf_i != nf_j:
                text = Polynomial({q_monomial(nf_j): 1, q_monomial(nf_i): -1}).to_text()
                failures.append(
                    f"S-polynomial of {generators[i].to_text()} and "
                    f"{generators[j].to_text()} leaves {text}"
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

DEFAULT_HILBERT_LIMIT = 10**7


def hilbert_check(
    lattice: StateLattice,
    generators: Sequence[BinomialGenerator],
    limit: int = DEFAULT_HILBERT_LIMIT,
) -> Report:
    """Certify that the generators are a Groebner basis of the toric ideal
    I = ker(phi) of the lattice's monomial map phi, under the
    degree-reverse-lexicographic order over the lattice's linear extension,
    and that they generate I through degree 3.

    Two conditions: every generator maps to 0 (G in I), and for d = 1, 2, 3
    the degree-d monomials that no leading monomial of G divides (the
    standard monomials) are as many as the multichains h1 <= ... <= hd of L.

    The certificate needs no precondition on the states. Since in(G)_d is
    contained in in(I)_d, the standard monomials, dim S_d - dim in(G)_d, are
    at least dim (S/I)_d = dim S_d - dim in(I)_d, the number of distinct
    images phi(m) of the degree-d monomials m. The image of q_h1*...*q_hd
    fixes the multiset of values in each coordinate, and a multichain is
    sorted in every coordinate, so distinct multichains have distinct
    images: on any set of states the images are at least the multichains.
    Equal counts thus force in(G)_d = in(I)_d through degree 3. The
    lattice's own generators pass because L is closed under meet and join:
    sorting each coordinate of h1, ..., hd gives a multichain of L with the
    same image, so the images are exactly as many as the multichains.

    Every S-pair whose leads share a variable has degree at most 3, so it
    reduces to 0; the others reduce to 0 by Buchberger's first criterion.
    So G is a Groebner basis, and <G> = I through degree 3 (in every degree
    by Hibi's theorem for the lattice's own generators).

    Only when the certificate fails does `buchberger_check` run, to name the
    S-pairs that do not reduce to 0. The lattice's own generators pass by
    Hibi's theorem, so from `verify groebner` that path runs only on a defect;
    library callers reach it with edited sets. `total` counts the generator
    pairs, as there.

    Raises:
        TooLargeError: the |L|**2 state pairs that the standard count and
            the multichain count each test exceed `limit`.
    """
    size = len(lattice)
    if size * size > limit:
        raise TooLargeError(
            f"the Hilbert counts need {size}**2 = {size * size} state pairs"
            f" but the guard is {limit}"
        )
    vanishing = verify_vanishing(generators, monomial_map(lattice))
    leads = {lead for lead, _ in _lead_split(generators, lattice.states)}
    standard = _standard_counts(size, leads)
    images = _multichain_counts(unary_masks(lattice))
    failures = [
        f"degree {d}: {s} standard monomials, {i} image monomials"
        for d, s, i in zip((1, 2, 3), standard, images)
        if s != i
    ]
    failures += vanishing.failures
    pairs = len(generators) * (len(generators) - 1) // 2
    counts = "standard/image monomials in degrees 1-3: " + ", ".join(
        f"{s}/{i}" for s, i in zip(standard, images)
    )
    if not failures:
        detail = f"{len(generators)} generators map to 0; {counts}"
        return Report("groebner", total=pairs, detail=detail)
    buchberger = buchberger_check(generators)
    failures += buchberger.failures
    detail = f"{counts}; {buchberger.detail}"
    return Report("groebner", total=pairs, failures=failures, detail=detail)


def _standard_counts(size: int, leads: set[tuple[int, int]]) -> tuple[int, int, int]:
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


def _multichain_counts(masks: Sequence[int]) -> tuple[int, int, int]:
    """Multichains h1 <= ... <= hd of length d = 1, 2, 3 among states given
    by their `unary_masks`, where h <= g iff h's bits lie in g's.

    With down(m) and up(m) the states below and above m, there are
    sum down(m) of length 2, and sum down(m)*up(m) of length 3, counted by
    their middle member m."""
    down = [sum(not h & ~m for h in masks) for m in masks]
    up = [sum(not m & ~h for h in masks) for m in masks]
    return len(masks), sum(down), sum(d * u for d, u in zip(down, up))
