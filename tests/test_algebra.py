"""The tests' reference polynomial ring, the grammar, monomial orders,
lattice binomials, monomial maps, the Hilbert-function certificate, and the
Buchberger criterion."""

import dataclasses
import math
import random
import re
import signal
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations, combinations_with_replacement, islice
from itertools import product as itertools_product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxlin import algebra
from maxlin.algebra import (
    MAX_EXPONENT,
    BinomialGenerator,
    GeneratorArrays,
    MonomialMap,
    MonomialOrder,
    Polynomial,
    Variable,
    buchberger_check,
    default_lattice_order,
    evaluate_at_distribution,
    generator_arrays,
    hibi_generators,
    hilbert_check,
    mono_from_dict,
    mono_mul,
    monomial_map,
    parse_polynomial,
    q_var,
    t_var,
    verify_vanishing,
    x_var,
)
from maxlin.dag import Dag, transitive_closure
from maxlin.errors import (
    MaxlinError,
    ParseError,
    TooLargeError,
    UnboundVariableError,
    UnmappedVariableError,
    quote,
)
from maxlin.model import ParamTable, full_distribution, integer_view, parse_fraction
from maxlin.poset import ideal_lattice, order_preserving_maps, state_digits
from maxlin.transforms import zeta_transform

from conftest import (
    CappedReferenceParser,
    RingPolynomial,
    alpha_var,
    as_map,
    binomial_of_pair,
    catalog_dag,
    catalog_dags,
    chain,
    dags,
    degrevlex_compare,
    evaluate,
    evaluate_at_joint,
    incomparable_pairs,
    lattice_meet_join,
    leading_term,
    mono_div,
    mono_divides,
    mono_lcm,
    monomial_map_by_variable,
    multichain_counts,
    p_var,
    poly_of,
    random_dag,
    random_table,
    reduce_modulo,
    reference_hilbert_check,
    reference_leads,
    reference_parse,
    reference_vanishing,
    s_polynomial,
    standard_counts,
    state_leq,
    substitute,
    substitute_variables,
    theta_var,
    total_degree,
    uniform_table,
)


def pullback_to_p(poly, lattice):
    """Replace every q_g by the sum of p_h over the lattice states h <= g."""
    return substitute_variables(
        poly,
        {
            q_var(g): RingPolynomial({((p_var(h), 1),): 1 for h in lattice if state_leq(h, g)})
            for g in lattice
        },
    )


def random_polynomial(rng, variables, terms=4, max_exp=3):
    poly = RingPolynomial()
    for _ in range(rng.randint(0, terms)):
        mono = {}
        for v in rng.sample(variables, rng.randint(0, min(3, len(variables)))):
            mono[v] = rng.randint(1, max_exp)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        poly = poly + RingPolynomial({tuple(sorted(mono.items())): coeff})
    return poly


class TestVariable:
    def test_total_order(self):
        assert alpha_var(1, 0) < p_var((0,)) < q_var((0,)) < t_var() < theta_var(1, 0) < x_var(1, 0)
        assert q_var((0, 1)) < q_var((1, 0))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            t_var().family = "p"

    def test_a_square_is_one_variable_squared(self):
        """A generator whose pair repeats a state squares its variable, and an
        equal variable built apart finds that term."""
        poly = BinomialGenerator((0, 1), (0, 1), (0, 0), (1, 1)).polynomial()
        assert ((q_var((0, 1)), 2),) in poly.terms
        assert poly.terms[((Variable("q", tuple([0, 1])), 2),)] == 1
        assert poly.to_text() == "q[01]^2 - q[00]*q[11]"

    def test_text_forms(self):
        assert q_var((0, 1, 0, 1, 1)).key_text() == "q[01011]"
        assert theta_var(3, 1).key_text() == "theta[3,1]"
        assert x_var(1, 0).key_text() == "x[1,0]"
        assert Variable("x", (2,)).key_text() == "x[2]"
        assert t_var().key_text() == "t"

    def test_state_digits_guard(self):
        # 256 and -1 do not fit a byte; 10 and 255 do but are not digits
        for bad in (10, 255, 256, -1):
            state = (0, bad, 3)
            message = re.escape(f"state {state} has entries outside 0..9")
            with pytest.raises(ValueError, match=message):
                state_digits(state)
            with pytest.raises(ValueError, match=message):
                state_digits(list(state))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 9), max_size=12).map(tuple))
    @example(())
    def test_state_digits_is_str_join(self, state):
        assert state_digits(state) == "".join(map(str, state))


class TestMonomialHelpers:
    def test_mul_merges_sorted(self):
        a = ((q_var((0,)), 1), (t_var(), 2))
        b = ((q_var((0,)), 2), (x_var(1, 0), 1))
        assert mono_mul(a, b) == ((q_var((0,)), 3), (t_var(), 2), (x_var(1, 0), 1))

    def test_div_and_divides(self):
        num = ((q_var((0,)), 3), (t_var(), 2))
        den = ((q_var((0,)), 1), (t_var(), 2))
        assert mono_divides(den, num)
        assert mono_div(num, den) == ((q_var((0,)), 2),)
        with pytest.raises(ValueError):
            mono_div(den, num)

    def test_lcm(self):
        a = ((q_var((0,)), 2),)
        b = ((q_var((0,)), 1), (t_var(), 1))
        assert mono_lcm(a, b) == ((q_var((0,)), 2), (t_var(), 1))


class TestPolynomialRing:
    def test_canonical_form_drops_zeros(self):
        p = poly_of(t_var()) - poly_of(t_var())
        assert p.is_zero
        assert p == 0
        assert p.terms == {}

    def test_constants(self):
        assert RingPolynomial.constant(Fraction(1, 2)) * 2 == 1
        assert RingPolynomial.one() - 1 == 0

    def test_ring_laws_random(self):
        rng = random.Random(17)
        variables = [t_var(), q_var((0,)), q_var((1,)), theta_var(1, 0)]
        for _ in range(60):
            a = random_polynomial(rng, variables)
            b = random_polynomial(rng, variables)
            c = random_polynomial(rng, variables)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == 0
            assert a * 0 == 0
            assert a * 1 == a

    def test_equal_polynomials_have_identical_terms(self):
        rng = random.Random(3)
        variables = [q_var((0,)), q_var((1,)), t_var()]
        for _ in range(30):
            a = random_polynomial(rng, variables)
            b = random_polynomial(rng, variables)
            lhs = (a + b) * (a - b)
            rhs = a * a - b * b
            assert lhs == rhs
            assert lhs.terms == rhs.terms

    def test_pow(self):
        a = poly_of(q_var((0,))) + 1
        assert a**0 == 1
        assert a**3 == a * a * a
        with pytest.raises(ValueError):
            a**-1

    def test_evaluate(self):
        poly = 2 * poly_of(t_var()) ** 2 - poly_of(q_var((0,)))
        value = evaluate(poly, {t_var(): Fraction(1, 2), q_var((0,)): Fraction(3)})
        assert value == Fraction(-5, 2)

    def test_evaluate_unbound(self):
        with pytest.raises(UnboundVariableError):
            evaluate(poly_of(t_var()), {})

    def test_substitute_passthrough(self):
        poly = poly_of(t_var()) * poly_of(q_var((0,)))
        image = substitute_variables(poly, {q_var((0,)): RingPolynomial.constant(2)})
        assert image == 2 * poly_of(t_var())

    def test_total_degree(self):
        assert total_degree(Polynomial()) == 0
        assert total_degree(poly_of(t_var()) ** 3 + 1) == 3


# A term of the grammar: its signs and its factors, each a coefficient or a
# (variable, exponent) pair; variables repeat, and exponents and
# coefficients may be 0.
GRAMMAR_TERMS = st.tuples(
    st.sampled_from(["+", "-", "--", "+-", "- +"]),
    st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)),
            st.tuples(
                st.sampled_from([t_var(), p_var((0, 0)), p_var((0, 1)), theta_var(2, 1)]),
                st.integers(0, 3),
            ),
        ),
        min_size=1,
        max_size=4,
    ),
)


# Every character that `\s` matches, \n and the Unicode spaces included.
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())


# Pieces of junk text: the characters of the junk alphabet, every whitespace
# character, non-ASCII digits, and whole variables, powers and fractions,
# spaced as the grammar allows, so that variables read as one token.
JUNK_PIECES = st.one_of(
    st.sampled_from("pqtx[],^*/+- 0129\u0660\u0663\u00b2"),
    st.sampled_from(WHITESPACE),
    st.sampled_from("\u0660\u0661\u06f4\u0966\uff11\u00b9\u00b2"),
    st.sampled_from(
        ["p[01]", "q[0]", "p[00]^2", "q [1 ]^ 03", "p[0]^0", "theta", "alpha", "x[1,2]",
         "t^1000", "^999", "^0001", "1/0", "3/4", "p[1000]^1000", "q[\u0661]"]
    ),
)

# The one message by which `parse_polynomial` differs from the grammar as it
# was before the exponents of a repeated variable were held to the cap.
MERGED_CAP = re.compile(rf"exponent [0-9]+ of .* exceeds the cap of {MAX_EXPONENT} in .*", re.S)


def parse_outcome(parse, text: str):
    """The terms a parser reads, with their coefficients' types, in order;
    or its ParseError message."""
    try:
        poly = parse(text)
    except ParseError as exc:
        return str(exc)
    return [(mono, coeff, type(coeff)) for mono, coeff in poly.terms.items()]


def assert_parses_as_the_reference(text: str) -> None:
    """The same terms or the same error as `CappedReferenceParser`, which
    differs from `ReferenceParser` only by the merged exponent cap."""
    outcome = parse_outcome(parse_polynomial, text)
    assert outcome == parse_outcome(partial(reference_parse, parser=CappedReferenceParser), text)
    if outcome != parse_outcome(reference_parse, text):
        assert MERGED_CAP.fullmatch(outcome)


def grammar_term_text(factors) -> str:
    return "*".join(
        str(f) if isinstance(f, Fraction) else f"{f[0].key_text()}^{f[1]}"
        for f in factors
    )


class TestGrammar:
    def test_parse_binomial(self):
        poly = parse_polynomial("q[01011]*q[10111] - q[00011]*q[11111]")
        expected = poly_of(q_var((0, 1, 0, 1, 1))) * poly_of(q_var((1, 0, 1, 1, 1))) - poly_of(
            q_var((0, 0, 0, 1, 1))
        ) * poly_of(q_var((1, 1, 1, 1, 1)))
        assert poly == expected

    def test_parse_coefficients_and_powers(self):
        poly = parse_polynomial("3/2*p[01]^2 - p[00] + 1")
        expected = (
            Fraction(3, 2) * poly_of(p_var((0, 1))) ** 2 - poly_of(p_var((0, 0))) + 1
        )
        assert poly == expected

    def test_parse_indexed_families(self):
        assert parse_polynomial("theta[3,1]") == poly_of(theta_var(3, 1))
        assert parse_polynomial("x[2]") == poly_of(Variable("x", (2,)))
        assert parse_polynomial("t^2") == poly_of(t_var()) ** 2

    def test_parse_leading_minus(self):
        assert parse_polynomial("-p[0] + p[0]").is_zero

    @pytest.mark.parametrize(
        "text", ["", "q[01] +", "w[0]", "q[01]^x", "1/0", "q[01", "q()", "q[1,2,3]"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text", ["p[\u0660\u0660]", "\u0663*p[00]", "p[00]^\u00b2", "p[00]^\u0662", "1/\u0663"]
    )
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ParseError):
            parse_polynomial(text)

    def test_exponent_cap(self):
        assert parse_polynomial(f"t^{MAX_EXPONENT}") == poly_of(t_var()) ** MAX_EXPONENT
        with pytest.raises(ParseError, match=f"exceeds the cap of {MAX_EXPONENT}"):
            parse_polynomial(f"p[00]^{MAX_EXPONENT + 1}")
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse_polynomial("p[00]^99999999")
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse_polynomial("p[00]^" + "1" * 5000)
        assert parse_polynomial(f"t^000{MAX_EXPONENT}") == poly_of(t_var()) ** MAX_EXPONENT

    def test_long_exponent_is_cut(self):
        text = "p[00]^" + "1" * 5000
        with pytest.raises(ParseError) as caught:
            parse_polynomial(text)
        message = f"exponent {quote(text[6:])} exceeds the cap of {MAX_EXPONENT} in {quote(text)}"
        assert str(caught.value) == message and len(message) < 300

    def test_numbers_past_the_int_digit_limit(self):
        for text in ("1" * 5000, "1/" + "1" * 5000, "p[00]*" + "1" * 5000):
            with pytest.raises(ParseError):
                parse_polynomial(text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet="pqtx[],^*/+- 0129\u0660\u0663\u00b2", max_size=24))
    def test_any_text_parses_or_raises_parse_error(self, text):
        try:
            parse_polynomial(text)
        except ParseError:
            pass

    def test_text_roundtrip_random(self):
        rng = random.Random(29)
        variables = [q_var((0, 1)), p_var((1, 1)), t_var(), theta_var(2, 1), x_var(1, 0)]
        for _ in range(40):
            poly = random_polynomial(rng, variables)
            assert parse_polynomial(poly.to_text()) == poly

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(GRAMMAR_TERMS, min_size=1, max_size=6), st.data())
    def test_terms_sum_as_the_ring_adds_them(self, terms, data):
        """A line parses to the sum, in order, of its terms' products built
        with the ring operators: the same monomials in the same insertion
        order, with the same coefficients."""
        # repeated terms, with their signs flipped or not, cancel and reappear
        repeats = st.lists(st.tuples(st.sampled_from(terms), st.booleans()), max_size=4)
        terms += [("-" + sign if flip else sign, f) for (sign, f), flip in data.draw(repeats)]
        expected = RingPolynomial()
        for sign, factors in terms:
            product = RingPolynomial.constant(-1 if sign.count("-") % 2 else 1)
            for factor in factors:
                if isinstance(factor, Fraction):
                    product = product * factor
                else:
                    product = product * poly_of(factor[0]) ** factor[1]
            expected = expected + product
        text = " ".join(sign + " " + grammar_term_text(factors) for sign, factors in terms)
        if data.draw(st.booleans()) and terms[0][0] == "+":
            text = text[2:]  # the first term without its sign
        space = st.text(WHITESPACE, max_size=3)
        text = data.draw(space) + text + data.draw(space)
        parsed = parse_polynomial(text)
        assert list(parsed.terms.items()) == list(expected.terms.items())
        assert all(type(c) is Fraction for c in parsed.terms.values())

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(JUNK_PIECES, max_size=12).map("".join))
    @example("t^1000*t^1")
    @example("p[00]^600 * 2 * p [00]^401 + x")
    @example("q[1]^1000*q[1]*p[0]^1000*p[0]")
    @example("t^500*t^500 - t^1000 + t^999*t")
    @example("p[01]^2*p[01]^999 $")
    def test_junk_parses_as_the_reference(self, text):
        assert_parses_as_the_reference(text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(GRAMMAR_TERMS, min_size=1, max_size=6),
        st.lists(st.text(WHITESPACE, max_size=2)),
    )
    def test_grammar_lines_parse_as_the_reference(self, terms, spaces):
        """Lines of random terms, with whitespace of every kind between
        their tokens, read as the reference reads them."""
        text = " ".join(sign + " " + grammar_term_text(factors) for sign, factors in terms)
        pieces = re.split(r"([\[\]^*/])", text)
        spaces = spaces or [""]
        text = "".join(p + spaces[i % len(spaces)] for i, p in enumerate(pieces))
        assert_parses_as_the_reference(text)

    def test_merged_exponent_cap(self):
        assert parse_polynomial("t^500*t^500") == poly_of(t_var()) ** MAX_EXPONENT
        assert parse_polynomial("t^1000 + t^1000") == 2 * poly_of(t_var()) ** MAX_EXPONENT
        text = "p[00]^600 * 2 * p [00]^401 + t^999*t^2"
        with pytest.raises(ParseError) as caught:
            parse_polynomial(text)
        message = f"exponent 1001 of p[00] exceeds the cap of 1000 in {quote(text)}"
        assert str(caught.value) == message

    def test_cancelled_monomial_reappears_last(self):
        # p[01] cancels, then comes back after p[00]: evaluation names p[00]
        poly = parse_polynomial("p[01] + p[00] - p[01] + 2*p[01]")
        assert list(poly.terms.items()) == [
            (((p_var((0, 0)), 1),), 1),
            (((p_var((0, 1)), 1),), 2),
        ]
        with pytest.raises(UnboundVariableError, match=re.escape("no value for variable p[00]")):
            evaluate(poly, {})

    def test_fraction_text(self):
        assert str(parse_fraction("2/4")) == "1/2"
        assert str(parse_fraction("6/2")) == "3"
        assert parse_fraction("2/6") == Fraction(1, 3)
        with pytest.raises(ParseError):
            parse_fraction("one half")


class TestMonomialOrder:
    def test_degrevlex_degree_first(self):
        big = ((q_var((0,)), 3),)
        small = ((q_var((1,)), 2),)
        assert MonomialOrder.key(big) > MonomialOrder.key(small)
        assert degrevlex_compare(big, small) > 0

    def test_degrevlex_tie_break(self):
        a, b, c = q_var((0,)), q_var((1,)), q_var((2,))
        # equal degree: less weight on the smallest variable wins
        m1 = ((a, 1), (c, 2))
        m2 = ((b, 2), (c, 1))
        assert MonomialOrder.key(m1) < MonomialOrder.key(m2)
        assert degrevlex_compare(m1, m2) < 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_key_agrees_with_scan(self, data):
        """The sort key against the scan-based comparison on monomials of
        degree up to 9 in variables of several families."""
        pool = [q_var((0, 1)), q_var((1, 0)), q_var((1, 1)), t_var(), x_var(1, 0), p_var((0,))]
        monomial = st.dictionaries(st.sampled_from(pool), st.integers(1, 3), max_size=3).map(
            mono_from_dict
        )
        a, b = data.draw(monomial), data.draw(monomial)
        key_a, key_b = MonomialOrder.key(a), MonomialOrder.key(b)
        assert (key_a > key_b) - (key_a < key_b) == degrevlex_compare(a, b)

    def test_leading_term(self):
        a, b = q_var((0,)), q_var((1,))
        order = MonomialOrder()
        # equal degree: a*b carries less weight on the small variable than a^2
        poly = 3 * poly_of(a) * poly_of(b) - poly_of(a) ** 2
        mono, coeff = order.leading_term(poly)
        assert mono == ((a, 1), (b, 1)) and coeff == 3
        with pytest.raises(ValueError):
            order.leading_term(Polynomial())


class TestHibiGenerators:
    def test_fig2_golden(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        generators = hibi_generators(lattice)
        assert {g.to_text() for g in generators} == {
            "q[00011]*q[00101] - q[00001]*q[00111]",
            "q[00101]*q[01011] - q[00001]*q[01111]",
            "q[00111]*q[01011] - q[00011]*q[01111]",
            "q[01011]*q[10111] - q[00011]*q[11111]",
            "q[01111]*q[10111] - q[00111]*q[11111]",
        }

    def test_fig1_ideal_lattice_golden(self, fig1_poset):
        generators = hibi_generators(ideal_lattice(fig1_poset))
        assert {g.to_text() for g in generators} == {
            "q[01000]*q[10000] - q[00000]*q[11000]",
            "q[11101]*q[11110] - q[11100]*q[11111]",
        }

    def test_chain_lattice_empty(self):
        # two-state maps on a chain form a chain of prefixes
        assert hibi_generators(order_preserving_maps(chain(3), 2)) == []
        # the states of a single vertex form a k-chain
        assert hibi_generators(order_preserving_maps(chain(1), 5)) == []

    def test_count_matches_incomparable_pairs(self):
        rng = random.Random(41)
        for _ in range(25):
            dag = random_dag(rng, k=2)
            lattice = order_preserving_maps(transitive_closure(dag), 2)
            assert len(hibi_generators(lattice)) == len(incomparable_pairs(lattice))

    def test_rejects_comparable_pair(self):
        with pytest.raises(ValueError):
            binomial_of_pair((0, 0), (0, 1))

    def test_rejects_coinciding_monomials(self):
        # {g, h} = {meet, join} makes the binomial 0, so no such generator
        for meet, join in (((0, 1), (1, 1)), ((1, 1), (0, 1))):
            with pytest.raises(ValueError, match=r"g=\(0, 1\), h=\(1, 1\), meet="):
                BinomialGenerator((0, 1), (1, 1), meet, join)

    def test_same_as_from_pair(self):
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                lattice = order_preserving_maps(transitive_closure(dag), k)
                pairs = incomparable_pairs(lattice)
                expected = [binomial_of_pair(g, h) for g, h in pairs]
                assert hibi_generators(lattice) == expected

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=4), st.sampled_from((2, 3, 4)))
    def test_masks_agree_with_from_pair(self, dag, k):
        """AND/OR of the unary masks against the coordinate-wise min/max of
        `binomial_of_pair`, which keeps `lattice_meet_join`; the meet and join are
        the lattice's own state tuples."""
        lattice = order_preserving_maps(transitive_closure(dag), k)
        pairs = incomparable_pairs(lattice)
        generators = hibi_generators(lattice)
        assert generators == [binomial_of_pair(g, h) for g, h in pairs]
        assert [(gen.meet, gen.join) for gen in generators] == [
            lattice_meet_join(g, h) for g, h in pairs
        ]
        own = {id(s) for s in lattice.states}
        assert all(id(gen.meet) in own and id(gen.join) in own for gen in generators)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.integers(1, 4), st.sampled_from(("states", "ideals")))
    def test_arrays_against_pairs(self, dag, k, of):
        """The index arrays against `incomparable_pairs` and the coordinate-wise
        min/max of `lattice_meet_join`, on the state and the ideal lattice."""
        poset = transitive_closure(dag)
        lattice = ideal_lattice(poset) if of == "ideals" else order_preserving_maps(poset, k)
        if k > 3:
            assume(len(lattice) <= 400)
        arrays = generator_arrays(lattice)
        states = lattice.states
        assert arrays.states == states
        pairs = incomparable_pairs(lattice)
        position = {s: i for i, s in enumerate(states)}
        assert list(zip(arrays.g, arrays.h)) == [(position[g], position[h]) for g, h in pairs]
        expected = [lattice_meet_join(g, h) for g, h in pairs]
        assert [(states[m], states[j]) for m, j in zip(arrays.meet, arrays.join)] == expected
        assert hibi_generators(lattice) == [
            BinomialGenerator(g, h, meet, join) for (g, h), (meet, join) in zip(pairs, expected)
        ]

    def test_arrays_of_a_list(self, fig3_dag):
        """An edited list becomes arrays over the given states and the states
        it names, in lexicographic order; arrays pass through when no states
        are given or they index these very states, and are re-indexed
        otherwise."""
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        generators = hibi_generators(lattice)[::-1]
        generators[0] = dataclasses.replace(generators[0], join=lattice.top)
        arrays = GeneratorArrays.of(generators)
        assert len(arrays) == len(generators)
        assert list(arrays) == generators  # read as a sequence of generators
        named = [s for gen in generators for s in (gen.g, gen.h, gen.meet, gen.join)]
        assert arrays.states == tuple(sorted(set(named)))
        full = GeneratorArrays.of(generators, lattice.states)
        assert full.states == lattice.states
        assert GeneratorArrays.of(generators, lattice.states[::-1]).states == lattice.states
        assert [full.states[i] for i in full.join] == [gen.join for gen in generators]
        assert GeneratorArrays.of(full) is full
        own = generator_arrays(lattice)
        assert GeneratorArrays.of(own, lattice.states) is own
        reindexed = GeneratorArrays.of(arrays, lattice.states)
        assert reindexed.states == lattice.states and list(reindexed) == generators

    def test_json_dict_golden(self, fig2_dag):
        gen = hibi_generators(order_preserving_maps(transitive_closure(fig2_dag), 2))[0]
        assert gen.to_json_dict() == {
            "pair": ["00011", "00101"],
            "meet": "00001",
            "join": "00111",
            "polynomial": "q[00011]*q[00101] - q[00001]*q[00111]",
        }
        assert gen.to_text() == gen.to_json_dict()["polynomial"]


class TestMonomialMap:
    def test_fig3_golden(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        mapping = monomial_map(lattice)
        image = mapping.image(q_var((0, 1, 2)))
        assert image == ((t_var(), 1), (x_var(1, 0), 1), (x_var(1, 1), 1), (x_var(2, 0), 1))

    def test_top_maps_to_t(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        assert monomial_map(lattice).image(q_var((2, 2, 2))) == ((t_var(), 1),)

    def test_bottom_maps_to_everything(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        image = dict(monomial_map(lattice).image(q_var((0, 0, 0))))
        assert image.pop(t_var()) == 1
        assert set(image) == {x_var(i, r) for i in (1, 2, 3) for r in (0, 1)}

    def test_every_image_contains_t(self):
        for _, dag in catalog_dags(3):
            lattice = order_preserving_maps(transitive_closure(dag), 3)
            mapping = monomial_map(lattice)
            for g in lattice:
                assert dict(mapping.image(q_var(g))).get(t_var()) == 1

    def test_ideal_map_golden(self, fig1_poset):
        # on an ideal lattice, q_g maps to t times x[i, 0] for every element
        # i outside the ideal g
        mapping = monomial_map(ideal_lattice(fig1_poset))
        outside = {
            (0, 0, 0, 0, 0): (1, 2, 3, 4, 5),
            (1, 0, 0, 0, 0): (2, 3, 4, 5),
            (1, 1, 0, 0, 0): (3, 4, 5),
            (1, 1, 1, 1, 1): (),
        }
        for g, elements in outside.items():
            image = ((t_var(), 1), *((x_var(i, 0), 1) for i in elements))
            assert mapping.image(q_var(g)) == image


class TestSubstitute:
    def test_fig1_generator_vanishes(self, fig1_poset):
        mapping = monomial_map(ideal_lattice(fig1_poset))
        poly = parse_polynomial("q[10000]*q[01000] - q[00000]*q[11000]")
        assert substitute(poly, mapping).is_zero
        product = substitute(parse_polynomial("q[10000]*q[01000]"), mapping)
        assert product == poly_of(t_var()) ** 2 * poly_of(x_var(1, 0)) * poly_of(
            x_var(2, 0)
        ) * (poly_of(x_var(3, 0)) * poly_of(x_var(4, 0)) * poly_of(x_var(5, 0))) ** 2

    def test_single_variable_maps_to_image(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        mapping = monomial_map(lattice)
        image = substitute(parse_polynomial("q[012]"), mapping)
        assert image == poly_of(t_var()) * poly_of(x_var(1, 0)) * poly_of(
            x_var(1, 1)
        ) * poly_of(x_var(2, 0))

    def test_constant_passes_through(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        mapping = monomial_map(lattice)
        assert substitute(RingPolynomial.constant(Fraction(5, 3)), mapping) == Fraction(5, 3)

    def test_unmapped_variable(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        mapping = monomial_map(lattice)
        with pytest.raises(UnmappedVariableError):
            substitute(parse_polynomial("q[333]"), mapping)

    def test_non_generator_does_not_vanish(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        mapping = monomial_map(lattice)
        poly = parse_polynomial("q[01011]^2 - q[10111]^2")
        assert not substitute(poly, mapping).is_zero


class TestVerifyVanishing:
    def test_fig2_all_five(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        report = verify_vanishing(hibi_generators(lattice), monomial_map(lattice))
        assert report.passed and report.total == 5

    def test_fig1_ideal_lattice(self, fig1_poset):
        lattice = ideal_lattice(fig1_poset)
        report = verify_vanishing(hibi_generators(lattice), monomial_map(lattice))
        assert report.passed and report.total == 2

    def test_corrupted_map_fails(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        mapping = monomial_map(lattice)
        broken = dict(mapping.images)
        state = lattice.states[1]
        broken[q_var(state)] = mono_mul(broken[q_var(state)], ((x_var(9, 9), 1),))
        report = verify_vanishing(hibi_generators(lattice), MonomialMap(broken))
        assert not report.passed
        assert report.failures

    def test_failures_name_the_generic_substitution(self, fig2_dag):
        # the monomial comparison reports what substituting into the whole
        # generator polynomial gives
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        mapping = monomial_map(lattice)
        for gen in hibi_generators(lattice):
            for broken in (
                dataclasses.replace(gen, join=lattice.top),
                dataclasses.replace(gen, meet=gen.g),
            ):
                image = substitute(broken.polynomial(), mapping)
                line = f"{broken.to_text()} maps to {image.to_text()}"
                expected = [] if image.is_zero else [line]
                assert verify_vanishing([broken], mapping).failures == expected

    def test_unmapped_variable_named_in_generator_order(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        gen = hibi_generators(lattice)[0]
        images = dict(monomial_map(lattice).images)
        del images[q_var(gen.join)], images[q_var(gen.meet)]
        with pytest.raises(UnmappedVariableError, match=r"q\[00001\]"):
            verify_vanishing([gen], MonomialMap(images))


class TestPackedVanishing:
    # variables outside every lattice image
    FOREIGN = (x_var(9, 9), theta_var(9, 9), p_var((9,)))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=4), st.sampled_from((2, 3, 4)), st.data())
    def test_same_lines_as_mono_mul(self, dag, k, data):
        """Images redrawn with exponents up to 3 and foreign variables, and
        generators edited join -> top or meet -> g."""
        lattice = order_preserving_maps(transitive_closure(dag), k)
        images = dict(monomial_map(lattice).images)
        pool = sorted({v for m in images.values() for v, _ in m}) + list(self.FOREIGN)
        factors = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), max_size=4)
        for g in data.draw(st.lists(st.sampled_from(lattice.states), max_size=3)):
            images[q_var(g)] = mono_from_dict(dict(data.draw(factors)))
        mmap = MonomialMap(images)
        generators = hibi_generators(lattice)
        if generators:
            edits = st.tuples(st.integers(0, len(generators) - 1), st.booleans())
            for i, to_top in data.draw(st.lists(edits, max_size=3)):
                gen = generators[i]
                generators[i] = (
                    dataclasses.replace(gen, join=lattice.top)
                    if to_top
                    else dataclasses.replace(gen, meet=gen.g)
                )
        expected = reference_vanishing(generators, mmap).failures
        report = verify_vanishing(generators, mmap)
        assert report.failures == expected
        assert report.passed == (not expected)

    @pytest.mark.parametrize(
        "left, right",
        [
            # 1 + 1 in a 1-bit slot would carry into the next variable's slot
            (((x_var(1, 0), 1),), ((x_var(1, 1), 1),)),
            # 3 + 3 in a 2-bit slot would read as x[1,0]^2*x[1,1]
            (((x_var(1, 0), 3),), ((x_var(1, 0), 2), (x_var(1, 1), 1))),
            # the lattice's own map: mask(01) = 2*mask(10), so masks whose
            # bits are not spread to 2-bit slots would read 1 + 1 = 2 + 0
            pytest.param(None, None, id="own_map"),
        ],
    )
    def test_sums_never_carry(self, left, right):
        """On the 2-antichain's states, k = 2, a generator whose images
        differ, but whose packed sums a narrow slot would make agree:
        q[01]*q[10] - q[00]*q[11] with q[01], q[10] -> left and q[00],
        q[11] -> right, 1; with no images, q[10]*q[10] - q[01]*q[00] under
        the lattice's own map, and the lattice standing for it gives the
        same report."""
        lattice = order_preserving_maps(transitive_closure(catalog_dag("antichain2", 2)), 2)
        if left:
            gen = BinomialGenerator((0, 1), (1, 0), (0, 0), (1, 1))
            mmap = MonomialMap({q_var((0, 1)): left, q_var((1, 0)): left,
                                q_var((0, 0)): right, q_var((1, 1)): ()})
        else:
            gen = BinomialGenerator((1, 0), (1, 0), (0, 1), (0, 0))
            mmap = monomial_map(lattice)
        expected = reference_vanishing([gen], mmap)
        assert len(expected.failures) == 1
        assert verify_vanishing([gen], mmap) == expected
        if not left:
            assert verify_vanishing([gen], lattice) == expected


class TestPullback:
    def test_bottom_state(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        poly = pullback_to_p(parse_polynomial("q[00000]"), lattice)
        assert poly == poly_of(p_var((0, 0, 0, 0, 0)))

    def test_top_minus_one_is_sum_to_one_relation(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        poly = pullback_to_p(parse_polynomial("q[11111] - 1"), lattice)
        expected = RingPolynomial.constant(-1)
        for g in lattice:
            expected = expected + poly_of(p_var(g))
        assert poly == expected

    def test_generator_pullback_vanishes_on_model(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        generators = hibi_generators(lattice)
        rng = random.Random(19)
        for _ in range(20):
            view, denominator = integer_view(random_table(5, 2, rng))
            numerators = as_map(lattice, full_distribution(fig2_dag, view, lattice))
            for gen in generators:
                pulled = pullback_to_p(gen.polynomial(), lattice)
                assert evaluate_at_distribution(pulled, lattice, numerators, denominator) == 0


class TestEvaluateAtDistribution:
    def test_constant(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        assert evaluate_at_distribution(RingPolynomial.constant(1), lattice, {}, 7) == 1

    def test_normalization_relation(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        view, denominator = integer_view(uniform_table(5, 2))
        numerators = as_map(lattice, full_distribution(fig2_dag, view, lattice))
        poly = RingPolynomial.constant(-1)
        for g in lattice:
            poly = poly + poly_of(p_var(g))
        assert evaluate_at_distribution(poly, lattice, numerators, denominator) == 0

    def test_unbound_variable(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        with pytest.raises(UnboundVariableError):
            evaluate_at_distribution(parse_polynomial("p[01]"), lattice, {})

    # variables outside every lattice: their values are never bound
    FOREIGN = (t_var(), x_var(1, 0), theta_var(2, 1), p_var((0,) * 7), q_var((0,) * 7))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.integers(1, 3), st.sampled_from(["int", "ratio", "rational"]),
           st.data())
    def test_same_as_fraction_evaluation(self, dag, k, kind, data):
        """On random DAGs and integer, ratio and unlike-denominator tables,
        polynomials in p, q and foreign variables, with rational coefficients,
        exponents up to 3, cancelling terms and p-variables of the cube off
        the lattice, evaluate to the `Fraction` value of `evaluate_at_joint`
        at the Fraction joint, or raise its unbound-variable message."""
        dag = dataclasses.replace(dag, k=k)
        lattice = order_preserving_maps(transitive_closure(dag), k)
        weights = st.lists(st.integers(0, 9), min_size=k, max_size=k)
        rows = [data.draw(weights) for _ in range(dag.n)]
        rows = [row if any(row) else [1, *row[1:]] for row in rows]
        if kind == "int":
            theta = ParamTable(tuple(map(tuple, rows)))
        elif kind == "ratio":
            theta = ParamTable(tuple(tuple(Fraction(a, sum(r)) for a in r) for r in rows))
        else:  # entries over unlike drawn denominators, each row scaled to sum 1
            dens = [[data.draw(st.integers(1, 7)) for _ in range(k)] for _ in rows]
            scaled = [[Fraction(a, d) for a, d in zip(r, ds)] for r, ds in zip(rows, dens)]
            theta = ParamTable(tuple(tuple(a / sum(r) for a in r) for r in scaled))
        on = [p_var(g) for g in lattice]
        off = [p_var(g) for g in itertools_product(range(k), repeat=dag.n) if g not in lattice]
        qs = [q_var(g) for g in lattice]
        pools = [on, qs, on + qs + list(self.FOREIGN)] + ([off] if off else [])
        variable = st.one_of(*map(st.sampled_from, pools))
        factors = st.lists(st.tuples(variable, st.integers(1, 3)), max_size=3)
        coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))
        poly = RingPolynomial()
        for _ in range(data.draw(st.integers(1, 6))):
            term = RingPolynomial({mono_from_dict(dict(data.draw(factors))): data.draw(coeffs)})
            poly = poly + term
            if data.draw(st.booleans()):
                poly = poly - term  # the monomial cancels
        view, denominator = integer_view(theta)
        numerators = full_distribution(dag, view, lattice)
        cumulative = as_map(lattice, zeta_transform(numerators, lattice))
        numerators = as_map(lattice, numerators)
        dist = full_distribution(dag, theta, lattice)
        cumulative_dist = as_map(lattice, zeta_transform(dist, lattice))
        try:
            expected = evaluate_at_joint(poly, dag.n, k, as_map(lattice, dist), cumulative_dist)
        except UnboundVariableError as exc:
            with pytest.raises(UnboundVariableError, match=f"^{re.escape(str(exc))}$"):
                evaluate_at_distribution(poly, lattice, numerators, denominator, cumulative)
            return
        value = evaluate_at_distribution(poly, lattice, numerators, denominator, cumulative)
        assert type(value) is Fraction and value == expected


class TestBuchberger:
    def test_self_reduction(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        for gen in hibi_generators(lattice):
            poly = gen.polynomial()
            assert reduce_modulo(poly, [poly]).is_zero

    def test_s_polynomial_of_coprime_pair_reduces(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        polys = [g.polynomial() for g in hibi_generators(lattice)]
        f, g = polys[0], polys[4]
        lead_f = set(dict(leading_term(f)[0]))
        lead_g = set(dict(leading_term(g)[0]))
        assert not (lead_f & lead_g)  # coprime leading monomials
        assert reduce_modulo(s_polynomial(f, g), polys).is_zero

    def test_fig2_passes(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        report = buchberger_check(hibi_generators(lattice))
        assert report.passed and report.total == 10

    def test_fig1_ideal_lattice_passes(self, fig1_poset):
        report = buchberger_check(hibi_generators(ideal_lattice(fig1_poset)))
        assert report.passed and report.total == 1

    def test_non_basis_leaves_remainder(self, fig2_dag):
        # dropping a generator from an essential pair breaks the criterion
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        generators = hibi_generators(lattice)
        report = buchberger_check(generators[:2])
        assert not report.passed

    def test_empty_set(self):
        report = buchberger_check([])
        assert report.passed and report.total == 0

    def test_reference_division_refuses_non_canonical_monomials(self, fig2_dag):
        """The division's products are canonical, so a term written otherwise
        never cancels. On fig2, the generator with h = g written q_g*q_g, as
        a broken `_quadratic` would, made the division of the S-polynomial of
        two other generators loop; the reference refuses such a term, in the
        basis or in the dividend, before dividing."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        generators = hibi_generators(lattice)
        polys = [gen.polynomial() for gen in generators]
        g = q_var(generators[2].g)
        meet_join = next(m for m in polys[2].terms if g not in dict(m))
        polys[2] = Polynomial({((g, 1), (g, 1)): 1, meet_join: -1})
        with pytest.raises(AssertionError, match="^non-canonical monomial"):
            reduce_modulo(s_polynomial(polys[0], polys[1]), polys)
        a, b = sorted(v for v, _ in meet_join)
        for mono in (((b, 1), (a, 1)), ((a, 0),)):
            with pytest.raises(AssertionError, match="^non-canonical monomial"):
                reduce_modulo(Polynomial({mono: 1}), polys[:2])


def division_failures(generators, skip=frozenset()):
    """Yield pair (i, j) and failure line of every S-polynomial left non-zero
    by the general division algorithm over all pairs not in `skip`, in pair
    order, as the reference for the check."""
    polys = [gen.polynomial() for gen in generators]
    for i, j in combinations(range(len(polys)), 2):
        if (i, j) in skip:
            continue
        remainder = reduce_modulo(s_polynomial(polys[i], polys[j]), polys)
        if not remainder.is_zero:
            yield (i, j), (
                f"S-polynomial of {generators[i].to_text()} and "
                f"{generators[j].to_text()} leaves {remainder.to_text()}"
            )


def coprime_pairs(generators):
    """Pairs (i, j) whose leading monomials share no variable."""
    supports = [{var for var, _ in leading_term(gen.polynomial())[0]} for gen in generators]
    return {
        (i, j)
        for i, j in combinations(range(len(supports)), 2)
        if supports[i].isdisjoint(supports[j])
    }


class TestBuchbergerAgainstDivision:
    @pytest.fixture(
        params=["fig2", "fig3", "fig1_ideals", "antichain4"], scope="class"
    )
    def lattice(self, request, fig2_dag, fig3_dag, fig1_poset):
        if request.param == "fig2":
            return order_preserving_maps(transitive_closure(fig2_dag), 2)
        if request.param == "fig3":
            return order_preserving_maps(transitive_closure(fig3_dag), 3)
        if request.param == "fig1_ideals":
            return ideal_lattice(fig1_poset)
        return order_preserving_maps(transitive_closure(Dag(n=4, k=2)), 2)

    @pytest.mark.parametrize("broken", ["none", "drop", "join_top", "h_is_g"])
    def test_same_failures_as_division(self, lattice, broken):
        generators = hibi_generators(lattice)
        mid = len(generators) // 2
        gen = generators[mid]
        if broken == "drop":
            generators = generators[:mid] + generators[mid + 1 :]
        elif broken == "join_top":
            generators[mid] = dataclasses.replace(gen, join=lattice.states[-1])
        elif broken == "h_is_g":
            generators[mid] = dataclasses.replace(gen, h=gen.g)
        expected = list(division_failures(generators))
        coprime = coprime_pairs(generators)
        report = buchberger_check(generators)
        # coprime pairs are skipped, so only failures among the others are listed
        assert report.failures == [line for pair, line in expected if pair not in coprime]
        # but the verdict is the division algorithm's over every pair
        assert report.passed == (not expected)
        # the fig1 ideal lattice has two generators, and no edit here breaks them
        assert report.passed == (broken == "none" or len(generators) <= 2)
        assert report.total == len(generators) * (len(generators) - 1) // 2


class TestIndexRewriting:
    """The check's rewriting of sorted state-index tuples, against the
    division algorithm and the scan-based degrevlex comparison of
    tests/conftest.py."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.sampled_from((2, 3)), st.data())
    def test_random_dag_with_one_edit(self, dag, k, data):
        lattice = order_preserving_maps(transitive_closure(dag), k)
        generators = hibi_generators(lattice)
        assume(0 < len(generators) <= 100)
        mid = data.draw(st.integers(0, len(generators) - 1))
        gen = generators[mid]
        edit = data.draw(st.sampled_from(("drop", "join_top", "h_is_g")))
        if edit == "drop":
            del generators[mid]
        elif edit == "join_top":
            assume(gen.join != lattice.top)
            generators[mid] = dataclasses.replace(gen, join=lattice.top)
        else:
            generators[mid] = dataclasses.replace(gen, h=gen.g)

        coprime = coprime_pairs(generators)
        lines = [line for _, line in division_failures(generators, skip=coprime)]
        pairs = len(generators) * (len(generators) - 1) // 2
        counts = f"({pairs - len(coprime)} reduced, {len(coprime)} skipped: coprime leading monomials)"
        report = buchberger_check(generators)
        assert report.failures == lines
        if lines:
            assert report.detail == f"{len(lines)} of {pairs} S-polynomials do not reduce to 0 {counts}"
        else:
            assert report.detail == f"{pairs} S-polynomials reduce to 0 {counts}"


class TestFirstCriterion:
    def test_every_edit_of_fig3_same_verdict_as_division(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        generators = hibi_generators(lattice)
        assert len(generators) == 21
        edited = []
        for mid, gen in enumerate(generators):
            edited.append(generators[:mid] + generators[mid + 1 :])
            top = dataclasses.replace(gen, join=lattice.states[-1])
            edited.append(generators[:mid] + [top] + generators[mid + 1 :])
        verdicts = [buchberger_check(gens).passed for gens in edited]
        assert verdicts == [next(division_failures(gens), None) is None for gens in edited]
        assert sum(verdicts) == 3

    def test_skipped_count_is_coprime_pairs(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        generators = hibi_generators(lattice)
        skipped = len(coprime_pairs(generators))
        assert skipped == 30438
        report = buchberger_check(generators)
        assert report.passed and report.total == 34453
        assert report.detail == (
            f"34453 S-polynomials reduce to 0 ({34453 - skipped} reduced, "
            f"{skipped} skipped: coprime leading monomials)"
        )

    def test_failing_detail_names_counts(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        generators = hibi_generators(lattice)
        generators[0] = dataclasses.replace(generators[0], join=lattice.states[-1])
        skipped = len(coprime_pairs(generators))
        report = buchberger_check(generators)
        assert not report.passed
        assert report.detail == (
            f"{len(report.failures)} of 34453 S-polynomials do not reduce to 0 "
            f"({34453 - skipped} reduced, {skipped} skipped: coprime leading monomials)"
        )


# Dropping one of these generators (named by its pair of states) from fig2's
# k=3 set leaves a Groebner basis of a smaller ideal: vanishing and the
# Buchberger criterion both pass, and only the counts see that the set no
# longer generates the toric ideal.
SILENT_DROPS = [
    ("00002", "11111"),
    ("00101", "02022"),
    ("00202", "01011"),
    ("00202", "02022"),
    ("00202", "11111"),
    ("00202", "12122"),
    ("01011", "20222"),
    ("02022", "10111"),
    ("02022", "10212"),
    ("02022", "20222"),
    ("02222", "10111"),
]


def image_counts(mmap, variables):
    """The distinct images of the degree-1, 2 and 3 monomials in the
    variables, each monomial multiplied out with `mono_mul`."""
    return [
        len({reduce(mono_mul, map(mmap.image, m)) for m in combinations_with_replacement(variables, d)})
        for d in (1, 2, 3)
    ]


class CountOracle:
    """Standard and image monomials of degrees 1-3 of a lattice's q-ring, by
    enumeration: every monomial is listed with its quadratic divisors, which
    are tested against the set of leads, and every image is multiplied out
    as a monomial."""

    def __init__(self, lattice):
        variables = [q_var(g) for g in lattice]
        self.monomials = [list(combinations_with_replacement(variables, d)) for d in (1, 2, 3)]
        self.images = image_counts(monomial_map(lattice), variables)  # per degree

    @cached_property
    def divisors(self):
        """Per degree, the quadratic divisors of each monomial."""
        return [
            [{mono_mul(((a, 1),), ((b, 1),)) for a, b in combinations(m, 2)} for m in monomials]
            for monomials in self.monomials
        ]

    def counts(self, generators):
        """(standard, image) for d = 1, 2, 3."""
        order = default_lattice_order(generators)
        leads = {order.leading_term(gen.polynomial())[0] for gen in generators}
        standard = [sum(map(leads.isdisjoint, divisors)) for divisors in self.divisors]
        return list(zip(standard, self.images))


def certified(lattice, generators, oracle):
    """The certificate's verdict from its parts: the generators vanish, the
    counts agree in degrees 1-3, and the Buchberger criterion holds (implied
    by the other two; it runs only when they hold)."""
    return (
        verify_vanishing(generators, monomial_map(lattice)).passed
        and all(s == i for s, i in oracle.counts(generators))
        and buchberger_check(generators).passed
    )


def count_detail(counts):
    return "standard/image monomials in degrees 1-3: " + ", ".join(
        f"{s}/{i}" for s, i in counts
    )


def single_edits(lattice):
    """Every generator set with one generator dropped, then every set with
    one join replaced by the lattice top."""
    generators = hibi_generators(lattice)
    for mid in range(len(generators)):
        yield generators[:mid] + generators[mid + 1 :]
    for mid, gen in enumerate(generators):
        if gen.join != lattice.top:
            top = dataclasses.replace(gen, join=lattice.top)
            yield generators[:mid] + [top] + generators[mid + 1 :]


def drop_pair(generators, pair):
    states = {tuple(int(c) for c in text) for text in pair}
    return [gen for gen in generators if {gen.g, gen.h} != states]


class TestHilbertCertificate:
    @pytest.mark.parametrize("figure", ["fig3", "fig2"])
    def test_every_edit_same_verdict_as_parts(self, figure, fig2_dag, fig3_dag):
        dag = {"fig2": fig2_dag, "fig3": fig3_dag}[figure]
        lattice = order_preserving_maps(transitive_closure(dag), 3)
        oracle = CountOracle(lattice)
        edits = list(single_edits(lattice))
        expected = [certified(lattice, gens, oracle) for gens in edits]
        assert [hilbert_check(lattice, gens).passed for gens in edits] == expected
        assert not any(expected)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.data())
    def test_random_dags(self, dag, data):
        lattice = order_preserving_maps(transitive_closure(dag), 2)
        generators = hibi_generators(lattice)
        oracle = CountOracle(lattice)
        drop = data.draw(st.integers(0, len(generators)))
        edited = generators[:drop] + generators[drop + 1 :]
        for gens in (generators, edited):
            assert hilbert_check(lattice, gens).passed == certified(lattice, gens, oracle)

    def test_ideal_lattice(self, fig1_poset):
        lattice = ideal_lattice(fig1_poset)
        report = hilbert_check(lattice, hibi_generators(lattice))
        assert report.passed and report.total == 1
        counts = CountOracle(lattice).counts(hibi_generators(lattice))
        assert counts == [(8, 8), (34, 34), (104, 104)]
        assert report.detail == f"2 generators map to 0; {count_detail(counts)}"

    def test_silent_drops_fail(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        generators = hibi_generators(lattice)
        mmap = monomial_map(lattice)
        for pair in SILENT_DROPS:
            dropped = drop_pair(generators, pair)
            assert len(dropped) == len(generators) - 1
            assert verify_vanishing(dropped, mmap).passed, pair
            assert buchberger_check(dropped).passed, pair
            report = hilbert_check(lattice, dropped)
            assert not report.passed, pair
            # the dropped pair is the one incomparable pair that leads nothing
            assert report.failures == [
                "1 of 263 incomparable pairs lead no generator, "
                f"the first q[{pair[0]}]*q[{pair[1]}]"
            ]
            assert report.total == 34191
        report = hilbert_check(lattice, drop_pair(generators, SILENT_DROPS[0]))
        assert report.detail == "image monomials in degrees 1-3: 40, 557, 4395"

    def test_failure_lines(self, fig3_dag):
        # the incomparable pairs that lead no generator, then the generators
        # that do not vanish; the detail line gives the image counts
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        images = ", ".join(map(str, CountOracle(lattice).images))
        mmap = monomial_map(lattice)
        pairs = incomparable_pairs(lattice)
        for gens in single_edits(lattice):
            report = hilbert_check(lattice, gens)
            leads = {leading_term(gen.polynomial())[0] for gen in gens}
            unled = [(g, h) for g, h in pairs if ((q_var(g), 1), (q_var(h), 1)) not in leads]
            expected = [
                f"{len(unled)} of {len(pairs)} incomparable pairs lead no generator, the first "
                f"q[{state_digits(g)}]*q[{state_digits(h)}]"
                for g, h in unled[:1]
            ]
            expected += verify_vanishing(gens, mmap).failures
            assert report.failures == expected
            assert report.detail == f"image monomials in degrees 1-3: {images}"
            assert report.total == math.comb(len(gens), 2)

    def test_failure_never_runs_buchberger(self, fig3_dag, monkeypatch):
        """A failing certificate names its failures without the Buchberger
        check, for an edited list and for the lattice's own arrays, both
        lacking the lattice's last generator."""
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        generators = hibi_generators(lattice)[:-1]
        arrays = generator_arrays(lattice)
        shortened = GeneratorArrays(arrays.states, *(column[:-1] for column in arrays.columns()))

        def refuse(gens):
            raise AssertionError("hilbert_check ran buchberger_check")

        monkeypatch.setattr(algebra, "buchberger_check", refuse)
        monkeypatch.setattr(algebra, "generator_arrays", lambda lattice: shortened)
        mine, own = hilbert_check(lattice, generators), hilbert_check(lattice)
        assert not mine.passed and mine.failures == own.failures
        assert mine.total == own.total == math.comb(len(generators), 2)

    def test_guard(self, fig2_dag, monkeypatch):
        """Called from the library, the check reads MAXLIN_HILBERT_LIMIT and
        names it when the guard trips."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        generators = hibi_generators(lattice)
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "1600")  # 40**2
        assert hilbert_check(lattice, generators).passed
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "1599")
        with pytest.raises(TooLargeError) as caught:
            hilbert_check(lattice, generators)
        assert str(caught.value) == (
            "the Hilbert counts need 40**2 = 1600 state pairs but the guard is 1599;"
            " MAXLIN_HILBERT_LIMIT sets the guard"
        )
        monkeypatch.setenv("MAXLIN_HILBERT_LIMIT", "16e2")
        with pytest.raises(MaxlinError) as caught:
            hilbert_check(lattice, generators)
        assert str(caught.value) == "MAXLIN_HILBERT_LIMIT must be an integer, got '16e2'"


def detail_images(report):
    """The image counts of a certificate's detail line, degrees 1-3."""
    counts = report.detail.split("degrees 1-3: ")[1].split(";")[0]
    return [int(pair.split("/")[1]) for pair in counts.split(", ")]


class TestMultichainImages:
    """The certificate counts images as the lattice's multichains; the
    counts are checked against `CountOracle`'s multiplied-out images."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_figures(self, figure, k, fig2_dag, fig3_dag):
        dag = {"fig2": fig2_dag, "fig3": fig3_dag}[figure]
        lattice = order_preserving_maps(transitive_closure(dag), k)
        report = hilbert_check(lattice, hibi_generators(lattice))
        assert report.passed
        assert detail_images(report) == CountOracle(lattice).images

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=6), st.sampled_from((2, 3)))
    def test_random_dags(self, dag, k):
        dag = dataclasses.replace(dag, k=k)
        lattice = order_preserving_maps(transitive_closure(dag), dag.k)
        assume(len(lattice) <= 40)
        report = hilbert_check(lattice, hibi_generators(lattice))
        assert report.passed
        assert detail_images(report) == CountOracle(lattice).images

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=4), st.sampled_from((2, 3)), st.data())
    def test_any_states_have_as_many_images_as_multichains_or_more(self, dag, k, data):
        """The bound that makes the certificate sound without a closure
        check: on any set of states, closed under meet and join or not, the
        images are at least the multichains."""
        lattice = order_preserving_maps(transitive_closure(dag), k)
        assume(len(lattice) <= 40)
        masks = dict(zip(lattice.states, lattice.masks))
        states = data.draw(st.lists(st.sampled_from(lattice.states), unique=True))
        chains = multichain_counts([masks[g] for g in states])
        images = image_counts(monomial_map(lattice), [q_var(g) for g in states])
        assert all(c <= i for c, i in zip(chains, images))


@st.composite
def small_lattices(draw, max_n: int = 4):
    """The state lattice, k = 1-4, or the ideal lattice of a random DAG whose
    labels need not be a topological order."""
    poset = transitive_closure(draw(dags(max_n=max_n)))
    k = draw(st.integers(0, 4))
    return ideal_lattice(poset) if k == 0 else order_preserving_maps(poset, k)


class TestCoverCounts:
    """The certificate's cover-table walks and monomial map against slow
    references: brute-force comparison of states, the per-variable map, and
    the degree 1-3 counts the certificate compared before its lead test."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(small_lattices())
    def test_down_up_count_states_below_and_above(self, lattice):
        states = lattice.states
        down, up = algebra._down_up(lattice)
        assert down == [sum(state_leq(h, g) for h in states) for g in states]
        assert up == [sum(state_leq(g, h) for h in states) for g in states]

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(small_lattices())
    def test_monomial_map_matches_per_variable_build(self, lattice):
        assert monomial_map(lattice) == monomial_map_by_variable(lattice)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.sampled_from((2, 3)), st.data())
    def test_same_verdict_as_degree_counts(self, dag, k, data):
        """A set passes iff it vanishes and its standard monomials of degrees
        1-3 are as many as the multichains; on a pass the detail line gives
        those counts. The sets: the lattice's own, one generator dropped, and
        one join replaced by the lattice top."""
        lattice = order_preserving_maps(transitive_closure(dag), k)
        assume(len(lattice) <= 60)
        generators = hibi_generators(lattice)
        mid = data.draw(st.integers(0, len(generators)))
        edits = [generators, generators[:mid] + generators[mid + 1 :]]
        if mid < len(generators) and generators[mid].join != lattice.top:
            top = dataclasses.replace(generators[mid], join=lattice.top)
            edits.append(generators[:mid] + [top] + generators[mid + 1 :])
        chains = multichain_counts(list(lattice.masks))
        mmap = monomial_map(lattice)
        for gens in edits:
            leads = reference_leads(GeneratorArrays.of(gens, lattice.states))
            standard = standard_counts(len(lattice), leads)
            report = hilbert_check(lattice, gens)
            vanishes = verify_vanishing(gens, mmap).passed
            assert report.passed == (vanishes and standard == chains)
            if report.passed:
                assert report.detail.endswith(count_detail(zip(standard, chains)))


EDITS = ("drop", "join_top", "duplicate_lead", "h_is_g", "swap_meet_join")
SET_EDITS = ("join_top", "sides_swapped", "zero_swapped", "zero", "duplicate", "drop")


def edited(lattice, kind, mid):
    """The lattice's generators as a list with generator `mid` edited:
    dropped, its join replaced by the top, appended again with its join
    replaced by the top (a repeated lead), its h replaced by g, or its meet
    and join swapped (a lead (join, meet) that is comparable)."""
    generators = hibi_generators(lattice)
    gen = generators[mid]
    if kind == "drop":
        del generators[mid]
    elif kind == "join_top":
        generators[mid] = dataclasses.replace(gen, join=lattice.top)
    elif kind == "duplicate_lead":
        generators.append(dataclasses.replace(gen, join=lattice.top))
    elif kind == "h_is_g":
        generators[mid] = dataclasses.replace(gen, h=gen.g)
    else:
        generators[mid] = dataclasses.replace(gen, meet=gen.join, join=gen.meet)
    return generators


def broken_map(lattice, state):
    """The lattice's map with the image of `state` times a foreign variable."""
    images = dict(monomial_map(lattice).images)
    images[q_var(state)] = mono_mul(images[q_var(state)], ((x_var(9, 9), 1),))
    return MonomialMap(images)


class TestAgainstMultipliedOutImages:
    """`verify_vanishing` on the lattice, whose images it reads off the
    state masks, and on a `MonomialMap`, and `hilbert_check` with its lead
    flag table, give the same `Report`s as the references that multiply
    every image out and collect the leads in a set (`tests/conftest.py`)."""

    def assert_same_reports(self, lattice, generators):
        mmap = monomial_map(lattice)
        expected = reference_vanishing(generators, mmap)
        assert verify_vanishing(generators, mmap) == expected
        assert verify_vanishing(generators, lattice) == expected
        assert hilbert_check(lattice, generators) == reference_hilbert_check(lattice, generators)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_catalog(self, k):
        for name, dag in catalog_dags(k):
            lattice = order_preserving_maps(transitive_closure(dag), k)
            arrays = generator_arrays(lattice)
            assert hilbert_check(lattice) == reference_hilbert_check(lattice), name
            self.assert_same_reports(lattice, arrays)
            if not arrays:
                continue
            mid = len(arrays) // 2
            for kind in EDITS:
                if kind in ("join_top", "duplicate_lead") and arrays[mid].join == lattice.top:
                    continue
                self.assert_same_reports(lattice, edited(lattice, kind, mid))
            mmap = broken_map(lattice, lattice.states[len(lattice) // 2])
            assert verify_vanishing(arrays, mmap) == reference_vanishing(arrays, mmap)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.sampled_from((2, 3, 4)), st.data())
    def test_random_dags(self, dag, k, data):
        lattice = order_preserving_maps(transitive_closure(dag), k)
        assume(len(lattice) <= 80)
        generators = hibi_generators(lattice)
        self.assert_same_reports(lattice, generators)
        if generators:
            mid = data.draw(st.integers(0, len(generators) - 1))
            kind = data.draw(st.sampled_from(EDITS))
            tops = kind in ("join_top", "duplicate_lead")
            assume(not tops or generators[mid].join != lattice.top)
            self.assert_same_reports(lattice, edited(lattice, kind, mid))
        state = data.draw(st.sampled_from(lattice.states))
        mmap = broken_map(lattice, state)
        assert verify_vanishing(generators, mmap) == reference_vanishing(generators, mmap)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.sampled_from((2, 3)), st.data())
    def test_random_edits_leave_the_reference_unled_pairs(self, dag, k, data):
        """Up to four edits of the lattice's own set, each at a drawn
        generator: its join set to the top, its two sides swapped (so it
        reads q_meet*q_join - q_g*q_h), its (meet, join) set to (h, g) or
        to (g, h) (a zero binomial, which leads nothing), a duplicate
        appended, or a drop. The inline lead test finds the unled count and
        first unled pair of the reference's `leading_term` leads, in arrays
        form, and in list form when no generator is zero
        (`BinomialGenerator` refuses one)."""
        lattice = order_preserving_maps(transitive_closure(dag), k)
        assume(len(lattice) <= 80)
        quads = list(zip(*generator_arrays(lattice).columns()))
        assume(quads)
        top = len(lattice) - 1
        for kind in data.draw(st.lists(st.sampled_from(SET_EDITS), min_size=1, max_size=4)):
            if not quads:
                break
            mid = data.draw(st.integers(0, len(quads) - 1))
            g, h, meet, join = quads[mid]
            if kind == "join_top":
                quads[mid] = g, h, meet, top
            elif kind == "sides_swapped":
                quads[mid] = meet, join, g, h
            elif kind == "zero_swapped":
                quads[mid] = g, h, h, g
            elif kind == "zero":
                quads[mid] = g, h, g, h
            elif kind == "duplicate":
                quads.append(quads[mid])
            else:
                del quads[mid]
        columns = [list(c) for c in zip(*quads)] or [[], [], [], []]
        arrays = GeneratorArrays(lattice.states, *columns)
        expected = reference_hilbert_check(lattice, arrays)
        assert hilbert_check(lattice, arrays) == expected
        if all({g, h} != {meet, join} for g, h, meet, join in quads):
            generators = list(arrays)
            assert hilbert_check(lattice, generators) == expected
            assert hilbert_check(lattice, GeneratorArrays.of(generators)) == expected

    def test_a_repeated_lead_is_counted_once(self, fig2_dag):
        """Every generator listed twice: each lead is flagged once, so the
        set still passes, with the pairs of the longer list as its total."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        generators = hibi_generators(lattice) * 2
        report = hilbert_check(lattice, generators)
        assert report.passed and report == reference_hilbert_check(lattice, generators)
        assert report.total == math.comb(2 * 263, 2)

    def test_off_lattice_state_is_unmapped(self, fig2_dag):
        """A generator naming a state off the lattice stops both paths with
        the map's own error, naming that state."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        gen = dataclasses.replace(hibi_generators(lattice)[0], join=(1, 1, 1, 1, 0))
        for mmap in (lattice, monomial_map(lattice)):
            message = r"^variable q\[11110\] is not in the map$"
            with pytest.raises(UnmappedVariableError, match=message):
                verify_vanishing([gen], mmap)
        with pytest.raises(UnmappedVariableError, match=r"q\[11110\]"):
            hilbert_check(lattice, [gen])


class TestEitherForm:
    """The checks take a generator set as a list or as `GeneratorArrays`,
    and arrays indexed over other states than the lattice's are re-indexed
    over them: both forms give one report."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_list_and_arrays_give_one_report(self, figure, k, fig2_dag, fig3_dag):
        dag = {"fig2": fig2_dag, "fig3": fig3_dag}[figure]
        lattice = order_preserving_maps(transitive_closure(dag), k)
        generators = hibi_generators(lattice)
        topped = [dataclasses.replace(generators[0], join=lattice.top), *generators[1:]]
        for gens in (generators, generators[1:], topped):
            arrays = GeneratorArrays.of(gens)  # indexed over the states it names
            assert hilbert_check(lattice, arrays) == hilbert_check(lattice, gens)
            assert verify_vanishing(arrays, lattice) == verify_vanishing(gens, lattice)
        assert hilbert_check(lattice, GeneratorArrays.of(generators)).passed


class TestLeadInEitherOrder:
    """A hand-built generator may name the states of a monomial in either
    order; its lead is still its larger monomial, as the division
    algorithm's `leading_term` takes it."""

    def test_swapped_meet_and_join_still_lead_by_g_and_h(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 3)
        swapped = [
            dataclasses.replace(gen, meet=gen.join, join=gen.meet)
            for gen in hibi_generators(lattice)
        ]
        report = hilbert_check(lattice, swapped)
        assert report == hilbert_check(lattice)
        assert report == reference_hilbert_check(lattice, swapped)
        assert buchberger_check(swapped).passed

    def test_a_lead_in_reverse_order_hides_no_unled_pair(self, fig2_dag):
        """The lattice's last generator dropped, and its first one written
        again as q_meet*q_join - q_h*q_g: the lead q_g*q_h counts once,
        not once per order, so the dropped pair is named."""
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        generators = hibi_generators(lattice)
        first, last = generators[0], generators[-1]
        again = BinomialGenerator(first.meet, first.join, meet=first.h, join=first.g)
        edited = generators[:-1] + [again]
        report = hilbert_check(lattice, edited)
        assert report.failures == [
            "1 of 5 incomparable pairs lead no generator, the first "
            f"q[{state_digits(last.g)}]*q[{state_digits(last.h)}]"
        ]
        assert report == reference_hilbert_check(lattice, edited)
        assert certified(lattice, edited, CountOracle(lattice)) is False


def zero_edits(lattice):
    """The lattice's own set in arrays form with generator t's (meet, join)
    set to (h, g) or to (g, h), for every t: q_g*q_h - q_h*q_g and
    q_g*q_h - q_g*q_h are zero, so each edit drops that pair's binomial."""
    arrays = generator_arrays(lattice)
    for t in range(len(arrays)):
        for swap in (True, False):
            g, h, meet, join = (list(c) for c in arrays.columns())
            meet[t], join[t] = (h[t], g[t]) if swap else (g[t], h[t])
            yield t, GeneratorArrays(arrays.states, g, h, meet, join)


class TestZeroGenerator:
    """A hand-built generator whose two monomials coincide is zero: it leads
    nothing in the certificate, and it rewrites nothing and forms no S-pair
    in the Buchberger check, which therefore returns."""

    def test_certificate_names_the_pair_it_no_longer_leads(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        for _, arrays in islice(zero_edits(lattice), 2):  # generator 0, both edits
            report = hilbert_check(lattice, arrays)
            assert report.failures == [
                "1 of 21 incomparable pairs lead no generator, the first q[001]*q[010]"
            ]
            assert report == reference_hilbert_check(lattice, arrays)

    def test_arrays_over_an_equal_state_tuple_give_the_same_report(self, fig3_dag):
        """Arrays that index an equal but distinct tuple of states, here a
        second lattice of the same closure, are re-indexed by their
        indices, a zero generator included, and give the same report."""
        closure = transitive_closure(fig3_dag)
        lattice, again = order_preserving_maps(closure, 3), order_preserving_maps(closure, 3)
        assert again.states == lattice.states and again.states is not lattice.states
        for _, arrays in islice(zero_edits(lattice), 2):
            other = GeneratorArrays(again.states, *arrays.columns())
            report = hilbert_check(lattice, other)
            assert report == hilbert_check(lattice, arrays)
            assert report.failures == [
                "1 of 21 incomparable pairs lead no generator, the first q[001]*q[010]"
            ]

    @pytest.mark.parametrize("figure, k", [("fig2", 2), ("fig3", 3)])
    def test_buchberger_returns_as_if_the_generator_were_dropped(
        self, figure, k, fig2_dag, fig3_dag
    ):
        """Run under an alarm, so a check that loops fails here instead of
        hanging the suite. A zero generator forms no pair, so the failure
        lines are those of the set without it; the total still counts its
        pairs."""

        def timeout(signum, frame):
            raise TimeoutError("buchberger_check did not return within 10 s")

        dag = {"fig2": fig2_dag, "fig3": fig3_dag}[figure]
        lattice = order_preserving_maps(transitive_closure(dag), k)
        generators = hibi_generators(lattice)
        previous = signal.signal(signal.SIGALRM, timeout)
        try:
            for t, arrays in zero_edits(lattice):
                signal.alarm(10)
                report = buchberger_check(arrays)
                signal.alarm(0)
                dropped = buchberger_check(generators[:t] + generators[t + 1 :])
                assert report.failures == dropped.failures
                assert report.total == math.comb(len(generators), 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
