"""Order ideals, order-preserving maps, chain products, and the
state-to-ideal correspondence."""

import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlin import data
from maxlin.algebra import monomial_map, q_var, t_var, x_var
from maxlin.dag import Dag, parse_dag, transitive_closure
from maxlin.poset import (
    Poset,
    StateLattice,
    ideal_lattice,
    order_preserving_maps,
)

from conftest import (
    CATALOG,
    RELABELLED,
    BadStateError,
    antichain,
    axiom_violations,
    brute_force_ideals,
    brute_force_states,
    catalog_dags,
    chain,
    chain_product,
    checked_poset,
    covers_below,
    dags,
    dual,
    from_relation,
    ideal_members,
    image_ideal,
    incomparable_pairs,
    is_order_ideal,
    lattice_meet_join,
    maximal_below,
    order_ideals,
    random_dag,
    state_leq,
    strict_pairs,
)


def digits(states):
    return ["".join(map(str, g)) for g in states]


class TestPosetType:
    def test_rejects_missing_reflexivity(self):
        with pytest.raises(ValueError, match=r"not reflexive at 2"):
            from_relation((1, 2), {(1, 1)})

    def test_rejects_antisymmetry_violation(self):
        with pytest.raises(ValueError, match=r"not antisymmetric on \([12], [12]\)"):
            from_relation((1, 2), {(1, 1), (2, 2), (1, 2), (2, 1)})

    def test_rejects_intransitivity(self):
        with pytest.raises(ValueError, match=r"not transitive on \(1, 2, 3\)"):
            from_relation((1, 2, 3), {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)})

    @pytest.mark.parametrize(
        "elements, down",
        [
            ((1, 1), (0b01, 0b10)),  # duplicate element
            ((1, 2), (0b01,)),  # one mask for two elements
            ((1, 2), (0b101, 0b10)),  # bit outside the element set
            ((1, 2), (-1, 0b10)),
        ],
    )
    def test_rejects_malformed_masks(self, elements, down):
        with pytest.raises(ValueError):
            checked_poset(elements, down)

    @pytest.mark.parametrize(
        "elements, down, message",
        [
            ((0, 1), (0b11, 0b11), "relation is not antisymmetric on (1, 0)"),
            ((0, 1, 2), (0b001, 0b011, 0b110), "relation is not transitive on (0, 1, 2)"),
            ((1, 2), (0b101, 0b10), "down-set of 1 reaches outside the element set"),
            (("a", "b"), (0b01, 0b00), "relation is not reflexive at 'b'"),
            ((1, 1), (0b01, 0b10), "duplicate poset elements"),
            ((1, 2), (0b01,), "1 down-set masks for 2 elements"),
        ],
    )
    def test_exact_messages(self, elements, down, message):
        with pytest.raises(ValueError) as info:
            checked_poset(elements, down)
        assert str(info.value) == message

    def test_rejects_pair_outside_elements(self):
        with pytest.raises(ValueError, match="outside the element set"):
            from_relation((1, 2), {(1, 1), (2, 2), (1, 3)})

    def test_masks_and_relation(self):
        p = from_relation((1, 2, 3), {(1, 1), (2, 2), (3, 3), (1, 3), (2, 3)})
        assert p.down == (0b001, 0b010, 0b111)
        assert p.relation == {(1, 1), (2, 2), (3, 3), (1, 3), (2, 3)}
        assert covers_below(p, 3) == (1, 2)
        assert covers_below(p, 1) == ()

    def test_covers_of_chain(self):
        p = chain(4)
        assert [(a, b) for b in p.elements for a in covers_below(p, b)] == [(0, 1), (1, 2), (2, 3)]

    def test_dual(self):
        relation = dual(chain(3)).relation
        assert (2, 0) in relation and (0, 2) not in relation


def closed(down: list[int]) -> list[int]:
    """The transitive closure of reflexive masks, by repeated ORs of the
    masks below each element until nothing changes."""
    down = list(down)
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(down):
            grown = mask
            for j in range(len(down)):
                if mask >> j & 1:
                    grown |= down[j]
            changed |= grown != mask
            down[i] = grown
    return down


def random_relation(rng: random.Random, kind: str) -> list[int]:
    """Reflexive down-set masks on n <= 7 positions: a random poset, one with
    a pair taken out below a chain of two (not transitive), one with a pair
    added against the order (not antisymmetric), a relabelled DAG closure,
    or any reflexive relation."""
    n = rng.randint(1, 7)
    if kind == "closure":
        return list(transitive_closure(random_dag(rng, max_n=7)).down)
    if kind == "any":
        return [rng.getrandbits(n) | 1 << i for i in range(n)]
    order = rng.sample(range(n), n)  # edges go up this order, so no cycle
    down = [1 << i for i in range(n)]
    for s, i in enumerate(order):
        for j in order[:s]:
            if rng.random() < 0.4:
                down[i] |= 1 << j
    down = closed(down)
    strict = [(j, i) for i in range(n) for j in range(n) if j != i and down[i] >> j & 1]
    if kind == "not transitive":
        # (c, i) with some j strictly between: c < j < i
        spanning = [(c, i) for c, i in strict if any(
            down[j] >> c & 1 and down[i] >> j & 1 for j in range(n) if j not in (c, i))]
        if spanning:
            c, i = rng.choice(spanning)
            down[i] &= ~(1 << c)
    elif kind == "not antisymmetric" and strict:
        j, i = rng.choice(strict)
        down[j] |= 1 << i
    return down


# (label, label) or (label, label, label) in a `checked_poset` axiom error.
_NAMED = re.compile(r"relation is not (antisymmetric|transitive) on \(([0-9, ]+)\)")


class TestGreedyCovers:
    """`checked_poset` checks the axioms and finds the lower covers in one
    scan of each element's strict down-set; the references check every pair
    and triple and compare every two elements below each one."""

    KINDS = ("valid", "not transitive", "not antisymmetric", "closure", "any")

    def test_verdict_and_covers_match_the_all_pairs_check(self):
        rng = random.Random(2417)
        raised = {"antisymmetric": 0, "transitive": 0}
        for case in range(1500):
            kind = self.KINDS[case % len(self.KINDS)]
            down = random_relation(rng, kind)
            n = len(down)
            labels = tuple(rng.sample(range(100, 200), n))
            pairs, triples = axiom_violations(down)
            try:
                poset = checked_poset(labels, tuple(down))
            except ValueError as exc:
                assert pairs or triples, (kind, down, exc)
                match = _NAMED.fullmatch(str(exc))
                assert match, exc
                named = tuple(labels.index(int(x)) for x in match[2].split(", "))
                assert named in (pairs if match[1] == "antisymmetric" else triples), (down, exc)
                raised[match[1]] += 1
                continue
            assert not pairs and not triples, (kind, down)
            assert poset.lower_covers == tuple(maximal_below(down, i) for i in range(n)), down
        assert min(raised.values()) > 100, raised

    @pytest.mark.parametrize(
        "down, message",
        [
            # 1 <= 0 <= 1, found at 0's scan of its strict down-set
            ((0b11, 0b11), r"antisymmetric on \((0, 1|1, 0)\)"),
            ((0b011, 0b011, 0b111), r"antisymmetric on \((0, 1|1, 0)\)"),
            # 0 <= 1 <= 2, 0 not below 2; the element that exposes it is 1
            ((0b001, 0b011, 0b110), r"transitive on \(0, 1, 2\)"),
            # 1 <= 2 <= 0, 1 not below 0
            ((0b101, 0b010, 0b110), r"transitive on \(1, 2, 0\)"),
        ],
    )
    def test_errors_name_the_exposing_pick(self, down, message):
        with pytest.raises(ValueError, match=message):
            checked_poset(tuple(range(len(down))), down)

    @staticmethod
    def chain_down(labels) -> tuple[int, ...]:
        """The chain labels[0] < labels[1] < ..., as down-set masks."""
        down, mask = [0] * len(labels), 0
        for label in labels:
            mask |= 1 << label
            down[label] = mask
        return tuple(down)

    @pytest.mark.parametrize("labelling", ["forward", "reverse", "random", "middle-out"])
    def test_long_chains_get_the_chain_covers(self, labelling):
        n = 300
        labels = {
            "forward": list(range(n)),
            "reverse": list(range(n))[::-1],
            "random": random.Random(300).sample(range(n), n),
            "middle-out": sorted(range(n), key=lambda x: (abs(2 * x - n), x)),
        }[labelling]
        poset = checked_poset(tuple(range(n)), self.chain_down(labels))
        expected = [0] * n
        for below, above in zip(labels, labels[1:]):
            expected[above] = 1 << below
        assert poset.lower_covers == tuple(expected)


class TestOrderIdeals:
    def test_fig1_golden(self, fig1_poset):
        assert digits(order_ideals(fig1_poset)) == [
            "00000", "01000", "10000", "11000",
            "11100", "11101", "11110", "11111",
        ]

    def test_antichain_all_subsets(self):
        assert len(order_ideals(antichain((1, 2)))) == 4

    def test_chain_prefixes(self):
        assert order_ideals(chain(3)) == [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_matches_brute_force_on_catalog(self):
        for _, dag in catalog_dags(2):
            poset = transitive_closure(dag)
            assert order_ideals(poset) == sorted(brute_force_ideals(poset))

    def test_ideal_members(self, fig1_poset):
        assert ideal_members(fig1_poset, (1, 1, 1, 0, 1)) == {1, 2, 3, 5}

    def test_is_order_ideal(self, fig1_poset):
        assert is_order_ideal(fig1_poset, (1, 1, 1, 0, 1))
        assert not is_order_ideal(fig1_poset, (0, 0, 1, 0, 0))
        with pytest.raises(BadStateError):
            is_order_ideal(fig1_poset, (0, 2, 0, 0, 0))


class TestIdealStateBijection:
    """Ideal t of `ideal_lattice` is the complement of state |L| - 1 - t of
    the two-state lattice, the pairing theorem31 reads by position."""

    @staticmethod
    def assert_paired(poset: Poset) -> None:
        ideals = ideal_lattice(poset).vectors
        states = order_preserving_maps(poset, 2).vectors
        assert len(ideals) == len(states)
        for t, ideal in enumerate(ideals):
            assert list(ideal) == [1 - v for v in states[-1 - t]], t

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dags())
    def test_random_dags(self, dag):
        self.assert_paired(transitive_closure(dag))

    def test_catalog(self):
        for _, dag in catalog_dags(2):
            self.assert_paired(transitive_closure(dag))


class TestOrderPreservingMaps:
    def test_fig2_golden(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        assert digits(lattice.states) == [
            "00000", "00001", "00011", "00101", "00111",
            "01011", "01111", "10111", "11111",
        ]

    def test_fig3_count(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        assert len(lattice) == 14

    def test_single_element(self):
        poset = transitive_closure(Dag(n=1, k=4))
        for k in (1, 2, 5):
            assert len(order_preserving_maps(poset, k)) == k

    def test_matches_brute_force_on_catalog(self):
        for k in (2, 3):
            for _, dag in catalog_dags(k):
                poset = transitive_closure(dag)
                assert list(order_preserving_maps(poset, k)) == sorted(
                    brute_force_states(poset, k)
                )

    def test_lattice_contains_bounds(self):
        for _, dag in catalog_dags(3):
            lattice = order_preserving_maps(transitive_closure(dag), 3)
            assert lattice.states[0] == (0,) * dag.n
            assert lattice.top == (2,) * dag.n

    def test_meet_join_closure(self):
        for _, dag in catalog_dags(2):
            lattice = order_preserving_maps(transitive_closure(dag), 2)
            for g in lattice:
                for h in lattice:
                    meet, join = lattice_meet_join(g, h)
                    assert meet in lattice and join in lattice

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_equal_to_lattice_of_int_tuples(self, k):
        """The walk keeps bytes for k <= 256; a lattice of the same states as
        int tuples has the same states, masks and covers."""
        lattice = order_preserving_maps(chain(2), k)
        rebuilt = StateLattice(2, k, lattice.states)
        assert lattice.states == rebuilt.states
        assert lattice.masks == rebuilt.masks and lattice.covers == rebuilt.covers
        assert lattice.states != order_preserving_maps(antichain((0, 1)), k).states


class TestMeetJoin:
    def test_golden_pair(self):
        g, h = (0, 1, 1, 1, 1), (1, 0, 1, 1, 1)
        assert lattice_meet_join(g, h) == ((0, 0, 1, 1, 1), (1, 1, 1, 1, 1))

    def test_equal_states(self):
        g = (0, 1, 2)
        assert lattice_meet_join(g, g) == (g, g)

    def test_comparable_pair(self):
        g, h = (0, 0, 1), (0, 1, 1)
        assert lattice_meet_join(g, h) == (g, h)


class TestIncomparablePairs:
    def test_fig2_exactly_five(self, fig2_dag):
        lattice = order_preserving_maps(transitive_closure(fig2_dag), 2)
        pairs = incomparable_pairs(lattice)
        assert len(pairs) == 5
        assert {tuple(digits(p)) for p in pairs} == {
            ("00011", "00101"),
            ("00101", "01011"),
            ("00111", "01011"),
            ("01011", "10111"),
            ("01111", "10111"),
        }

    def test_fig1_ideals_two_pairs(self, fig1_poset):
        pairs = incomparable_pairs(ideal_lattice(fig1_poset))
        assert {tuple(digits(p)) for p in pairs} == {
            ("01000", "10000"),
            ("11101", "11110"),
        }

    def test_chain_has_none(self):
        assert incomparable_pairs(order_preserving_maps(chain(4), 2)) == []
        assert incomparable_pairs(order_preserving_maps(chain(1), 6)) == []

    def test_pairs_are_incomparable(self):
        rng = random.Random(2)
        for _ in range(20):
            dag = random_dag(rng, k=2)
            lattice = order_preserving_maps(transitive_closure(dag), 2)
            for g, h in incomparable_pairs(lattice):
                assert not state_leq(g, h) and not state_leq(h, g)


class TestChainProduct:
    def test_fig3_product_poset(self, fig3_dag):
        closure = transitive_closure(fig3_dag)
        prod = chain_product(closure, 2)
        assert prod.elements == ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))
        assert {(a, b) for b in prod.elements for a in covers_below(prod, b)} == {
            ((1, 0), (1, 1)),
            ((1, 0), (2, 0)),
            ((1, 0), (3, 0)),
            ((1, 1), (2, 1)),
            ((1, 1), (3, 1)),
            ((2, 0), (2, 1)),
            ((3, 0), (3, 1)),
        }

    def test_product_with_single_chain_is_isomorphic(self, fig1_poset):
        prod = chain_product(fig1_poset, 1)
        assert [e for e, _ in prod.elements] == list(fig1_poset.elements)
        relation, base = prod.relation, fig1_poset.relation
        for a, r in prod.elements:
            for b, s in prod.elements:
                assert (((a, r), (b, s)) in relation) == ((a, b) in base)

    def test_antichain_times_chain(self):
        prod = chain_product(antichain((1, 2)), 2)
        assert set(strict_pairs(prod)) == {((1, 0), (1, 1)), ((2, 0), (2, 1))}

    def test_empty_chain(self):
        prod = chain_product(chain(3), 0)
        assert prod.elements == ()
        assert order_ideals(prod) == [()]


class TestStateToIdeal:
    """`monomial_map` as the state-to-ideal map: the x-support of q_g's
    image, x[i, r] read as the element (vertex i, r), is the order ideal of
    chain_product(P, k-1) that g corresponds to."""

    def test_golden_fig3(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        image = monomial_map(lattice).image(q_var((0, 1, 2)))
        assert image == ((t_var(), 1), (x_var(1, 0), 1), (x_var(1, 1), 1), (x_var(2, 0), 1))

    def test_top_state_empty(self, fig3_dag):
        lattice = order_preserving_maps(transitive_closure(fig3_dag), 3)
        assert monomial_map(lattice).image(q_var((2, 2, 2))) == ((t_var(), 1),)

    def test_bottom_state_full(self, fig3_dag):
        closure = transitive_closure(fig3_dag)
        mmap = monomial_map(order_preserving_maps(closure, 3))
        assert image_ideal(mmap, (0, 0, 0)) == set(chain_product(closure, 2).elements)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bijection_onto_product_ideals(self, k):
        for _, dag in catalog_dags(k):
            poset = transitive_closure(dag)
            lattice = order_preserving_maps(poset, k)
            prod = chain_product(poset, k - 1)
            mmap = monomial_map(lattice)
            images = [image_ideal(mmap, g) for g in lattice]
            assert len(set(images)) == len(images)
            expected = {
                frozenset(ideal_members(prod, ind)) for ind in order_ideals(prod)
            }
            assert set(images) == expected

    def test_order_reversing(self):
        for _, dag in catalog_dags(3):
            lattice = order_preserving_maps(transitive_closure(dag), 3)
            mmap = monomial_map(lattice)
            images = {g: image_ideal(mmap, g) for g in lattice}
            for g in lattice:
                for h in lattice:
                    if state_leq(g, h):
                        assert images[g] >= images[h]


class TestLatticeCorrespondence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_state_count_equals_product_ideal_count(self, k):
        for _, dag in catalog_dags(max(k, 1)):
            poset = transitive_closure(dag)
            lattice = order_preserving_maps(poset, k)
            prod = chain_product(poset, k - 1)
            assert len(lattice) == len(order_ideals(prod))

    def test_two_state_complementation(self):
        for _, dag in catalog_dags(2):
            poset = transitive_closure(dag)
            states = set(order_preserving_maps(poset, 2))
            complements = {
                tuple(1 - b for b in ind) for ind in order_ideals(poset)
            }
            assert states == complements


# Slow, independent references for the mask-based fast paths.


def dfs_reachable(dag: Dag) -> set[tuple[int, int]]:
    """Every (u, v) with a directed path u -> ... -> v, v itself included,
    by a depth-first search from each vertex along the edge list."""
    children = {v: [b for a, b in dag.edges if a == v] for v in range(1, dag.n + 1)}
    pairs = set()
    for u in range(1, dag.n + 1):
        stack, seen = [u], set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(children[v])
        pairs.update((u, v) for v in seen)
    return pairs


def cubic_covers(poset: Poset) -> list:
    """Cover pairs by the definition: a < b with nothing strictly between."""
    relation = poset.relation
    return [
        (a, b)
        for a, b in strict_pairs(poset)
        if not any(
            c != a and c != b and (a, c) in relation and (c, b) in relation
            for c in poset.elements
        )
    ]


def pairwise_incomparable(states) -> list:
    return [
        (g, h)
        for i, g in enumerate(states)
        for h in states[i + 1 :]
        if not state_leq(g, h) and not state_leq(h, g)
    ]


def check_against_slow_paths(dag: Dag, ks=(1, 2, 3)) -> None:
    poset = transitive_closure(dag)
    reachable = dfs_reachable(dag)
    assert poset.relation == reachable
    covers = cubic_covers(poset)
    for b in poset.elements:
        assert covers_below(poset, b) == tuple(a for a, c in covers if c == b)
    assert dual(poset).relation == {(b, a) for a, b in reachable}
    for k in ks:
        lattice = order_preserving_maps(poset, k)
        assert list(lattice) == brute_force_states(poset, k)
        assert incomparable_pairs(lattice) == pairwise_incomparable(lattice.states)
    ideals = order_ideals(poset)
    assert ideals == brute_force_ideals(poset)
    box = product((0, 1), repeat=dag.n)
    assert [g for g in box if is_order_ideal(poset, g)] == ideals
    assert incomparable_pairs(ideal_lattice(poset)) == pairwise_incomparable(ideals)


class TestFastPathsAgainstSlowPaths:
    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG])
    def test_catalog(self, name):
        check_against_slow_paths(dict(catalog_dags(2))[name])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dags())
    def test_random_dags(self, dag):
        # k = 3 above 6 vertices gives up to 6,561 states, too many for the
        # pairwise incomparability reference in a unit test.
        check_against_slow_paths(dag, ks=(1, 2, 3) if dag.n <= 6 else (1, 2))


class TestWalk:
    """The two-state walk and the multichains of its filters against the
    brute-force box filters, on relabelled posets, at k around the bytes and
    tuples boundary (9 | 10) and past it."""

    @pytest.mark.parametrize("k", [8, 9, 10, 11, 17, 18])
    def test_relabelled_posets(self, k):
        for poset in RELABELLED:
            assert list(order_preserving_maps(poset, k)) == brute_force_states(poset, k)
            assert order_ideals(poset) == brute_force_ideals(poset)

    @pytest.mark.parametrize("k", [1, 2, 9, 10, 11])
    def test_states_are_int_tuples(self, k):
        """The walk keeps bytes or tuples; `states` is int tuples, so a
        dict keyed by states is looked up by tuples."""
        for poset in RELABELLED:
            for lattice, expected in (
                (order_preserving_maps(poset, k), brute_force_states(poset, k)),
                (ideal_lattice(poset), brute_force_ideals(poset)),
            ):
                assert all(type(g) is tuple for g in lattice.states)
                index = {g: t for t, g in enumerate(lattice)}
                assert [index[g] for g in expected] == list(range(len(lattice)))
                assert lattice.top == expected[-1] and expected[0] in lattice

    def test_entries_past_one_byte(self):
        # k = 258: entries up to 257 take two-byte slots, past what a byte holds
        poset = RELABELLED[0]
        assert list(order_preserving_maps(poset, 258)) == brute_force_states(poset, 258)

    @pytest.mark.parametrize("k", [1, 2, 9, 10, 18])
    def test_empty_and_single_posets(self, k):
        assert list(order_preserving_maps(checked_poset((), ()), k)) == [()]
        assert list(order_preserving_maps(checked_poset(("a",), (1,)), k)) == [(v,) for v in range(k)]
        assert order_ideals(checked_poset((), ())) == [()]
        assert order_ideals(checked_poset(("a",), (1,))) == [(0,), (1,)]


class TestMultichains:
    """k >= 3 is built as the sums of the multichains F_1 >= ... >= F_{k-1}
    of the two-state walk's filters, against the brute-force box filter at
    the representation edges: k = 9 and 10 (the first states with an entry
    above 9), k = 256 and 257 (one- and two-byte slots: the last `bytes` and
    the first tuple lattice). fig2 stops at k = 10: its box at k = 256 has
    256**5 vectors."""

    POSETS = {
        "chain1": chain(1),
        "chain2": chain(2),
        "chain4": chain(4),
        "antichain2": antichain((0, 1)),
        "antichain4": antichain((0, 1, 2, 3)),
        "fig2": transitive_closure(parse_dag(data.read("fig2.dag"))),
    }

    @staticmethod
    def check(poset, k):
        lattice = order_preserving_maps(poset, k)
        assert list(lattice) == brute_force_states(poset, k)
        assert all(type(v) is (bytes if k <= 256 else tuple) for v in lattice.vectors)
        assert (lattice.n, lattice.k) == (len(poset.elements), k)

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 10])
    @pytest.mark.parametrize("name", list(POSETS))
    def test_small_k(self, name, k):
        self.check(self.POSETS[name], k)

    @pytest.mark.parametrize("k", [256, 257])
    @pytest.mark.parametrize("name", ["chain1", "chain2", "antichain2"])
    def test_one_and_two_byte_slots(self, name, k):
        self.check(self.POSETS[name], k)

    @pytest.mark.parametrize("name", list(POSETS))
    def test_ideals(self, name):
        poset = self.POSETS[name]
        assert list(ideal_lattice(poset)) == brute_force_ideals(poset)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dags(max_n=5), st.integers(1, 6))
    def test_random_dags(self, dag, k):
        poset = transitive_closure(dag)
        self.check(poset, k)
        assert list(ideal_lattice(poset)) == brute_force_ideals(poset)

    def test_k_below_one_is_refused(self):
        with pytest.raises(ValueError, match="chain size must be >= 1, got 0"):
            order_preserving_maps(chain(2), 0)
