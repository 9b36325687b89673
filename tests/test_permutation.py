import itertools
import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlyap.errors import DisconnectedError, InputError
from flatlyap.permutation import (
    Permutation,
    compose,
    cycle_type,
    is_transitive,
    parse_cycles,
)

from conftest import canonical_form, conjugate, identity, order, random_permutation


def perms(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda d: st.permutations(list(range(1, d + 1))).map(Permutation)
    )


def same_degree_pairs(max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda d: st.tuples(
            st.permutations(list(range(1, d + 1))).map(Permutation),
            st.permutations(list(range(1, d + 1))).map(Permutation),
        )
    )


# -- parsing ------------------------------------------------------------------

def test_parse_four_cycle():
    assert parse_cycles("(1234)", 5).images == (2, 3, 4, 1, 5)
    assert parse_cycles("(1 2 3 4)(5)", 5).images == (2, 3, 4, 1, 5)
    assert parse_cycles("(1,2,3,4)", 5).images == (2, 3, 4, 1, 5)


def test_parse_empty_is_identity():
    assert parse_cycles("", 3) == identity(3)


def test_parse_rejects_symbol_out_of_range():
    # "(1 14)" against degree 13 must be refused, not reinterpreted
    with pytest.raises(InputError):
        parse_cycles("(1 14)", 13)


def test_parse_rejects_repeated_symbol():
    with pytest.raises(InputError):
        parse_cycles("(1 2)(2 3)", 4)


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_cycles("(1 2", 3)
    with pytest.raises(InputError):
        parse_cycles("1 2 3", 3)


def test_one_line_format():
    assert Permutation.from_one_line("2 3 4 1 5").images == (2, 3, 4, 1, 5)
    assert Permutation.from_one_line(" 2, 3 ,1 ").images == (2, 3, 1)
    with pytest.raises(InputError):
        Permutation.from_one_line("2 3 1", 4)


@pytest.mark.parametrize("text", ["1 -2 3", "1 2x 3", "1,,2", "1.0 2", "(1 2)"])
def test_one_line_format_takes_only_positive_integers(text):
    with pytest.raises(InputError):
        Permutation.from_one_line(text)


@pytest.mark.parametrize("images", [[1.5, 2], ["2", "1"], [None], 5, [True], [2, True]])
def test_images_must_be_integers(images):
    with pytest.raises(InputError):
        Permutation(images)


def test_single_digit_glued_cycles():
    # "(1234)" and "(1 2 3 4)" agree only because multi-digit symbols are
    # space- or comma-separated; make sure 10 does not parse as 1, 0
    p = parse_cycles("(1 10)", 10)
    assert p(1) == 10 and p(10) == 1


# -- composition --------------------------------------------------------------

def test_compose_convention():
    # (p*q)(x) = p(q(x)): p=(12), q=(23) sends 3 -> 2 -> 1
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert compose(p, q)(3) == 1
    assert compose(p, q) == parse_cycles("(1 2 3)", 3)


def test_compose_identity_law():
    p = parse_cycles("(1 3 5)(2 4)", 5)
    assert compose(p, identity(5)) == p
    assert compose(identity(5), p) == p


def test_compose_degree_mismatch():
    with pytest.raises(InputError):
        compose(identity(3), identity(4))


def test_compose_against_function_table():
    # oracle: apply q then p through an explicit mapping table
    rng = random.Random(0)
    for _ in range(50):
        d = rng.randint(1, 6)
        p, q = random_permutation(d, rng), random_permutation(d, rng)
        table = {x: p(q(x)) for x in range(1, d + 1)}
        r = compose(p, q)
        assert all(r(x) == table[x] for x in range(1, d + 1))


@settings(max_examples=60)
@given(st.integers(1, 10).flatmap(
    lambda d: st.tuples(*[st.permutations(list(range(1, d + 1))).map(Permutation)] * 3)
))
def test_compose_associative(triple):
    p, q, r = triple
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


# -- inverse ------------------------------------------------------------------

def test_inverse_four_cycle():
    assert parse_cycles("(1 2 3 4)", 4).inverse() == parse_cycles("(1 4 3 2)", 4)


def test_inverse_identity():
    assert identity(4).inverse() == identity(4)


def test_inverse_against_order_oracle():
    # oracle: p^-1 = p^(order-1), order from the cycle lengths
    rng = random.Random(1)
    for _ in range(40):
        d = rng.randint(1, 8)
        p = random_permutation(d, rng)
        order = lcm(*(len(c) for c in p.cycles()))
        power = identity(d)
        for _ in range(order - 1):
            power = compose(power, p)
        assert p.inverse() == power
        assert compose(p, p.inverse()) == identity(d)


# -- cycle structure -----------------------------------------------------------

def test_cycle_type_examples():
    assert cycle_type(parse_cycles("(1 5 4)", 5)) == (3, 1, 1)
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type(parse_cycles("(1 2)(3 4)", 5)) == (2, 2, 1)


@settings(max_examples=60)
@given(same_degree_pairs(12))
def test_cycle_type_conjugation_invariant(pair):
    p, s = pair
    assert cycle_type(conjugate(p, s)) == cycle_type(p)


def test_order():
    assert order(parse_cycles("(1 2 3)(4 5)", 5)) == 6
    assert order(identity(3)) == 1


# -- transitivity ---------------------------------------------------------------

def test_transitive_fig1_pair():
    assert is_transitive(parse_cycles("(1 2 3 4)", 5), parse_cycles("(1 5)", 5))


def test_identity_pair_not_transitive():
    assert not is_transitive(identity(2), identity(2))


def test_transitive_klein_pair():
    assert is_transitive(parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4))


def _union_find_transitive(r, u):
    parent = list(range(r.degree + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(1, r.degree + 1):
        for y in (r(x), u(x)):
            parent[find(x)] = find(y)
    return len({find(x) for x in range(1, r.degree + 1)}) == 1


def test_transitivity_against_union_find():
    rng = random.Random(2)
    for _ in range(200):
        d = rng.randint(1, 7)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        assert is_transitive(r, u) == _union_find_transitive(r, u)


# -- canonical form --------------------------------------------------------------

def test_canonical_form_constant_on_conjugates():
    rng = random.Random(3)
    r = parse_cycles("(1 2 3 4)", 5)
    u = parse_cycles("(1 5)", 5)
    base = canonical_form(r, u)
    for _ in range(20):
        s = random_permutation(5, rng)
        assert canonical_form(conjugate(r, s), conjugate(u, s)) == base


def test_canonical_form_idempotent():
    rng = random.Random(4)
    for _ in range(40):
        d = rng.randint(1, 6)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        if not is_transitive(r, u):
            continue
        cr, cu = canonical_form(r, u)
        assert canonical_form(cr, cu) == (cr, cu)


def test_canonical_form_rejects_intransitive():
    with pytest.raises(DisconnectedError):
        canonical_form(identity(2), identity(2))


def _exhaustive_class_check(d):
    # oracle: orbits of simultaneous conjugation over all d! relabellings,
    # each class built once, on 0-based images: s p s^-1 sends x to s(p(s^-1(x)))
    elements = [Permutation(p) for p in itertools.permutations(range(1, d + 1))]
    relabellings = [(s.zero_based(), s.inverse().zero_based()) for s in elements]
    transitive = [
        (r, u) for r in elements for u in elements if is_transitive(r, u)
    ]
    class_of = {}
    n_classes = 0
    for r, u in transitive:
        rz, uz = r.zero_based(), u.zero_based()
        if (rz, uz) in class_of:
            continue
        for s, s_inv in relabellings:
            conjugates = (
                tuple(s[rz[x]] for x in s_inv),
                tuple(s[uz[x]] for x in s_inv),
            )
            class_of[conjugates] = n_classes
        n_classes += 1
    canon_classes = set()
    for r, u in transitive:
        cr, cu = canonical_form(r, u)
        canon = (cr.zero_based(), cu.zero_based())
        canon_classes.add(canon)
        # the canonical form is a member of its own conjugacy class
        assert class_of[canon] == class_of[r.zero_based(), u.zero_based()]
    assert len(canon_classes) == n_classes


def test_canonical_form_separates_classes_d4():
    _exhaustive_class_check(4)


@pytest.mark.slow
def test_canonical_form_separates_classes_d5():
    _exhaustive_class_check(5)
