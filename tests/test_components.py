import random

import pytest

from flatlyap import components, permutation
from flatlyap import origami as origami_module
from flatlyap.components import (
    E,
    N,
    S,
    component_label,
    hyperelliptic_involution,
    in_hyperelliptic_component,
    spin_parity,
)
from flatlyap.enumeration import enumerate_origamis
from flatlyap.errors import InputError
from flatlyap.kernel import corner_walk
from flatlyap.moduli import double_cover_stratum, hyperelliptic_locus_L
from flatlyap.origami import Origami, Stratum
from flatlyap.orbits import act_S, act_T

from drawing import (
    _intersections,
    crossing_parity,
    cycle_form_value,
    drawn_parity,
    fundamental_cycles,
    make_cycle,
    turning_number,
)
from conftest import (
    ELEVEN_10_EVEN,
    ELEVEN_10_ODD,
    FIG1,
    NINE_SQUARE_MAX,
    TEN_411,
    TEN_44_EVEN,
    TEN_44_ODD,
    WOLLMILCHSAU,
    conjugate,
    identity,
    origami,
    random_permutation,
    scanned_classes,
    scanned_orbits,
    scanned_orbits_by_degree,
)


# -- hyperelliptic involution ---------------------------------------------------

def test_involution_found_for_fig1():
    inv = hyperelliptic_involution(origami(FIG1))
    assert inv is not None
    assert inv.fixed_point_count == 6  # 2g + 2 at genus two


def test_involution_identities():
    o = origami(FIG1)
    inv = hyperelliptic_involution(o)
    sigma = inv.sigma
    assert sigma * sigma == identity(o.degree)
    assert conjugate(o.right, sigma) == o.right.inverse()
    assert conjugate(o.up, sigma) == o.up.inverse()


def test_wollmilchsau_is_not_hyperelliptic():
    assert hyperelliptic_involution(origami(WOLLMILCHSAU)) is None


def test_411_is_not_hyperelliptic():
    assert hyperelliptic_involution(origami(TEN_411)) is None


def test_every_small_genus2_origami_is_hyperelliptic():
    # genus-two surfaces are hyperelliptic without exception, so the
    # search must succeed on every origami in H(2) and H(1,1)
    for stratum, degrees in ((Stratum((2,)), (3, 4, 5)), (Stratum((1, 1)), (4, 5))):
        for d in degrees:
            for o in map(Origami.from_key, enumerate_origamis(d, stratum)):
                inv = hyperelliptic_involution(o)
                assert inv is not None, (stratum, d, o)
                assert inv.fixed_point_count == 6


def test_involution_rejects_low_genus():
    with pytest.raises(InputError):
        hyperelliptic_involution(Origami.from_text("r=(); u=(); d=1"))


# -- the drawing oracle's quadratic form --------------------------------------

def test_turning_number_of_straight_loops():
    o = origami(WOLLMILCHSAU)
    row = make_cycle(o, 0, [0, 0, 0, 0])  # once around the bottom row
    assert turning_number(row) == 0
    assert cycle_form_value(o, row) == 1  # simple flat loop: q = 0 + 1


@pytest.mark.parametrize(
    "start,word",
    [
        (0, []),  # empty word
        (0, [-1, 1]),  # not a move
        (0, [N, 7]),  # not a move, though N then S would close
        (8, [E] * 4),  # start past the last square
        (-1, [E] * 4),
    ],
)
def test_make_cycle_rejects_bad_words(start, word):
    with pytest.raises(InputError):
        make_cycle(origami(WOLLMILCHSAU), start, word)


def test_make_cycle_rejects_open_and_trivial_words():
    o = origami(WOLLMILCHSAU)
    with pytest.raises(InputError, match="not closed"):
        make_cycle(o, 0, [E])
    with pytest.raises(InputError, match="trivial loop"):
        make_cycle(o, 0, [N, S])


def test_crossing_parity_symmetric():
    o = origami(TEN_44_EVEN)
    cycles = fundamental_cycles(o)
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            assert crossing_parity(o, cycles[i], cycles[j]) == crossing_parity(
                o, cycles[j], cycles[i]
            )


def _splice(o, c1, c2):
    """Join two cycles at a shared square: the class of the result is the
    sum of the classes."""
    shared = set(c1.squares) & set(c2.squares)
    if not shared:
        return None
    s = min(shared)
    i = c1.squares.index(s)
    j = c2.squares.index(s)
    word = list(c1.moves[i:] + c1.moves[:i] + c2.moves[j:] + c2.moves[:j])
    return make_cycle(o, s, word)


def test_form_is_quadratic_under_splicing():
    # q(x + y) = q(x) + q(y) + <x, y> exercises winding, self-crossing and
    # pairing computations together
    for text in (WOLLMILCHSAU, TEN_44_EVEN, TEN_44_ODD):
        o = origami(text)
        cycles = fundamental_cycles(o)
        checked = 0
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                spliced = _splice(o, cycles[i], cycles[j])
                if spliced is None:
                    continue
                checked += 1
                lhs = cycle_form_value(o, spliced)
                rhs = (
                    cycle_form_value(o, cycles[i])
                    + cycle_form_value(o, cycles[j])
                    + crossing_parity(o, cycles[i], cycles[j])
                ) % 2
                assert lhs == rhs, (text, i, j)
        assert checked > 10


SPIN_ANCHORS = (ELEVEN_10_ODD, ELEVEN_10_EVEN, TEN_44_EVEN, TEN_44_ODD)


def _with_conjugates(texts, count=5, seed=29):
    """Each origami followed by ``count`` random relabellings of it."""
    rng = random.Random(seed)
    for text in texts:
        o = origami(text)
        yield o
        for _ in range(count):
            sig = random_permutation(o.degree, rng)
            yield Origami(conjugate(o.right, sig), conjugate(o.up, sig))


def test_joint_drawing_matches_small_drawings():
    # offsets in the joint drawing follow cycle order, so every pair and
    # every single cycle must come out as in a drawing of its own
    for o in _with_conjugates(SPIN_ANCHORS):
        cycles = fundamental_cycles(o)
        gram, self_crossings = _intersections(cycles)
        for i, ci in enumerate(cycles):
            assert gram[i][i] == 0
            assert self_crossings[i] == _intersections([ci])[1][0]
            for j, cj in enumerate(cycles):
                if i != j:
                    assert gram[i][j] == crossing_parity(o, ci, cj) == crossing_parity(o, cj, ci)


def _majority_parity(o) -> str:
    """Arf invariant by counting: q is 1 on more than half of H_1(X; Z/2)
    exactly when the form is odd.  The generators may be dependent, but
    every class is hit equally often by the 2^n generator combinations
    and the radical carries q = 0, so counting over combinations is fair."""
    cycles = fundamental_cycles(o)
    n = len(cycles)
    q = [cycle_form_value(o, c) for c in cycles]
    rows = [
        sum(crossing_parity(o, ci, cj) << j for j, cj in enumerate(cycles) if j != i)
        for i, ci in enumerate(cycles)
    ]
    # q(x + y) = q(x) + q(y) + <x, y>, adding one generator at a time
    values = [0] * (1 << n)
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        values[mask] = values[rest] ^ q[top] ^ ((rows[top] & rest).bit_count() & 1)
    return "odd" if 2 * sum(values) > len(values) else "even"


def test_spin_parity_matches_counting_oracle():
    for o in _with_conjugates(SPIN_ANCHORS + (FIG1,)):
        assert o.degree + 1 <= 12
        assert spin_parity(o) == _majority_parity(o)


EVEN_STRATA = ((2,), (4,), (2, 2), (6,), (4, 2), (2, 2, 2))


def _classes(strata, dmax):
    for orders in strata:
        for d in range(1, dmax + 1):
            yield from map(Origami.from_key, scanned_classes(d, orders))


def test_spin_parity_matches_drawing_on_small_classes():
    # every class of the even strata through genus four with d <= 7
    classes = list(_classes(EVEN_STRATA, 7))
    assert len(classes) == 3086
    for o in classes:
        assert spin_parity(o) == drawn_parity(o), o


def test_tree_cycle_form_matches_drawing():
    # the simple cycles, handed to the oracle as move words, come out of
    # its reduction unchanged, cross themselves nowhere, and carry the
    # same Gram rows and form values as the crossing table gives
    for o in _classes(EVEN_STRATA, 7):
        cycles = components._tree_cycles(components._moves(o))
        rows, q = components._form_rows(cycles, o.degree)
        drawn = [make_cycle(o, squares[0], word) for squares, word in cycles]
        assert [(c.squares, c.moves) for c in drawn] == [
            (tuple(squares), tuple(word)) for squares, word in cycles
        ]
        gram, self_crossings = _intersections(drawn)
        assert rows == [sum(b << j for j, b in enumerate(row)) for row in gram]
        assert not any(self_crossings)
        assert q == [cycle_form_value(o, c) for c in drawn]


def _unfiltered_involution(o):
    """The involution search trying every seed: its sigma and its
    quotient orders, sorted as the signature sorts them."""
    moves = components._moves(o)
    vertex_of, sizes = corner_walk(moves[E], moves[N])
    for seed in range(o.degree):
        sigma = components._propagate_involution(moves, seed)
        if sigma is None:
            continue
        orders = components._quotient_orders(moves, sigma, vertex_of, sizes)
        if sum(m % 2 for m in orders) == 2 * o.genus() + 2:
            return [x + 1 for x in sigma], sorted(orders, reverse=True)
    return None


def test_involution_seed_filter_changes_nothing():
    # every involution found is the first of all seeds, and the double
    # cover of its quotient signature is the origami's own stratum
    genus_2_and_3 = ((2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    found = 0
    for o in _classes(genus_2_and_3, 7):
        inv = hyperelliptic_involution(o)
        expected = _unfiltered_involution(o)
        if inv is None:
            assert expected is None, o
        else:
            assert expected == (list(inv.sigma.images), list(inv.quotient.orders)), o
            assert double_cover_stratum(inv.quotient) == (o.stratum(), o.genus()), o
            found += 1
    assert found > 1000


def _zeros_exchanged(o, sigma) -> bool:
    """Whether the flat involution swaps the two cone points of ``o``:
    the exchange rule the one-order rule replaced, on its own corner
    walk.  ``sigma`` is 0-based."""
    rz, uz = o.right.zero_based(), o.up.zero_based()
    vertex_of, sizes = corner_walk(rz, uz)
    zeros = [v for v, size in enumerate(sizes) if size >= 2]
    assert len(zeros) == 2
    slot = vertex_of.index(zeros[0])
    return vertex_of[uz[rz[sigma[slot]]]] == zeros[1]


def test_one_order_rule_matches_the_exchange_rule():
    # for two zeros of equal order the hyperelliptic component is the
    # one whose involution swaps them
    checked = 0
    for o in _classes(((1, 1), (2, 2), (3, 3)), 8):
        inv = hyperelliptic_involution(o)
        if inv is None:
            assert not in_hyperelliptic_component(o)
            continue
        sigma = [x - 1 for x in inv.sigma.images]
        assert in_hyperelliptic_component(o, inv) == _zeros_exchanged(o, sigma), o
        checked += 1
    assert checked == 2637


LOCUS_STRATA = (
    (2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    (6,), (5, 1), (4, 2), (3, 3), (3, 2, 1), (2, 2, 2), (4, 1, 1),
)


def _locus_oracle(strata, d_max) -> int:
    """Check L = hyperelliptic_locus_L(quotient) on every orbit of the
    strata up to ``d_max`` whose representative has a hyperelliptic
    involution; returns how many orbits were checked."""
    checked = 0
    for orders in strata:
        for d, oc in scanned_orbits_by_degree(orders, d_max):
            inv = hyperelliptic_involution(oc.representative)
            if inv is not None:
                assert hyperelliptic_locus_L(inv.quotient) == oc.summary.L, (orders, d)
                checked += 1
    return checked


def test_locus_oracle():
    assert _locus_oracle(LOCUS_STRATA, 9) == 153


@pytest.mark.slow
def test_locus_oracle_at_degree_10():
    more = ((2, 2, 1, 1), (3, 1, 1, 1), (8,), (6, 2), (5, 3), (4, 4))
    assert _locus_oracle(LOCUS_STRATA + more, 10) == 301


# -- spin parity ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        (ELEVEN_10_ODD, "odd"),
        (ELEVEN_10_EVEN, "even"),
        (TEN_44_EVEN, "even"),
        (TEN_44_ODD, "odd"),
    ],
)
def test_spin_parity_anchors(text, expected):
    assert spin_parity(origami(text)) == expected


def test_spin_parity_undefined_for_odd_orders():
    with pytest.raises(InputError):
        spin_parity(origami(WOLLMILCHSAU))  # stratum (1,1,1,1)
    with pytest.raises(InputError):
        spin_parity(origami(TEN_411))  # stratum (4,1,1)


def test_spin_parity_invariant_under_conjugation():
    rng = random.Random(13)
    o = origami(TEN_44_ODD)
    base = spin_parity(o)
    for _ in range(8):
        sig = random_permutation(o.degree, rng)
        conj = Origami(conjugate(o.right, sig), conjugate(o.up, sig))
        assert spin_parity(conj) == base


def test_spin_parity_invariant_under_group_action():
    for text, expected in ((TEN_44_EVEN, "even"), (ELEVEN_10_ODD, "odd")):
        x = origami(text)
        for k in range(6):
            x = act_T(x) if k % 2 == 0 else act_S(x)
            assert spin_parity(x) == expected


def test_arf_independent_of_generator_order():
    # shuffling the fundamental cycles must not change the Arf invariant;
    # exercised indirectly by shuffling the squares (which permutes the
    # spanning tree and hence the generator set wholesale)
    rng = random.Random(17)
    o = origami(ELEVEN_10_EVEN)
    seen = set()
    for _ in range(10):
        sig = random_permutation(o.degree, rng)
        conj = Origami(conjugate(o.right, sig), conjugate(o.up, sig))
        seen.add(spin_parity(conj))
    assert seen == {"even"}


# -- component labels -------------------------------------------------------------------

def test_label_fig1():
    label = component_label(origami(FIG1))
    assert label.kind == "hyperelliptic"
    assert label.parity == "odd"  # O(p) with one Weierstrass section
    assert label.involution is not None


@pytest.mark.parametrize(
    "text", [FIG1, ELEVEN_10_ODD, "r=(2 3)(4 5); u=(1 2)(3 4)(5 6); d=6", TEN_411]
)
def test_label_computes_the_stratum_once(monkeypatch, text):
    # the involution search, the spin parity and the hyperelliptic
    # component test all need the stratum; one corner walk gives it, once
    # per origami.  The involution search walks once however many seeds
    # propagate (two do for the (2,2) case), and the component test reads
    # the quotient signature that walk gave.  No step builds the
    # commutator.
    o = origami(text)
    walks = []
    for module in (origami_module, components):
        walk = module.corner_walk

        def counted(rz, uz, walk=walk, name=module.__name__):
            walks.append(name)
            return walk(rz, uz)

        monkeypatch.setattr(module, "corner_walk", counted)

    def forbidden(*args):
        raise AssertionError("the label built a commutator")

    # the library binds compose only in the permutation module
    monkeypatch.setattr(permutation, "compose", forbidden)
    component_label(o)
    assert walks.count("flatlyap.origami") == 1
    assert walks.count("flatlyap.components") == 1


def test_label_ten_odd_even():
    assert component_label(origami(ELEVEN_10_ODD)).kind == "odd"
    assert component_label(origami(ELEVEN_10_EVEN)).kind == "even"


def test_label_411_connected():
    label = component_label(origami(TEN_411))
    assert label.kind == "connected"
    assert label.involution is None
    assert label.parity is None


def test_label_wollmilchsau_connected():
    assert component_label(origami(WOLLMILCHSAU)).kind == "connected"


def test_fixed_zero_hyperelliptic_curves_sit_in_the_odd_component():
    # a hyperelliptic curve whose involution fixes both double zeros is
    # *not* in the hyperelliptic component of (2,2): the label must be
    # odd while still reporting the involution
    found = 0
    for o in map(Origami.from_key, enumerate_origamis(6, Stratum((2, 2)))):
        label = component_label(o)
        if label.kind != "hyperelliptic" and label.involution is not None:
            assert label.kind == "odd"
            found += 1
    assert found > 0


def test_label_nonhyperelliptic_for_odd_pairs():
    # (3,3) splits into hyperelliptic and nonhyperelliptic components;
    # an origami without involution must land in the latter
    found = None
    for o in map(Origami.from_key, enumerate_origamis(8, Stratum((3, 3)))):
        if hyperelliptic_involution(o) is None:
            found = o
            break
    assert found is not None
    assert component_label(found).kind == "nonhyperelliptic"


def _labels_constant_on_orbits(strata, d) -> int:
    """Check that every member of every orbit of the strata at degree
    ``d`` gets the same label kind; returns how many classes were read."""
    classes = 0
    for orders in strata:
        for oc in scanned_orbits(d, orders):
            members = oc.members
            kinds = {component_label(Origami.from_key(k)).kind for k in members}
            assert len(kinds) == 1, (orders, oc.representative, kinds)
            classes += len(members)
    return classes


def test_label_constant_on_orbit():
    o = origami(NINE_SQUARE_MAX)
    base = component_label(o).kind
    x = o
    for k in range(6):
        x = act_T(x) if k % 2 else act_S(x)
        assert component_label(x).kind == base
    assert _labels_constant_on_orbits(((6,), (4, 2), (2, 2, 2)), 8) == 14300


@pytest.mark.slow
def test_label_constant_on_orbit_at_degree_9():
    assert _labels_constant_on_orbits(((6,), (4, 2), (2, 2, 2)), 9) == 89457


def test_hyperelliptic_parity():
    # a hyperelliptic-component orbit has spin parity floor((g+1)/2)
    # mod 2 (Kontsevich-Zorich)
    checked = 0
    for orders, d_max in (((2,), 10), ((4,), 10), ((2, 2), 9), ((6,), 9)):
        s = Stratum(orders)
        expected = ("even", "odd")[(s.genus + 1) // 2 % 2]
        for d, oc in scanned_orbits_by_degree(orders, d_max):
            label = component_label(oc.representative)
            if label.kind == "hyperelliptic":
                assert label.parity == expected, (orders, d, oc.representative)
                checked += 1
    assert checked == 78


def test_label_json():
    payload = component_label(origami(FIG1)).to_json()
    assert payload["component"] == "hyperelliptic"
    assert payload["parity"] == "odd"
    assert isinstance(payload["involution"], list)
