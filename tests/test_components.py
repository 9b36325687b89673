import random

import pytest

from flatlyap.components import (
    E,
    N,
    S,
    _intersections,
    component_label,
    crossing_parity,
    cycle_form_value,
    fundamental_cycles,
    hyperelliptic_involution,
    make_cycle,
    spin_parity,
    turning_number,
)
from flatlyap.enumeration import enumerate_origamis
from flatlyap.errors import InputError
from flatlyap.origami import Origami, Stratum
from flatlyap.orbits import act_S, act_T
from flatlyap.permutation import conjugate, inverse, random_permutation

from conftest import (
    ELEVEN_10_EVEN,
    ELEVEN_10_ODD,
    FIG1,
    NINE_SQUARE_MAX,
    TEN_411,
    TEN_44_EVEN,
    TEN_44_ODD,
    WOLLMILCHSAU,
    origami,
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
    assert sigma * sigma == sigma.identity(o.degree)
    assert conjugate(o.right, sigma) == inverse(o.right)
    assert conjugate(o.up, sigma) == inverse(o.up)


def test_wollmilchsau_is_not_hyperelliptic():
    assert hyperelliptic_involution(origami(WOLLMILCHSAU)) is None


def test_411_is_not_hyperelliptic():
    assert hyperelliptic_involution(origami(TEN_411)) is None


def test_every_small_genus2_origami_is_hyperelliptic():
    # genus-two surfaces are hyperelliptic without exception, so the
    # search must succeed on every origami in H(2) and H(1,1)
    for stratum, degrees in ((Stratum((2,)), (3, 4, 5)), (Stratum((1, 1)), (4, 5))):
        for d in degrees:
            for o in enumerate_origamis(d, stratum):
                inv = hyperelliptic_involution(o)
                assert inv is not None, (stratum, d, o)
                assert inv.fixed_point_count == 6


def test_involution_rejects_low_genus():
    with pytest.raises(InputError):
        hyperelliptic_involution(Origami.from_text("r=(); u=(); d=1"))


# -- quadratic form machinery ------------------------------------------------------

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
    for o in enumerate_origamis(6, Stratum((2, 2))):
        label = component_label(o)
        if label.kind != "hyperelliptic" and label.involution is not None:
            assert label.kind == "odd"
            found += 1
    assert found > 0


def test_label_nonhyperelliptic_for_odd_pairs():
    # (3,3) splits into hyperelliptic and nonhyperelliptic components;
    # an origami without involution must land in the latter
    found = None
    for o in enumerate_origamis(8, Stratum((3, 3))):
        if hyperelliptic_involution(o) is None:
            found = o
            break
    assert found is not None
    assert component_label(found).kind == "nonhyperelliptic"


def test_label_constant_on_orbit():
    o = origami(NINE_SQUARE_MAX)
    base = component_label(o).kind
    x = o
    for k in range(6):
        x = act_T(x) if k % 2 else act_S(x)
        assert component_label(x).kind == base


def test_label_json():
    payload = component_label(origami(FIG1)).to_json()
    assert payload["component"] == "hyperelliptic"
    assert payload["parity"] == "odd"
    assert isinstance(payload["involution"], list)
