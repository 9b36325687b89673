import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlyap import orbits
from flatlyap import origami as origami_module
from flatlyap.errors import DisconnectedError, InputError
from flatlyap.origami import Origami, Stratum, kappa
from flatlyap.permutation import (
    Permutation,
    cycle_type,
    is_transitive,
)

from conftest import (
    FIG1,
    TEN_411,
    TORUS,
    WOLLMILCHSAU,
    commutator,
    conjugate,
    identity,
    origami,
    random_permutation,
)


# -- construction and validation ------------------------------------------------

def test_from_text_round_trip():
    o = origami(FIG1)
    assert o.right.images == (2, 3, 4, 1, 5)
    assert o.up.images == (5, 2, 3, 4, 1)
    assert Origami.from_text(str(o)) == o


def test_from_json():
    o = Origami.from_json({"degree": 5, "right": [2, 3, 4, 1, 5], "up": [5, 2, 3, 4, 1]})
    assert o == origami(FIG1)
    assert Origami.from_json(json.dumps(o.to_json())) == o
    with pytest.raises(InputError):
        Origami.from_json({"degree": 3, "right": [1, 2], "up": [1, 2, 3]})
    with pytest.raises(InputError):
        Origami.from_json({"degree": True, "right": [1], "up": [1]})


def test_degree_mismatch_rejected():
    with pytest.raises(InputError):
        Origami(identity(3), identity(4))


def test_disconnected_rejected():
    o = Origami(identity(2), identity(2))
    with pytest.raises(DisconnectedError):
        o.validate()


def test_fig1_validates():
    assert origami(FIG1).validate() is not None


def test_connectivity_is_checked_once(monkeypatch):
    # stratum() and horizontal_cylinders both validate; the walk runs once
    calls = []

    def counted(r, u, walk=origami_module.is_transitive):
        calls.append(1)
        return walk(r, u)

    monkeypatch.setattr(origami_module, "is_transitive", counted)
    o = origami(FIG1)
    o.stratum()
    orbits.horizontal_cylinders(o)
    o.validate()
    assert len(calls) == 1


def test_out_of_range_symbols_rejected():
    # separated cycle symbols exceeding the stated degree must be
    # refused outright, never reinterpreted
    with pytest.raises(InputError):
        Origami.from_text("r=(1 2 3)(4 5 6 7 8 9 10 11 12); u=(1 11)(10 5 13)(2 7); d=12")
    with pytest.raises(InputError):
        Origami.from_text(
            "r=(1 2 3 4 5 6 7 8 9 10 11 12 13); u=(1 14)(2 4)(6 8)(10 12); d=13"
        )


def test_from_text_field_errors():
    with pytest.raises(InputError):
        Origami.from_text("r=(1 2); d=2")
    with pytest.raises(InputError):
        Origami.from_text("r=(1 2); u=(1 2); d=two")


# -- commutator -------------------------------------------------------------------

def test_commutator_fig1():
    assert commutator(origami(FIG1)) == Permutation.from_cycles("(1 5 4)", 5)
    assert cycle_type(commutator(origami(FIG1))) == (3, 1, 1)


def test_commutator_commuting_pair():
    o = Origami(Permutation.from_cycles("(1 2)", 2), Permutation.from_cycles("(1 2)", 2))
    assert commutator(o) == identity(o.degree)


def test_commutator_wollmilchsau():
    assert cycle_type(commutator(origami(WOLLMILCHSAU))) == (2, 2, 2, 2)


# -- stratum and genus ---------------------------------------------------------------

def test_stratum_fig1():
    s = origami(FIG1).stratum()
    assert s.orders == (2,) and s.genus == 2


def test_stratum_torus():
    s = origami(TORUS).stratum()
    assert s.orders == () and s.genus == 1


def test_stratum_411():
    s = origami(TEN_411).stratum()
    assert s.orders == (4, 1, 1) and s.genus == 4


def test_stratum_conjugation_invariant():
    rng = random.Random(5)
    o = origami(TEN_411)
    for _ in range(10):
        sig = random_permutation(10, rng)
        conj = Origami(conjugate(o.right, sig), conjugate(o.up, sig))
        assert conj.stratum() == o.stratum()


def test_stratum_conjugation_invariant_exhaustively_d4():
    import itertools

    elements = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    pairs = [(r, u) for r in elements for u in elements if is_transitive(r, u)]
    for r, u in pairs[::7]:
        s = Origami(r, u).stratum()
        for sig in elements:
            assert Origami(conjugate(r, sig), conjugate(u, sig)).stratum() == s


def test_euler_count_on_random_pairs():
    rng = random.Random(6)
    found = 0
    while found < 30:
        d = rng.randint(2, 12)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        if not is_transitive(r, u):
            continue
        found += 1
        o = Origami(r, u)
        s = o.stratum()
        ctype = cycle_type(commutator(o))
        assert len(ctype) - d == 2 - 2 * s.genus
        # the corner walk's vertices are the commutator's cycles
        assert s.orders == tuple(l - 1 for l in ctype if l >= 2)


# -- stratum type ---------------------------------------------------------------------

def test_stratum_sorts_and_validates():
    assert Stratum((1, 4, 1)).orders == (4, 1, 1)
    with pytest.raises(InputError):
        Stratum((0, 2))
    with pytest.raises(InputError):
        Stratum((3,))  # odd total


def test_kappa_values():
    assert kappa(Stratum((1, 1, 1, 1))) == Fraction(1, 2)
    assert kappa(Stratum((3, 3))) == Fraction(5, 8)
    assert kappa(Stratum((2, 1, 1, 1, 1))) == Fraction(13, 18)
    # single-zero strata used throughout the slope table
    assert kappa(Stratum((4,))) == Fraction(2, 5)
    assert kappa(Stratum((6,))) == Fraction(4, 7)
    assert kappa(Stratum((8,))) == Fraction(20, 27)


def test_kappa_single_zero_closed_form():
    for g in range(2, 21):
        m = 2 * g - 2
        assert kappa(Stratum((m,))) == Fraction(m * (m + 2), 12 * (m + 1))


def test_kappa_empty_stratum_rejected():
    with pytest.raises(InputError):
        kappa(Stratum(()))


@settings(max_examples=40)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_kappa_positive(orders):
    if sum(orders) % 2:
        orders.append(1)
    assert kappa(Stratum(orders)) > 0
