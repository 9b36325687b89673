"""Acceptance suite: one section per criterion, exact equalities only.

Expectations come from the shared golden fixture so that nothing is
hard-coded here; each criterion reports a PASS/FAIL line in the terminal
summary (see conftest).
"""
import random
from fractions import Fraction

import pytest

from flatlyap import golden
from flatlyap.components import component_label, hyperelliptic_involution, spin_parity
from flatlyap.enumeration import enumerate_origamis
from flatlyap.origami import Origami, Stratum
from flatlyap.orbits import horizontal_cylinders, lyapunov_sum, orbit

from conftest import (
    ELEVEN_10_EVEN,
    ELEVEN_10_ODD,
    FIG1,
    NINE_SQUARE_MAX,
    TEN_3111,
    TEN_411,
    TEN_44_EVEN,
    TEN_44_ODD,
    WOLLMILCHSAU,
    canonical_form,
    conjugate,
    origami,
    random_permutation,
    record_acceptance,
)

F = Fraction
CHECKS = golden.load_golden()


def by_kind(kind):
    return [c for c in CHECKS if c.kind == kind]


def run_and_record(number, name, checks, cache=None):
    failures = []
    for check in checks:
        result = golden.run_check(check, cache=cache)
        if not result.ok:
            failures.append(result.diff_line())
    record_acceptance(number, name, not failures)
    assert not failures, "\n".join(failures)


# -- criterion 1: named-origami Lyapunov sums --------------------------------------

def test_criterion_1_fast_origamis():
    checks = [c for c in by_kind("lyap") if c.fields.get("slow") != "1"]
    assert len(checks) >= 5
    run_and_record(1, "named-origami Lyapunov sums", checks)


@pytest.mark.slow
def test_criterion_1_large_orbits():
    checks = [c for c in by_kind("lyap") if c.fields.get("slow") == "1"]
    assert len(checks) == 3
    run_and_record(1, "named-origami Lyapunov sums", checks)


# -- criterion 2: slope solver table -------------------------------------------------

def test_criterion_2_slopes():
    checks = by_kind("slope")
    assert len(checks) == 13
    run_and_record(2, "slope-solver table", checks)


# -- criterion 3: upper bounds --------------------------------------------------------

def test_criterion_3_bounds():
    checks = by_kind("bound")
    assert len(checks) == 7
    run_and_record(3, "upper bounds", checks)


# -- criterion 4: hyperelliptic formulas ------------------------------------------------

def test_criterion_4_loci_and_closed_forms():
    checks = by_kind("hyploc") + by_kind("hypclosed")
    assert len(checks) >= 40
    run_and_record(4, "hyperelliptic formulas", checks)


# -- criterion 5: component classification ----------------------------------------------

def test_criterion_5_named_components():
    run_and_record(5, "component classification", by_kind("component"))


def test_criterion_5_every_genus2_origami_hyperelliptic():
    ok = True
    for stratum, degrees in ((Stratum((2,)), (3, 4, 5, 6)), (Stratum((1, 1)), (4, 5, 6))):
        for d in degrees:
            for o in map(Origami.from_key, enumerate_origamis(d, stratum)):
                if hyperelliptic_involution(o) is None:
                    ok = False
    record_acceptance(5, "component classification", ok)
    assert ok


# -- criterion 6: non-varying enumeration (desk scale) ------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize(
    "check_id",
    [
        "g3/enum/3-1",
        "g3/enum/2-2-odd",
        "g3/enum/2-2-hyp",
        "g2/enum/minimal-stratum",
        "g3/enum/principal",
    ],
)
def test_criterion_6_enumeration(check_id):
    checks = [c for c in CHECKS if c.id == check_id]
    assert len(checks) == 1
    run_and_record(6, "non-varying enumeration", checks)


# -- criterion 7: consistency sweep ----------------------------------------------------------

def test_criterion_7_quoted_triples():
    checks = by_kind("triple")
    assert len(checks) == 23
    run_and_record(7, "consistency sweep", checks)


# -- criterion 8: extremality ------------------------------------------------------------------

def test_criterion_8_extremality():
    checks = by_kind("extremal")
    assert len(checks) == 19  # genus 2..20
    run_and_record(8, "extremality", checks)


# -- criterion 9: property suites ----------------------------------------------------------------

def test_criterion_9_orbit_invariance():
    ok = True
    for text in (FIG1, WOLLMILCHSAU, NINE_SQUARE_MAX):
        o = origami(text)
        base = lyapunov_sum(o)
        label = component_label(o).kind
        members = orbit(o)
        sample = members if len(members) <= 12 else members[::
            max(1, len(members) // 12)]
        for member in sample:
            ok = ok and lyapunov_sum(member) == base
            ok = ok and member.stratum() == o.stratum()
            ok = ok and component_label(member).kind == label
    record_acceptance(9, "property suites", ok)
    assert ok


def test_criterion_9_cylinder_areas():
    ok = True
    for text in (FIG1, WOLLMILCHSAU, TEN_411, TEN_3111, TEN_44_EVEN):
        o = origami(text)
        for member in orbit(o)[:200]:
            ok = ok and horizontal_cylinders(member).total_area == o.degree
    record_acceptance(9, "property suites", ok)
    assert ok


def test_criterion_9_arf_basis_independence():
    rng = random.Random(23)
    ok = True
    for text, expected in (
        (TEN_44_EVEN, "even"),
        (TEN_44_ODD, "odd"),
        (ELEVEN_10_ODD, "odd"),
        (ELEVEN_10_EVEN, "even"),
    ):
        o = origami(text)
        for _ in range(10):
            sig = random_permutation(o.degree, rng)
            conj = Origami(conjugate(o.right, sig), conjugate(o.up, sig))
            ok = ok and spin_parity(conj) == expected
    record_acceptance(9, "property suites", ok)
    assert ok


def test_criterion_9_canonical_idempotence():
    rng = random.Random(29)
    ok = True
    count = 0
    while count < 60:
        d = rng.randint(2, 10)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        try:
            cr, cu = canonical_form(r, u)
        except Exception:
            continue
        count += 1
        ok = ok and canonical_form(cr, cu) == (cr, cu)
        sig = random_permutation(d, rng)
        ok = ok and canonical_form(conjugate(r, sig), conjugate(u, sig)) == (cr, cu)
    record_acceptance(9, "property suites", ok)
    assert ok


def test_criterion_9_brute_force_equivalence():
    # generation vs direct scan over all pairs at degree <= 5 (see
    # test_enumeration for the oracle itself)
    from test_enumeration import brute_force_classes

    ok = True
    for d, orders in ((4, (2,)), (5, (2,)), (5, (1, 1))):
        s = Stratum(orders)
        generated = set(enumerate_origamis(d, s))
        ok = ok and generated == brute_force_classes(d, s)
    record_acceptance(9, "property suites", ok)
    assert ok


