import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlyap.errors import InputError
from flatlyap.moduli import (
    DivisorClass,
    MarkedStratum,
    QuadSignature,
    brill_noether_number,
    catalog_divisor,
    double_cover_stratum,
    extremality_check,
    hyperelliptic_component_L,
    hyperelliptic_locus_L,
    intersection_with_ratios,
    logan_divisor,
    L_from_slope,
    omega_ratio,
    slope_bound,
    slope_from_disjoint_divisor,
    spin_slope,
    stratum_table,
)
from flatlyap.origami import Stratum, kappa

F = Fraction


def slope_from_L(s: Stratum, L) -> Fraction:
    """s = 12 - 12 kappa / L, the inverse of ``L_from_slope``."""
    L = Fraction(L)
    if L <= 0:
        raise InputError(f"L must be positive, got {L}")
    return 12 - 12 * kappa(s) / L


def hyperelliptic_component_slope(g: int) -> Fraction:
    """Both hyperelliptic components share the slope 8 + 4/g."""
    return 8 + Fraction(4, g)


def class_slope(D: DivisorClass) -> Fraction:
    """a / (-b0), the slope of an unmarked class a*lambda + b0*delta_0."""
    if any(D.c):
        raise InputError("a class slope is for unmarked classes only")
    if D.b0 >= 0:
        raise InputError("a class slope needs a negative delta_0 coefficient")
    return D.a / (-D.b0)


# -- quadratic signatures ------------------------------------------------------

def test_signature_parse():
    q = QuadSignature.parse("2,2,-1^8")
    assert q.orders == (2, 2) + (-1,) * 8
    assert str(QuadSignature.parse("(3, 1, -1^8)")) == "(3,1,-1,-1,-1,-1,-1,-1,-1,-1)"
    for text in ("2,2,-1^8,7^0", "2,2,-1^8,3^-2", "-1^0"):
        with pytest.raises(InputError, match="repeat count"):
            QuadSignature.parse(text)


def test_signature_validation():
    with pytest.raises(InputError):
        QuadSignature((2, 2, -1))  # sums to 3, not -4
    with pytest.raises(InputError):
        QuadSignature((0, -1, -1, -1, -1))  # order zero is not a singularity
    with pytest.raises(InputError):
        QuadSignature((-2, -2))  # below simple poles


# -- hyperelliptic locus formula --------------------------------------------------

@pytest.mark.parametrize(
    "sig,value",
    [
        ("2,2,-1^8", F(2)),
        ("3,2,-1^9", F(23, 10)),
        ("1,-1^5", F(4, 3)),
        ("5,1,-1^10", F(55, 21)),
        ("2,2,2,2,-1^12", F(3)),
        ("4,1,-1^9", F(7, 3)),
        ("3,1,-1^8", F(32, 15)),
    ],
)
def test_hyperelliptic_locus_values(sig, value):
    assert hyperelliptic_locus_L(QuadSignature.parse(sig)) == value


def test_hyperelliptic_locus_needs_genus_zero():
    q = QuadSignature((1, 1, 1, -1, -1, -1), quotient_genus=1)
    with pytest.raises(InputError):
        hyperelliptic_locus_L(q)


# -- double cover -------------------------------------------------------------------

def test_double_cover_families():
    for g in range(2, 9):
        s, genus = double_cover_stratum(
            QuadSignature([2 * g - 3] + [-1] * (2 * g + 1))
        )
        assert s.orders == (2 * g - 2,) and genus == g
        s, genus = double_cover_stratum(
            QuadSignature([2 * g - 2] + [-1] * (2 * g + 2))
        )
        assert s.orders == (g - 1, g - 1) and genus == g


def test_double_cover_mixed():
    s, g = double_cover_stratum(QuadSignature.parse("3,2,-1^9"))
    assert s.orders == (4, 1, 1) and g == 4


def test_double_cover_rejects_global_square():
    with pytest.raises(InputError):
        double_cover_stratum(QuadSignature((2, 2, 4, -2, -2)))


# -- hyperelliptic component closed forms ----------------------------------------------

def test_component_values():
    assert hyperelliptic_component_L(4, "single_zero") == F(16, 7)
    assert hyperelliptic_component_L(5, "two_zeros") == F(3)
    assert hyperelliptic_component_slope(3) == F(28, 3)
    with pytest.raises(InputError):
        hyperelliptic_component_L(3, "three_zeros")


def test_component_formulas_match_locus_formula():
    for g in range(2, 21):
        single = QuadSignature([2 * g - 3] + [-1] * (2 * g + 1))
        double = QuadSignature([2 * g - 2] + [-1] * (2 * g + 2))
        assert hyperelliptic_component_L(g, "single_zero") == hyperelliptic_locus_L(single)
        assert hyperelliptic_component_L(g, "two_zeros") == hyperelliptic_locus_L(double)
        # both components share the slope 8 + 4/g
        for kind in ("single_zero", "two_zeros"):
            L = hyperelliptic_component_L(g, kind)
            s = (
                Stratum((2 * g - 2,)) if kind == "single_zero"
                else Stratum((g - 1, g - 1))
            )
            assert slope_from_L(s, L) == hyperelliptic_component_slope(g)


# -- Brill-Noether numbers ----------------------------------------------------------------

def test_brill_noether_numbers():
    assert brill_noether_number(5, 1, 3) == -1
    assert brill_noether_number(3, 1, 3, (1, 2)) == -1
    assert brill_noether_number(4, 1, 3) == 0


# -- divisor classes -------------------------------------------------------------------------

def test_logan_divisor_instances():
    assert logan_divisor(3, (1, 2)).c == (F(1), F(3))
    assert logan_divisor(4, (1, 1, 2)).c == (F(1), F(1), F(3))
    assert logan_divisor(4, (2, 2)).c == (F(3), F(3))
    d = logan_divisor(3, (1, 2))
    assert d.a == -1 and d.b0 == 0


def test_logan_divisor_weight_sum_checked():
    with pytest.raises(InputError):
        logan_divisor(4, (1, 2))


def test_catalog_entries():
    h = catalog_divisor("H", 3)
    assert (h.a, h.c, h.b0) == (F(9), (), F(-1))
    assert class_slope(h) == 9
    theta = catalog_divisor("Theta", 4)
    assert (theta.a, theta.c, theta.b0) == (F(30), (F(60),), F(-4))
    gp = catalog_divisor("GP", 4)
    assert class_slope(gp) == F(17, 2)
    w = catalog_divisor("W", 3)
    assert (w.a, w.c, w.b0) == (F(-1), (F(6),), F(0))


def test_catalog_errors():
    with pytest.raises(InputError):
        catalog_divisor("nothere", 3)
    with pytest.raises(InputError):
        catalog_divisor("H", 4)
    with pytest.raises(InputError):
        catalog_divisor("logan", 3)  # logan needs weights
    for name in ("H", "D1", "D2"):
        with pytest.raises(InputError, match="no weights"):
            catalog_divisor(name, 3, (1, 2))  # and no other name takes them


def test_catalog_builds_logan():
    assert catalog_divisor("logan", 4, (1, 1, 2)) == logan_divisor(4, (1, 1, 2))


def test_slope_only_for_unmarked():
    with pytest.raises(InputError):
        class_slope(catalog_divisor("Theta", 4))


# -- omega ratios ------------------------------------------------------------------------------

def test_omega_ratio_single_zero_six():
    ms = MarkedStratum(Stratum((6,)), (1,))
    alpha, beta = omega_ratio(ms, 1)
    assert alpha == F(1, 4) and beta == F(-1, 48)


def test_omega_ratio_211():
    ms = MarkedStratum(Stratum((2, 1, 1)), (1, 2))
    alpha, beta = omega_ratio(ms, 1)
    assert alpha == F(12, 17) and beta == F(-1, 17)


def test_omega_ratio_51():
    ms = MarkedStratum(Stratum((5, 1)), (1,))
    alpha, _ = omega_ratio(ms, 1)
    assert 1 / alpha == F(11, 3)


def test_marked_stratum_validation():
    with pytest.raises(InputError):
        MarkedStratum(Stratum((2, 1, 1)), (4,))
    with pytest.raises(InputError):
        MarkedStratum(Stratum((2, 1, 1)), (1, 1))


# -- the slope solver ---------------------------------------------------------------------------

SOLVER_CASES = [
    # stratum, marks, (divisor name, weights), expected slope, expected L
    ((4,), (), ("H", ()), F(9), F(8, 5)),
    ((3, 1), (), ("H", ()), F(9), F(7, 4)),
    ((2, 1, 1), (1, 2), ("logan", (1, 2)), F(98, 11), F(11, 6)),
    ((6,), (1,), ("Theta", ()), F(60, 7), F(2)),
    ((6,), (1,), ("BN1_3_(2)", ()), F(108, 13), F(13, 7)),
    ((5, 1), (1,), ("BN1_3_(2)", ()), F(25, 3), F(2)),
    ((3, 3), (1, 2), ("Lin1_3", ()), F(33, 4), F(2)),
    ((3, 2, 1), (1, 2, 3), ("logan", (1, 1, 2)), F(41, 5), F(25, 12)),
    ((8,), (), ("BN1_3", ()), F(8), F(20, 9)),
    ((8,), (1,), ("Nfold1", ()), F(148, 19), F(19, 9)),
    ((5, 3), (1, 2), ("Nfold2", ()), F(209, 27), F(9, 4)),
]


@pytest.mark.parametrize("stratum,marks,divisor,slope,L", SOLVER_CASES)
def test_slope_solver(stratum, marks, divisor, slope, L):
    ms = MarkedStratum(Stratum(stratum), marks)
    name, weights = divisor
    D = catalog_divisor(name, Stratum(stratum).genus, weights)
    got_s, got_L, got_c = slope_from_disjoint_divisor(ms, D)
    assert got_s == slope
    assert got_L == L
    assert got_c == L - kappa(Stratum(stratum))


def test_spin_slope_values():
    assert spin_slope(3) == F(44, 5)
    assert spin_slope(4) == 8
    assert spin_slope(2) == 10
    assert L_from_slope(Stratum((2, 2)), spin_slope(3)) == F(5, 3)
    assert L_from_slope(Stratum((2, 2, 2)), spin_slope(4)) == F(2)


def test_spin_slope_matches_pushforward_class():
    # the underlying relation (g+8) lambda - ((g+2)/4) delta_0 solved as an
    # unmarked disjoint class must reproduce the closed form
    for g in range(2, 12):
        stratum = Stratum((2,) * (g - 1))
        cls = DivisorClass(g + 8, (), F(-(g + 2), 4))
        s, _, _ = slope_from_disjoint_divisor(MarkedStratum(stratum, ()), cls)
        assert s == spin_slope(g)
        assert s == class_slope(cls)


def test_unmarked_solver_degenerates_to_class_slope():
    rng = random.Random(11)
    for _ in range(20):
        a = F(rng.randint(1, 30))
        b0 = F(-rng.randint(1, 5))
        cls = DivisorClass(a, (), b0)
        if not 0 < a / -b0 < 12:
            continue
        s, _, _ = slope_from_disjoint_divisor(
            MarkedStratum(Stratum((2,)), ()), cls
        )
        assert s == class_slope(cls)


def test_solver_rejects_degenerate_divisor():
    ms = MarkedStratum(Stratum((2, 2)), ())
    with pytest.raises(InputError):
        slope_from_disjoint_divisor(ms, DivisorClass(5, (), 0))


def test_solver_rejects_out_of_range_slope():
    ms = MarkedStratum(Stratum((2,)), ())
    with pytest.raises(InputError):
        slope_from_disjoint_divisor(ms, DivisorClass(13, (), -1))


def test_solver_mark_count_mismatch():
    ms = MarkedStratum(Stratum((3, 1)), (1,))
    with pytest.raises(InputError):
        slope_from_disjoint_divisor(ms, catalog_divisor("H", 3))


BOUND_CASES = [
    ((1, 1, 1, 1), (), ("H", ()), F(2)),
    ((2, 2, 2), (), ("GP", ()), F(16, 7)),
    ((4, 1, 1), (1, 2), ("logan", (2, 2)), F(21, 10)),
    ((2, 2, 1, 1), (1, 2, 3), ("logan", (1, 1, 2)), F(13, 6)),
    ((2, 1, 1, 1, 1), (1, 2, 3), ("logan", (1, 2, 1)), F(7, 3)),
    ((3, 1, 1, 1), (1, 2, 3), ("logan", (1, 2, 1)), F(9, 4)),
    ((1, 1, 1, 1, 1, 1), (1, 2, 3), ("logan", (1, 2, 1)), F(5, 2)),
]


@pytest.mark.parametrize("stratum,marks,divisor,bound", BOUND_CASES)
def test_slope_bounds(stratum, marks, divisor, bound):
    ms = MarkedStratum(Stratum(stratum), marks)
    name, weights = divisor
    _, L_max = slope_bound(ms, catalog_divisor(name, Stratum(stratum).genus, weights))
    assert L_max == bound


# -- L and slope conversions ----------------------------------------------------------------------

def test_conversions():
    assert L_from_slope(Stratum((4,)), 9) == F(8, 5)
    assert slope_from_L(Stratum((1, 1, 1, 1)), F(53, 28)) == F(468, 53)
    with pytest.raises(InputError):
        L_from_slope(Stratum((4,)), 12)
    with pytest.raises(InputError):
        slope_from_L(Stratum((4,)), 0)


@settings(max_examples=50)
@given(
    st.fractions(min_value=F(1, 100), max_value=F(119, 10)),
    st.sampled_from([(2,), (4,), (3, 1), (2, 2, 2), (8,)]),
)
def test_conversion_round_trip(slope, orders):
    s = Stratum(orders)
    assert slope_from_L(s, L_from_slope(s, slope)) == slope


# -- extremality -----------------------------------------------------------------------------------

def test_extremality_all_genera():
    for g in range(2, 21):
        assert extremality_check(g)


def test_extremality_perturbation_fails():
    g = 5
    d1 = catalog_divisor("D1", g)
    perturbed = DivisorClass(d1.a + 1, d1.c, d1.b0)
    value = intersection_with_ratios(
        perturbed, F(g * g), (F(1),), F(4 * g * (2 * g + 1))
    )
    assert value != 0
    # and the unperturbed class pairs to zero
    assert intersection_with_ratios(
        d1, F(g * g), (F(1),), F(4 * g * (2 * g + 1))
    ) == 0


def test_d2_pairs_to_zero():
    for g in (2, 5, 9):
        d2 = catalog_divisor("D2", g)
        value = intersection_with_ratios(
            d2,
            F(g * (g + 1), 4),
            (F(1, 2), F(1, 2)),
            F((g + 1) * (2 * g + 1)),
        )
        assert value == 0


# -- the summary table -------------------------------------------------------------------------------

def test_table_genus3():
    rows = {
        (str(r.stratum), r.component): r for r in stratum_table(3)
    }
    assert rows[("(4)", "hyperelliptic")].L == F(9, 5)
    assert rows[("(4)", "odd")].L == F(8, 5)
    assert rows[("(3,1)", "connected")].L == F(7, 4)
    assert rows[("(2,2)", "hyperelliptic")].L == F(2)
    assert rows[("(2,2)", "odd")].L == F(5, 3)
    assert rows[("(2,1,1)", "connected")].L == F(11, 6)
    principal = rows[("(1,1,1,1)", "connected")]
    assert principal.status == "varying" and principal.bound == F(2)


def test_table_genus4():
    rows = {
        (str(r.stratum), r.component): r for r in stratum_table(4)
    }
    assert rows[("(3,2,1)", "connected")].L == F(25, 12)
    assert rows[("(6)", "even")].L == F(2)
    assert rows[("(4,2)", "even")].status == "conjectured"
    assert rows[("(4,2)", "even")].L == F(32, 15)
    assert rows[("(4,1,1)", "connected")].bound == F(21, 10)


def test_table_genus5():
    rows = {
        (str(r.stratum), r.component): r for r in stratum_table(5)
    }
    assert rows[("(8)", "even")].L == F(20, 9)
    assert rows[("(8)", "odd")].L == F(19, 9)
    assert rows[("(5,3)", "connected")].L == F(9, 4)
    assert rows[("(8)", "hyperelliptic")].L == F(25, 9)
    assert rows[("(4,4)", "hyperelliptic")].L == F(3)
    assert rows[("(6,2)", "odd")].status == "conjectured"


def test_table_rejects_other_genus():
    with pytest.raises(InputError):
        stratum_table(6)
