"""Exact divisor-class calculus on moduli spaces.

Divisor classes are stored over the basis {lambda, omega_{1,rel} ..
omega_{n,rel}, delta_0}: higher boundary classes pair to zero with the
curves of interest and are dropped outright, and psi_i is identified
with omega_{i,rel} for the same reason.  The central computation: if a
Teichmueller curve C in a stratum with constant kappa avoids a divisor

    D = a*lambda + sum_i c_i * omega_{i,rel} + b0 * delta_0

with the i-th marked point a zero of order m_i, then substituting the
intersection ratio

    C.omega_{i,rel} = (C.lambda - C.delta/12) / ((m_i + 1) kappa)

into C.D = 0 pins the slope s = C.delta / C.lambda, hence L and the
Siegel-Veech constant via L = 12 kappa / (12 - s), c = L - kappa.  If C
is merely not contained in D the same arithmetic gives an upper bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .origami import Stratum, kappa

Rat = Fraction


@dataclass(frozen=True)
class QuadSignature:
    """Orders (d_1..d_s) of a quadratic differential, d_j >= -1."""

    orders: tuple[int, ...]
    quotient_genus: int = 0

    def __init__(self, orders: Iterable[int], quotient_genus: int = 0):
        orders = tuple(sorted((int(d) for d in orders), reverse=True))
        if any(d < -1 or d == 0 for d in orders):
            raise InputError(
                f"orders must be -1 or positive integers: {orders}"
            )
        if quotient_genus < 0:
            raise InputError("quotient genus must be non-negative")
        if sum(orders) != 4 * quotient_genus - 4:
            raise InputError(
                f"orders {orders} sum to {sum(orders)}, "
                f"need {4 * quotient_genus - 4} for genus {quotient_genus}"
            )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "quotient_genus", quotient_genus)

    @classmethod
    def parse(cls, text: str, quotient_genus: int = 0) -> "QuadSignature":
        """Parse ``"2,2,-1^8"`` style signatures (``^`` for repetition)."""
        orders: list[int] = []
        for token in text.replace("(", "").replace(")", "").split(","):
            token = token.strip()
            if not token:
                continue
            base, caret, power = token.partition("^")
            try:
                orders.extend([int(base)] * (int(power) if caret else 1))
            except ValueError:
                raise InputError(f"bad signature token {token!r} in {text!r}") from None
        return cls(orders, quotient_genus)

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.orders) + ")"


def hyperelliptic_locus_L(q: QuadSignature) -> Rat:
    """Lyapunov sum over a locus of hyperelliptic flat surfaces:
    (1/4) * sum over odd d_j of 1/(d_j + 2), quotient genus zero."""
    if q.quotient_genus != 0:
        raise InputError("hyperelliptic loci live over the projective line")
    return Fraction(1, 4) * sum(
        Fraction(1, d + 2) for d in q.orders if d % 2
    )


def double_cover_stratum(q: QuadSignature) -> tuple[Stratum, int]:
    """Stratum of the orientation double cover of a signature.

    Each odd order d (including -1) is a branch point and contributes a
    single zero of order d + 1 (dropped when zero); each even order
    contributes an exchanged pair of zeros of order d/2.
    """
    odd = [d for d in q.orders if d % 2]
    if not odd:
        raise InputError(
            "all orders even: the quadratic differential is a global square"
        )
    orders: list[int] = []
    for d in q.orders:
        if d % 2:
            if d + 1 > 0:
                orders.append(d + 1)
        else:
            orders.extend([d // 2, d // 2])
    s = Stratum(orders)
    genus_rh = 2 * q.quotient_genus - 1 + len(odd) // 2
    if s.genus != genus_rh:
        raise InputError(
            f"signature {q} violates Riemann-Hurwitz: "
            f"{s.genus} != {genus_rh}"
        )
    return s, s.genus


def hyperelliptic_component_L(g: int, kind: str) -> Rat:
    """Closed forms for the two hyperelliptic stratum components:
    g^2/(2g-1) for a single zero of order 2g-2, (g+1)/2 for two zeros
    of order g-1."""
    if g < 2:
        raise InputError("needs genus >= 2")
    if kind == "single_zero":
        return Fraction(g * g, 2 * g - 1)
    if kind == "two_zeros":
        return Fraction(g + 1, 2)
    raise InputError(f"kind must be single_zero or two_zeros, got {kind!r}")


def brill_noether_number(g: int, r: int, d: int, w: Sequence[int] = ()) -> int:
    """Generalized Brill-Noether number
    rho = g - (r+1)(g-d+r) - r(|w| - 1), with |w| = 1 for no weights."""
    total = sum(w) if w else 1
    return g - (r + 1) * (g - d + r) - r * (total - 1)


@dataclass(frozen=True)
class DivisorClass:
    """a*lambda + sum c_i omega_{i,rel} + b0*delta_0 (all other boundary
    classes dropped)."""

    a: Rat
    c: tuple[Rat, ...] = ()
    b0: Rat = Fraction(0)
    name: str = ""

    def __init__(self, a, c=(), b0=0, name=""):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in c))
        object.__setattr__(self, "b0", Fraction(b0))
        object.__setattr__(self, "name", name)

    @property
    def n_marks(self) -> int:
        return len(self.c)

    def __str__(self) -> str:
        parts = [f"{self.a}*lambda"]
        parts += [f"{ci}*omega_{i + 1}" for i, ci in enumerate(self.c)]
        parts.append(f"{self.b0}*delta_0")
        label = f"{self.name}: " if self.name else ""
        return label + " + ".join(parts)


def logan_divisor(g: int, w: Sequence[int]) -> DivisorClass:
    """Pointed Brill-Noether class for weights summing to g:
    -lambda + sum w_i(w_i+1)/2 * omega_{i,rel}."""
    w = tuple(int(x) for x in w)
    if sum(w) != g:
        raise InputError(f"weights {w} must sum to the genus {g}")
    if brill_noether_number(g, 1, g, w) != -1:
        raise InputError("weights do not cut out a divisor")
    return DivisorClass(
        a=-1,
        c=tuple(Fraction(wi * (wi + 1), 2) for wi in w),
        b0=0,
        name=f"BN1_{g},{w}",
    )


# Built-in catalog of named classes.  Each entry: genus -> coefficients.
# Lin1_3 is stored with positive omega coefficients: the negative variant
# fails every cross-check that pins this entry (the solved slope must come
# out at 33/4 on (3,3) to satisfy s = 12 - 12k/L against L = 2).
_CATALOG: dict[str, dict[int, DivisorClass]] = {
    "H": {3: DivisorClass(9, (), -1, "H")},
    "W": {3: DivisorClass(-1, (6,), 0, "W")},
    "Theta": {4: DivisorClass(30, (60,), -4, "Theta")},
    "BN1_3": {5: DivisorClass(8, (), -1, "BN1_3")},
    "BN1_3_(2)": {4: DivisorClass(8, (4,), -1, "BN1_3_(2)")},
    "Lin1_3": {4: DivisorClass(8, (1, 1), -1, "Lin1_3")},
    "Nfold1": {5: DivisorClass(7, (15,), -1, "Nfold1")},
    "Nfold2": {5: DivisorClass(7, (7, 2), -1, "Nfold2")},
    "GP": {4: DivisorClass(17, (), -2, "GP")},
}


def catalog_divisor(name: str, g: int, weights: Sequence[int] = ()) -> DivisorClass:
    """Look up a named class at the genus it is defined for.

    ``logan`` is ``logan_divisor(g, weights)`` and needs the weights;
    every other name refuses them.  D1 and D2 exist for every genus:
    D1 = 4g(g-1) omega_rel - 12 lambda + delta,
    D2 = (g^2-1)(psi_1 + psi_2) - 12 lambda + delta,
    with delta carried on the delta_0 slot.
    """
    if name == "logan":
        if not weights:
            raise InputError("divisor logan needs weights")
        return logan_divisor(g, weights)
    if weights:
        raise InputError(f"divisor {name} takes no weights; only logan does")
    if name == "D1":
        if g < 2:
            raise InputError("D1 needs genus >= 2")
        return DivisorClass(-12, (4 * g * (g - 1),), 1, "D1")
    if name == "D2":
        if g < 2:
            raise InputError("D2 needs genus >= 2")
        return DivisorClass(-12, (g * g - 1, g * g - 1), 1, "D2")
    try:
        by_genus = _CATALOG[name]
    except KeyError:
        raise InputError(
            f"unknown divisor {name!r}; known: {sorted(_CATALOG) + ['D1', 'D2']}"
        ) from None
    try:
        return by_genus[g]
    except KeyError:
        raise InputError(
            f"divisor {name} is defined for genus {sorted(by_genus)}, not {g}"
        ) from None


@dataclass(frozen=True)
class MarkedStratum:
    """A stratum together with an ordered choice of marked zeros.

    ``marks[i]`` is the 1-based index into ``stratum.orders`` of the
    i-th marked point; a zero cannot be marked twice.
    """

    stratum: Stratum
    marks: tuple[int, ...] = ()

    def __init__(self, stratum: Stratum, marks: Iterable[int] = ()):
        marks = tuple(int(i) for i in marks)
        for i in marks:
            if not 1 <= i <= len(stratum.orders):
                raise InputError(
                    f"mark {i} out of range for stratum {stratum}"
                )
        if len(set(marks)) != len(marks):
            raise InputError("a zero cannot be marked twice")
        object.__setattr__(self, "stratum", stratum)
        object.__setattr__(self, "marks", marks)

    def marked_orders(self) -> tuple[int, ...]:
        return tuple(self.stratum.orders[i - 1] for i in self.marks)


def omega_ratio(ms: MarkedStratum, i: int) -> tuple[Rat, Rat]:
    """Coefficients (alpha, beta) in
    C.omega_{i,rel} = alpha * C.lambda + beta * C.delta,
    namely alpha = 1/((m_i+1) kappa) and beta = -alpha/12."""
    if ms.stratum.genus < 2:
        raise InputError("needs genus >= 2")
    m = ms.marked_orders()[i - 1]
    k = kappa(ms.stratum)
    alpha = 1 / ((m + 1) * k)
    return alpha, -alpha / 12


def slope_from_disjoint_divisor(
    ms: MarkedStratum, D: DivisorClass
) -> tuple[Rat, Rat, Rat]:
    """(s, L, c) of every Teichmueller curve disjoint from ``D``."""
    if D.n_marks != len(ms.marks):
        raise InputError(
            f"divisor has {D.n_marks} marked points, stratum marking has "
            f"{len(ms.marks)}"
        )
    # C.D = lam C.lambda + delta C.delta once each C.omega_{i,rel} is
    # substituted, and C.D = 0 gives the slope s = C.delta / C.lambda
    lam, delta = Fraction(D.a), Fraction(D.b0)
    for i, ci in enumerate(D.c, start=1):
        alpha, beta = omega_ratio(ms, i)
        lam += ci * alpha
        delta += ci * beta
    if delta == 0:
        raise InputError("divisor gives no slope constraint (zero denominator)")
    s = -lam / delta
    if not 0 < s < 12:
        raise InputError(f"slope {s} outside (0, 12): no Teichmueller curve fits")
    k = kappa(ms.stratum)
    L = 12 * k / (12 - s)
    return s, L, L - k


def slope_bound(ms: MarkedStratum, D: DivisorClass) -> tuple[Rat, Rat]:
    """(s_max, L_max) for curves not contained in ``D``: the same
    arithmetic read as C.D >= 0."""
    s, L, _ = slope_from_disjoint_divisor(ms, D)
    return s, L


def spin_slope(g: int) -> Rat:
    """Slope 4(g+8)/(g+2) forced on odd-spin curves with all zeros of
    order two, assuming the theta characteristic has a single section."""
    if g < 2:
        raise InputError("needs genus >= 2")
    return Fraction(4 * (g + 8), g + 2)


def spin_slope_L(s: Stratum) -> tuple[Rat, Rat]:
    """(slope, L) of the odd-spin curves of ``s`` by ``spin_slope``;
    InputError unless every zero of ``s`` has order two."""
    if any(m != 2 for m in s.orders):
        raise InputError(f"the spin slope needs every zero of order two, not {s}")
    slope = spin_slope(s.genus)
    return slope, L_from_slope(s, slope)


def L_from_slope(s: Stratum, slope: Rat) -> Rat:
    """L = 12 kappa / (12 - s)."""
    slope = Fraction(slope)
    if not 0 < slope < 12:
        raise InputError(f"slope must lie in (0, 12), got {slope}")
    return 12 * kappa(s) / (12 - slope)


def extremality_check(g: int) -> bool:
    """Zero-intersection identities for the extremal classes D1, D2.

    A curve from the single-zero hyperelliptic component, lifted by its
    zero, meets (lambda, omega_rel, delta) in ratios (g^2, 1, 4g(2g+1));
    one from the two-zero component meets (lambda, psi_1+psi_2, delta)
    in ratios (g(g+1)/4, 1, (g+1)(2g+1)).  Both must pair to zero.
    """
    if g < 2:
        raise InputError("needs genus >= 2")
    d1, d2 = catalog_divisor("D1", g), catalog_divisor("D2", g)
    # the two marked points contribute psi_1 + psi_2 = 1 in total
    half = Fraction(1, 2)
    return (
        intersection_with_ratios(d1, g * g, [1], 4 * g * (2 * g + 1)) == 0
        and intersection_with_ratios(
            d2, Fraction(g * (g + 1), 4), [half, half], (g + 1) * (2 * g + 1)
        ) == 0
    )


def intersection_with_ratios(
    D: DivisorClass, lam: Rat, omegas: Sequence[Rat], delta: Rat
) -> Rat:
    """Pair a class against explicit intersection numbers."""
    if len(omegas) != D.n_marks:
        raise InputError("ratio vector length must match the marks")
    return (
        D.a * Fraction(lam)
        + sum((ci * Fraction(w) for ci, w in zip(D.c, omegas)), Fraction(0))
        + D.b0 * Fraction(delta)
    )


# -- the per-genus summary table ------------------------------------------

@dataclass(frozen=True)
class TableRow:
    stratum: Stratum
    component: str
    status: str              # nonvarying | varying | conjectured
    L: Rat | None            # exact Teichmueller-curve value when non-varying
    bound: Rat | None = None # upper bound for varying strata, when computed
    method: str = ""


def _row_divisor(stratum, component, divisor, marks, method) -> TableRow:
    ms = MarkedStratum(stratum, marks)
    _, L, _ = slope_from_disjoint_divisor(ms, divisor)
    return TableRow(stratum, component, "nonvarying", L, method=method)


def _row_spin(stratum) -> TableRow:
    _, L = spin_slope_L(stratum)
    return TableRow(stratum, "odd", "nonvarying", L, method="spin slope")


def _row_hyp(stratum, g, kind) -> TableRow:
    L = hyperelliptic_component_L(g, kind)
    return TableRow(stratum, "hyperelliptic", "nonvarying", L, method="hyperelliptic closed form")


def _row_bound(stratum, component, divisor, marks, method) -> TableRow:
    ms = MarkedStratum(stratum, marks)
    _, L = slope_bound(ms, divisor)
    return TableRow(stratum, component, "varying", None, bound=L, method=method)


def stratum_table(g: int) -> list[TableRow]:
    """Non-varying rows (values recomputed through the divisor machinery)
    plus bounds and conjectured rows, for genus 3, 4 or 5."""
    if g == 3:
        H = catalog_divisor("H", 3)
        return [
            _row_hyp(Stratum((4,)), 3, "single_zero"),
            _row_divisor(Stratum((4,)), "odd", H, (), "disjoint from H"),
            _row_divisor(Stratum((3, 1)), "connected", H, (), "disjoint from H"),
            _row_hyp(Stratum((2, 2)), 3, "two_zeros"),
            _row_spin(Stratum((2, 2))),
            _row_divisor(
                Stratum((2, 1, 1)), "connected",
                logan_divisor(3, (1, 2)), (1, 2),
                "disjoint pointed Brill-Noether",
            ),
            _row_bound(Stratum((1, 1, 1, 1)), "connected", H, (), "not contained in H"),
        ]
    if g == 4:
        bnp = catalog_divisor("BN1_3_(2)", 4)
        return [
            _row_hyp(Stratum((6,)), 4, "single_zero"),
            _row_divisor(Stratum((6,)), "even", catalog_divisor("Theta", 4), (1,),
                         "disjoint from Theta"),
            _row_divisor(Stratum((6,)), "odd", bnp, (1,),
                         "disjoint pointed Brill-Noether"),
            _row_divisor(Stratum((5, 1)), "connected", bnp, (1,),
                         "disjoint pointed Brill-Noether"),
            TableRow(Stratum((4, 2)), "even", "conjectured", Fraction(32, 15)),
            TableRow(Stratum((4, 2)), "odd", "conjectured", Fraction(29, 15)),
            _row_hyp(Stratum((3, 3)), 4, "two_zeros"),
            _row_divisor(Stratum((3, 3)), "nonhyperelliptic",
                         catalog_divisor("Lin1_3", 4), (1, 2),
                         "disjoint from Lin"),
            _row_divisor(Stratum((3, 2, 1)), "connected",
                         logan_divisor(4, (1, 1, 2)), (1, 2, 3),
                         "disjoint pointed Brill-Noether"),
            _row_spin(Stratum((2, 2, 2))),
            _row_bound(Stratum((2, 2, 2)), "even", catalog_divisor("GP", 4), (),
                       "not contained in GP"),
            _row_bound(Stratum((4, 1, 1)), "connected",
                       logan_divisor(4, (2, 2)), (1, 2),
                       "not contained in pointed Brill-Noether"),
            _row_bound(Stratum((3, 1, 1, 1)), "connected",
                       logan_divisor(4, (1, 2, 1)), (1, 2, 3),
                       "not contained in pointed Brill-Noether"),
            _row_bound(Stratum((2, 2, 1, 1)), "connected",
                       logan_divisor(4, (1, 1, 2)), (1, 2, 3),
                       "not contained in pointed Brill-Noether"),
            _row_bound(Stratum((2, 1, 1, 1, 1)), "connected",
                       logan_divisor(4, (1, 2, 1)), (1, 2, 3),
                       "not contained in pointed Brill-Noether"),
            _row_bound(Stratum((1,) * 6), "connected",
                       logan_divisor(4, (1, 2, 1)), (1, 2, 3),
                       "not contained in pointed Brill-Noether"),
        ]
    if g == 5:
        return [
            _row_hyp(Stratum((8,)), 5, "single_zero"),
            _row_divisor(Stratum((8,)), "even", catalog_divisor("BN1_3", 5), (),
                         "disjoint from trigonal divisor"),
            _row_divisor(Stratum((8,)), "odd", catalog_divisor("Nfold1", 5), (1,),
                         "disjoint pointed Brill-Noether"),
            _row_hyp(Stratum((4, 4)), 5, "two_zeros"),
            _row_divisor(Stratum((5, 3)), "connected",
                         catalog_divisor("Nfold2", 5), (1, 2),
                         "disjoint pointed Brill-Noether"),
            TableRow(Stratum((6, 2)), "odd", "conjectured", Fraction(46, 21)),
        ]
    raise InputError(f"table rows are available for genus 3, 4, 5; got {g}")
