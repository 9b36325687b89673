"""Golden-value verification harness.

Every expectation lives in the plain-text fixture ``data/golden.txt``,
one check per line; nothing is hard-coded here.  A line reads

    <id> <kind> key=value [key=value ...]

with ``#`` comments and blank lines ignored.  Kinds:

    lyap       exact orbit invariants of a named origami
    slope      slope solver against a disjoint divisor (or spin slope)
    bound      upper bound from a divisor the curve is not contained in
    hyploc     Lyapunov sum of a hyperelliptic locus, plus its double cover
    component  classification of a named origami
    triple     internal consistency of quoted (L, s, c) stratum constants
    table      per-genus summary rows recomputed through the solver paths
    hypclosed  closed forms for hyperelliptic components vs the locus formula
    extremal   zero intersection with the extremal classes
    enum       exhaustive small-degree orbit scans (slow; skippable)

All comparisons are exact rational equalities.
"""
from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import moduli
from .components import component_label
from .enumeration import nonvarying_report
from .errors import InputError
from .origami import Origami, Stratum, kappa
from .orbits import OrbitCache, format_rational, lyapunov_sum


@dataclass(frozen=True)
class GoldenCheck:
    id: str
    kind: str
    fields: dict[str, str]

    def get(self, key: str) -> str:
        try:
            return self.fields[key]
        except KeyError:
            raise InputError(f"golden check {self.id} lacks field {key}") from None


@dataclass(frozen=True)
class CheckResult:
    id: str
    ok: bool
    expected: str
    actual: str

    def diff_line(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return f"{status:8s} {self.id}: expected {self.expected}, got {self.actual}"


def load_golden(path=None) -> list[GoldenCheck]:
    """The checks of the golden file at ``path``, by default the packaged
    ``data/golden.txt``; errors name the file that was read."""
    name = "golden.txt" if path is None else str(path)
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
            raise InputError(f"cannot read golden file {str(path)!r}: {exc}") from None
    else:
        text = (
            importlib.resources.files("flatlyap") / "data" / "golden.txt"
        ).read_text()
    checks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise InputError(f"{name} line {lineno}: too few fields")
        cid, kind = parts[0], parts[1]
        fields = {}
        for tok in parts[2:]:
            key, sep, value = tok.partition("=")
            if not sep:
                raise InputError(f"{name} line {lineno}: bad token {tok!r}")
            fields[key] = value
        checks.append(GoldenCheck(cid, kind, fields))
    return checks


def _marks(check: GoldenCheck, key: str) -> tuple[int, ...]:
    return tuple(int(t) for t in check.fields.get(key, "").split(",") if t)


def _origami(check: GoldenCheck) -> Origami:
    return Origami.from_text(
        f"r={check.get('r')}; u={check.get('u')}; d={check.get('d')}"
    )


def run_check(
    check: GoldenCheck, cache: OrbitCache | None = None, reports: dict | None = None
) -> CheckResult:
    """Run one check.  ``reports`` holds the ``nonvarying_report`` of each
    (stratum, dmax) an ``enum`` check has made; pass one dict to every
    check of a run, so that checks of one scan share it."""
    if check.kind == "enum":
        return _check_enum(check, {} if reports is None else reports)
    try:
        handler = _DISPATCH[check.kind]
    except KeyError:
        raise InputError(f"unknown golden check kind {check.kind!r}") from None
    return handler(check, cache)


def _result(check, expected, actual) -> CheckResult:
    return CheckResult(check.id, expected == actual, str(expected), str(actual))


def _check_lyap(check, cache):
    summary = lyapunov_sum(_origami(check), cache=cache)
    expected = check.get("L")
    return _result(check, expected, format_rational(summary.L))


def _check_slope(check, cache):
    s = Stratum.parse(check.get("stratum"))
    expected = f"s={check.get('s')} L={check.get('L')}"
    if check.get("divisor") == "spin":
        slope = moduli.spin_slope(s.genus)
        L = moduli.L_from_slope(s, slope)
    else:
        ms = moduli.MarkedStratum(s, _marks(check, "marks"))
        D = moduli.catalog_divisor(check.get("divisor"), s.genus, _marks(check, "weights"))
        slope, L, _ = moduli.slope_from_disjoint_divisor(ms, D)
    actual = f"s={format_rational(slope)} L={format_rational(L)}"
    return _result(check, expected, actual)


def _check_bound(check, cache):
    s = Stratum.parse(check.get("stratum"))
    ms = moduli.MarkedStratum(s, _marks(check, "marks"))
    D = moduli.catalog_divisor(check.get("divisor"), s.genus, _marks(check, "weights"))
    _, L = moduli.slope_bound(ms, D)
    stated = Fraction(check.get("L_max"))
    computed = Fraction(check.get("computed")) if "computed" in check.fields else stated
    ok = L == computed and L <= stated
    return CheckResult(
        check.id,
        ok,
        f"bound {format_rational(computed)} within {format_rational(stated)}",
        f"bound {format_rational(L)}",
    )


def _check_hyploc(check, cache):
    q = moduli.QuadSignature.parse(check.get("sig"))
    L = moduli.hyperelliptic_locus_L(q)
    ok = format_rational(L) == check.get("L")
    expected = f"L={check.get('L')}"
    actual = f"L={format_rational(L)}"
    if "cover" in check.fields:
        cover, _ = moduli.double_cover_stratum(q)
        got = ",".join(str(m) for m in cover.orders)
        expected += f" cover={check.get('cover')}"
        actual += f" cover={got}"
        ok = ok and got == check.get("cover")
    return CheckResult(check.id, ok, expected, actual)


def _check_component(check, cache):
    label = component_label(_origami(check))
    expected_kind = check.get("kind")
    actual = label.kind
    ok = actual == expected_kind
    if "parity" in check.fields:
        ok = ok and label.parity == check.get("parity")
        actual += f"/{label.parity}"
    return CheckResult(check.id, ok, expected_kind, actual)


def _check_triple(check, cache):
    s = Stratum.parse(check.get("stratum"))
    L = Fraction(check.get("L"))
    slope = Fraction(check.get("s"))
    c = Fraction(check.get("c"))
    k = kappa(s)
    want_s, want_c = 12 - 12 * k / L, L - k
    return CheckResult(
        check.id,
        slope == want_s and c == want_c,
        f"s=12-12k/L and c=L-k for L={check.get('L')}",
        f"s={format_rational(want_s)} c={format_rational(want_c)}",
    )


def _check_table(check, cache):
    g = int(check.get("g"))
    s = Stratum.parse(check.get("stratum"))
    component = check.get("component")
    status = check.get("status")
    rows = [
        r
        for r in moduli.stratum_table(g)
        if r.stratum == s and r.component == component
    ]
    if len(rows) != 1:
        return CheckResult(check.id, False, "one table row", f"{len(rows)} rows")
    row = rows[0]
    name, value = ("bound", row.bound) if status == "varying" else ("L", row.L)
    expected = f"{status} {name}={check.get(name)}"
    actual = f"{row.status} {name}={'none' if value is None else format_rational(value)}"
    return CheckResult(check.id, expected == actual, expected, actual)


def _check_hypclosed(check, cache):
    g = int(check.get("g"))
    kind = check.get("kind")
    closed = moduli.hyperelliptic_component_L(g, kind)
    if kind == "single_zero":
        sig = moduli.QuadSignature([-1] * (2 * g + 1) + [2 * g - 3])
    else:
        sig = moduli.QuadSignature([-1] * (2 * g + 2) + [2 * g - 2])
    via_locus = moduli.hyperelliptic_locus_L(sig)
    cover, cover_genus = moduli.double_cover_stratum(sig)
    ok = closed == via_locus and cover_genus == g
    if "L" in check.fields:
        ok = ok and format_rational(closed) == check.get("L")
    return CheckResult(
        check.id,
        ok,
        f"closed form equals locus value (g={g})",
        f"closed={format_rational(closed)} locus={format_rational(via_locus)}",
    )


def _check_extremal(check, cache):
    g = int(check.get("g"))
    ok = moduli.extremality_check(g)
    return CheckResult(check.id, ok, "zero intersection", "zero" if ok else "nonzero")


def _check_enum(check, reports):
    scan = (Stratum.parse(check.get("stratum")), int(check.get("dmax")))
    if scan not in reports:
        reports[scan] = nonvarying_report(*scan)
    values = reports[scan].values_by_component()
    mode = check.get("mode")
    if mode in ("const", "subset"):
        component = check.get("component")
        expected_L = Fraction(check.get("L"))
        got = values.get(component, set())
        ok = got == {expected_L} if mode == "const" else got <= {expected_L}
        return CheckResult(
            check.id,
            ok,
            f"{component}: {'exactly' if mode == 'const' else 'at most'} "
            f"{{{check.get('L')}}}",
            f"{component}: {{{', '.join(sorted(format_rational(v) for v in got))}}}",
        )
    if mode == "contains":
        wanted = {Fraction(t) for t in check.get("values").split(";")}
        all_values = set().union(*values.values()) if values else set()
        ok = wanted <= all_values and len(all_values) > 1
        return CheckResult(
            check.id,
            ok,
            f"contains {check.get('values')} and varies",
            f"{len(all_values)} values: "
            f"{{{', '.join(sorted(format_rational(v) for v in sorted(all_values)))}}}",
        )
    raise InputError(f"unknown enum mode {mode!r}")


_DISPATCH = {
    "lyap": _check_lyap,
    "slope": _check_slope,
    "bound": _check_bound,
    "hyploc": _check_hyploc,
    "component": _check_component,
    "triple": _check_triple,
    "table": _check_table,
    "hypclosed": _check_hypclosed,
    "extremal": _check_extremal,
}

def select_checks(
    checks: list[GoldenCheck],
    genus: str = "all",
    skip_enumeration: bool = False,
) -> list[GoldenCheck]:
    """Filter by genus tag; ``skip_enumeration`` keeps only the checks
    that finish in seconds (drops the exhaustive scans and the orbit
    searches tagged slow)."""
    out = []
    for check in checks:
        if skip_enumeration and (
            check.kind == "enum" or check.fields.get("slow") == "1"
        ):
            continue
        if genus != "all" and check.fields.get("g", "") not in ("", genus):
            continue
        out.append(check)
    return out
