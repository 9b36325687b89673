"""Command-line front end.

Subcommands: stratum, lyap, orbit, cylinders, classify, enumerate,
slope-solve, hyp-locus, double-cover, verify-tables.  Origamis are given
inline as ``"r=(1 2 3 4)(5); u=(1 5); d=5"`` or as a path to a JSON file
``{"degree": d, "right": [...], "up": [...]}``.

Exit codes: 0 success, 1 verification mismatch, 2 input error,
3 resource cap hit.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import golden, moduli, verify
from .components import component_label
from .enumeration import nonvarying_report, orbits_by_degree
from .errors import FlatLyapError, InputError, ResourceCapError
from .origami import Origami, Stratum, kappa
from .orbits import (
    DEFAULT_ORBIT_CAP,
    OrbitCache,
    format_rational,
    horizontal_cylinders,
    lyapunov_sum,
    orbit_scan,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_origami(text: str) -> Origami:
    if os.path.exists(text):
        try:
            with open(text) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read origami file {text!r}: {exc}") from None
        return Origami.from_json(text)
    if text.lstrip().startswith("{"):
        return Origami.from_json(text)
    return Origami.from_text(text)


def _option(parse):
    """An argparse ``type`` from ``parse``: a value it rejects is a usage
    error (exit 2), not a traceback."""

    def convert(text: str):
        try:
            return parse(text)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None

    return convert


def _at_least(low: int):
    """An argparse ``type`` for an integer of at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise InputError(f"must be at least {low}")
        return value

    return _option(parse)


def _list_of(parse):
    """An argparse ``type`` for comma-separated values."""
    return _option(lambda text: tuple(parse(t) for t in text.split(",") if t))


def _cache_from(args) -> OrbitCache | None:
    directory = args.cache_dir or os.environ.get(OrbitCache.ENV_VAR)
    if directory is None:
        return None
    return OrbitCache(directory)


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_stratum(args) -> int:
    o = _read_origami(args.origami)
    s = o.stratum()
    label = component_label(o) if s.genus >= 2 else None
    payload = {
        "degree": o.degree,
        "stratum": list(s.orders),
        "genus": s.genus,
    }
    lines = [f"degree: {o.degree}", f"stratum: {s}", f"genus: {s.genus}"]
    if label is not None:
        payload.update(label.to_json())
        lines.append(f"component: {label.kind}")
        if label.parity:
            lines.append(f"parity: {label.parity}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_lyap(args) -> int:
    o = _read_origami(args.origami)
    summary = lyapunov_sum(o, max_size=args.max_orbit, cache=_cache_from(args))
    payload = summary.to_json()
    lines = [
        f"degree: {summary.degree}",
        f"stratum: {summary.stratum}",
        f"orbit_size: {summary.orbit_size}",
        f"cusp_count: {summary.cusp_count}",
        f"total_hw: {payload['total_hw']}",
        f"L: {payload['L']}",
        f"c: {payload['c']}",
        f"s: {payload['s']}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_orbit(args) -> int:
    o = _read_origami(args.origami)
    scan = orbit_scan(o, max_size=args.max_orbit)
    listed = list(scan)[: args.limit] if args.list else []  # only these become origamis
    members = [str(Origami.from_key(k)) for k in listed]
    payload = {"orbit_size": scan.size, "members": members if args.list else None}
    _emit(args, payload, [f"orbit_size: {scan.size}", *members])
    return EXIT_OK


def cmd_cylinders(args) -> int:
    o = _read_origami(args.origami)
    decomposition = horizontal_cylinders(o)
    payload = {
        "cylinders": [{"width": w, "height": h} for w, h in decomposition],
        "sum_h_over_w": format_rational(decomposition.sum_h_over_w),
    }
    lines = [f"{w} x {h}" for w, h in decomposition]
    lines.append(f"sum h/w: {format_rational(decomposition.sum_h_over_w)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    o = _read_origami(args.origami)
    label = component_label(o)
    payload = label.to_json()
    lines = [f"component: {label.kind}"]
    if label.parity:
        lines.append(f"parity: {label.parity}")
    if label.involution:
        lines.append(f"involution: {label.involution.sigma}")
        lines.append(f"fixed_points: {label.involution.fixed_point_count}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    s = args.stratum
    if args.per_orbit:
        rows = [
            {
                "degree": d,
                "orbit_size": oc.summary.orbit_size,
                "component": component_label(oc.representative).kind,
                "L": format_rational(oc.summary.L),
                "witness": str(oc.representative),
            }
            for d, oc in orbits_by_degree(s, args.dmax, args.dmin)
        ]
        if args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
            for row in rows:
                print(
                    f"d={row['degree']} component={row['component']} "
                    f"N={row['orbit_size']} L={row['L']} witness= {row['witness']}"
                )
        return EXIT_OK
    report = nonvarying_report(s, args.dmax, d_min=args.dmin)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        sys.stdout.write(report.to_csv())
    return EXIT_OK


def cmd_slope_solve(args) -> int:
    s = args.stratum
    ms = moduli.MarkedStratum(s, args.marks)
    payload = {"stratum": list(s.orders), "marks": list(args.marks)}
    if args.weights and args.divisor in (None, "", "spin"):
        raise InputError("--weights goes with --divisor logan only")
    if args.divisor and (args.lam, args.omega, args.delta0) != (None, None, None):
        raise InputError("--lambda, --omega and --delta0 do not go with --divisor")
    if args.bound and args.divisor == "spin":
        raise InputError("--bound does not go with --divisor spin")
    if args.divisor == "spin":
        slope, L = moduli.spin_slope_L(s)
        c = L - kappa(s)
        payload["divisor"] = "spin"
    else:
        if args.divisor:
            D = moduli.catalog_divisor(args.divisor, s.genus, args.weights or ())
        elif args.lam is not None:
            D = moduli.DivisorClass(args.lam, args.omega or (), args.delta0 or 0)
        else:
            raise InputError("give --divisor or explicit --lambda/--omega/--delta0")
        payload["divisor"] = str(D)
        if args.bound:
            slope, L = moduli.slope_bound(ms, D)
            payload.update(s_max=format_rational(slope), L_max=format_rational(L))
            _emit(args, payload, [f"s <= {payload['s_max']}", f"L <= {payload['L_max']}"])
            return EXIT_OK
        slope, L, c = moduli.slope_from_disjoint_divisor(ms, D)
    payload.update(s=format_rational(slope), L=format_rational(L), c=format_rational(c))
    _emit(args, payload, [f"{k}: {payload[k]}" for k in ("s", "L", "c")])
    return EXIT_OK


def cmd_hyp_locus(args) -> int:
    L = moduli.hyperelliptic_locus_L(args.signature)
    payload = {"signature": str(args.signature), "L": format_rational(L)}
    _emit(args, payload, [f"L: {format_rational(L)}"])
    return EXIT_OK


def cmd_double_cover(args) -> int:
    s, g = moduli.double_cover_stratum(args.signature)
    payload = {"signature": str(args.signature), "stratum": list(s.orders), "genus": g}
    _emit(args, payload, [f"stratum: {s}", f"genus: {g}"])
    return EXIT_OK


def cmd_verify_tables(args) -> int:
    checks = golden.load_golden(args.golden)
    selected = golden.select_checks(
        checks, genus=args.genus, skip_enumeration=args.skip_enumeration
    )
    cache, reports = _cache_from(args), {}
    failures = 0
    for check in selected:
        start = time.perf_counter()
        result = verify.run_check(check, cache=cache, reports=reports)
        # the check's time goes to stderr, so stdout stays the same run to run
        print(f"{check.id} {time.perf_counter() - start:.3f} s", file=sys.stderr)
        if not result.ok:
            failures += 1
            print(result.diff_line())
        elif args.verbose:
            print(result.diff_line())
    print(f"{len(selected) - failures}/{len(selected)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def _add_common(p, origami=False, fmt=True, cache=False, cap=False):
    """The shared options a subcommand reads."""
    if fmt:
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format",
        )
    if cache:
        p.add_argument(
            "--cache-dir", default=None,
            help=f"orbit cache directory (default: ${OrbitCache.ENV_VAR})",
        )
    if cap:
        p.add_argument(
            "--max-orbit", type=_at_least(1), default=DEFAULT_ORBIT_CAP,
            help="abort orbit searches beyond this many elements",
        )
    if origami:
        p.add_argument("origami", help="inline origami text or JSON file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlyap",
        description="Exact invariants of square-tiled surfaces and "
        "divisor slopes on moduli spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stratum", help="stratum, genus and component")
    _add_common(p, origami=True)
    p.set_defaults(func=cmd_stratum)

    p = sub.add_parser("lyap", help="orbit invariants: L, c, s")
    _add_common(p, origami=True, cache=True, cap=True)
    p.set_defaults(func=cmd_lyap)

    p = sub.add_parser("orbit", help="SL(2,Z) orbit of an origami")
    _add_common(p, origami=True, cap=True)
    p.add_argument("--list", action="store_true", help="print orbit members")
    p.add_argument("--limit", type=_at_least(0), default=100, help="cap listed members")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("cylinders", help="horizontal cylinder decomposition")
    _add_common(p, origami=True)
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("classify", help="component, involution, spin parity")
    _add_common(p, origami=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="exhaustive stratum report")
    _add_common(p)
    p.add_argument(
        "--stratum", required=True, type=_option(Stratum.parse), help="zero orders, e.g. 3,1"
    )
    p.add_argument("--dmax", type=_at_least(1), required=True, help="largest degree")
    p.add_argument("--dmin", type=_at_least(1), default=None, help="smallest degree")
    p.add_argument(
        "--per-orbit", action="store_true",
        help="list every orbit instead of distinct L values",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("slope-solve", help="slope from a disjoint divisor")
    _add_common(p)
    p.add_argument("--stratum", required=True, type=_option(Stratum.parse))
    p.add_argument(
        "--marks", type=_list_of(int), default=(), help="1-based indices of marked zeros"
    )
    p.add_argument("--divisor", default=None, help="catalog name, logan, or spin")
    p.add_argument("--weights", type=_list_of(int), help="weights for --divisor logan")
    p.add_argument("--lambda", dest="lam", type=_option(Fraction), help="lambda coefficient")
    p.add_argument("--omega", type=_list_of(Fraction), help="omega coefficients c1,c2,...")
    p.add_argument("--delta0", type=_option(Fraction), help="delta_0 coefficient (default 0)")
    p.add_argument(
        "--bound", action="store_true",
        help="treat the divisor as an upper bound (C.D >= 0)",
    )
    p.set_defaults(func=cmd_slope_solve)

    p = sub.add_parser("hyp-locus", help="Lyapunov sum of a hyperelliptic locus")
    _add_common(p)
    p.add_argument(
        "--signature", required=True, type=_option(moduli.QuadSignature.parse),
        help="e.g. 2,2,-1^8",
    )
    p.set_defaults(func=cmd_hyp_locus)

    p = sub.add_parser("double-cover", help="stratum of the orientation cover")
    _add_common(p)
    p.add_argument("--signature", required=True, type=_option(moduli.QuadSignature.parse))
    p.set_defaults(func=cmd_double_cover)

    p = sub.add_parser("verify-tables", help="run the golden verification suite")
    _add_common(p, fmt=False, cache=True)
    p.add_argument(
        "genus", nargs="?", default="all", choices=("2", "3", "4", "5", "6", "all"),
        help="restrict to one genus",
    )
    p.add_argument(
        "--skip-enumeration", action="store_true",
        help="skip the slow exhaustive scans and large orbit searches",
    )
    p.add_argument("--verbose", action="store_true", help="print passing checks too")
    p.add_argument("--golden", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except FlatLyapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
