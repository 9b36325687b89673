"""Exhaustive generation of origamis by degree and stratum.

Every transitive pair is simultaneously conjugate to one whose ``right``
permutation is the standard representative of its cycle type (cycles of
non-increasing length on consecutive symbols).  So it suffices to fix
``right`` to one representative per partition of d and scan all d!
candidates for ``up``, keeping those whose commutator has the cycle type
demanded by the stratum; canonical forms deduplicate the survivors.  The
scan itself is ``kernel.scan_degree``: compiled, streaming S_d one
permutation at a time, or in numpy where the compiled kernel is missing.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .components import component_label
from .errors import InputError, InternalCheckError, ResourceCapError
from .kernel import canonical_key, scan_degree
from .origami import Origami, Stratum
from .orbits import (
    OrbitCache,
    OrbitSummary,
    Pair,
    _pair_to_origami,
    _summary_from_parts,
    _summary_of_scan,
    _unpack,
    format_rational,
    orbit_scan,
)


def partitions(n: int):
    """Partitions of n in decreasing lexicographic order, as tuples."""
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return
        ones = len(a) - k - 1
        new = a[k] - 1
        a = a[: k + 1]
        a[k] = new
        total = ones + 1
        while total:
            take = min(new, total)
            a.append(take)
            total -= take


def partition_representative(parts: tuple[int, ...]) -> tuple[int, ...]:
    """0-based images of the standard permutation with the given cycle type."""
    images = []
    start = 0
    for length in parts:
        images.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(images)


def commutator_cycle_type(s: Stratum, degree: int) -> tuple[int, ...] | None:
    """Cycle type the commutator must have at this degree, or None when
    the stratum cannot occur (not enough squares)."""
    support = sum(m + 1 for m in s.orders)
    if support > degree:
        return None
    return tuple(
        sorted(list(m + 1 for m in s.orders) + [1] * (degree - support), reverse=True)
    )


def _scan_degree(
    d: int, targets: dict[Stratum, tuple[int, ...]]
) -> dict[Stratum, set[bytes]]:
    """All canonical transitive pairs of degree d per target stratum,
    as packed canonical keys."""
    if not targets:
        return {}
    # a trivial right has a trivial commutator: it serves only H(0)
    ones = (1,) * d
    keep_identity = ones in targets.values()
    rights = [
        partition_representative(parts)
        for parts in partitions(d)
        if keep_identity or parts != ones
    ]
    strata = list(targets)
    return dict(zip(strata, scan_degree(d, rights, [targets[s] for s in strata])))


def enumerate_origamis(d: int, s: Stratum) -> list[Origami]:
    """All origamis of degree d in the stratum, one canonical
    representative per conjugacy class, sorted."""
    if d < 1:
        raise InputError("degree must be positive")
    target = commutator_cycle_type(s, d)
    if target is None:
        return []
    keys = _scan_degree(d, {s: target})[s]
    return [_pair_to_origami(_unpack(k)) for k in sorted(keys)]


@dataclass(frozen=True)
class OrbitClass:
    """One SL(2,Z) orbit inside an enumerated set."""

    representative: Origami
    members: tuple[Pair, ...]
    summary: OrbitSummary


def orbit_partition(
    origamis: list[Origami], cache: OrbitCache | None = None
) -> list[OrbitClass]:
    """Partition conjugacy classes into SL(2,Z) orbits.

    The input must be closed under the action (it is when it comes from
    ``enumerate_origamis``: T and S preserve degree and stratum).  Each
    orbit is closed by ``orbit_scan`` from its least key, in key order.
    Every class lands in a scanned orbit, so checking the stratum of each
    orbit's least class checks the whole input.
    """
    if not origamis:
        return []
    mixed = "orbit partition needs a single degree and stratum"
    degrees = {o.degree for o in origamis}
    if len(degrees) != 1:
        raise InputError(mixed)
    (degree,) = degrees

    by_key = {
        canonical_key(o.right.zero_based(), o.up.zero_based()): o for o in origamis
    }
    if len(by_key) != len(origamis):
        raise InputError("duplicate conjugacy classes in the input")
    stratum = origamis[0].stratum()

    covered: set[bytes] = set()
    out = []
    for least in sorted(by_key):
        if least in covered:
            continue
        if by_key[least].stratum() != stratum:
            raise InputError(mixed)
        try:
            scan = orbit_scan(by_key[least], max_size=len(by_key))
        except ResourceCapError:
            scan = None  # the orbit outgrows the input
        if scan is None or not by_key.keys() >= set(scan.keys):
            raise InternalCheckError("enumerated set is not closed under T and S")
        covered.update(scan.keys)
        summary = None
        if cache is not None:
            hit = cache.lookup(least)
            if hit is not None:
                n, cusp_count, total = hit
                if n != scan.size:
                    raise InternalCheckError("cached orbit size disagrees")
                summary = _summary_from_parts(degree, stratum, n, cusp_count, total)
        if summary is None:
            summary = _summary_of_scan(scan, stratum)
            if cache is not None:
                cache.store(least, summary.orbit_size, summary.cusp_count, summary.total_hw)
        out.append(
            OrbitClass(
                representative=_pair_to_origami(_unpack(least)),
                members=tuple(_unpack(k) for k in sorted(scan.keys)),
                summary=summary,
            )
        )
    return out


@dataclass(frozen=True)
class ReportEntry:
    stratum: Stratum
    component: str
    degree: int
    orbit_size: int
    L: Fraction
    c: Fraction
    s: Fraction
    witness: Origami


@dataclass(frozen=True)
class StratumReport:
    """Distinct Lyapunov sums per component across a degree range."""

    stratum: Stratum
    d_max: int
    entries: tuple[ReportEntry, ...]

    def values_by_component(self) -> dict[str, set[Fraction]]:
        out: dict[str, set[Fraction]] = {}
        for e in self.entries:
            out.setdefault(e.component, set()).add(e.L)
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["stratum", "component", "degree", "orbit_size", "L", "c", "s", "witness"]
        )
        for e in self.entries:
            writer.writerow(
                [
                    str(e.stratum),
                    e.component,
                    e.degree,
                    e.orbit_size,
                    format_rational(e.L),
                    format_rational(e.c),
                    format_rational(e.s),
                    str(e.witness),
                ]
            )
        return buf.getvalue()

    def to_json(self) -> list[dict]:
        return [
            {
                "stratum": str(e.stratum),
                "component": e.component,
                "degree": e.degree,
                "orbit_size": e.orbit_size,
                "L": format_rational(e.L),
                "c": format_rational(e.c),
                "s": format_rational(e.s),
                "witness": str(e.witness),
            }
            for e in self.entries
        ]


def nonvarying_report(
    s: Stratum,
    d_max: int,
    d_min: int | None = None,
    cache: OrbitCache | None = None,
) -> StratumReport:
    """Aggregate orbit L values per component over all degrees <= d_max.

    One entry per distinct (component, L) pair, witnessed by the orbit
    of smallest degree (then smallest representative) realizing it.
    """
    if s.genus < 2:
        raise InputError("non-varying reports need genus >= 2")
    support = sum(m + 1 for m in s.orders)
    lo = max(d_min or support, support)
    entries: list[ReportEntry] = []
    seen: set[tuple[str, Fraction]] = set()
    for d in range(lo, d_max + 1):
        for oc in orbit_partition(enumerate_origamis(d, s), cache=cache):
            label = component_label(oc.representative).kind
            key = (label, oc.summary.L)
            if key in seen:
                continue
            seen.add(key)
            entries.append(
                ReportEntry(
                    stratum=s,
                    component=label,
                    degree=d,
                    orbit_size=oc.summary.orbit_size,
                    L=oc.summary.L,
                    c=oc.summary.c,
                    s=oc.summary.s,
                    witness=oc.representative,
                )
            )
    return StratumReport(stratum=s, d_max=d_max, entries=tuple(entries))
