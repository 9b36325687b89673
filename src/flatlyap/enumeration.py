"""Exhaustive generation of origamis by degree and stratum.

Every transitive pair is simultaneously conjugate to one whose ``right``
permutation is the standard representative of its cycle type (cycles of
non-increasing length on consecutive symbols).  So it suffices to fix
``right`` to one representative r per partition of d and find every
``up`` u whose commutator u^-1 r^-1 u r has the cycle type demanded by
the stratum; canonical forms deduplicate the pairs.  The scan itself is
``kernel.scan_degree``.  It walks the conjugacy class of r for
s = u^-1 r^-1 u, so the commutator is s r; the classes of all the
representatives hold d! elements, and the walk skips each branch whose
s r can fix no target's number of symbols.  Only the u of one s
per orbit of the centralizer of r are canonicalised.  The compiled walk
splits the representatives between the calling thread and, where a
second CPU is usable, one helper thread: each walks whole
representatives into key sets of its own, and a canonical key keeps the
cycle type of r, so the two sets are disjoint and are joined into one
hash table when the scan ends.  A degree whose d! passes ``SCAN_CAP`` is
refused before its scan starts.

Classes travel as packed canonical keys, ``bytes(r) + bytes(u)`` of the
0-based images, in a ``kernel.KeySet``: ``enumerate_origamis`` returns
the scan's key set, which the compiled kernel keeps in C memory, and
``orbit_partition`` takes it.  The partition (``kernel.partition``)
splits the set in C by the set positions of the T and S images of its
keys, so it makes no Python object per class: only the least key of
each orbit becomes an ``Origami`` (``Origami.from_key``), and
``OrbitClass.members`` is closed from it when read.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .components import component_label
from .errors import InputError, ResourceCapError
from .kernel import KeySet, partition, scan_degree
from .origami import Origami, Stratum
from .orbits import OrbitSummary, _summary_from_parts, format_rational, orbit_scan


#: the most class elements under one degree's walk, before it prunes: d! <= 12!, so d <= 12
SCAN_CAP = math.factorial(12)


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


def _scan_degree(d: int, targets: dict[Stratum, tuple[int, ...]]) -> dict[Stratum, KeySet]:
    """All canonical transitive pairs of degree d per target stratum,
    as packed canonical keys.  Raises ResourceCapError before the scan
    when d! is past ``SCAN_CAP``."""
    if not targets:
        return {}
    _check_scan(d)
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


def _check_scan(d: int) -> None:
    walk = 1
    for k in range(2, d + 1):   # stops at 13 however large d is
        walk *= k
        if walk > SCAN_CAP:
            raise ResourceCapError(
                f"a scan of degree {d} walks {d}! permutations, past the cap of {SCAN_CAP}"
            )


def enumerate_origamis(d: int, s: Stratum) -> KeySet:
    """All origamis of degree d in the stratum, one packed canonical key
    per conjugacy class, as a sized KeySet that yields them sorted;
    ``Origami.from_key`` rebuilds one."""
    if d < 1:
        raise InputError("degree must be positive")
    target = commutator_cycle_type(s, d)
    if target is None:
        return KeySet(d)
    return _scan_degree(d, {s: target})[s]


@dataclass(frozen=True)
class OrbitClass:
    """One SL(2,Z) orbit inside an enumerated set."""

    representative: Origami      # built from the least member
    summary: OrbitSummary

    @property
    def members(self) -> tuple[bytes, ...]:
        """The orbit's canonical keys, sorted: closed again on each read."""
        return tuple(sorted(orbit_scan(self.representative).keys))


def orbit_partition(keys: KeySet) -> list[OrbitClass]:
    """Partition the KeySet of one degree and stratum that
    ``enumerate_origamis`` returns into SL(2,Z) orbits, in the order of
    their least keys; see ``kernel.partition``.

    Only the least key of each orbit becomes an ``Origami``, and every key
    lands in a closed orbit, so checking the stratum of each orbit's least
    key checks the whole input: two strata raise InputError.  Each summary
    comes from its orbit's closure; no cache is read.
    """
    d = keys.degree
    stratum = None
    out = []
    for least, size, total, cusp_count in partition(keys):
        representative = Origami.from_key(least)
        if stratum is None:
            stratum = representative.stratum()
        elif representative.stratum() != stratum:
            raise InputError("orbit partition needs a single degree and stratum")
        summary = _summary_from_parts(d, stratum, size, cusp_count, total)
        out.append(OrbitClass(representative, summary))
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
        writer.writerows(row.values() for row in self.to_json())
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


def nonvarying_report(s: Stratum, d_max: int, d_min: int | None = None) -> StratumReport:
    """Aggregate orbit L values per component over all degrees <= d_max.

    One entry per distinct (component, L) pair, witnessed by the orbit
    of smallest degree (then smallest representative) realizing it.
    """
    if s.genus < 2:
        raise InputError("non-varying reports need genus >= 2")
    entries: list[ReportEntry] = []
    seen: set[tuple[str, Fraction]] = set()
    for d, oc in orbits_by_degree(s, d_max, d_min):
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


def orbits_by_degree(s: Stratum, d_max: int, d_min: int | None = None):
    """(degree, OrbitClass) for every orbit of the stratum, degree by
    degree from d_min (at least the stratum's support) to d_max.  Raises
    ResourceCapError before the first scan when d_max is past the scan
    cap."""
    _check_scan(d_max)
    support = sum(m + 1 for m in s.orders)
    for d in range(max(d_min or support, support), d_max + 1):
        for oc in orbit_partition(enumerate_origamis(d, s)):
            yield d, oc
