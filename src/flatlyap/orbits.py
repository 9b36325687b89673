"""SL(2,Z) action, orbit enumeration and the exact Lyapunov-sum formula.

The group SL(2,Z) acts on origamis through the two generators

    T (horizontal shear):  (r, u) -> (r, u * r^-1)
    S (quarter rotation):  (r, u) -> (u^-1, r)

up to simultaneous relabelling of the squares, so orbits are sets of
canonical forms.  For an origami orbit the sum of Lyapunov exponents is

    L = kappa + (1/N) * sum over the cusps of width * sum_cylinders h/w

(Eskin-Kontsevich-Zorich), with N the orbit size: a cusp is a T-cycle,
as long as its width, whose members share their horizontal cylinders.
The Siegel-Veech constant is c = L - kappa and the slope is
s = 12 - 12 kappa / L.  Everything is exact rational arithmetic; no
floating point enters anywhere in this module.

Degree-11 orbits run into the millions of elements, so the breadth-first
search works on packed byte strings: a canonical pair of 0-based image
tuples (r, u) is stored as the 2d-byte key bytes(r) + bytes(u), whose
lexicographic order agrees with tuple order.  The search itself, with the
canonical form, the cusps and the cylinder sums, runs in ``kernel``.
"""
from __future__ import annotations

import fcntl
import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import InputError, InternalCheckError
from .kernel import OrbitScan, canonical_key, cylinders, orbit_closure
from .origami import Origami, Stratum, kappa

DEFAULT_ORBIT_CAP = 10**7


def act_T(o: Origami) -> Origami:
    """Image under the horizontal shear [[1,1],[0,1]]."""
    return Origami(o.right, o.up * o.right.inverse())


def act_S(o: Origami) -> Origami:
    """Image under the rotation by pi/2."""
    return Origami(o.up.inverse(), o.right)


@dataclass(frozen=True)
class CylinderDecomposition:
    """Horizontal cylinders as (width, height) pairs, widest first."""

    cylinders: tuple[tuple[int, int], ...]

    @property
    def sum_h_over_w(self) -> Fraction:
        return sum((Fraction(h, w) for w, h in self.cylinders), Fraction(0))

    @property
    def total_area(self) -> int:
        return sum(w * h for w, h in self.cylinders)

    def __iter__(self):
        return iter(self.cylinders)

    def __len__(self):
        return len(self.cylinders)


def horizontal_cylinders(o: Origami) -> CylinderDecomposition:
    """Decompose into horizontal cylinders.

    Rows are the cycles of ``right``.  The circle between a row R and the
    row above it carries no cone point exactly when up(right(j)) equals
    right(up(j)) for every j in R; in that case both rows belong to the
    same cylinder.  Cylinders are the maximal chains of rows, with width
    the common row length and height the number of rows.  A chain closing
    up into a torus happens in genus one only.
    """
    o.validate()
    return CylinderDecomposition(cylinders(o.right.zero_based(), o.up.zero_based()))


# -- orbit scan ---------------------------------------------------------------

def orbit_scan(o: Origami, max_size: int = DEFAULT_ORBIT_CAP) -> OrbitScan:
    """Close the canonical form of ``o`` under T and S (``kernel.OrbitScan``).

    The visited set is keyed by packed canonical forms, so the resulting
    set is independent of scheduling.  An empty or disconnected ``o``
    fails its canonical form (DisconnectedError).
    """
    if max_size < 1:
        raise InputError("orbit-size cap must be at least 1")
    return orbit_closure(o.right.zero_based(), o.up.zero_based(), max_size)


def orbit(o: Origami, max_size: int = DEFAULT_ORBIT_CAP) -> list[Origami]:
    """The SL(2,Z) orbit of ``o`` as a sorted list of canonical origamis."""
    return [Origami.from_key(k) for k in orbit_scan(o, max_size=max_size)]


# -- orbit invariants ---------------------------------------------------------

@dataclass(frozen=True)
class OrbitSummary:
    """Exact invariants of one SL(2,Z) orbit."""

    degree: int
    stratum: Stratum
    orbit_size: int
    cusp_count: int
    total_hw: Fraction
    L: Fraction
    c: Fraction
    s: Fraction

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "stratum": list(self.stratum.orders),
            "orbit_size": self.orbit_size,
            "cusp_count": self.cusp_count,
            "total_hw": format_rational(self.total_hw),
            "L": format_rational(self.L),
            "c": format_rational(self.c),
            "s": format_rational(self.s),
        }


def format_rational(x: Fraction) -> str:
    """Lowest terms, always with an explicit positive denominator."""
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _summary_from_parts(
    degree: int, stratum: Stratum, n: int, cusp_count: int, total: Fraction
) -> OrbitSummary:
    if stratum.genus < 2:
        raise InputError("Lyapunov data needs genus >= 2")
    # in integers: kappa = a/b, c = total/n = p/q, L = kappa + c = x/(bq)
    k = kappa(stratum)
    a, b = k.numerator, k.denominator
    p, q = total.numerator, total.denominator * n
    x = a * q + b * p
    # s = 12 - 12 kappa/L = 12(x - aq)/x must equal 12 c/L = 12bp/x
    s = 12 * (x - a * q)
    if s != 12 * b * p:
        raise InternalCheckError("slope identities disagree")
    L, c = Fraction(x, b * q), Fraction(p, q)
    if not (x > 0 and 0 < s < 12 * x):   # L > 0 and 0 < s/x < 12
        raise InternalCheckError(f"orbit invariants out of range: L={L}, s={Fraction(s, x)}")
    return OrbitSummary(degree, stratum, n, cusp_count, total_hw=total, L=L, c=c, s=Fraction(s, x))


def cusps(
    o: Origami, max_size: int = DEFAULT_ORBIT_CAP
) -> list[tuple[int, Origami, CylinderDecomposition]]:
    """(width, representative, cylinder data) per T-cycle of the SL(2,Z)
    orbit; widths add up to the orbit size.  Where -I is not in the Veech
    group, a cusp of the Teichmueller curve is one or two such cycles."""
    s = o.stratum()
    if s.genus < 2:
        raise InputError("cusp data needs genus >= 2")
    scan = orbit_scan(o, max_size=max_size)
    d = scan.degree
    return [
        (width, Origami.from_key(key), CylinderDecomposition(cylinders(key[:d], key[d:])))
        for width, key in scan.cusp_widths()
    ]


def lyapunov_sum(
    o: Origami, max_size: int = DEFAULT_ORBIT_CAP, cache: "OrbitCache | None" = None
) -> OrbitSummary:
    """Sum of Lyapunov exponents (with c and s) for the orbit of ``o``."""
    stratum = o.stratum()
    if stratum.genus < 2:
        raise InputError(f"Lyapunov data needs genus >= 2, got genus {stratum.genus}")
    if cache is not None:
        key = canonical_key(o.right.zero_based(), o.up.zero_based())
        hit = cache.lookup_any(key)
        if hit is not None:
            n, cusp_count, total = hit
            return _summary_from_parts(o.degree, stratum, n, cusp_count, total)
    scan = orbit_scan(o, max_size=max_size)   # its cusps are its T-cycles
    n, cusp_count = scan.size, len(scan.cusp_widths())
    summary = _summary_from_parts(o.degree, stratum, n, cusp_count, scan.total_hw)
    if cache is not None:
        cache.store(scan.least, summary.orbit_size, summary.cusp_count, summary.total_hw)
        cache.store_alias(key, scan.least)
    return summary


class OrbitCache:
    """Persistent orbit results under FLATLYAP_CACHE_DIR.

    ``orbits.cache`` holds one line per canonical key a result is known
    for, ``<key-hash> <N> <cusp_count> <total_hw> <line-hash>``: the
    orbit's least key, and every other key a query started from, so a
    repeated query hits without a fresh search.  The trailing line hash
    detects corruption: bad lines are dropped, forcing a recompute, and
    counted in ``dropped``.  Only ``lyapunov_sum`` reads the cache.
    """

    ENV_VAR = "FLATLYAP_CACHE_DIR"

    def __init__(self, directory: str | os.PathLike | None = None):
        if directory is None:
            directory = os.environ.get(self.ENV_VAR)
        if directory is None:
            raise InputError(
                "no cache directory: pass one or set FLATLYAP_CACHE_DIR"
            )
        self.path = Path(directory) / "orbits.cache"
        self._entries: dict[str, tuple[int, int, Fraction]] = {}
        self.dropped = 0
        self._load()

    @staticmethod
    def key_hash(key: bytes) -> str:
        return hashlib.sha256(key).hexdigest()

    @staticmethod
    def _line_hash(payload: str) -> str:
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise InputError(f"cannot read the orbit cache {str(self.path)!r}: {exc}") from None
        for raw in data.splitlines():
            try:
                line = raw.decode().strip()
                if not line or line.startswith("#"):
                    continue
                digest, n_text, cusp_text, total_text, check = line.split()
                if check != self._line_hash(f"{digest} {n_text} {cusp_text} {total_text}"):
                    raise ValueError
                n, cusp_count = int(n_text), int(cusp_text)
                total = parse_rational(total_text)
                if n < 1 or cusp_count < 1 or len(digest) != 64:
                    raise ValueError
            except (ValueError, ZeroDivisionError):  # UnicodeDecodeError is a ValueError
                self.dropped += 1  # corrupted line: recompute later
                continue
            self._entries[digest] = (n, cusp_count, total)

    def lookup_any(self, key: bytes) -> tuple[int, int, Fraction] | None:
        """The result known for ``key``, whether or not it is its orbit's
        least key."""
        return self._entries.get(self.key_hash(key))

    def store(self, key: bytes, n: int, cusp_count: int, total: Fraction) -> None:
        self._append(self.key_hash(key), (n, cusp_count, total))

    def store_alias(self, key: bytes, target: bytes) -> None:
        """Record the result stored for ``target`` under ``key`` too."""
        self._append(self.key_hash(key), self._entries[self.key_hash(target)])

    def _append(self, digest: str, entry: tuple[int, int, Fraction]) -> None:
        if digest in self._entries:
            return
        n, cusp_count, total = entry
        payload = f"{digest} {n} {cusp_count} {format_rational(total)}"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                # one writer at a time: closing the file flushes the line, then unlocks
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(f"{payload} {self._line_hash(payload)}\n")
        except OSError as exc:
            raise InputError(f"cannot write the orbit cache {str(self.path)!r}: {exc}") from None
        self._entries[digest] = entry   # only once its line is written
