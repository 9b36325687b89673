"""Exact permutation arithmetic on the symbols 1..d.

Permutations are stored as a tuple ``images`` with ``images[i-1]`` the
image of the symbol ``i``.  The composition convention is fixed once and
for all as ``(p * q)(x) = p(q(x))`` (right-to-left); every formula in the
rest of the package assumes it.  The canonical form of a pair under
simultaneous conjugation is ``kernel.canonical_key``.
"""
from __future__ import annotations

import operator
import re
from typing import Sequence

from .errors import InputError
from .kernel import invert

_TOKEN = re.compile(r"\d+")
_ONE_LINE = re.compile(r"\s*(\d+(\s*[,\s]\s*\d+)*\s*)?")


class Permutation:
    """A bijection of {1..d}, immutable and hashable.

    >>> p = Permutation([2, 3, 4, 1, 5])
    >>> str(p)
    '(1 2 3 4)'
    >>> cycle_type(p)
    (4, 1)
    """

    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]):
        try:
            images = tuple(images)
            if bool in map(type, images):
                raise TypeError("booleans are not images")
            images = tuple(map(operator.index, images))
        except TypeError as exc:
            raise InputError(f"images must be integers: {exc}") from None
        d = len(images)
        seen = [False] * d
        for x in images:
            if not 1 <= x <= d:
                raise InputError(f"image {x} out of range 1..{d}")
            if seen[x - 1]:
                raise InputError(f"repeated image {x}: not a bijection")
            seen[x - 1] = True
        self._images = images

    # -- construction ---------------------------------------------------

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation, e.g. ``"(1 2 3 4)(5)"`` or ``"(1,14)"``.

        Symbols inside a cycle are separated by spaces or commas; symbols
        not listed are fixed.  Every symbol must lie in 1..degree and may
        appear at most once, otherwise the input is rejected.
        """
        return cls(_parse_cycle_images(text, degree))

    @classmethod
    def from_one_line(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse the one-line image format, e.g. ``"2 3 4 1 5"`` or
        ``"2,3,4,1,5"``: positive integers separated by spaces or commas."""
        if not _ONE_LINE.fullmatch(text):
            raise InputError(f"malformed one-line images: {text!r}")
        images = [int(t) for t in _TOKEN.findall(text)]
        if degree is not None and len(images) != degree:
            raise InputError(f"expected {degree} images, got {len(images)}")
        return cls(images)

    # -- basic protocol --------------------------------------------------

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.degree:
            raise InputError(f"symbol {x} out of range 1..{self.degree}")
        return self._images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"

    def __str__(self) -> str:
        cycles = [c for c in self.cycles() if len(c) > 1]
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    # -- structure -------------------------------------------------------

    def inverse(self) -> "Permutation":
        return Permutation(x + 1 for x in invert(self.zero_based()))

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles including fixed points, each starting at its least
        symbol, ordered by that symbol."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self._images[start - 1]
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self._images[x - 1]
            out.append(tuple(cyc))
        return out

    def zero_based(self) -> tuple[int, ...]:
        """Images as a 0-based tuple, for the hot loops."""
        return tuple(x - 1 for x in self._images)


def _parse_cycle_images(text: str, degree: int) -> list[int]:
    if degree < 0:
        raise InputError("degree must be non-negative")
    stripped = text.strip()
    if stripped and not re.fullmatch(
        r"(\(\s*(\d+(\s*[, ]\s*\d+)*)?\s*\)\s*)*", stripped
    ):
        raise InputError(f"malformed cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    used = [False] * degree
    for cyc_text in re.findall(r"\(([^()]*)\)", stripped):
        tokens = _TOKEN.findall(cyc_text)
        symbols = []
        for token in tokens:
            value = int(token)
            if 1 <= value <= degree:
                symbols.append(value)
            elif (
                len(tokens) == 1
                and len(token) > 1
                and all(1 <= int(ch) <= degree for ch in token)
            ):
                # compressed single-digit run like "(1234)"; separated
                # symbols are always literal, so "(1 14)" at degree 13
                # stays an error rather than a guess
                symbols.extend(int(ch) for ch in token)
            else:
                raise InputError(f"symbol {value} out of range 1..{degree}")
        for s in symbols:
            if used[s - 1]:
                raise InputError(f"symbol {s} appears twice")
            used[s - 1] = True
        for a, b in zip(symbols, symbols[1:] + symbols[:1]):
            images[a - 1] = b
    return images


# -- module-level operations (the public vocabulary) ----------------------

def parse_cycles(text: str, degree: int) -> Permutation:
    """Cycle-notation parser; unlisted symbols are fixed points."""
    return Permutation.from_cycles(text, degree)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition ``(p*q)(x) = p(q(x))``; degrees must agree."""
    if p.degree != q.degree:
        raise InputError(f"degree mismatch: {p.degree} != {q.degree}")
    pq = p.images
    return Permutation(tuple(pq[x - 1] for x in q.images))


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Multiset of cycle lengths (fixed points included), sorted descending."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


def is_transitive(r: Permutation, u: Permutation) -> bool:
    """True iff the group generated by ``r`` and ``u`` has a single orbit.

    Forward moves suffice: in a finite group every inverse is a positive
    power, so the reachable set under r, u alone is already a block.
    """
    if r.degree != u.degree:
        raise InputError(f"degree mismatch: {r.degree} != {u.degree}")
    d = r.degree
    if d == 0:
        return False
    rz, uz = r.zero_based(), u.zero_based()
    seen = [False] * d
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for y in (rz[x], uz[x]):
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == d
