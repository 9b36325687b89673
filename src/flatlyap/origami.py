"""Square-tiled surfaces given by a pair of permutations.

An origami on d squares is a pair ``(right, up)`` of permutations of
{1..d}: ``right(i)`` is the square glued to the right edge of square i,
``up(i)`` the square glued to its top edge.  The pair must act
transitively for the surface to be connected.

The cone points of the flat metric are the vertices that
``kernel.corner_walk`` finds as the cycles of ``up * right * up^-1 *
right^-1``, a conjugate of the commutator ``up^-1 * right^-1 * up *
right``: a vertex of k >= 2 corner slots is a zero of order k - 1 of the
induced one-form, which yields the stratum and the genus.
"""
from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DisconnectedError, InputError, InternalCheckError
from .kernel import corner_walk
from .permutation import Permutation, is_transitive


@dataclass(frozen=True)
class Stratum:
    """Multiset of zero orders (m_1..m_k), stored descending.

    The empty stratum is the torus case g = 1.
    """

    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int] = ()):
        orders = tuple(sorted((int(m) for m in orders), reverse=True))
        if any(m < 1 for m in orders):
            raise InputError(f"zero orders must be positive: {orders}")
        if sum(orders) % 2:
            raise InputError(f"sum of orders must be even: {orders}")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def parse(cls, text: str) -> "Stratum":
        """Parse ``"3,1"`` or ``"(3,1)"``."""
        tokens = text.replace("(", "").replace(")", "").split(",")
        try:
            return cls(int(t) for t in tokens if t.strip())
        except ValueError:
            raise InputError(f"a stratum lists zero orders, like 3,1, not {text!r}") from None

    @property
    def genus(self) -> int:
        return sum(self.orders) // 2 + 1

    def __str__(self) -> str:
        return "(" + ",".join(str(m) for m in self.orders) + ")"

    def __iter__(self):
        return iter(self.orders)

    def __len__(self) -> int:
        return len(self.orders)


def kappa(s: Stratum) -> Fraction:
    """The stratum constant (1/12) sum m_i (m_i + 2) / (m_i + 1).

    Positive for g >= 2; undefined for the empty (torus) stratum.
    """
    if not s.orders:
        raise InputError("kappa is undefined for the empty stratum")
    p = math.prod(m + 1 for m in s.orders)   # one common denominator
    return Fraction(sum(m * (m + 2) * (p // (m + 1)) for m in s.orders), 12 * p)


class Origami:
    """A connected square-tiled surface.

    >>> o = Origami.from_cycles("(1 2 3 4)", "(1 5)", 5)
    >>> o.stratum()
    Stratum(orders=(2,))
    >>> o.genus()
    2
    """

    # _connected and _stratum hold what validate() and stratum() found;
    # right and up never change
    __slots__ = ("_right", "_up", "_connected", "_stratum")

    def __init__(self, right: Permutation, up: Permutation):
        if right.degree != up.degree:
            raise InputError(
                f"degree mismatch: right has {right.degree}, up has {up.degree}"
            )
        self._right = right
        self._up = up
        self._connected = False
        self._stratum = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_cycles(cls, right: str, up: str, degree: int) -> "Origami":
        return cls(
            Permutation.from_cycles(right, degree),
            Permutation.from_cycles(up, degree),
        )

    @classmethod
    def from_text(cls, text: str) -> "Origami":
        """Parse the inline format ``r=<cycles>; u=<cycles>; d=<int>``.

        Cycle fields may also use the one-line image format.
        """
        fields = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            m = re.fullmatch(r"([rud])\s*=\s*(.*)", part, re.DOTALL)
            if not m:
                raise InputError(f"cannot parse origami field {part!r}")
            fields[m.group(1)] = m.group(2).strip()
        if set(fields) != {"r", "u", "d"}:
            raise InputError("origami text needs exactly the fields r=, u=, d=")
        try:
            degree = int(fields["d"])
        except ValueError:
            raise InputError(f"bad degree {fields['d']!r}") from None
        perms = {}
        for key in ("r", "u"):
            value = fields[key]
            if "(" in value or value == "":
                perms[key] = Permutation.from_cycles(value, degree)
            else:
                perms[key] = Permutation.from_one_line(value, degree)
        return cls(perms["r"], perms["u"])

    @classmethod
    def from_json(cls, data) -> "Origami":
        try:
            if isinstance(data, str):
                data = json.loads(data)
            if isinstance(data["degree"], bool):
                raise TypeError("the degree is a boolean")
            degree = operator.index(data["degree"])
            right, up = list(data["right"]), list(data["up"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad origami JSON: {exc}") from None
        if len(right) != degree or len(up) != degree:
            raise InputError("image lists must have length equal to the degree")
        return cls(Permutation(right), Permutation(up))

    @classmethod
    def from_key(cls, key: bytes) -> "Origami":
        """The origami of a packed key ``bytes(r) + bytes(u)`` of 0-based
        images, the form ``kernel.canonical_key`` and the scans produce."""
        d, odd = divmod(len(key), 2)
        if odd:
            raise InputError(f"a packed key needs an even length, got {len(key)}")
        return cls(
            Permutation([x + 1 for x in key[:d]]), Permutation([x + 1 for x in key[d:]])
        )

    # -- protocol ---------------------------------------------------------

    @property
    def right(self) -> Permutation:
        return self._right

    @property
    def up(self) -> Permutation:
        return self._up

    @property
    def degree(self) -> int:
        return self._right.degree

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Origami)
            and self._right == other._right
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self._right, self._up))

    def __repr__(self) -> str:
        return f"Origami(r={self._right!s}, u={self._up!s}, d={self.degree})"

    def __str__(self) -> str:
        return f"r={self._right!s}; u={self._up!s}; d={self.degree}"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "right": list(self._right.images),
            "up": list(self._up.images),
        }

    # -- geometry ---------------------------------------------------------

    def validate(self) -> "Origami":
        """Check connectivity, on the first call that passes only; returns
        self so calls can be chained."""
        if not self._connected:
            if self.degree == 0:
                raise InputError("an origami needs at least one square")
            if not is_transitive(self._right, self._up):
                raise DisconnectedError(
                    "permutation pair is not transitive: disconnected surface"
                )
            self._connected = True
        return self

    def stratum(self) -> Stratum:
        """The stratum, computed on the first call and kept."""
        if self._stratum is None:
            self.validate()
            _, sizes = corner_walk(self._right.zero_based(), self._up.zero_based())
            s = Stratum(k - 1 for k in sizes if k >= 2)
            # Euler characteristic cross-check: #vertices - d = 2 - 2g.
            if len(sizes) - self.degree != 2 - 2 * s.genus:
                raise InternalCheckError("genus computations disagree")
            self._stratum = s
        return self._stratum

    def genus(self) -> int:
        return self.stratum().genus

