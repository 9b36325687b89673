"""Connected-component classification inside a stratum.

Three ingredients, all combinatorial:

* hyperelliptic involution: a square relabelling sigma with
  sigma r sigma = r^-1, sigma u sigma = u^-1 and sigma^2 = id induces a
  flat involution rotating every square by pi.  The quotient carries a
  quadratic differential: a fixed square center, edge midpoint or
  regular vertex has order -1, a fixed zero of order m has m - 1 and an
  exchanged pair of zeros of order m has 2m.  The fixed points are the
  odd orders, and the involution is *the* hyperelliptic involution
  exactly when they number 2g + 2, the quotient then being the sphere.

* spin parity: for strata with all zero orders even, the parity is the
  Arf invariant of the quadratic form q(gamma) = ind(gamma) + 1 (mod 2)
  on H_1(X; Z/2), where ind is the degree of the Gauss map in the flat
  trivialization.  The d + 1 non-tree edges of a spanning tree of the
  squares close d + 1 simple cycles through square centers, which span
  H_1.  A simple cycle has q = turning number + 1; two cycles meet only
  in squares both pass through, so the Gram rows come from a table of
  which strands cross in one square.  A symplectic reduction of those
  rows gives the Arf invariant.

* the component label combines both with the classification of strata
  components (hyperelliptic / even / odd / nonhyperelliptic / connected).
  The hyperelliptic components are the double covers of
  Q(2g-3, -1^(2g+1)) and Q(2g-2, -1^(2g+2)) (Kontsevich-Zorich), so a
  surface lies in one exactly when its quotient signature has one
  order other than -1.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .kernel import corner_walk, invert
from .moduli import QuadSignature
from .origami import Origami
from .permutation import Permutation

# moves through square centers, counterclockwise; E/W follow the right
# gluing, N/S the up one
E, N, W, S = 0, 1, 2, 3
_OPPOSITE = (W, S, E, N)


def _moves(o: Origami) -> tuple:
    """The square each move reaches from each square (0-based), indexed
    E, N, W, S."""
    rz, uz = o.right.zero_based(), o.up.zero_based()
    return rz, uz, invert(rz), invert(uz)


# -- hyperelliptic involution ----------------------------------------------

@dataclass(frozen=True)
class Involution:
    """A flat involution of the origami with the signature of the
    quadratic differential on its quotient."""

    sigma: Permutation
    quotient: QuadSignature

    @property
    def fixed_point_count(self) -> int:
        """Fixed points on the surface: the odd orders of the quotient."""
        return sum(m % 2 for m in self.quotient.orders)


def hyperelliptic_involution(o: Origami) -> Involution | None:
    """Search for the hyperelliptic involution; None when absent.

    Candidates are propagated from sigma(1) = j over the move graph via
    sigma(r(i)) = r^-1(sigma(i)) and sigma(u(i)) = u^-1(sigma(i)); the
    smallest seed j that yields a consistent involution with exactly
    2g + 2 fixed points wins.  sigma maps the r-cycle of 1 onto an r-cycle
    of the same length, and likewise for u, so a seed whose cycle lengths
    differ from those of 1 is not tried.
    """
    s = o.stratum()
    if s.genus < 2:
        raise InputError("hyperelliptic involution search needs genus >= 2")
    target = 2 * s.genus + 2
    moves = _moves(o)
    vertex_of, sizes = corner_walk(moves[E], moves[N])
    r, u = moves[E], moves[N]
    r_len, u_len = _cycle_length(r, 0), _cycle_length(u, 0)
    for seed in range(o.degree):
        if _cycle_length(r, seed) != r_len or _cycle_length(u, seed) != u_len:
            continue
        sigma = _propagate_involution(moves, seed)
        if sigma is None:
            continue
        orders = _quotient_orders(moves, sigma, vertex_of, sizes)
        if sum(m % 2 for m in orders) == target:
            try:
                quotient = QuadSignature(orders)
            except InputError as exc:
                raise InternalCheckError(f"quotient is not the sphere: {exc}") from None
            return Involution(Permutation(tuple(x + 1 for x in sigma)), quotient)
    return None


def _cycle_length(p, x) -> int:
    """The length of the cycle of the 0-based p through x."""
    n, y = 1, p[x]
    while y != x:
        n, y = n + 1, p[y]
    return n


def _propagate_involution(moves, seed):
    rz, uz, rinv, uinv = moves
    d = len(rz)
    sigma = [-1] * d
    sigma[0] = seed
    queue = deque((0,))
    while queue:
        i = queue.popleft()
        si = sigma[i]
        for nxt, img in ((rz[i], rinv[si]), (uz[i], uinv[si])):
            if sigma[nxt] < 0:
                sigma[nxt] = img
                queue.append(nxt)
            elif sigma[nxt] != img:
                return None
    for i in range(d):
        if sigma[sigma[i]] != i:
            return None
    # conjugation identities hold on generators by construction; check anyway
    for i in range(d):
        if sigma[rz[sigma[i]]] != rinv[i] or sigma[uz[sigma[i]]] != uinv[i]:
            return None
    return sigma


def _quotient_orders(moves, sigma, vertex_of, sizes) -> list[int]:
    """Orders of the quadratic differential on the quotient by the
    rotation-by-pi involution sigma, regular points left out.

    A fixed square center (sigma(i) = i), right-edge midpoint
    (sigma(i) = r(i)) or top-edge midpoint (sigma(i) = u(i)) has order -1.
    ``vertex_of`` and ``sizes`` come from ``kernel.corner_walk``; the
    involution sends the vertex holding lower-left slot i to the one
    holding slot u(r(sigma(i))).  A fixed vertex of k slots, a zero of
    order k - 1, has order k - 2; an exchanged pair of them, 2k - 2.
    """
    rz, uz = moves[E], moves[N]
    orders = [-1] * sum(
        (s == i) + (s == rz[i]) + (s == uz[i]) for i, s in enumerate(sigma)
    )
    image = [-1] * len(sizes)
    for i, s in enumerate(sigma):
        v, w = vertex_of[i], vertex_of[uz[rz[s]]]
        if image[v] < 0:
            image[v] = w
        elif image[v] != w:
            raise InternalCheckError("involution does not permute vertices")
    for v, w in enumerate(image):
        if v == w:
            orders.append(sizes[v] - 2)
        elif v < w and sizes[v] > 1:
            orders.append(2 * sizes[v] - 2)
    return orders


# -- spin parity -------------------------------------------------------------

# A strand crosses one square from its entry side to its exit side; its
# code is entry * 4 + exit.  Two cycles drawn together share an edge in
# two lanes, the lower-indexed cycle in lane 0.  A strand end's place on
# the boundary runs counterclockwise from the SW corner through the sides
# S, E, N, W; lanes run along that direction on S and E and against it on
# N and W, so a lane sits at the same place on both sides of an edge.

def _end(side, lane):
    return 2 * ((side + 1) % 4) + (lane if side in (E, S) else 1 - lane)


def _crosses(a, b):
    """Whether strand ``a`` in lane 0 crosses strand ``b`` in lane 1: their
    ends interleave on the boundary."""
    lo, hi = sorted((_end(a >> 2, 0), _end(a & 3, 0)))
    return (lo < _end(b >> 2, 1) < hi) != (lo < _end(b & 3, 1) < hi)


#: bitmask over the codes b of the strands in lane 1 crossing strand a
_CROSSES = tuple(sum(_crosses(a, b) << b for b in range(16)) for a in range(16))
#: quarter turn of a strand: +1 left, -1 right, 0 straight on
_TURN = tuple(((a & 3) - (a >> 2 ^ 2) + 1) % 4 - 1 for a in range(16))


def spin_parity(o: Origami) -> str:
    """Parity ("even" or "odd") of the induced spin structure.

    Defined only when every zero order is even.  Computed as the Arf
    invariant of the flat quadratic form on the simple cycles that the
    non-tree edges of a spanning tree of the move graph close.
    """
    s = o.stratum()
    if any(m % 2 for m in s.orders):
        raise InputError(
            f"spin parity undefined: stratum {s} has a zero of odd order"
        )
    if s.genus < 2:
        raise InputError("spin parity needs genus >= 2")
    rows, q = _form_rows(_tree_cycles(_moves(o)), o.degree)
    return "odd" if _arf(rows, q, s.genus) else "even"


def _tree_cycles(moves) -> list[tuple[list[int], list[int]]]:
    """One cycle per non-tree edge of a BFS spanning tree on the squares,
    d + 1 in all: the edge closed through the lowest common ancestor of
    its two ends.  Each is a simple cycle of the move graph, returned as
    its squares and the move leaving each, from the ancestor on."""
    d = len(moves[E])
    parent, into, depth = [-1] * d, [0] * d, [-1] * d
    depth[0] = 0
    queue = [0]
    for x in queue:
        for move in (E, N, W, S):
            y = moves[move][x]
            if depth[y] < 0:
                parent[y], into[y], depth[y] = x, move, depth[x] + 1
                queue.append(y)

    cycles = []
    for x in range(d):
        for move in (E, N):
            y = moves[move][x]
            if (parent[y] == x and into[y] == move) or (
                parent[x] == y and into[x] == _OPPOSITE[move]
            ):
                continue
            down, up, a, b = [], [], x, y
            while depth[a] > depth[b]:
                down.append(a)
                a = parent[a]
            while depth[b] > depth[a]:
                up.append(b)
                b = parent[b]
            while a != b:
                down.append(a)
                up.append(b)
                a, b = parent[a], parent[b]
            down.reverse()
            cycles.append((
                [a] + down + up,
                [into[z] for z in down] + [move] + [_OPPOSITE[into[z]] for z in up],
            ))
    return cycles


def _form_rows(cycles, d) -> tuple[list[int], list[int]]:
    """Mod-2 intersection rows (bitmasks over the cycles) and form values
    of simple center cycles.

    A simple cycle crosses itself nowhere, so q = turning number + 1.  Two
    cycles meet only in squares both pass through, and there cross when
    their strands do, the lower-indexed cycle in lane 0.
    """
    by_square = [[] for _ in range(d)]
    q = []
    for ci, (squares, word) in enumerate(cycles):
        turn, prev = 0, word[-1]
        for square, move in zip(squares, word):
            code = (_OPPOSITE[prev] << 2) | move
            turn += _TURN[code]
            by_square[square].append((ci, code))
            prev = move
        q.append((turn // 4 + 1) & 1)
    rows = [0] * len(cycles)
    for strands in by_square:
        for k, (b, code) in enumerate(strands):
            for a, code_a in strands[:k]:
                if _CROSSES[code_a] >> code & 1:
                    rows[a] ^= 1 << b
                    rows[b] ^= 1 << a
    return rows, q


def _arf(rows, q, genus) -> int:
    """Arf invariant by symplectic reduction of generators given by their
    intersection rows and form values (both consumed).

    Split off a pair v, w with <v, w> = 1 and move every other generator x
    to x + <x, w> v + <x, v> w, which pairs to zero with both.  The
    generators may be dependent; the pairs must number the genus and the
    radical left over must carry q = 0: both are enforced.
    """
    live = list(range(len(q)))
    arf = pairs = 0
    while True:
        v = next((x for x in live if rows[x]), None)
        if v is None:
            break
        row_v = rows[v]
        w = (row_v & -row_v).bit_length() - 1
        row_w, q_v, q_w = rows[w], q[v], q[w]
        arf ^= q_v & q_w
        pairs += 1
        live.remove(v)
        live.remove(w)
        for x in live:
            row = rows[x]
            xv, xw = row >> v & 1, row >> w & 1
            if xv:
                row ^= row_w
            if xw:
                row ^= row_v
            rows[x] = row
            q[x] ^= (xw & q_v) ^ (xv & q_w) ^ (xw & xv)
    if pairs != genus:
        raise InternalCheckError(
            f"symplectic rank {2 * pairs} does not match genus {genus}"
        )
    if any(q[x] for x in live):
        raise InternalCheckError("radical class with q = 1: bad realization")
    return arf


# -- the component label ------------------------------------------------------

@dataclass(frozen=True)
class ComponentLabel:
    """Connected component of the ambient stratum containing the origami.

    ``kind`` is one of hyperelliptic / even / odd / nonhyperelliptic /
    connected.  ``parity`` is filled whenever it is defined (all zero
    orders even), including for hyperelliptic surfaces; ``involution``
    is the hyperelliptic involution when one exists.
    """

    kind: str
    parity: str | None = None
    involution: Involution | None = None

    def to_json(self) -> dict:
        return {
            "component": self.kind,
            "involution": (
                list(self.involution.sigma.images) if self.involution else None
            ),
            "parity": self.parity,
        }


def in_hyperelliptic_component(o: Origami, inv: Involution | None = None) -> bool:
    """Membership in the hyperelliptic *component* of the stratum.

    Its surfaces are the double covers of Q(2g-3, -1^(2g+1)) and
    Q(2g-2, -1^(2g+2)): the quotient has exactly one order other than -1,
    a single fixed zero or one exchanged pair.  A hyperelliptic curve
    whose quotient has more such orders, like one fixing both zeros of
    (2,2), sits in another component.
    """
    if inv is None:
        inv = hyperelliptic_involution(o)
    return inv is not None and sum(m != -1 for m in inv.quotient.orders) == 1


def component_label(o: Origami) -> ComponentLabel:
    """Classify the connected component of the stratum around ``o``.

    The hyperelliptic label is reserved for the hyperelliptic component
    (see ``in_hyperelliptic_component``); otherwise the spin parity
    decides for all-even strata; strata of shape (odd, odd) with equal
    entries split off a nonhyperelliptic component; every other stratum
    is connected.  The involution, when one exists, is reported either
    way, as is the parity whenever it is defined.
    """
    s = o.stratum()
    if s.genus < 2:
        raise InputError("component classification needs genus >= 2")
    inv = hyperelliptic_involution(o)
    parity = None
    if all(m % 2 == 0 for m in s.orders):
        parity = spin_parity(o)
    if inv is not None and in_hyperelliptic_component(o, inv):
        return ComponentLabel("hyperelliptic", parity, inv)
    if parity is not None:
        return ComponentLabel(parity, parity, inv)
    orders = s.orders
    if len(orders) == 2 and orders[0] == orders[1] and orders[0] % 2 == 1:
        return ComponentLabel("nonhyperelliptic", None, inv)
    return ComponentLabel("connected", None, inv)
