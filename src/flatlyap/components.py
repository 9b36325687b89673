"""Connected-component classification inside a stratum.

Three ingredients, all combinatorial:

* hyperelliptic involution: a square relabelling sigma with
  sigma r sigma = r^-1, sigma u sigma = u^-1 and sigma^2 = id induces a
  flat involution rotating every square by pi.  It is *the*
  hyperelliptic involution exactly when its fixed-point count on the
  surface (square centers, invariant edge midpoints, invariant vertices)
  equals 2g + 2.

* spin parity: for strata with all zero orders even, the parity is the
  Arf invariant of the quadratic form q(gamma) = ind(gamma) + 1 (mod 2)
  on H_1(X; Z/2), where ind is the degree of the Gauss map in the flat
  trivialization.  Homology classes are realized as closed paths through
  square centers; for an immersed representative drawn this way,
  q = turning number + 1 + number of transverse self-crossings (mod 2),
  which is invariant under regular homotopy moves and extends the
  simple-curve formula.  One joint drawing of all the fundamental cycles
  gives both their mod-2 intersection (Gram) matrix and their
  self-crossings.

* the component label combines both with the classification of strata
  components (hyperelliptic / even / odd / nonhyperelliptic / connected).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InputError, InternalCheckError
from .kernel import invert
from .origami import Origami
from .permutation import Permutation

# moves through square centers, counterclockwise; E/W follow the right
# gluing, N/S the up one
E, N, W, S = 0, 1, 2, 3
_OPPOSITE = (W, S, E, N)
_LEFT_TURN = {(E, N), (N, W), (W, S), (S, E)}


def _moves(o: Origami) -> tuple:
    """The square each move reaches from each square (0-based), indexed
    E, N, W, S."""
    rz, uz = o.right.zero_based(), o.up.zero_based()
    return rz, uz, invert(rz), invert(uz)


# -- hyperelliptic involution ----------------------------------------------

@dataclass(frozen=True)
class Involution:
    """A flat involution of the origami with its fixed-point count."""

    sigma: Permutation
    fixed_point_count: int


def hyperelliptic_involution(o: Origami) -> Involution | None:
    """Search for the hyperelliptic involution; None when absent.

    Candidates are propagated from sigma(1) = j over the move graph via
    sigma(r(i)) = r^-1(sigma(i)) and sigma(u(i)) = u^-1(sigma(i)); the
    smallest seed j that yields a consistent involution with exactly
    2g + 2 fixed points wins.
    """
    s = o.stratum()
    if s.genus < 2:
        raise InputError("hyperelliptic involution search needs genus >= 2")
    target = 2 * s.genus + 2
    moves = _moves(o)
    for seed in range(o.degree):
        sigma = _propagate_involution(moves, seed)
        if sigma is None:
            continue
        count = _flat_fixed_points(moves, sigma)
        if count == target:
            return Involution(
                sigma=Permutation(tuple(x + 1 for x in sigma)),
                fixed_point_count=count,
            )
    return None


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


def _flat_fixed_points(moves, sigma) -> int:
    """Fixed points of the induced rotation-by-pi involution.

    Square centers: sigma(i) = i.  The right-edge midpoint of square i is
    fixed iff the edge maps to itself reversed, i.e. sigma(i) = r(i);
    top-edge midpoints likewise with u.  Vertices are the cycles of the
    corner walk phi = u r u^-1 r^-1 on lower-left corner slots; the
    involution sends the vertex holding slot i to the one holding slot
    u(r(sigma(i))).
    """
    rz, uz = moves[E], moves[N]
    d = len(rz)
    count = sum(1 for i in range(d) if sigma[i] == i)
    count += sum(1 for i in range(d) if sigma[i] == rz[i])
    count += sum(1 for i in range(d) if sigma[i] == uz[i])

    vertex_of, _ = _corner_walk(moves)
    image_of_vertex = {}
    for i in range(d):
        v = vertex_of[i]
        w = vertex_of[uz[rz[sigma[i]]]]
        if image_of_vertex.setdefault(v, w) != w:
            raise InternalCheckError("involution does not permute vertices")
    count += sum(1 for v, w in image_of_vertex.items() if v == w)
    return count


def _corner_walk(moves) -> tuple[list[int], list[int]]:
    """Vertices as the cycles of phi = u r u^-1 r^-1 on lower-left corner
    slots: the vertex holding each slot, and the slot count of each vertex."""
    rz, uz, rinv, uinv = moves
    d = len(rz)
    vertex_of = [-1] * d
    sizes = []
    for start in range(d):
        if vertex_of[start] >= 0:
            continue
        idx = len(sizes)
        size = 0
        x = start
        while vertex_of[x] < 0:
            vertex_of[x] = idx
            size += 1
            x = uz[rz[uinv[rinv[x]]]]
        if vertex_of[x] != idx:
            raise InternalCheckError("corner walk left its own cycle")
        sizes.append(size)
    return vertex_of, sizes


# -- spin parity -------------------------------------------------------------

def spin_parity(o: Origami) -> str:
    """Parity ("even" or "odd") of the induced spin structure.

    Defined only when every zero order is even.  Computed as the Arf
    invariant of the flat quadratic form evaluated on the fundamental
    cycles of a spanning tree of the move graph.
    """
    s = o.stratum()
    if any(m % 2 for m in s.orders):
        raise InputError(
            f"spin parity undefined: stratum {s} has a zero of odd order"
        )
    if s.genus < 2:
        raise InputError("spin parity needs genus >= 2")
    cycles = fundamental_cycles(o)
    gram, self_crossings = _intersections(cycles)
    q = [(turning_number(c) + 1 + x) % 2 for c, x in zip(cycles, self_crossings)]
    arf = _arf_invariant(gram, q, s.genus)
    return "odd" if arf else "even"


@dataclass(frozen=True)
class CenterCycle:
    """Closed non-backtracking walk through square centers.

    ``moves[k]`` is the move leaving ``squares[k]``; the walk re-enters
    ``squares[0]`` after the last move.
    """

    squares: tuple[int, ...]
    moves: tuple[int, ...]

    def __len__(self):
        return len(self.moves)


def make_cycle(o: Origami, start: int, moves) -> CenterCycle:
    """Build a CenterCycle from a closed move word (of E, N, W, S) based at
    ``start`` (0-based square), reducing backtracks cyclically."""
    word = list(moves)
    if not word:
        raise InputError("empty move word")
    if any(m not in (E, N, W, S) for m in word):
        raise InputError(f"moves must be E={E}, N={N}, W={W} or S={S}")
    if start not in range(o.degree):
        raise InputError(f"start square {start} is not in 0..{o.degree - 1}")
    return _make_cycle(_moves(o), start, word)


def _make_cycle(moves, start, word) -> CenterCycle:
    squares = [start]
    for m in word[:-1]:
        squares.append(moves[m][squares[-1]])
    if moves[word[-1]][squares[-1]] != start:
        raise InputError("move word is not closed")
    word, squares = _reduce_cyclic(word, squares)
    if not word:
        raise InputError("move word reduces to the trivial loop")
    return CenterCycle(tuple(squares), tuple(word))


def _reduce_cyclic(moves, squares):
    changed = True
    while changed and moves:
        changed = False
        for k in range(len(moves)):
            nxt = (k + 1) % len(moves)
            if moves[nxt] == _OPPOSITE[moves[k]]:
                for idx in sorted((k, nxt), reverse=True):
                    del moves[idx]
                    del squares[idx]
                # squares list must keep squares[j] = source of moves[j];
                # deleting the pair keeps the remaining sources aligned but
                # the base point may rotate, which is harmless for a cycle.
                changed = True
                break
    return moves, squares


def fundamental_cycles(o: Origami) -> list[CenterCycle]:
    """Cycles generating H_1: one per non-tree move edge of a BFS
    spanning tree on the squares (d + 1 cycles in total)."""
    o.validate()
    d = o.degree
    moves = _moves(o)

    parent: list[tuple[int, int] | None] = [None] * d  # (square, move into me)
    depth = [-1] * d
    depth[0] = 0
    tree_edges = set()
    queue = deque((0,))
    while queue:
        x = queue.popleft()
        for move, images in enumerate(moves):
            y = images[x]
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                parent[y] = (x, move)
                tree_edges.add(_edge(x, move, y))
                queue.append(y)

    def path_from_root(x):
        word = []
        while parent[x] is not None:
            px, mv = parent[x]
            word.append(mv)
            x = px
        return list(reversed(word))

    cycles = []
    for x in range(d):
        for move in (E, N):
            y = moves[move][x]
            if _edge(x, move, y) in tree_edges:
                continue
            word = (
                path_from_root(x)
                + [move]
                + [_OPPOSITE[m] for m in reversed(path_from_root(y))]
            )
            cycles.append(_make_cycle(moves, 0, word))
    if len(cycles) != d + 1:
        raise InternalCheckError("expected d + 1 fundamental cycles")
    return cycles


def _edge(x, move, y):
    """The edge crossed by ``move`` from square x to square y: (0, i) is
    the right edge of square i, (1, i) its top edge."""
    return (move % 2, x if move in (E, N) else y)


def turning_number(c: CenterCycle) -> int:
    """Signed quarter turns / 4 over the cyclic move word."""
    total = 0
    for k in range(len(c.moves)):
        a = c.moves[k]
        b = c.moves[(k + 1) % len(c.moves)]
        if a == b:
            continue
        if (a, b) in _LEFT_TURN:
            total += 1
        elif (b, a) in _LEFT_TURN:
            total -= 1
        else:
            raise InternalCheckError("backtrack survived reduction")
    if total % 4:
        raise InternalCheckError("turning is not a multiple of four")
    return total // 4


def _port(side, offset):
    """Position of a strand end on a square's boundary, counterclockwise
    from the SW corner: sides in the order S, E, N, W; the offset runs
    left to right or bottom to top, so it is reversed on N and W."""
    return ((side + 1) % 4, offset if side in (E, S) else -offset)


def _intersections(cycles) -> tuple[list[list[int]], list[int]]:
    """Mod-2 intersection matrix and self-crossing parities of center
    cycles, from one generic drawing of them all.

    Every edge traversal gets its own offset on the crossed edge, shared
    by the two squares beside it; offsets are handed out in cycle order,
    so any two cycles sit on each edge as they would in a drawing of the
    two alone.  Strands meeting in one square cross exactly when their
    boundary endpoints interleave; summing the parity over squares is
    independent of the chosen offsets.  Each crossed edge is read off the
    squares a cycle passes through, so the drawing needs no move table.
    """
    traversals: dict[tuple[int, int], int] = {}
    by_square: dict[int, list[tuple[int, tuple, tuple]]] = {}
    for ci, c in enumerate(cycles):
        L = len(c.moves)
        offsets = []
        for k, m in enumerate(c.moves):
            edge = _edge(c.squares[k], m, c.squares[(k + 1) % L])
            offsets.append(traversals.get(edge, 0))
            traversals[edge] = offsets[-1] + 1
        for k, m in enumerate(c.moves):
            entry = _port(_OPPOSITE[c.moves[k - 1]], offsets[k - 1])
            lo, hi = sorted((entry, _port(m, offsets[k])))
            by_square.setdefault(c.squares[k], []).append((ci, lo, hi))

    n = len(cycles)
    gram = [[0] * n for _ in range(n)]
    self_crossings = [0] * n
    for strands in by_square.values():
        for a, (ca, lo, hi) in enumerate(strands):
            for cb, b_lo, b_hi in strands[a + 1:]:
                if (lo < b_lo < hi) == (lo < b_hi < hi):
                    continue
                if ca == cb:
                    self_crossings[ca] ^= 1
                else:
                    gram[ca][cb] ^= 1
                    gram[cb][ca] ^= 1
    return gram, self_crossings


def crossing_parity(o: Origami, c1: CenterCycle, c2: CenterCycle) -> int:
    """Mod-2 intersection number of two center cycles of ``o``."""
    return _intersections([c1, c2])[0][0][1]


def cycle_form_value(o: Origami, c: CenterCycle) -> int:
    """q of the homology class of ``c``: turning + 1 + self-crossings (mod 2)."""
    return (turning_number(c) + 1 + _intersections([c])[1][0]) % 2


def _arf_invariant(gram, q, genus) -> int:
    """Arf invariant of a quadratic refinement given on generators.

    ``gram`` is the mod-2 intersection matrix of the generators, ``q``
    their form values.  Generators may be dependent; the radical must
    carry q = 0, and the symplectic rank must be 2g: both are enforced.
    """
    n = len(q)
    rows = [sum(b << j for j, b in enumerate(row)) for row in gram]
    q0 = list(q)

    def pair(x, y):
        acc = 0
        xi = x
        while xi:
            i = (xi & -xi).bit_length() - 1
            acc ^= (rows[i] & y).bit_count() & 1
            xi &= xi - 1
        return acc

    def form(x):
        val = 0
        bits = [i for i in range(n) if (x >> i) & 1]
        for idx, i in enumerate(bits):
            val ^= q0[i]
            for j in bits[idx + 1:]:
                val ^= gram[i][j]
        return val

    pool = [1 << i for i in range(n)]
    arf = 0
    pairs_found = 0
    while True:
        found = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if pair(pool[i], pool[j]):
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        v, w = pool[i], pool[j]
        pool = [x for k, x in enumerate(pool) if k not in (i, j)]
        arf ^= form(v) & form(w)
        pairs_found += 1
        pool = [x ^ (pair(x, w) and v) ^ (pair(x, v) and w) for x in pool]
    if pairs_found != genus:
        raise InternalCheckError(
            f"symplectic rank {2 * pairs_found} does not match genus {genus}"
        )
    for x in pool:
        if form(x):
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


def _zeros_exchanged(o: Origami, sigma) -> bool:
    """Whether the flat involution swaps the two cone points.

    Cone points are the corner-walk cycles of length >= 2; the induced
    map on vertices sends the vertex holding lower-left slot i to the
    one holding u(r(sigma(i))).
    """
    moves = _moves(o)
    vertex_of, sizes = _corner_walk(moves)
    zeros = [v for v, size in enumerate(sizes) if size >= 2]
    if len(zeros) != 2:
        raise InternalCheckError("expected exactly two cone points")
    slot = vertex_of.index(zeros[0])
    return vertex_of[moves[N][moves[E][sigma[slot]]]] == zeros[1]


def in_hyperelliptic_component(o: Origami, inv: Involution | None = None) -> bool:
    """Membership in the hyperelliptic *component* of the stratum.

    Those components exist only for a single zero or for two zeros of
    equal order; in the two-zero case the flat involution must exchange
    the zeros (with both zeros fixed the surface sits in a spin
    component instead, even though the curve is hyperelliptic).
    """
    if inv is None:
        inv = hyperelliptic_involution(o)
    if inv is None:
        return False
    orders = o.stratum().orders
    if len(orders) == 1:
        return True
    if len(orders) == 2 and orders[0] == orders[1]:
        return _zeros_exchanged(o, [x - 1 for x in inv.sigma.images])
    return False


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
