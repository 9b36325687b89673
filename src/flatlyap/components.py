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
  simple-curve formula.

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

# moves through square centers; E/W follow the right gluing, N/S the up one
E, N, W, S = 0, 1, 2, 3
_OPPOSITE = {E: W, W: E, N: S, S: N}
_LEFT_TURN = {(E, N), (N, W), (W, S), (S, E)}


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
    d = o.degree
    rz, uz = o.right.zero_based(), o.up.zero_based()
    rinv = invert(rz)
    uinv = invert(uz)
    for seed in range(d):
        sigma = _propagate_involution(rz, uz, rinv, uinv, seed)
        if sigma is None:
            continue
        count = _flat_fixed_points(rz, uz, rinv, uinv, sigma)
        if count == target:
            return Involution(
                sigma=Permutation(tuple(x + 1 for x in sigma)),
                fixed_point_count=count,
            )
    return None


def _propagate_involution(rz, uz, rinv, uinv, seed):
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


def _flat_fixed_points(rz, uz, rinv, uinv, sigma) -> int:
    """Fixed points of the induced rotation-by-pi involution.

    Square centers: sigma(i) = i.  The right-edge midpoint of square i is
    fixed iff the edge maps to itself reversed, i.e. sigma(i) = r(i);
    top-edge midpoints likewise with u.  Vertices are the cycles of the
    corner walk phi = u r u^-1 r^-1 on lower-left corner slots; the
    involution sends the vertex holding slot i to the one holding slot
    u(r(sigma(i))).
    """
    d = len(rz)
    count = sum(1 for i in range(d) if sigma[i] == i)
    count += sum(1 for i in range(d) if sigma[i] == rz[i])
    count += sum(1 for i in range(d) if sigma[i] == uz[i])

    vertex_of, _ = _corner_walk(rz, uz, rinv, uinv)
    image_of_vertex = {}
    for i in range(d):
        v = vertex_of[i]
        w = vertex_of[uz[rz[sigma[i]]]]
        if image_of_vertex.setdefault(v, w) != w:
            raise InternalCheckError("involution does not permute vertices")
    count += sum(1 for v, w in image_of_vertex.items() if v == w)
    return count


def _corner_walk(rz, uz, rinv, uinv) -> tuple[list[int], list[int]]:
    """Vertices as the cycles of phi = u r u^-1 r^-1 on lower-left corner
    slots: the vertex holding each slot, and the slot count of each vertex."""
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
    q = [cycle_form_value(o, c) for c in cycles]
    gram = [
        [0 if i == j else crossing_parity(o, ci, cj) for j, cj in enumerate(cycles)]
        for i, ci in enumerate(cycles)
    ]
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


def _step(rz, uz, rinv, uinv, x, move):
    if move == E:
        return rz[x]
    if move == N:
        return uz[x]
    if move == W:
        return rinv[x]
    return uinv[x]


def make_cycle(o: Origami, start: int, moves) -> CenterCycle:
    """Build a CenterCycle from a closed move word based at ``start``
    (0-based square), reducing backtracks cyclically."""
    rz, uz = o.right.zero_based(), o.up.zero_based()
    rinv, uinv = invert(rz), invert(uz)
    moves = list(moves)
    squares = [start]
    for m in moves[:-1]:
        squares.append(_step(rz, uz, rinv, uinv, squares[-1], m))
    if _step(rz, uz, rinv, uinv, squares[-1], moves[-1]) != start:
        raise InputError("move word is not closed")
    moves, squares = _reduce_cyclic(moves, squares)
    if not moves:
        raise InputError("move word reduces to the trivial loop")
    return CenterCycle(tuple(squares), tuple(moves))


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
    rz, uz = o.right.zero_based(), o.up.zero_based()
    rinv, uinv = invert(rz), invert(uz)

    parent: list[tuple[int, int] | None] = [None] * d  # (square, move into me)
    depth = [-1] * d
    depth[0] = 0
    tree_edges = set()
    queue = deque((0,))
    order = {E: rz, N: uz, W: rinv, S: uinv}
    while queue:
        x = queue.popleft()
        for move in (E, N, W, S):
            y = order[move][x]
            if depth[y] < 0:
                depth[y] = depth[x] + 1
                parent[y] = (x, move)
                tree_edges.add(_edge_id(x, move, rinv, uinv))
                queue.append(y)

    def path_from_root(x):
        moves = []
        while parent[x] is not None:
            px, mv = parent[x]
            moves.append(mv)
            x = px
        return list(reversed(moves))

    cycles = []
    for x in range(d):
        for move in (E, N):
            if _edge_id(x, move, rinv, uinv) in tree_edges:
                continue
            y = rz[x] if move == E else uz[x]
            word = (
                path_from_root(x)
                + [move]
                + [_OPPOSITE[m] for m in reversed(path_from_root(y))]
            )
            cycles.append(make_cycle(o, 0, word))
    if len(cycles) != d + 1:
        raise InternalCheckError("expected d + 1 fundamental cycles")
    return cycles


def _edge_id(x, move, rinv, uinv):
    # geometric edges: ('v', i) right edge of square i, ('h', i) top edge
    if move == E:
        return ("v", x)
    if move == W:
        return ("v", rinv[x])
    if move == N:
        return ("h", x)
    return ("h", uinv[x])


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


def _strands(o: Origami, cycles) -> dict[int, list[tuple[int, tuple, tuple]]]:
    """Joint generic drawing of several cycles.

    Every edge traversal gets its own offset on the crossed edge, shared
    by the two squares adjacent to that edge.  Returns, per square, the
    strands through it as (cycle_index, entry_port, exit_port), a port
    being a boundary position on the square (see _port_angle).
    """
    rz, uz = o.right.zero_based(), o.up.zero_based()
    rinv, uinv = invert(rz), invert(uz)

    traversal_count: dict[tuple, int] = {}
    crossings = []  # per cycle: list of (edge, offset) per move
    for c in cycles:
        marks = []
        for x, m in zip(c.squares, c.moves):
            edge = _edge_id(x, m, rinv, uinv)
            k = traversal_count.get(edge, 0)
            traversal_count[edge] = k + 1
            marks.append((edge, k))
        crossings.append(marks)

    by_square: dict[int, list[tuple[int, tuple, tuple]]] = {}
    for ci, (c, marks) in enumerate(zip(cycles, crossings)):
        L = len(c.moves)
        for k in range(L):
            sq = c.squares[k]
            prev_move = c.moves[(k - 1) % L]
            entry = (_entry_side(prev_move), marks[(k - 1) % L])
            exit_ = (_exit_side(c.moves[k]), marks[k])
            by_square.setdefault(sq, []).append((ci, entry, exit_))
    return by_square


def _entry_side(prev_move):
    # after moving E you enter the next square through its W side, etc.
    return _OPPOSITE[prev_move]


def _exit_side(move):
    return move


def _port_angle(port):
    """Total order of boundary points, counterclockwise from the SW corner.

    Sides come in the order S, E, N, W; within a side the traversal
    offset orders points along the boundary orientation (reversed on N
    and W, which run right-to-left and top-to-bottom).
    """
    side, (_, offset) = port
    rank = {S: 0, E: 1, N: 2, W: 3}[side]
    signed = offset if rank < 2 else -offset
    return (rank, signed)


def _interleaved(a_in, a_out, b_in, b_out) -> bool:
    lo, hi = sorted((a_in, a_out))
    inside = sum(1 for t in (b_in, b_out) if lo < t < hi)
    return inside == 1


def crossing_parity(o: Origami, c1: CenterCycle, c2: CenterCycle) -> int:
    """Mod-2 intersection number of two center cycles.

    Strands meeting in one square cross exactly when their boundary
    endpoints interleave; summing the parity over squares is independent
    of the chosen offsets.
    """
    by_square = _strands(o, [c1, c2])
    total = 0
    for strands in by_square.values():
        for i in range(len(strands)):
            for j in range(i + 1, len(strands)):
                ci, a_in, a_out = strands[i]
                cj, b_in, b_out = strands[j]
                if ci == cj:
                    continue
                if _interleaved(
                    _port_angle(a_in), _port_angle(a_out),
                    _port_angle(b_in), _port_angle(b_out),
                ):
                    total ^= 1
    return total


def self_crossing_parity(o: Origami, c: CenterCycle) -> int:
    by_square = _strands(o, [c])
    total = 0
    for strands in by_square.values():
        for i in range(len(strands)):
            for j in range(i + 1, len(strands)):
                _, a_in, a_out = strands[i]
                _, b_in, b_out = strands[j]
                if _interleaved(
                    _port_angle(a_in), _port_angle(a_out),
                    _port_angle(b_in), _port_angle(b_out),
                ):
                    total ^= 1
    return total


def cycle_form_value(o: Origami, c: CenterCycle) -> int:
    """q of the homology class of ``c``: turning + 1 + self-crossings (mod 2)."""
    return (turning_number(c) + 1 + self_crossing_parity(o, c)) % 2


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
    rz, uz = o.right.zero_based(), o.up.zero_based()
    vertex_of, sizes = _corner_walk(rz, uz, invert(rz), invert(uz))
    zeros = [v for v, size in enumerate(sizes) if size >= 2]
    if len(zeros) != 2:
        raise InternalCheckError("expected exactly two cone points")
    slot = vertex_of.index(zeros[0])
    return vertex_of[uz[rz[sigma[slot]]]] == zeros[1]


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
