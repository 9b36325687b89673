"""The drawing oracle for the spin parity.

``components.spin_parity`` reads the quadratic form off simple cycles
and a table of strand crossings.  This module computes the same form the
general way, for any closed walk through square centers: a move word is
reduced cyclically, q = turning number + 1 + number of transverse
self-crossings (mod 2), which is invariant under regular homotopy moves
and extends the simple-curve formula, and one generic drawing of all the
cycles gives their mod-2 intersection (Gram) matrix and self-crossings.
``drawn_parity`` is the Arf invariant of that form on the fundamental
cycles of a spanning tree, reduced by brute search for symplectic pairs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from flatlyap.components import E, N, S, W, _OPPOSITE, _moves
from flatlyap.errors import InputError, InternalCheckError
from flatlyap.origami import Origami

_LEFT_TURN = {(E, N), (N, W), (W, S), (S, E)}


def drawn_parity(o: Origami) -> str:
    """Spin parity from one joint drawing of the fundamental cycles."""
    cycles = fundamental_cycles(o)
    gram, self_crossings = _intersections(cycles)
    q = [(turning_number(c) + 1 + x) % 2 for c, x in zip(cycles, self_crossings)]
    return "odd" if _arf_invariant(gram, q, o.genus()) else "even"


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
