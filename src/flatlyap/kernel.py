"""The orbit core: canonical forms, T/S images, the orbit closure with
its cusps, the exhaustive scan and the orbit partition of its key sets;
and the horizontal cylinders and the vertices (``corner_walk``, which
gives the stratum) of one pair.

An orbit search makes the canonical T and S images of every origami.
The closed orbit splits into its T-cycles, the cusps; T keeps the
horizontal cylinders, so L = kappa + (1/N) sum over cusps of width *
sum h/w needs the cylinders of one member per cusp.  An exhaustive
enumeration walks, for each right permutation r, the conjugacy class of
r for the s = u^-1 r^-1 u that make the commutator s r, pruned by the
fixed points of the targets, and canonicalises the survivors' (r, u) into a
``KeySet``, which ``partition`` splits into orbits by the T and S images
of its keys.  This module runs all of it in two interchangeable ways:

* compiled, from ``_orbitcore.c``: built once with the system C compiler
  into ``${XDG_CACHE_HOME:-~/.cache}/flatlyap/``, named by the sha256 of
  the source and flags, and loaded with ctypes on the first call.  A
  KeySet, the hash table a scan filled or a closure's (an OrbitScan, a
  KeySet of one orbit), stays in C memory; ``fl_set_partition`` splits
  it, or finishes a closure, over set indices, so no class becomes a
  Python object; a closure or scan step may run a helper thread on
  another CPU (``fl_scan_step``, ``fl_enum_step``), and so may a
  partition, which makes a set's T and S images with the closure's step;
  results are byte-identical either way;
* in pure Python, the code below, which is the oracle the compiled code
  must match byte for byte.

The compiled library is used whenever it builds and loads; any failure
there falls back to Python for the life of the process.  A pair of
0-based image sequences (r, u) of degree d <= 255 is packed as the 2d-byte
key ``bytes(r) + bytes(u)``, whose lexicographic order is tuple order.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import math
import os
import shutil
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DisconnectedError, InputError, InternalCheckError, ResourceCapError

#: bytes keys hold images and labels below 256
MAX_DEGREE = 255

_SOURCE = Path(__file__).with_name("_orbitcore.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
#: elements the compiled closure expands per call (about 15 ms), so that
#: signal handlers (Ctrl-C, timers) run during long scans
_STEP_BUDGET = 8192
#: units of work the compiled scan does per call on the calling thread,
#: one per class-walk position filled (see fl_enum_step), for the same
#: reason; a helper thread may do about as many beside it
_SCAN_BUDGET = 1 << 17
_LONG_MAX = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1

_DISCONNECTED_MESSAGE = "canonical form needs a transitive pair"
_RANGE_MESSAGE = "a pair needs two permutations of 0..d-1"
_CAP_MESSAGE = "orbit exceeds the configured cap of {} elements"
_TAIL_MESSAGE = "T-orbit left the computed SL(2,Z) orbit"
_OPEN_MESSAGE = "key set is not closed under T and S"

_UNLOADED = object()
#: the ctypes library, None when it cannot be built or loaded, or
#: _UNLOADED before the first call
_lib = _UNLOADED


def _library():
    global _lib
    if _lib is _UNLOADED:
        _lib = _load()
    return _lib


def _load():
    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "flatlyap"
        path = cache / f"_orbitcore-{digest}.so"
        if not path.exists() and not _build(path):
            return None
        lib = ctypes.CDLL(str(path))
        _declare(lib)
        return lib
    # RuntimeError: no home directory; AttributeError: a file under our
    # name that lacks our symbols
    except (OSError, RuntimeError, AttributeError):
        return None


def _build(path: Path) -> bool:
    """Compile into a temporary file beside ``path``, then rename it into
    place, so that processes building at once never load a partial library."""
    import subprocess  # only a first run in a fresh cache needs it

    cc = shutil.which("cc")
    if cc is None:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *_FLAGS, "-o", tmp, str(_SOURCE)], capture_output=True, timeout=120
        )
        if done.returncode != 0:
            return False
        os.replace(tmp, path)
        return True
    except subprocess.TimeoutExpired:
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib) -> None:
    c_long, c_int, ptr = ctypes.c_long, ctypes.c_int, ctypes.c_void_p
    signatures = {
        "fl_canonical": (c_int, [c_int, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p]),
        "fl_scan_new": (ptr, [c_int, ctypes.c_char_p]),
        "fl_scan_step": (c_int, [ptr, c_long, c_long]),
        "fl_scan_free": (None, [ptr]),
        "fl_scan_size": (c_long, [ptr]),
        "fl_scan_keys": (ptr, [ptr]),
        "fl_scan_cusp_list": (c_int, [ptr, ptr]),
        "fl_enum_new": (ptr, [c_int, c_int, ctypes.c_char_p, c_int, ctypes.c_char_p]),
        "fl_enum_step": (c_int, [ptr, c_long]),
        "fl_enum_take": (c_int, [ptr, c_int, ptr]),
        "fl_set_partition": (c_int, [ptr, c_long, ptr]),
        "fl_enum_free": (None, [ptr]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes


# -- canonical form ----------------------------------------------------------

def canonical_key(rz, uz) -> bytes:
    """Packed canonical form of the pair of 0-based image sequences.

    For every base square the pair is relabelled by BFS order over the
    moves (r first, then u); the key is the least relabelling.  Two
    transitive pairs are simultaneously conjugate iff their keys agree.
    Raises DisconnectedError for a pair that is not transitive and
    InputError unless both are permutations of 0..d-1 with d <= 255.
    """
    d = len(rz)
    try:
        r, u = bytes(rz), bytes(uz)
    except (TypeError, ValueError):
        raise InputError(_RANGE_MESSAGE) from None
    if d == 0:
        raise DisconnectedError(_DISCONNECTED_MESSAGE)
    if d > MAX_DEGREE or len(r) != d or len(u) != d:
        raise InputError(f"a pair needs two image sequences of one length d <= {MAX_DEGREE}")
    lib = _library()
    if lib is None:
        return _py_canonical_key(r, u)
    out = (ctypes.c_char * (2 * d))()
    status = lib.fl_canonical(d, r, u, out)
    if status:
        _raise_status(status)
    return out.raw


def _py_canonical_key(rz, uz) -> bytes:
    d = len(rz)
    if max(rz) >= d or max(uz) >= d or len(set(rz)) != d or len(set(uz)) != d:
        raise InputError(_RANGE_MESSAGE)
    best = None
    # the first output byte is 0 exactly when the base square is fixed by
    # r, so bases at r-fixed points dominate whenever any exist
    bases = [x for x in range(d) if rz[x] == x] or range(d)
    for base in bases:
        label = [-1] * d
        order = [0] * d
        label[base] = 0
        order[0] = base
        filled = 1
        i = 0
        while i < filled:
            x = order[i]
            i += 1
            y = rz[x]
            if label[y] < 0:
                label[y] = filled
                order[filled] = y
                filled += 1
            y = uz[x]
            if label[y] < 0:
                label[y] = filled
                order[filled] = y
                filled += 1
        if filled != d:
            raise DisconnectedError(_DISCONNECTED_MESSAGE)
        out = bytearray(2 * d)
        for k in range(d):
            x = order[k]
            lx = label[x]
            out[lx] = label[rz[x]]
            out[d + lx] = label[uz[x]]
        cand = bytes(out)
        if best is None or cand < best:
            best = cand
    return best


def invert(p) -> list[int]:
    """Images of the inverse of the 0-based image sequence ``p``."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


# -- horizontal cylinders and vertices ---------------------------------------

def cylinders(rz, uz) -> tuple[tuple[int, int], ...]:
    """(width, height) of every horizontal cylinder, widest first; see
    ``orbits.horizontal_cylinders``."""
    d = len(rz)
    row_of = [-1] * d
    rows: list[list[int]] = []
    for start in range(d):
        if row_of[start] >= 0:
            continue
        idx = len(rows)
        cyc = [start]
        row_of[start] = idx
        x = rz[start]
        while x != start:
            cyc.append(x)
            row_of[x] = idx
            x = rz[x]
        rows.append(cyc)

    n = len(rows)
    # above[i] = row glued on top of row i across a cone-point-free circle
    above = [-1] * n
    has_below = [False] * n
    for i, cyc in enumerate(rows):
        if all(uz[rz[j]] == rz[uz[j]] for j in cyc):
            k = row_of[uz[cyc[0]]]
            above[i] = k
            has_below[k] = True

    found = []
    seen = [False] * n
    # chains from a bottom row first, then closed loops of rows
    for loops in (False, True):
        for i in range(n):
            if seen[i] or (has_below[i] and not loops):
                continue
            height, j = 0, i
            while j >= 0 and not seen[j]:
                seen[j] = True
                height += 1
                j = above[j]
            found.append((len(rows[i]), height))

    if sum(w * h for w, h in found) != d:
        raise InternalCheckError("cylinder areas do not add up to the degree")
    return tuple(sorted(found, reverse=True))


def corner_walk(rz, uz) -> tuple[list[int], list[int]]:
    """The vertices of the pair of 0-based image sequences (rz, uz): the
    cycles of phi = u r u^-1 r^-1, a conjugate of the commutator
    u^-1 r^-1 u r, on lower-left corner slots.  Returns the vertex holding
    each slot and the slot count of each vertex; a vertex of k >= 2 slots
    is a zero of order k - 1."""
    d = len(rz)
    rinv, uinv = invert(rz), invert(uz)
    vertex_of, sizes = [-1] * d, []
    for start in range(d):
        if vertex_of[start] < 0:
            x, size = start, 0
            while vertex_of[x] < 0:
                vertex_of[x] = len(sizes)
                x = uz[rz[uinv[rinv[x]]]]
                size += 1
            if x != start:
                raise InternalCheckError("corner walk left its own cycle")
            sizes.append(size)
    return vertex_of, sizes


# -- key sets and the orbit closure -----------------------------------------

class KeySet:
    """The distinct canonical keys of one degree that a scan
    (``scan_degree``) or a closure (``OrbitScan``) found: ``len`` counts
    them and iterating yields them sorted.  The pure-Python scan and
    closure pass their keys as ``keys``, in any order, which the KeySet
    trusts and does not check; a compiled set (``lib``, ``handle``) stays
    in C memory as the hash table its scan or closure filled, with the
    state of its partition, and is freed with the KeySet."""

    def __init__(self, degree: int, keys=(), lib=None, handle=None):
        self.degree, self._keys, self._lib, self._handle = degree, keys, lib, handle
        self._partitioning = threading.Lock()   # one partition of the C set at a time
        if lib is not None and not handle:
            raise MemoryError("no memory for the key set")

    def __len__(self) -> int:
        return len(self._keys) if self._lib is None else self._lib.fl_scan_size(self._handle)

    def __iter__(self):
        keys = self._table_order()
        keys.sort()
        return iter(keys)

    def _table_order(self) -> list[bytes]:
        """The keys in storage order, a closure's in discovery order: the
        Python ``partition`` marks them in it."""
        if self._lib is None:
            return list(self._keys)
        k = 2 * self.degree
        blob = ctypes.string_at(self._lib.fl_scan_keys(self._handle), len(self) * k)
        return [blob[i : i + k] for i in range(0, len(blob), k)]

    def __del__(self):
        if getattr(self, "_handle", None):
            self._lib.fl_scan_free(self._handle)


class OrbitScan(KeySet):
    """A closed SL(2,Z) orbit (``orbit_closure``), a KeySet of one orbit:
    its ``size``, its members' horizontal cylinders by (width, height)
    ``hist`` and their sum of h/w ``total_hw``, its ``cusp_count`` and
    ``least`` key; the ``keys`` in discovery order, and the ``cusps`` its
    finish listed, sorted, both copied when read."""

    def _set(self, size: int, hist: Counter, total_hw: Fraction, cusp_count: int,
             least: bytes) -> OrbitScan:
        self.size, self.hist, self.total_hw = size, hist, total_hw
        self.cusp_count, self.least = cusp_count, least
        return self

    keys = property(KeySet._table_order)

    @functools.cached_property
    def cusps(self) -> list[tuple[int, bytes]]:
        """(width, least key) per T-cycle, sorted."""
        pairs = (ctypes.c_long * (2 * self.cusp_count))()
        _drive(lambda: self._lib.fl_scan_cusp_list(self._handle, pairs))
        k = 2 * self.degree   # one view of the C keys, sliced per cusp: no copy of them all
        keys = (ctypes.c_char * (len(self) * k)).from_address(self._lib.fl_scan_keys(self._handle))
        return sorted((w, keys[i * k : i * k + k]) for w, i in zip(pairs[::2], pairs[1::2]))

    def cusp_widths(self) -> _Cusps:
        """(width, least member) per T-orbit, sorted, as a sequence whose
        ``len`` is the cusp count: the pairs are made on first read."""
        return _Cusps(self)


@dataclass
class _Cusps:
    """The ``cusps`` of an OrbitScan, a sequence made on first read; ``len``
    reads ``cusp_count`` and makes none."""

    _scan: OrbitScan

    def __len__(self) -> int:
        return self._scan.cusp_count

    def __getitem__(self, i):   # iteration goes through it too
        return self._scan.cusps[i]

    def __eq__(self, other) -> bool:
        return self._scan.cusps == list(other)


def orbit_closure(rz, uz, max_size: int) -> OrbitScan:
    """Breadth-first closure under T and S of the canonical key of the
    pair of 0-based image sequences (rz, uz); raises what ``canonical_key``
    raises, and ResourceCapError past ``max_size`` keys."""
    start, lib = canonical_key(rz, uz), _library()
    if lib is None:
        return _py_orbit_closure(start, max_size)
    d = len(start) // 2
    scan = OrbitScan(d, lib=lib, handle=lib.fl_scan_new(d, start))
    cap = min(max_size, _LONG_MAX)
    _drive(lambda: lib.fl_scan_step(scan._handle, cap, _STEP_BUDGET), max_size)
    # finished as a key set of one orbit, in one walk of its T-cycles
    orbits = _orbits(lib, scan._handle, d)
    if len(orbits) != 1:
        raise InternalCheckError(_OPEN_MESSAGE)
    return scan._set(*orbits[0])


def _drive(step, max_size: int = 0) -> None:
    """Calls ``step``, one call of a C function, while it returns 1, work
    left; raises for the negative status it may end with."""
    while (status := step()) == 1:
        pass
    if status:
        _raise_status(status, max_size)


def _raise_status(status: int, max_size: int = 0):
    """The exception for a negative status of ``_orbitcore.c``."""
    if status == -1:
        raise ResourceCapError(_CAP_MESSAGE.format(max_size))
    kind, message = {
        -2: (MemoryError, "no memory for the orbit search"),
        -3: (InternalCheckError, "cylinder areas do not add up to the degree"),
        -4: (DisconnectedError, _DISCONNECTED_MESSAGE),
        -7: (InternalCheckError, _OPEN_MESSAGE),
    }.get(status, (InputError, _RANGE_MESSAGE))
    raise kind(message)


def _py_orbit_closure(start: bytes, max_size: int) -> OrbitScan:
    d = len(start) // 2
    index = {start: 0}
    keys = [start]
    t_next = []   # the index of the T image of each key, in key order
    hist: Counter = Counter()

    def visit(key: bytes) -> int:
        j = index.get(key)
        if j is None:
            j = len(keys)
            if j >= max_size:
                raise ResourceCapError(_CAP_MESSAGE.format(max_size))
            index[key] = j
            keys.append(key)
        return j

    # the keys appended while the loop runs are the frontier; it reaches each
    for key in keys:
        rz, uz = key[:d], key[d:]
        hist.update(cylinders(rz, uz))   # per key: the oracle of the count per cusp
        t_next.append(visit(canonical_key(rz, [uz[x] for x in invert(rz)])))  # T: (r, u r^-1)
        visit(canonical_key(invert(uz), rz))  # S: (u^-1, r)
    cusps = _py_cusps(keys, t_next)
    scan = OrbitScan(d, keys)._set(len(keys), hist, _total_hw(d, hist), len(cusps), min(keys))
    scan.cusps = cusps
    return scan


def _py_cusps(keys, t_next) -> list[tuple[int, bytes]]:
    """(width, least key) of every T-cycle of the orbit ``keys``, sorted,
    where ``t_next[i]`` is the index of the T image of ``keys[i]``."""
    seen = bytearray(len(keys))
    cusps = []
    for start in range(len(keys)):
        cycle, x = [], start
        while x >= 0 and not seen[x]:
            seen[x] = 1
            cycle.append(keys[x])
            x = t_next[x]
        if x != start:  # T permutes a closed orbit: a tail means it is not
            raise InternalCheckError(_TAIL_MESSAGE)
        if cycle:
            cusps.append((len(cycle), min(cycle)))
    return sorted(cusps)


# -- the orbit partition ----------------------------------------------------

def partition(keys: KeySet) -> list[tuple[bytes, int, Fraction, int]]:
    """The SL(2,Z) orbits of a scan's key set, which is closed under T and
    S, in the order of their least keys: (least key, size, ``total_hw``,
    cusp count) per orbit, as ``orbit_closure`` gives them.

    Compiled, ``fl_set_partition`` finds the T and S image of every key in
    the set's hash table with the closure's own step, given no room for a
    new key, in steps of ``_STEP_BUDGET`` keys; the orbits are the
    components of these two index columns, and the cusps the cycles of
    the T column.  The Python oracle closes each orbit from the
    first key in storage order that no orbit holds yet.  Raises
    InternalCheckError when the set is not closed: a missing, repeated or
    non-canonical key breaks a column's permutation or a closure's marks.
    """
    d, lib, out = keys.degree, keys._lib if _library() is not None else None, []
    if lib is not None:
        with keys._partitioning:   # the set holds the steps' state and the records
            orbits = _orbits(lib, keys._handle, d)
        return sorted((least, size, total, cusps) for size, _, total, cusps, least in orbits)
    listed, at = keys._table_order(), 0
    index = {key: i for i, key in enumerate(listed)}
    marks, remaining = bytearray(len(listed)), len(listed)
    try:
        while remaining:
            at = marks.find(0, at)
            scan = orbit_closure(listed[at][:d], listed[at][d:], remaining)
            for key in scan.keys:
                j = index.get(key)
                if j is None or marks[j]:
                    raise InternalCheckError(_OPEN_MESSAGE)
                marks[j] = 1
            out.append((scan.least, scan.size, scan.total_hw, scan.cusp_count))
            remaining -= scan.size
            del scan   # a compiled closure is freed before the next one starts
    except ResourceCapError:   # an orbit with more keys than the set has left
        raise InternalCheckError(_OPEN_MESSAGE) from None
    return sorted(out)


def _orbits(lib, handle, d: int) -> list[tuple[int, Counter, Fraction, int, bytes]]:
    """(size, ``hist``, ``total_hw``, cusp count, least key) per orbit, in
    walk order, of the C key set or closure ``handle``, by ``fl_set_partition``."""
    rec, first = ctypes.POINTER(ctypes.c_long)(), lib.fl_scan_keys(handle)
    _drive(lambda: lib.fl_set_partition(handle, _STEP_BUDGET, ctypes.byref(rec)))
    rows, out, k = iter(rec[1 : 1 + rec[0]]), [], 2 * d
    # per orbit: least key index, size, cusps, cells, then (cell, count) per cell
    for at, size, cusps, cells in zip(rows, rows, rows, rows):
        hist = Counter({divmod(next(rows), d + 1): next(rows) for _ in range(cells)})
        out.append((size, hist, _total_hw(d, hist), cusps, ctypes.string_at(first + at * k, k)))
    return out


def _total_hw(d: int, hist: Counter) -> Fraction:
    """The sum of h/w over the cylinders (w, h) counted in ``hist``."""
    m = math.lcm(*range(1, d + 1))   # every 1/w over this common denominator
    return Fraction(sum(n * h * (m // w) for (w, h), n in hist.items()), m)


# -- exhaustive scan ---------------------------------------------------------

def scan_degree(d: int, rights, targets) -> list[KeySet]:
    """Canonical keys of the transitive pairs (r, u) of degree d, with r
    one of the 0-based image sequences ``rights`` and u any permutation,
    whose commutator u^-1 r^-1 u r has cycle type ``targets[i]``: one
    KeySet per target, in order.  A cycle type is a sequence of cycle lengths.

    The commutator is s r with s = u^-1 r^-1 u, so s runs over the
    conjugacy class of r, d!/z elements where z is the order of the
    centralizer C(r).  The compiled walk drops each branch whose number
    of fixed points of s r misses every target's.  The u of one s are
    the z maps with u s = r^-1 u.  Conjugating by c in C(r) carries them
    onto the u of c s c^-1 and keeps every class, so only the least s of
    each C(r)-orbit is expanded.  Both walks take every right given, and
    a class that two rights find, as rights of one cycle type do, since a
    canonical key keeps the cycle type of r, is kept once; the compiled
    walk may split the rights between two threads."""
    if not 0 < d <= MAX_DEGREE or any(sorted(r) != list(range(d)) for r in rights):
        raise InputError(_RANGE_MESSAGE)
    if any(sum(t) != d or min(t) < 1 for t in targets):
        raise InternalCheckError("cycle-type target does not fill the degree")
    lib = _library()
    if lib is None:
        return [KeySet(d, keys) for keys in _py_scan_degree(d, rights, targets)]
    counts = bytearray(len(targets) * (d + 1))
    for i, target in enumerate(targets):
        for length in target:
            counts[i * (d + 1) + length] += 1
    images = b"".join(map(bytes, rights))
    scan = lib.fl_enum_new(d, len(rights), images, len(targets), bytes(counts))
    if not scan:
        raise MemoryError("no memory for the scan")
    try:
        _drive(lambda: lib.fl_enum_step(scan, _SCAN_BUDGET))
        sets = []
        for i in range(len(targets)):
            handle = ctypes.c_void_p()
            _drive(lambda: lib.fl_enum_take(scan, i, ctypes.byref(handle)))
            sets.append(KeySet(d, lib=lib, handle=handle.value))
        return sets
    finally:
        lib.fl_enum_free(scan)


def _py_scan_degree(d: int, rights, targets) -> list[set[bytes]]:
    wanted = [sorted(t) for t in targets]
    found: list[set[bytes]] = [set() for _ in targets]
    for rz in rights:
        rcycles = _cycles(rz)
        # r^-1 from the same first symbols, cycle by cycle
        ricycles = [c[:1] + c[:0:-1] for c in rcycles]
        lengths = [len(c) for c in rcycles]
        for scycles in _conjugacy_class(lengths):
            s = [0] * d
            for c in scycles:
                for x, y in zip(c, c[1:] + c[:1]):
                    s[x] = y
            ctype = sorted(len(c) for c in _cycles([s[x] for x in rz]))
            hits = [keys for keys, t in zip(found, wanted) if t == ctype]
            # one s per C(r)-orbit: its u give the classes of the others
            if not hits or any(_conjugate(c, s) < s for c in _maps(rcycles, rcycles)):
                continue
            for u in _maps(sorted(scycles, key=len, reverse=True), ricycles):
                try:
                    key = canonical_key(rz, u)
                except DisconnectedError:
                    continue  # a disconnected surface
                for keys in hits:
                    keys.add(key)
    return found


def _cycles(p) -> list[tuple[int, ...]]:
    """The cycles of the 0-based image sequence p, longest first and
    otherwise by least symbol, each listed from its least symbol."""
    seen = [False] * len(p)
    out = []
    for x in range(len(p)):
        cycle = []
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        if cycle:
            out.append(tuple(cycle))
    return sorted(out, key=len, reverse=True)


def _conjugacy_class(lengths):
    """Every permutation of 0..d-1 whose cycle lengths are ``lengths``,
    once each, as its cycles: each starts at its least symbol, which is
    the least one the cycles before it leave unused."""

    def walk(unused, left):
        if not unused:
            yield ()
            return
        first, rest = unused[0], unused[1:]
        for length in sorted(set(left)):
            i = left.index(length)
            others = left[:i] + left[i + 1 :]
            for tail in itertools.permutations(rest, length - 1):
                remaining = tuple(x for x in rest if x not in tail)
                for more in walk(remaining, others):
                    yield ((first, *tail), *more)

    return walk(tuple(range(sum(lengths))), tuple(lengths))


def _maps(src, dst):
    """Every image list v with v[src[i][k]] = dst[j][(k + rot) % l] for
    one cycle dst[j] of the length l of src[i] per i, a bijection, and
    any rot.  src and dst list cycles of the same lengths, longest first."""
    d = sum(map(len, src))
    runs = [list(g) for _, g in itertools.groupby(range(len(src)), key=lambda i: len(src[i]))]
    for order in itertools.product(*(itertools.permutations(run) for run in runs)):
        onto = [dst[j] for run in order for j in run]
        for rots in itertools.product(*(range(len(c)) for c in src)):
            v = [0] * d
            for a, b, rot in zip(src, onto, rots):
                for k, x in enumerate(a):
                    v[x] = b[(k + rot) % len(a)]
            yield v


def _conjugate(c, s) -> list[int]:
    """Images of c s c^-1."""
    out = [0] * len(s)
    for x, y in enumerate(s):
        out[c[x]] = c[y]
    return out
