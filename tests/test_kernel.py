"""The compiled orbit core against its pure-Python oracle.

Each parity test runs the same call twice: once with the compiled
library and once with ``kernel._lib`` set to None, which routes every
kernel call through the Python code (``on_both`` and the ``backend``
fixture of conftest.py).  Tests that need the compiled library are
skipped where it does not build.
"""
import ctypes
import inspect
import itertools
import math
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatlyap import enumeration, golden, kernel
from flatlyap.errors import DisconnectedError, InputError, InternalCheckError, ResourceCapError
from flatlyap.orbits import OrbitCache, lyapunov_sum, orbit_scan
from flatlyap.origami import Stratum
from flatlyap.permutation import Permutation, is_transitive

from conftest import FIG1, TEN_71, TEN_3111, compiled_library, on_both, on_each, origami


# -- parity ------------------------------------------------------------------------

FAST_LYAP = [
    c for c in golden.load_golden() if c.kind == "lyap" and c.fields.get("slow") != "1"
]


@pytest.mark.parametrize("check", FAST_LYAP, ids=[c.id for c in FAST_LYAP])
def test_scan_matches_python(check):
    o = golden._origami(check)
    compiled, python = on_both(lambda: orbit_scan(o))
    assert compiled.keys == python.keys
    # the per-cusp count against the per-element histogram
    assert compiled.hist == python.hist
    assert compiled.total_hw == python.total_hw
    assert compiled.cusp_widths() == python.cusp_widths()
    assert compiled.size == python.size == len(python.keys)
    assert compiled.least == python.least == min(python.keys)
    assert compiled.least == min(compiled.keys) and python.least == min(python.keys)


@st.composite
def transitive_pairs(draw):
    d = draw(st.integers(1, 12))
    r = draw(st.permutations(range(d)))
    u = draw(st.permutations(range(d)))
    assume(is_transitive(Permutation([x + 1 for x in r]), Permutation([x + 1 for x in u])))
    return r, u


# r without a fixed point: with 2-cycles, (0 1)(2 3 4) and a d=12 case,
# where the compiled form tries only bases on 2-cycles; without one,
# (0 1 2)(3 4 5) with u fixing 0, and (0 1 2 3 4)(5 6 7) with u taking 5
# to r^2 5 and no other base to b, r b or r^2 b, where it tries only those
# bases; the same r with no such base, where it tries every base; and a
# d=255 pair, r a 255-cycle and u(x) = 7x + 3, with such bases at 42,
# 127 and 212
@settings(max_examples=400, deadline=None)
@given(transitive_pairs())
@example(([1, 0, 3, 4, 2], [0, 2, 1, 3, 4]))
@example(([1, 0, 3, 2, 5, 6, 4, 8, 9, 10, 11, 7], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0]))
@example(([1, 2, 0, 4, 5, 3], [0, 1, 3, 2, 4, 5]))
@example(([1, 2, 3, 4, 0, 6, 7, 5], [5, 6, 0, 1, 2, 7, 4, 3]))
@example(([1, 2, 3, 4, 0, 6, 7, 5], [7, 5, 6, 2, 3, 0, 4, 1]))
@example(([*range(1, 255), 0], [(7 * x + 3) % 255 for x in range(255)]))
def test_canonical_key_matches_python(pair):
    compiled, python = on_both(lambda: kernel.canonical_key(*pair))
    assert compiled == python


def test_compiled_keys_of_every_t_s_image_match_python():
    # the 46,656 T and S images of the ten-square-3111 orbit: their r
    # reach every rule of the compiled base filter, and none of them
    compiled_library()
    rules = Counter()
    for key in orbit_scan(origami(TEN_3111)).keys:
        r, u = key[:10], key[10:]
        for a, b in ((r, bytes(u[x] for x in kernel.invert(r))), (bytes(kernel.invert(u)), r)):
            assert kernel.canonical_key(a, b) == kernel._py_canonical_key(a, b)
            if any(a[x] == x for x in range(10)):
                rules["fixed"] += 1
            elif any(a[a[x]] == x for x in range(10)):
                rules["2-cycle"] += 1
            else:
                rules["near" if any(b[x] in (x, a[x], a[a[x]]) for x in range(10)) else "none"] += 1
    assert sum(rules.values()) == 46656 and len(rules) == 4, rules


# genus 2 and 3: the zero orders add up to 2 and to 4
GENUS_2_3 = [Stratum(p) for n in (2, 4) for p in enumeration.partitions(n)]


def _targets(d: int) -> dict:
    """The strata of GENUS_2_3 that fit in degree d, with their cycle types."""
    return {
        s: t for s in GENUS_2_3 if (t := enumeration.commutator_cycle_type(s, d)) is not None
    }


def _scan_sets(d: int, targets: dict) -> dict:
    """``enumeration._scan_degree`` with each KeySet read into a set."""
    return {s: set(keys) for s, keys in enumeration._scan_degree(d, targets).items()}


@pytest.mark.parametrize("d", range(3, 8))
def test_enumeration_scan_matches_python(d):
    targets = _targets(d)
    compiled, python = on_both(lambda: _scan_sets(d, targets))
    assert compiled == python
    assert set(compiled) == set(targets) and all(compiled.values())


def _brute_scan(d: int, targets: dict) -> dict:
    """Every u in S_d against every right representative: the commutator
    u^-1 r^-1 u r, its cycle type, then the canonical key; an oracle that
    shares no step of the scan but the canonical form."""
    found = {s: set() for s in targets}
    for parts in enumeration.partitions(d):
        r = enumeration.partition_representative(parts)
        rinv = kernel.invert(r)
        for u in itertools.permutations(range(d)):
            uinv = kernel.invert(u)
            c = [uinv[rinv[u[r[x]]]] for x in range(d)]
            ctype = tuple(sorted(_cycle_lengths(c), reverse=True))
            for s, t in targets.items():
                if ctype == t:
                    try:
                        found[s].add(kernel.canonical_key(r, u))
                    except DisconnectedError:
                        pass
    return found


def _cycle_lengths(p) -> list[int]:
    seen, lengths = set(), []
    for x in range(len(p)):
        n = 0
        while x not in seen:
            seen.add(x)
            x = p[x]
            n += 1
        if n:
            lengths.append(n)
    return lengths


@pytest.mark.parametrize("d", range(3, 8))
def test_enumeration_scan_matches_the_s_d_walk(d):
    targets = _targets(d)
    if d == 4:
        targets[Stratum(())] = (1,) * 4
    expected = _brute_scan(d, targets)
    for got in on_each(lambda: _scan_sets(d, targets)):
        assert got == expected


@pytest.mark.parametrize(
    "parts", [p for d in range(1, 8) for p in enumeration.partitions(d)], ids=str
)
def test_class_walk_visits_each_element_once(parts):
    d = sum(parts)
    z = math.prod(l**m * math.factorial(m) for l, m in Counter(parts).items())
    images = []
    for cycles in kernel._conjugacy_class(parts):
        s = [None] * d
        for c in cycles:
            assert c[0] == min(c)
            for x, y in zip(c, c[1:] + c[:1]):
                s[x] = y
        images.append(tuple(s))
    assert len(images) == len(set(images)) == math.factorial(d) // z
    assert all(sorted(_cycle_lengths(s), reverse=True) == list(parts) for s in images)


@pytest.mark.slow
def test_enumeration_scan_matches_python_at_degree_8():
    # one walk for every genus-2/3 stratum and the torus: its supports run
    # from 0 (the torus) to 5 (H(1,1,1,1)), so both bounds of the class
    # walk cut branches, and the torus keeps the identity right
    targets = {**_targets(8), Stratum(()): (1,) * 8}
    compiled, python = on_both(lambda: _scan_sets(8, targets))
    assert compiled == python
    assert len(compiled) == 8 and all(compiled.values())


@pytest.mark.parametrize("budget", [1, 7])
def test_compiled_scan_is_the_same_in_any_step_budget(monkeypatch, budget):
    # budgets of 1 and 7 stop the class walk between positions, at a
    # dropped branch and inside an expansion; the walk must not see where
    # the calls split, and the torus puts a support of 0 beside those of
    # genus 2 and 3
    compiled_library()
    targets = {**_targets(6), Stratum(()): (1,) * 6}
    expected = _scan_sets(6, targets)
    monkeypatch.setattr(kernel, "_SCAN_BUDGET", budget)
    assert _scan_sets(6, targets) == expected
    assert all(expected.values())


def _all_rights(d: int) -> list:
    return [enumeration.partition_representative(p) for p in enumeration.partitions(d)]


def test_compiled_scan_with_its_helper_matches_python_at_degree_7(monkeypatch):
    # one step of 2^20 units: the caller walks 4,096 units alone, then a
    # helper thread walks some rights beside it, wherever two CPUs are usable
    compiled_library()
    monkeypatch.setattr(kernel, "_SCAN_BUDGET", 1 << 20)
    rights, targets = _all_rights(7), list(_targets(7).values())
    compiled = [set(keys) for keys in kernel.scan_degree(7, rights, targets)]
    assert compiled == kernel._py_scan_degree(7, rights, targets)
    assert all(compiled)


def test_partition_of_sets_both_cursors_fill_matches_python(monkeypatch):
    # the d=8 genus-2/3 walk in one step of 2^20 units, where the helper
    # walks some rights into the second cursor's sets: the orbits come by
    # least key, whichever thread found which class, so both backends and
    # the same keys in sorted order give one partition; the compiled one
    # makes the images of each set of 512 keys or more with the helper of
    # fl_scan_step, wherever two CPUs are usable
    compiled_library()
    monkeypatch.setattr(kernel, "_SCAN_BUDGET", 1 << 20)
    rights, targets = _all_rights(8), list(_targets(8).values())
    for keys in kernel.scan_degree(8, rights, targets):
        compiled, python = on_both(lambda: kernel.partition(keys))
        assert compiled == python == kernel.partition(kernel.KeySet(8, sorted(keys)))
        assert sum(size for _, size, *_ in compiled) == len(keys)


def _conjugate_rights_add_no_class(d: int) -> None:
    # a conjugate of each right beside it finds no class the rights alone
    # do not, and each class is kept once; both backends walk every right
    rights = _all_rights(d)
    shifted = [tuple((r[(x - 1) % d] + 1) % d for x in range(d)) for r in rights]
    targets = list(_targets(d).values())
    once = [set(keys) for keys in kernel.scan_degree(d, rights, targets)]
    assert [set(keys) for keys in kernel.scan_degree(d, shifted + rights, targets)] == once
    assert all(once)


def test_rights_of_one_cycle_type_give_the_same_classes(backend):
    _conjugate_rights_add_no_class(6)


def test_rights_of_one_cycle_type_give_the_same_classes_beside_the_helper(monkeypatch):
    # at d=8 in one step of 2^20 units a helper thread walks some rights
    # beside the caller, wherever two CPUs are usable: two rights of one
    # cycle type on two threads find one class in both cursors' sets, and
    # the join keeps it once
    compiled_library()
    monkeypatch.setattr(kernel, "_SCAN_BUDGET", 1 << 20)
    _conjugate_rights_add_no_class(8)


def test_one_scan_serves_every_target(backend):
    targets = _targets(6)
    together = _scan_sets(6, targets)
    assert together == {s: _scan_sets(6, {s: t})[s] for s, t in targets.items()}


# -- errors, on both backends ----------------------------------------------------------

def test_non_transitive_pair_is_rejected(backend):
    with pytest.raises(DisconnectedError):
        kernel.canonical_key((0, 1, 2), (0, 2, 1))
    assert issubclass(DisconnectedError, InputError)


@pytest.mark.parametrize(
    "rz,uz",
    [
        ((0, 2), (1, 0)),               # image past the degree
        ((0, -1), (1, 0)),              # negative image
        ((0, 1), (1,)),                 # lengths differ
        ((0, 0), (1, 0)),               # not a permutation
        (tuple(range(256)), tuple(range(1, 256)) + (0,)),   # degree above 255
    ],
)
def test_images_that_are_not_permutations_are_rejected(backend, rz, uz):
    with pytest.raises(InputError):
        kernel.canonical_key(rz, uz)


@pytest.mark.parametrize("start", [b"\x00\x01\x05\x00", b"\x00\x00\x00", b"\x01\x00\x00\x00"])
def test_closure_rejects_a_start_that_is_not_a_canonical_key(backend, start):
    # split in halves, each start is a malformed pair: an image past the
    # degree, halves of lengths 1 and 2, a u that is not a permutation
    d = len(start) // 2
    with pytest.raises(InputError):
        kernel.orbit_closure(start[:d], start[d:], 10)


def _closure(rz, uz, max_size):
    """``kernel.orbit_closure`` as plain values: the keys in discovery
    order, the cylinder histogram, the cusps and the least key."""
    scan = kernel.orbit_closure(rz, uz, max_size)
    return scan.keys, scan.hist, list(scan.cusp_widths()), scan.least


def test_closure_canonicalises_its_start(backend):
    o = origami(FIG1)
    rz, uz = o.right.zero_based(), o.up.zero_based()
    key = kernel.canonical_key(rz, uz)
    # relabel x -> x + 2 mod 5: a conjugate pair that is not the key
    shift = [(x + 2) % 5 for x in range(5)]
    moved_r, moved_u = [0] * 5, [0] * 5
    for x in range(5):
        moved_r[shift[x]], moved_u[shift[x]] = shift[rz[x]], shift[uz[x]]
    assert bytes(moved_r + moved_u) != key
    keys, hist, cusps, least = _closure(moved_r, moved_u, 100)
    assert (keys, hist, cusps, least) == _closure(key[:5], key[5:], 100)
    assert keys[0] == key
    assert len(keys) == 18 and sum(width for width, _ in cusps) == 18


@pytest.mark.parametrize("budget", [1, 7])
def test_compiled_closure_is_the_same_in_any_step_budget(monkeypatch, budget):
    # the step expands keys in batches; budgets of 1 and 7 cut every
    # batch short, and the closure must not see where the calls split
    compiled_library()
    o = origami(TEN_3111)
    rz, uz = o.right.zero_based(), o.up.zero_based()
    expected = _closure(rz, uz, 23328)
    monkeypatch.setattr(kernel, "_STEP_BUDGET", budget)
    assert _closure(rz, uz, 23328) == expected
    assert len(expected[0]) == 23328


def test_compiled_closure_cap_is_exact():
    compiled_library()
    o = origami(TEN_3111)
    rz, uz = o.right.zero_based(), o.up.zero_based()
    with pytest.raises(ResourceCapError):
        kernel.orbit_closure(rz, uz, 23327)
    assert kernel.orbit_closure(rz, uz, 23328).size == 23328


def test_python_cusps_reject_a_t_walk_with_a_tail():
    # 0 -> 1 -> 2 -> 1: the walk from 0 never comes back
    with pytest.raises(InternalCheckError, match="T-orbit left"):
        kernel._py_cusps([b"\x00", b"\x01", b"\x02"], [1, 2, 1])


def test_compiled_cusps_reject_an_unfinished_closure():
    lib = compiled_library()
    start = kernel.canonical_key((1, 2, 3, 0), (0, 1, 2, 3))
    rec = ctypes.POINTER(ctypes.c_long)()
    scan = lib.fl_scan_new(4, start)
    try:
        # never stepped: the start has no images yet, so the closure can
        # be neither finished nor read
        status = lib.fl_set_partition(scan, 100, ctypes.byref(rec))
        with pytest.raises(InternalCheckError, match="not closed"):
            kernel._raise_status(status)
        assert lib.fl_scan_cusp_list(scan, (ctypes.c_long * 2)()) == status
        # complete but not finished: no cusp list yet
        assert lib.fl_scan_step(scan, 100, 100) == 0
        assert lib.fl_scan_cusp_list(scan, (ctypes.c_long * 2)()) == status
        # finished: one orbit of 6 keys in 3 cusps; then no step, and no
        # second finish
        assert lib.fl_set_partition(scan, 100, ctypes.byref(rec)) == 0
        assert rec[2:4] == [6, 3] and rec[0] == 4 + 2 * rec[4]
        assert lib.fl_scan_step(scan, 100, 100) == status
        assert lib.fl_set_partition(scan, 100, ctypes.byref(rec)) == status
        assert lib.fl_scan_cusp_list(scan, (ctypes.c_long * 6)()) == 0
    finally:
        lib.fl_scan_free(scan)


def test_a_closure_finished_into_two_orbits_is_an_internal_error(monkeypatch):
    # the finish must find one orbit that holds every key
    compiled_library()
    finish = kernel._orbits
    monkeypatch.setattr(kernel, "_orbits", lambda *args: 2 * finish(*args))
    o = origami(FIG1)
    with pytest.raises(InternalCheckError, match="not closed"):
        kernel.orbit_closure(o.right.zero_based(), o.up.zero_based(), 100)


@pytest.mark.parametrize(
    "rights,targets,error",
    [
        ([(0, 0, 1)], [(3,)], InputError),            # a right that is not a permutation
        ([(1, 2, 0)], [(2,)], InternalCheckError),    # a cycle type that does not fill d
    ],
)
def test_enumeration_scan_rejects_bad_input(backend, rights, targets, error):
    with pytest.raises(error):
        kernel.scan_degree(3, rights, targets)


def test_cap_boundary(backend, tmp_path):
    o = origami(FIG1)
    n = orbit_scan(o).size
    assert n == 18
    assert orbit_scan(o, max_size=n).size == n
    with pytest.raises(ResourceCapError):
        orbit_scan(o, max_size=n - 1)
    # the second element already breaks a cap of one, so a repeat with
    # max_size=1 succeeds only when it is answered from the cache
    with pytest.raises(ResourceCapError):
        orbit_scan(o, max_size=1)
    first = lyapunov_sum(o, cache=OrbitCache(tmp_path))
    assert lyapunov_sum(o, max_size=1, cache=OrbitCache(tmp_path)) == first


def _raises_on_alarm(fn):
    """fn() must be cut short by a SIGALRM handler after 20 ms."""
    compiled_library()

    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, 0.02)
    try:
        with pytest.raises(Alarm):
            fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_compiled_scan_lets_signal_handlers_run():
    # a 307,200-element orbit: the alarm goes off long before the end
    _raises_on_alarm(lambda: orbit_scan(origami(TEN_71)))


def _threads_settle_at(count: int) -> bool:
    """Whether /proc/self/task lists ``count`` threads within a second: a
    joined thread can stay listed for a moment after the join returns,
    until the kernel has finished its exit."""
    deadline = time.monotonic() + 1
    while len(os.listdir("/proc/self/task")) != count:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def test_compiled_closure_joins_its_helper_thread():
    # fl_scan_step joins its helper before it returns, also when a signal
    # handler cuts the closure short between two steps
    compiled_library()
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    before = len(os.listdir("/proc/self/task"))
    orbit_scan(origami(TEN_71))
    assert _threads_settle_at(before)
    _raises_on_alarm(lambda: orbit_scan(origami(TEN_71)))
    assert _threads_settle_at(before)


def test_compiled_closure_is_the_same_on_one_cpu():
    # a process pinned to one CPU closes the orbit without a helper thread
    compiled_library()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is usable")
    script = (
        "import os, pickle, sys\n"
        "from flatlyap import kernel\n"
        "from flatlyap.origami import Origami\n"
        f"os.sched_setaffinity(0, {{{cpus[0]}}})\n"
        f"o = Origami.from_text({TEN_3111!r})\n"
        "c = kernel.orbit_closure(o.right.zero_based(), o.up.zero_based(), 23328)\n"
        "closure = c.keys, c.hist, list(c.cusp_widths()), c.least\n"
        "sys.stdout.write(pickle.dumps(closure).hex())\n"
    )
    proc = _run_with_src(script)
    out = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0
    o = origami(TEN_3111)
    expected = _closure(o.right.zero_based(), o.up.zero_based(), 23328)
    assert pickle.loads(bytes.fromhex(out)) == expected


def test_compiled_closures_agree_when_threads_outnumber_cpus():
    # four closures at once from Python threads (ctypes releases the GIL),
    # each step with its own helper: more threads than CPUs, so a helper
    # can lose its CPU in the middle of a chunk its caller then makes itself
    compiled_library()
    o = origami(TEN_3111)
    rz, uz = o.right.zero_based(), o.up.zero_based()
    expected = _closure(rz, uz, 23328)
    results = [None] * 4

    def close(i):
        results[i] = _closure(rz, uz, 23328)

    threads = [threading.Thread(target=close, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4


def _scan_in_pinned_process(d: int, cpu: int) -> list:
    """The sorted keys of each genus-2/3 target of the degree-d scan, made
    in a subprocess pinned to the given CPU."""
    script = (
        "import os, pickle, sys\n"
        "from flatlyap import enumeration, kernel\n"
        "from flatlyap.origami import Stratum\n"
        f"os.sched_setaffinity(0, {{{cpu}}})\n"
        f"targets = {_targets(d)!r}\n"
        f"sets = enumeration._scan_degree({d}, targets).values()\n"
        "sys.stdout.write(pickle.dumps([list(keys) for keys in sets]).hex())\n"
    )
    proc = _run_with_src(script)
    out = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0
    return pickle.loads(bytes.fromhex(out))


def test_compiled_scan_is_the_same_on_one_cpu():
    # a process pinned to one CPU walks every right on the calling thread
    compiled_library()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is usable")
    expected = [list(keys) for keys in enumeration._scan_degree(8, _targets(8)).values()]
    assert _scan_in_pinned_process(8, cpus[0]) == expected
    assert sum(map(len, expected)) == 11599


def test_compiled_partition_is_the_same_on_one_cpu():
    # a process pinned to one CPU makes every image of the partition on
    # the calling thread
    compiled_library()
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is usable")
    script = (
        "import os, pickle, sys\n"
        "from flatlyap import enumeration, kernel\n"
        "from flatlyap.origami import Stratum\n"
        f"os.sched_setaffinity(0, {{{cpus[0]}}})\n"
        f"sets = enumeration._scan_degree(8, {_targets(8)!r}).values()\n"
        "sys.stdout.write(pickle.dumps([kernel.partition(keys) for keys in sets]).hex())\n"
    )
    proc = _run_with_src(script)
    out = proc.communicate(timeout=120)[0]
    assert proc.returncode == 0
    sets = enumeration._scan_degree(8, _targets(8)).values()
    expected = [kernel.partition(keys) for keys in sets]
    assert pickle.loads(bytes.fromhex(out)) == expected
    assert max(sum(size for _, size, *_ in parts) for parts in expected) == 4032


def test_compiled_scan_joins_its_helper_thread():
    # fl_enum_step joins its helper before it returns, also when a signal
    # handler cuts the walk short between two steps: the seven genus-2/3
    # targets at d=9 take about 80 ms
    compiled_library()
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    targets = _targets(9)
    before = len(os.listdir("/proc/self/task"))
    assert sum(map(len, enumeration._scan_degree(9, targets).values())) == 37003
    assert _threads_settle_at(before)
    _raises_on_alarm(lambda: enumeration._scan_degree(9, targets))
    assert _threads_settle_at(before)


GENUS_4 = [Stratum(p) for p in [(6,), (5, 1), (4, 2), (3, 3), (3, 2, 1), (2, 2, 2)]]


def test_compiled_enumeration_scan_lets_signal_handlers_run():
    # the six genus-4 strata at d=10: 10! class elements and about a
    # million classes, seconds of scanning
    targets = {s: enumeration.commutator_cycle_type(s, 10) for s in GENUS_4}
    _raises_on_alarm(lambda: enumeration._scan_degree(10, targets))


def test_compiled_partition_lets_signal_handlers_run():
    # H(6) at d=10: 142,835 classes in 13 orbits, about 0.1 s of closures
    # that return to Python every 8,192 keys; the scan runs before the
    # alarm is armed, and the key set is whole after the interruption
    compiled_library()
    keys = enumeration.enumerate_origamis(10, Stratum((6,)))
    expected = kernel.partition(keys)
    assert len(keys) == 142835 and len(expected) == 13
    _raises_on_alarm(lambda: kernel.partition(keys))
    assert kernel.partition(keys) == expected


@pytest.mark.parametrize("budget", [1, 7])
def test_compiled_partition_is_the_same_in_any_step_budget(monkeypatch, budget):
    # steps of 1 and 7 rows or keys end each phase of fl_set_partition at
    # any point, and the next step goes on from there
    compiled_library()
    sets = enumeration._scan_degree(7, _targets(7)).values()
    expected = [kernel.partition(keys) for keys in sets]
    monkeypatch.setattr(kernel, "_STEP_BUDGET", budget)
    assert [kernel.partition(keys) for keys in sets] == expected
    assert sum(len(parts) for parts in expected) > 10


def test_partitions_of_one_key_set_from_threads_agree(monkeypatch):
    # four Python threads (ctypes releases the GIL) partition one KeySet
    # three times each, in steps of 64 keys, with a short switch interval:
    # the set holds its partition's state, so they take turns
    compiled_library()
    keys = enumeration.enumerate_origamis(8, Stratum((3, 1)))
    expected = kernel.partition(keys)
    monkeypatch.setattr(kernel, "_STEP_BUDGET", 64)
    results = [None] * 4

    def partition(i):
        results[i] = [kernel.partition(keys) for _ in range(3)]

    threads = [threading.Thread(target=partition, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[expected] * 3] * 4 and len(expected) == 5


def _run_with_src(script: str, **env):
    src = str(Path(kernel.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
    )


def test_compiled_enumeration_does_not_import_numpy():
    setups = {"python": "kernel._lib = None\n"}
    if kernel._library() is not None:
        setups["compiled"] = ""
    for name, setup in setups.items():
        script = (
            "import sys\n"
            "from flatlyap import kernel\n"
            "from flatlyap.enumeration import enumerate_origamis\n"
            "from flatlyap.origami import Stratum\n"
            + setup
            + "print(len(enumerate_origamis(6, Stratum((2,)))), 'numpy' in sys.modules)\n"
        )
        proc = _run_with_src(script)
        out = proc.communicate(timeout=120)[0].split()
        assert proc.returncode == 0
        assert out == ["45", "False"], name


# -- building ----------------------------------------------------------------------------

def _fresh_load(monkeypatch, cache_home):
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    monkeypatch.setattr(kernel, "_lib", kernel._UNLOADED)


def test_without_a_compiler_the_python_path_runs(monkeypatch, tmp_path):
    expected = on_both(lambda: orbit_scan(origami(FIG1)))[1]
    _fresh_load(monkeypatch, tmp_path)
    monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    scan = orbit_scan(origami(FIG1))
    assert kernel._lib is None
    assert (scan.keys, scan.cusp_widths(), scan.total_hw) == (
        expected.keys, expected.cusp_widths(), expected.total_hw
    )
    assert not (tmp_path / "flatlyap").exists()


def test_a_failing_compiler_leaves_nothing_behind(monkeypatch, tmp_path):
    _fresh_load(monkeypatch, tmp_path)
    monkeypatch.setattr(kernel.shutil, "which", lambda name: "/bin/false")
    assert kernel.canonical_key((1, 0), (0, 1)) == bytes([1, 0, 0, 1])
    assert kernel._lib is None
    assert list((tmp_path / "flatlyap").iterdir()) == []


def test_concurrent_builds_share_one_library(tmp_path):
    compiled_library()
    script = (
        "from flatlyap import kernel\n"
        "lib = kernel._library()\n"
        "print(lib._name if lib is not None else 'python')\n"
        "print(kernel.canonical_key((1, 2, 0), (0, 2, 1)).hex())\n"
    )
    procs = [_run_with_src(script, XDG_CACHE_HOME=str(tmp_path)) for _ in range(2)]
    outputs = [p.communicate(timeout=120)[0].split() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    (path,) = {out[0] for out in outputs}
    assert {out[1] for out in outputs} == {kernel.canonical_key((1, 2, 0), (0, 2, 1)).hex()}
    assert [str(p) for p in (tmp_path / "flatlyap").iterdir()] == [path]


def test_c_source_compiles_without_warnings(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    flags = ["-O2", "-shared", "-fPIC", "-pthread", "-Wall", "-Wextra", "-pedantic", "-Werror"]
    done = subprocess.run(
        [cc, *flags, "-o", str(tmp_path / "core.so"), str(kernel._SOURCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def _run_with_kernel(tmp_path, driver: str) -> list[str]:
    """The output lines of a driver that includes the kernel source as
    KERNEL, for its static functions and struct layouts."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    source = driver.replace("KERNEL", '"' + str(kernel._SOURCE) + '"')
    (tmp_path / "driver.c").write_text(source)
    built = subprocess.run(
        [cc, "-O1", "-pthread", "-o", str(tmp_path / "driver"), str(tmp_path / "driver.c")],
        capture_output=True, text=True, timeout=120,
    )
    assert built.returncode == 0, built.stderr
    done = subprocess.run([str(tmp_path / "driver")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


# the H(2) scan of degree 5 stepped to its end, alone in steps of 64
# units, once as it is and once with the first key of the caller's set put
# into the other cursor's set too, which never ran and so still takes
# keys, as two rights of one cycle type on two threads would: one line per
# take, its status and set size
_REPEAT_DRIVER = r"""
#include KERNEL
#include <stdio.h>

int main(void)
{
    const u8 rights[] = {1, 2, 3, 4, 0, 1, 2, 3, 0, 4, 1, 2, 0, 4, 3,
                         1, 2, 0, 3, 4, 1, 0, 3, 2, 4, 1, 0, 2, 3, 4};
    const u8 target[] = {0, 2, 0, 1, 0, 0};
    for (int repeat = 0; repeat < 2; repeat++) {
        struct enumeration *e = fl_enum_new(5, 6, rights, 1, target);
        while (fl_enum_step(e, 64) == 1)
            ;
        if (repeat) {
            const u8 *key = e->cur[0].sets[0]->keys;
            visit(e->cur[1].sets[0], key, hash(key, 10), 1);
        }
        struct scan *s;
        int status = fl_enum_take(e, 0, &s);
        printf("%d %ld\n", status, s ? fl_scan_size(s) : -1L);
        fl_scan_free(s);
        fl_enum_free(e);
    }
    return 0;
}
"""


def test_a_class_found_from_two_rights_is_kept_once(tmp_path):
    assert _run_with_kernel(tmp_path, _REPEAT_DRIVER) == ["0 27", "0 27"]


# the H(2) key set of degree 5 partitioned as it is; with one key
# replaced by the relabelling of its class that swaps squares 0 and 1,
# which is not canonical, under a slot table made again; with the key
# back; and with the relabelling added beside it: one line with the first
# status, whether that partition kept the set's key room and slot count,
# whether the relabelling differs from the key and has its canonical
# form, the status with the key replaced, the status with the key back
# and whether its records are the first partition's, and the last status
_RELABEL_DRIVER = r"""
#include KERNEL
#include <stdio.h>

/* the status of the partition of s in steps of 4 keys, and in *records a
 * copy of its records when it succeeds */
static int partition(struct scan *s, long **records)
{
    const long *out;
    int status;
    while ((status = fl_set_partition(s, 4, &out)) == 1)
        ;
    *records = NULL;
    if (!status) {
        size_t size = (size_t)(out[0] + 1) * sizeof *out;
        *records = memcpy(malloc(size), out, size);
    }
    return status;
}

int main(void)
{
    const u8 rights[] = {1, 2, 3, 4, 0, 1, 2, 3, 0, 4, 1, 2, 0, 4, 3,
                         1, 2, 0, 3, 4, 1, 0, 3, 2, 4, 1, 0, 2, 3, 4};
    const u8 target[] = {0, 2, 0, 1, 0, 0};
    struct enumeration *e = fl_enum_new(5, 6, rights, 1, target);
    while (fl_enum_step(e, 64) == 1)
        ;
    struct scan *s;
    if (fl_enum_take(e, 0, &s))
        return 1;
    fl_enum_free(e);
    long room = s->room, *first, *again, *none;
    size_t mask = s->mask;
    int whole = partition(s, &first), kept = s->room == room && s->mask == mask;
    u8 *key = s->keys + 3 * 10, swapped[10], canonical[10];
    for (int x = 0; x < 5; x++) {
        int y = x < 2 ? 1 - x : x;
        for (int half = 0; half < 10; half += 5) {
            int image = key[half + x];
            swapped[half + y] = (u8)(image < 2 ? 1 - image : image);
        }
    }
    int relabelled = memcmp(swapped, key, 10) && !fl_canonical(5, swapped, swapped + 5, canonical) &&
                     !memcmp(canonical, key, 10);
    u8 saved[10];
    memcpy(saved, key, 10);
    memcpy(key, swapped, 10);
    if (rehash(s, s->mask))
        return 1;
    int replaced = partition(s, &none);
    memcpy(s->keys + 3 * 10, saved, 10);
    if (rehash(s, s->mask))
        return 1;
    int restored = partition(s, &again);
    int same = !restored && !memcmp(first, again, (size_t)(first[0] + 1) * sizeof *first);
    if (visit(s, swapped, hash(swapped, 10), LONG_MAX) != 27)
        return 1;
    printf("%d %d %d %d %d %d %d\n", whole, kept, relabelled, replaced, restored, same,
           partition(s, &none));
    free(first);
    free(again);
    fl_scan_free(s);
    return 0;
}
"""


def test_a_key_set_with_a_key_that_is_not_canonical_is_not_closed(tmp_path):
    # a relabelled key has the T and S images of its class's key: in
    # place of that key, some images miss the set; beside it, two keys
    # have one T image; either way the partition fails (ST_OPEN).  The
    # partition steps the set as a closure with no room for a new key, so
    # it grows neither the key arrays nor the slot table, and a failed
    # partition leaves nothing behind: with the key back, the set
    # partitions as it did at first
    assert _run_with_kernel(tmp_path, _RELABEL_DRIVER) == ["0 1 1 -7 0 1 -7"]
    with pytest.raises(InternalCheckError, match="not closed"):
        kernel._raise_status(-7)


# TEN_3111 closed and finished as it is, then closed again with the T
# image of its second key overwritten by that of its first, and again with
# the S image so overwritten: one line with the three finish statuses
_CORRUPT_DRIVER = r"""
#include KERNEL
#include <stdio.h>

static int finish(const u8 *key, int column)
{
    struct scan *s = fl_scan_new(10, key);
    const long *out;
    int status;
    while ((status = fl_scan_step(s, 23328, 8192)) == 1)
        ;
    if (status)
        return 1;
    if (column >= 0)
        s->img[column][1] = s->img[column][0];
    while ((status = fl_set_partition(s, 8192, &out)) == 1)
        ;
    fl_scan_free(s);
    return status;
}

int main(void)
{
    const u8 r[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, u[10] = {3, 6, 5, 4, 7, 9, 8, 2, 1, 0};
    u8 key[20];
    if (fl_canonical(10, r, u, key))
        return 1;
    printf("%d %d %d\n", finish(key, -1), finish(key, 0), finish(key, 1));
    return 0;
}
"""


def test_a_closure_with_a_repeated_image_is_not_closed(tmp_path):
    # a closure's finish checks that both of its image columns are
    # permutations, as a key set's partition does: a key that is the T or
    # the S image of two keys fails it (ST_OPEN)
    assert _run_with_kernel(tmp_path, _CORRUPT_DRIVER) == ["0 -7 -7"]


def test_c_exports_are_what_kernel_declares_and_calls():
    # every function _orbitcore.c exports is declared by _declare and
    # called from kernel.py outside it: a dead export or a stale
    # declaration fails here
    exported = set(re.findall(r"^(?!static\b)\w[\w *]*\b(fl_\w+)\(", kernel._SOURCE.read_text(), re.M))

    class Library:
        def __init__(self):
            self.declared = set()

        def __getattr__(self, name):
            self.declared.add(name)
            return lambda: None   # takes restype and argtypes

    lib = Library()
    kernel._declare(lib)
    assert exported == lib.declared
    calls = inspect.getsource(kernel).replace(inspect.getsource(kernel._declare), "")
    assert [name for name in sorted(exported) if f".{name}(" not in calls] == []


# FIG1 closed and then finished by fl_set_partition in steps of 4 keys,
# finished a second time, a step after the finish and its cusp list made;
# the same closure capped at 10 keys, with no cusp list (ST_OPEN) before
# its finish nor after the finish fails; TEN_3111 closed in steps of 1000
# keys, so that batches split across calls, and finished in steps of 1000,
# its cusp list read by two threads at once, each into its own buffer of
# exactly 2 * cusp count longs, which must hold the same list, and its
# least key checked to be the least, and capped one key
# short, in the middle of a batch; one degree-5 scan for the commutator
# types of H(2) and H(1,1), and one for H(2) with a right left out, whose
# sets the partition of H(2) splits, a step at a time, while an unfinished
# partition of H(1,1) is freed with its set; and one degree-8 scan for
# H(3,1), whose key set outgrows its first 1,024 keys and is partitioned
# in one step, with the helper thread of fl_scan_step, which makes its
# images, wherever more than one CPU is usable; the degree-5 scan again
# with the identity right and a torus target, one unit of work per step;
# and one degree-7 scan for H(2,2) in steps of 2^17 units, which start
# the helper thread of fl_enum_step wherever more than one CPU is usable;
# with every object freed
_SANITIZER_DRIVER = r"""
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
typedef unsigned char u8;
struct scan;
struct enumeration;
int fl_canonical(int d, const u8 *r, const u8 *u, u8 *out);
struct scan *fl_scan_new(int d, const u8 *start);
int fl_scan_step(struct scan *s, long max_size, long budget);
long fl_scan_size(const struct scan *s);
const u8 *fl_scan_keys(const struct scan *s);
int fl_scan_cusp_list(const struct scan *s, long *pairs);
void fl_scan_free(struct scan *s);
struct enumeration *fl_enum_new(int d, int nrights, const u8 *rights,
                                int ntargets, const u8 *targets);
int fl_enum_step(struct enumeration *e, long budget);
int fl_enum_take(struct enumeration *e, int t, struct scan **out);
void fl_enum_free(struct enumeration *e);
int fl_set_partition(struct scan *s, long budget, const long **out);

/* whether the keys of a key set, of length k, are distinct: a sorted
 * copy has no two equal neighbours */
static size_t key_length;

static int by_key(const void *a, const void *b) { return memcmp(a, b, key_length); }

static int distinct(const struct scan *s, int k)
{
    long n = fl_scan_size(s);
    u8 *copy = malloc((size_t)(n * k) + 1);
    memcpy(copy, fl_scan_keys(s), (size_t)(n * k));
    key_length = (size_t)k;
    qsort(copy, (size_t)n, (size_t)k, by_key);
    int ok = 1;
    for (long j = 1; j < n; j++)
        if (!memcmp(copy + (j - 1) * k, copy + j * k, (size_t)k))
            ok = 0;
    free(copy);
    return ok;
}

/* one thread's read of a closure's cusp list, into its own buffer */
struct reader {
    struct scan *s;
    long *pairs;
    int status;
};

static void *cusp_list(void *arg)
{
    struct reader *r = arg;
    r->status = fl_scan_cusp_list(r->s, r->pairs);
    return NULL;
}

/* appends to rights, d bytes each, one permutation of d symbols per
 * partition of ``left`` into parts of at most ``most``, as consecutive
 * cycles after the first ``start`` = d - left symbols of images; returns
 * the count */
static int partitions(int left, int most, int start, u8 *images, u8 *rights, int n)
{
    if (!left) {
        memcpy(rights + start * n, images, (size_t)start);
        return n + 1;
    }
    for (int len = left < most ? left : most; len >= 1; len--) {
        for (int x = 0; x < len; x++)
            images[start + x] = (u8)(start + (x + 1) % len);
        n = partitions(left - len, len, start + len, images, rights, n);
    }
    return n;
}

/* the key set of target t, which must be handed over */
static struct scan *take(struct enumeration *e, int t)
{
    struct scan *s;
    if (fl_enum_take(e, t, &s))
        exit(1);
    return s;
}

/* the orbit partition of s in steps of ``budget`` rows or keys: its
 * status, and a copy of its records when it succeeds */
static int partition(struct scan *s, long budget, long **records)
{
    const long *out;
    int status;
    while ((status = fl_set_partition(s, budget, &out)) == 1)
        ;
    *records = NULL;
    if (!status) {
        *records = malloc((size_t)(out[0] + 1) * sizeof(long));
        memcpy(*records, out, (size_t)(out[0] + 1) * sizeof(long));
    }
    return status;
}

int main(void)
{
    const u8 r[5] = {1, 2, 3, 0, 4}, u[5] = {4, 1, 2, 3, 0};
    u8 key[10];
    if (fl_canonical(5, r, u, key))
        return 1;
    struct scan *s = fl_scan_new(5, key);
    while (fl_scan_step(s, 100, 4) == 1)
        ;
    long *finish, *none, widths = 0;
    if (partition(s, 4, &finish))
        return 1;
    /* one record, of an orbit that holds every key */
    long cusps = finish[3];
    int one = finish[0] == 4 + 2 * finish[4] && finish[2] == fl_scan_size(s);
    int again = partition(s, 4, &none), step = fl_scan_step(s, 100, 4);
    long *pairs = malloc(2 * cusps * sizeof(long));
    if (fl_scan_cusp_list(s, pairs))
        return 1;
    for (long i = 0; i < cusps; i++)
        widths += pairs[2 * i];
    printf("%ld %ld %d %d %ld %d\n", fl_scan_size(s), cusps, again, step, widths, one);
    free(pairs);
    free(finish);
    fl_scan_free(s);

    s = fl_scan_new(5, key);
    int status;
    while ((status = fl_scan_step(s, 10, 4)) == 1)
        ;
    long empty[2];
    int unfinished = fl_scan_cusp_list(s, empty) == -7;
    int tail = partition(s, 4, &none);
    printf("%d %ld %d %d %d\n", status, fl_scan_size(s), unfinished, tail,
           fl_scan_cusp_list(s, empty) == -7);
    fl_scan_free(s);

    const u8 r10[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 0}, u10[10] = {3, 6, 5, 4, 7, 9, 8, 2, 1, 0};
    u8 key10[20];
    if (fl_canonical(10, r10, u10, key10))
        return 1;
    s = fl_scan_new(10, key10);
    while ((status = fl_scan_step(s, 23328, 1000)) == 1)
        ;
    if (partition(s, 1000, &finish))
        return 1;
    long n = fl_scan_size(s), count = finish[3], width = 0, least = finish[1];
    free(finish);
    const u8 *keys = fl_scan_keys(s);
    pthread_t threads[2];
    struct reader readers[2];
    for (int t = 0; t < 2; t++) {
        readers[t] = (struct reader){s, malloc(2 * count * sizeof(long)), -1};
        pthread_create(&threads[t], NULL, cusp_list, &readers[t]);
    }
    for (int t = 0; t < 2; t++)
        pthread_join(threads[t], NULL);
    const long *list = readers[0].pairs;
    int is_least = 1;
    int same = !readers[0].status && !readers[1].status &&
               !memcmp(list, readers[1].pairs, 2 * count * sizeof(long));
    for (long i = 0; i < count; i++)
        width += list[2 * i];
    for (long j = 0; j < n; j++)
        if (memcmp(keys + 20 * j, keys + 20 * least, 20) < 0)
            is_least = 0;
    printf("%d %ld %ld %ld %d %d\n", status, n, count, width, is_least, same);
    free(readers[0].pairs);
    free(readers[1].pairs);
    fl_scan_free(s);

    s = fl_scan_new(10, key10);
    while ((status = fl_scan_step(s, 23327, 1000)) == 1)
        ;
    printf("%d %ld\n", status, fl_scan_size(s));
    fl_scan_free(s);

    const u8 rights[] = {1, 2, 3, 4, 0, 1, 2, 3, 0, 4, 1, 2, 0, 4, 3,
                         1, 2, 0, 3, 4, 1, 0, 3, 2, 4, 1, 0, 2, 3, 4};
    const u8 targets[] = {0, 2, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0};
    struct enumeration *e = fl_enum_new(5, 6, rights, 2, targets);
    while (fl_enum_step(e, 64) == 1)
        ;
    struct scan *h2 = take(e, 0), *h11 = take(e, 1);
    fl_enum_free(e);
    printf("%ld %ld\n", fl_scan_size(h2), fl_scan_size(h11));
    const long *unread;   /* a partition cut short, freed with its set */
    fl_set_partition(h11, 4, &unread);
    fl_scan_free(h11);

    /* H(2) again without the right of cycle type (4,1), whose 4 classes
     * lie in the orbit of 18; both sets distinct */
    const u8 short_rights[] = {1, 2, 3, 4, 0, 1, 2, 0, 4, 3, 1, 2, 0, 3, 4,
                               1, 0, 3, 2, 4, 1, 0, 2, 3, 4};
    e = fl_enum_new(5, 5, short_rights, 1, targets);
    while (fl_enum_step(e, 64) == 1)
        ;
    struct scan *short_ = take(e, 0);
    fl_enum_free(e);
    printf("%ld %d\n", fl_scan_size(short_), distinct(h2, 10) && distinct(short_, 10));
    /* the partition of H(2) in steps of 4, again in one step, and that of
     * the set without the (4,1) classes */
    long *parts, *rerun = NULL;
    status = partition(h2, 4, &parts);
    int repeats = !status && !partition(h2, 1 << 10, &rerun) && rerun[0] == parts[0] &&
               !memcmp(parts, rerun, (size_t)(parts[0] + 1) * sizeof(long));
    for (long i = 1; !status && i <= parts[0]; i += 4 + 2 * parts[i + 3])
        printf("%ld %ld ", parts[i + 1], parts[i + 2]);
    free(rerun);
    printf("%d %d\n", repeats, partition(short_, 4, &rerun));
    free(parts);
    fl_scan_free(h2);
    fl_scan_free(short_);

    u8 images8[8], rights8[22 * 8];
    const u8 target8[] = {0, 2, 1, 0, 1, 0, 0, 0, 0};
    e = fl_enum_new(8, partitions(8, 8, 0, images8, rights8, 0), rights8, 1, target8);
    while (fl_enum_step(e, 4096) == 1)
        ;
    s = take(e, 0);
    fl_enum_free(e);
    /* its partition in one step, whose images fl_scan_step makes with
     * its helper thread wherever more than one CPU is usable */
    long orbits = 0, held = 0;
    status = partition(s, 1 << 13, &parts);
    for (long i = 1; !status && i <= parts[0]; i += 4 + 2 * parts[i + 3], orbits++)
        held += parts[i + 1];
    printf("%ld %d %ld %ld\n", fl_scan_size(s), status, orbits, held);
    free(parts);
    fl_scan_free(s);

    /* the degree-5 scan again, one unit per step, with the identity right
     * and a torus target, whose support is empty */
    u8 rights5[35];
    const u8 targets5[] = {0, 2, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 5, 0, 0, 0, 0};
    memcpy(rights5, rights, 30);
    for (int x = 0; x < 5; x++)
        rights5[30 + x] = (u8)x;
    e = fl_enum_new(5, 7, rights5, 3, targets5);
    while (fl_enum_step(e, 1) == 1)
        ;
    for (int t = 0; t < 3; t++) {
        s = take(e, t);
        printf(t < 2 ? "%ld " : "%ld\n", fl_scan_size(s));
        fl_scan_free(s);
    }
    fl_enum_free(e);

    u8 images7[7], rights7[15 * 7];
    const u8 target7[] = {0, 1, 0, 2, 0, 0, 0, 0};
    e = fl_enum_new(7, partitions(7, 7, 0, images7, rights7, 0), rights7, 1, target7);
    while (fl_enum_step(e, 1 << 17) == 1)
        ;
    s = take(e, 0);
    fl_enum_free(e);
    printf("%ld %d\n", fl_scan_size(s), distinct(s, 14));
    fl_scan_free(s);
    return 0;
}
"""


# 18 keys in 5 cusps, whose widths add up to 18, in one orbit that holds
# them all; a second finish and a later step fail (ST_OPEN); the cap stops
# at 10 keys (ST_CAP), and the finish of that closure fails (ST_OPEN), for
# its frontier is not empty; TEN_3111 closes with 23,328
# keys in 2,616 cusps whose widths add up to the size, the same
# list in both threads' buffers, with the least key found, and its cap
# stops one key short; 27 and 24 classes; 23 classes without the right
# (4,1), and both H(2) sets distinct; the partition finds orbits of 18
# keys in 5 cusps and 9 in 3, the same records when it runs again, and
# fails on the set that lacks the (4,1) classes (ST_OPEN: an image is not
# found); 4,032 classes of H(3,1) at d=8 in 5 orbits that hold them all;
# the same 27 and 24 classes a step at a time, and the 6 tori of degree 5,
# one per sublattice of index 5 in Z^2; 486 classes of H(2,2) at d=7,
# distinct across the two cursors' sets
_SANITIZER_STDOUT = [
    "18 5 -7 -7 18 1", "-1 10 1 -7 1", "0 23328 2616 23328 1 1", "-1 23327", "27 24",
    "23 1", "18 5 9 3 1 -7", "4032 0 5 4032", "27 24 6", "486 1", "",
]

# creates and joins one thread
_THREADED_PROGRAM = r"""
#include <pthread.h>
static void *run(void *arg) { return arg; }
int main(void)
{
    pthread_t t;
    return pthread_create(&t, 0, run, 0) || pthread_join(t, 0);
}
"""


def _run_under_sanitizer(tmp_path, sanitizer: str, probe: str):
    """The sanitizer driver's run, built with -fsanitize=``sanitizer``;
    skips unless cc builds and runs ``probe`` with the same flags."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    flags = ["-g", "-O1", f"-fsanitize={sanitizer}", "-fno-sanitize-recover=all", "-pthread"]

    def build_and_run(source: str, *extra):
        (tmp_path / "driver.c").write_text(source)
        built = subprocess.run(
            [cc, *flags, "-o", str(tmp_path / "driver"), str(tmp_path / "driver.c"), *extra],
            capture_output=True, text=True, timeout=120,
        )
        if built.returncode != 0:
            return built
        return subprocess.run(
            [str(tmp_path / "driver")], capture_output=True, text=True, timeout=120
        )

    if build_and_run(probe).returncode != 0:
        pytest.skip(f"cc has no working {sanitizer} sanitizer runtime")
    return build_and_run(_SANITIZER_DRIVER, str(kernel._SOURCE))


def test_c_source_runs_clean_under_sanitizers(tmp_path):
    done = _run_under_sanitizer(tmp_path, "address,undefined", "int main(void) { return 0; }\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == _SANITIZER_STDOUT


def test_c_source_runs_clean_under_thread_sanitizer(tmp_path):
    # the 23,328-key closure, its cap and the partition of the degree-8
    # key set run with the helper thread of fl_scan_step, and the
    # degree-7 scan with that of fl_enum_step, wherever more than one CPU
    # is usable
    done = _run_under_sanitizer(tmp_path, "thread", _THREADED_PROGRAM)
    assert done.returncode == 0, done.stderr
    assert "ThreadSanitizer" not in done.stderr, done.stderr
    assert done.stdout.split("\n") == _SANITIZER_STDOUT
