import functools
import math

import pytest

from flatlyap import enumeration, kernel
from flatlyap.kernel import KeySet, canonical_key
from flatlyap.origami import Origami, Stratum
from flatlyap.permutation import Permutation, compose


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    # tests control caching explicitly; a cache directory inherited from
    # the environment would make cap/recompute behavior nondeterministic
    monkeypatch.delenv("FLATLYAP_CACHE_DIR", raising=False)


# -- kernel backends: the compiled library, or None for pure Python ------------

def compiled_library():
    lib = kernel._library()
    if lib is None:
        pytest.skip("the compiled kernel does not build here")
    return lib


def on_each(fn) -> list:
    """fn() with the compiled kernel, where it builds, then in pure Python."""
    lib = kernel._library()
    results = [] if lib is None else [fn()]
    kernel._lib = None
    try:
        results.append(fn())
    finally:
        kernel._lib = lib
    return results


def on_both(fn):
    """(fn() with the compiled kernel, fn() in pure Python)."""
    compiled_library()
    return tuple(on_each(fn))


@pytest.fixture(params=["compiled", "python"])
def backend(request, monkeypatch):
    lib = compiled_library() if request.param == "compiled" else None
    monkeypatch.setattr(kernel, "_lib", lib)
    return request.param


# -- one scan per degree for the oracles -------------------------------------------
#
# The oracles read the classes and orbits of many strata at each degree.
# One multi-target walk per degree finds them all, and the test run keeps
# each key set and each partition it makes, so no oracle scans a stratum
# on its own.  Tests of the public names, of backends or of call counts
# call enumerate_origamis and orbit_partition themselves.

#: every stratum, by its zero orders, whose classes an oracle reads
ORACLE_STRATA = (
    (2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    (6,), (5, 1), (4, 2), (3, 3), (3, 2, 1), (2, 2, 2), (4, 1, 1),
    (2, 2, 1, 1), (3, 1, 1, 1), (8,), (6, 2), (5, 3), (4, 4),
)


@functools.cache
def _scan(d: int) -> dict:
    """The KeySet of every stratum of ORACLE_STRATA that fits in degree d,
    from one walk."""
    targets = {}
    for orders in ORACLE_STRATA:
        target = enumeration.commutator_cycle_type(Stratum(orders), d)
        if target is not None:
            targets[Stratum(orders)] = target
    return enumeration._scan_degree(d, targets)


def scanned_classes(d: int, orders) -> KeySet:
    """``enumerate_origamis(d, Stratum(orders))`` for a stratum of
    ORACLE_STRATA, from the one walk of degree d."""
    assert tuple(orders) in ORACLE_STRATA, orders
    return _scan(d).get(Stratum(orders), KeySet(d))


@functools.cache
def scanned_orbits(d: int, orders) -> list:
    """``orbit_partition`` of ``scanned_classes(d, orders)``."""
    return enumeration.orbit_partition(scanned_classes(d, orders))


def scanned_orbits_by_degree(orders, d_max: int):
    """(degree, OrbitClass) for every orbit of the stratum, degree by
    degree from its support to d_max, as ``orbits_by_degree`` gives them."""
    for d in range(sum(m + 1 for m in orders), d_max + 1):
        for oc in scanned_orbits(d, orders):
            yield d, oc


# named surfaces used across the suite
FIG1 = "r=(1 2 3 4)(5); u=(1 5); d=5"
WOLLMILCHSAU = "r=(1 2 3 4)(5 6 7 8); u=(1 8 3 6)(2 7 4 5); d=8"
NINE_SQUARE_MAX = "r=(1 2 3 4)(6 7 8 9); u=(2 5 6 3)(4 8 9 7); d=9"
TEN_411 = "r=(1 2)(6 7)(9 10); u=(1 3 2 4 5 6 8 7 9); d=10"
TEN_3111 = "r=(1 2 3 4 5 6 7 8 9 10); u=(1 4 5 8 3 6 10)(2 7 9); d=10"
TEN_71 = "r=(1 2 3 4 5 6 7 8 9 10); u=(1 5 9 6)(2 4 7 10); d=10"
TEN_44_EVEN = "r=(1 2 3 4 5 6 7 8 9 10); u=(1 10)(2 9)(3 5 6 8); d=10"
TEN_44_ODD = "r=(1 2 3 4 5 6 7 8 9 10); u=(1 10)(2 3)(5 6)(7 8); d=10"
ELEVEN_10_ODD = "r=(1 2 3 4 5 6 7 8 9 10 11); u=(1 3 5 7 9 11); d=11"
ELEVEN_10_EVEN = "r=(1 2 3 4 5 6 7 8 9 10 11); u=(1 5 7 9 11)(2 4); d=11"
TORUS = "r=(); u=(); d=1"


def origami(text: str) -> Origami:
    return Origami.from_text(text)


# -- references the library does not need ------------------------------------------

def identity(degree: int) -> Permutation:
    return Permutation(range(1, degree + 1))


def random_permutation(degree: int, rng) -> Permutation:
    """Uniform random permutation drawn from ``rng`` (a random.Random)."""
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(images)


def conjugate(p: Permutation, s: Permutation) -> Permutation:
    """s p s^-1."""
    return compose(compose(s, p), s.inverse())


def order(p: Permutation) -> int:
    return math.lcm(*(len(c) for c in p.cycles())) if p.degree else 1


def commutator(o: Origami) -> Permutation:
    """up^-1 * right^-1 * up * right; its non-trivial cycles are the cone
    points."""
    r, u = o.right, o.up
    return compose(compose(u.inverse(), r.inverse()), compose(u, r))


def canonical_form(r: Permutation, u: Permutation) -> tuple[Permutation, Permutation]:
    """Least pair among all simultaneous conjugates of ``(r, u)``: the
    pair of ``kernel.canonical_key``, which two transitive pairs share iff
    they are simultaneously conjugate."""
    key = canonical_key(r.zero_based(), u.zero_based())
    d = r.degree
    return (
        Permutation(tuple(x + 1 for x in key[:d])),
        Permutation(tuple(x + 1 for x in key[d:])),
    )


def canonical(o: Origami) -> Origami:
    """Relabelled representative, minimal under simultaneous conjugation."""
    return Origami(*canonical_form(o.right, o.up))


_ACCEPTANCE: dict[int, tuple[str, str]] = {}


def record_acceptance(number: int, name: str, passed: bool) -> None:
    state = "PASS" if passed else "FAIL"
    previous = _ACCEPTANCE.get(number)
    if previous and previous[1] == "FAIL":
        state = "FAIL"
    _ACCEPTANCE[number] = (name, state)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        name, state = _ACCEPTANCE[number]
        terminalreporter.write_line(f"criterion {number} ({name}): {state}")
