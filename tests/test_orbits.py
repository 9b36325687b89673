import fcntl
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from flatlyap import golden, orbits
from flatlyap.errors import InputError, ResourceCapError
from flatlyap.kernel import cylinders, invert
from flatlyap.origami import Origami, kappa
from flatlyap.orbits import (
    OrbitCache,
    act_S,
    act_T,
    canonical_key,
    cusps,
    format_rational,
    horizontal_cylinders,
    lyapunov_sum,
    orbit,
    orbit_scan,
    parse_rational,
)
from flatlyap.permutation import Permutation, is_transitive

from conftest import (
    FIG1, NINE_SQUARE_MAX, TEN_3111, TORUS, WOLLMILCHSAU, on_both, origami, random_permutation,
)


def canon(o: Origami) -> bytes:
    return canonical_key(o.right.zero_based(), o.up.zero_based())


# -- generators -----------------------------------------------------------------

def test_act_T_fixes_torus():
    t = origami(TORUS)
    assert act_T(t) == t


def test_act_T_preserves_stratum_and_degree():
    o = origami(FIG1)
    image = act_T(o)
    assert image.degree == o.degree
    assert image.stratum() == o.stratum()


def test_act_T_returns_after_cusp_width():
    o = origami(FIG1)
    start = canon(o)
    x = act_T(o)
    width = 1
    while canon(x) != start:
        x = act_T(x)
        width += 1
        assert width <= 1000
    assert width >= 1


def test_act_S_fourth_power_is_relabelling():
    o = origami(FIG1)
    x = act_S(act_S(act_S(act_S(o))))
    assert canon(x) == canon(o)


def test_act_S_fixes_torus():
    assert act_S(origami(TORUS)) == origami(TORUS)


def test_act_S_lands_in_orbit():
    o = origami(FIG1)
    members = {canon(m) for m in orbit(o)}
    assert canon(act_S(o)) in members


# -- orbits ------------------------------------------------------------------------

def test_torus_orbit_is_a_point():
    assert len(orbit(origami(TORUS))) == 1


def test_orbit_independent_of_start_point():
    o = origami(FIG1)
    members = orbit(o)
    again = {frozenset(canon(m) for m in orbit(member)) for member in members}
    assert again == {frozenset(canon(m) for m in members)}


def test_orbit_cap():
    with pytest.raises(ResourceCapError):
        orbit(origami(NINE_SQUARE_MAX), max_size=3)


# -- cylinders ----------------------------------------------------------------------

def test_cylinders_fig1():
    decomposition = horizontal_cylinders(origami(FIG1))
    assert decomposition.cylinders == ((4, 1), (1, 1))
    assert decomposition.sum_h_over_w == Fraction(5, 4)


def test_cylinders_torus():
    assert horizontal_cylinders(origami(TORUS)).cylinders == ((1, 1),)


def test_cylinders_wollmilchsau():
    # the two rows fail the commutation test at square 1: up(right(1)) = 7
    # but right(up(1)) = 5, so they are separate height-one cylinders
    o = origami(WOLLMILCHSAU)
    assert o.up(o.right(1)) == 7 and o.right(o.up(1)) == 5
    decomposition = horizontal_cylinders(o)
    assert decomposition.cylinders == ((4, 1), (4, 1))
    assert decomposition.sum_h_over_w == Fraction(1, 2)


def test_cylinder_area_matches_degree_randomly():
    rng = random.Random(9)
    found = 0
    while found < 40:
        d = rng.randint(1, 12)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        if not is_transitive(r, u):
            continue
        found += 1
        assert horizontal_cylinders(Origami(r, u)).total_area == d


def test_tall_cylinder():
    # a 1x3 tower: one cylinder of width 1 and height 3
    o = Origami.from_text("r=(); u=(1 2 3); d=3")
    assert horizontal_cylinders(o).cylinders == ((1, 3),)


# -- Lyapunov sums ---------------------------------------------------------------------

def test_wollmilchsau_sum():
    summary = lyapunov_sum(origami(WOLLMILCHSAU))
    assert summary.L == 1
    assert summary.orbit_size == 1
    assert summary.cusp_count == 1


def test_nine_square_sum():
    assert lyapunov_sum(origami(NINE_SQUARE_MAX)).L == 2


def test_fig1_sum_matches_hyperelliptic_value():
    summary = lyapunov_sum(origami(FIG1))
    assert summary.L == Fraction(4, 3)
    k = kappa(summary.stratum)
    assert summary.c == summary.L - k
    assert summary.s == 12 - 12 * k / summary.L
    assert summary.s == 12 * summary.c / summary.L


def test_lyapunov_rejects_torus():
    with pytest.raises(InputError):
        lyapunov_sum(origami(TORUS))


def test_summary_constant_on_orbit():
    o = origami(FIG1)
    base = lyapunov_sum(o)
    for member in orbit(o)[:6]:
        again = lyapunov_sum(member)
        assert again == base
        assert member.stratum() == o.stratum()


def test_summary_json_fields():
    payload = lyapunov_sum(origami(FIG1)).to_json()
    assert set(payload) == {
        "degree", "stratum", "orbit_size", "cusp_count", "total_hw", "L", "c", "s",
    }
    assert payload["L"] == "4/3"
    assert payload["stratum"] == [2]


# -- cusps --------------------------------------------------------------------------------

def test_cusp_widths_partition_orbit():
    o = origami(FIG1)
    summary = lyapunov_sum(o)
    cusp_list = cusps(o)
    assert sum(width for width, _, _ in cusp_list) == summary.orbit_size
    assert len(cusp_list) == summary.cusp_count
    for _, rep, decomposition in cusp_list:
        assert decomposition.total_area == o.degree


@pytest.mark.parametrize("text", [FIG1, TEN_3111])
def test_cusp_list_is_the_same_from_any_start_in_the_orbit(text):
    # each start has its own canonical key, so each closure finds the keys
    # in another order and walks the T-cycles from other keys
    o = origami(text)
    starts = [o, act_T(o), act_S(o), act_S(act_T(o))]
    assert len({canon(x) for x in starts}) == len(starts)
    lists = [
        widths
        for x in starts
        for widths in on_both(lambda: list(orbit_scan(x).cusp_widths()))
    ]
    # each backend's own list is sorted: the compiled one only in Python
    assert all(widths == sorted(widths) == lists[0] for widths in lists)


def test_single_cusp_orbit():
    assert len(cusps(origami(WOLLMILCHSAU))) == 1


def test_exhaustive_t_partition_small_degree():
    # oracle: follow T from every orbit element independently
    for text in (FIG1, WOLLMILCHSAU):
        o = origami(text)
        members = {canon(m) for m in orbit(o)}
        oracle = set()
        for m in orbit(o):
            t_orbit = set()
            x = m
            while canon(x) not in t_orbit:
                t_orbit.add(canon(x))
                x = act_T(x)
            oracle.add(frozenset(t_orbit))
        assert sum(len(t) for t in oracle) == len(members)
        assert len(oracle) == len(cusps(o))


def test_t_keeps_the_horizontal_cylinders():
    # the closure counts the cylinders of one member per cusp, weighted by
    # the cusp's width: exact because T, a horizontal shear, keeps them
    for text in (FIG1, TEN_3111):
        scan = orbit_scan(origami(text))
        d = scan.degree
        for key in scan.keys:
            r, u = key[:d], key[d:]
            assert cylinders(r, [u[x] for x in invert(r)]) == cylinders(r, u)


# -- closures at new degrees -----------------------------------------------------------------

GOLDEN = {c.id: c for c in golden.load_golden()}


def stretched(o: Origami, k: int) -> Origami:
    """o under diag(k, 1): each square becomes k squares in a row."""
    r, u, d = o.right.zero_based(), o.up.zero_based(), o.degree
    right = [k * x + j + 2 if j < k - 1 else k * r[x] + 1 for x in range(d) for j in range(k)]
    up = [k * u[x] + j + 1 for x in range(d) for j in range(k)]
    return Origami(Permutation(right), Permutation(up))


def _assert_stretch_keeps_L(cid: str, k: int):
    # diag(k, 1) is in GL+(2,R), so the stretched surface lies on the same
    # Teichmueller curve and has the same L; its orbit, cusps and cylinder
    # sums are new ones, at degree k d
    check = GOLDEN[cid]
    o = stretched(golden._origami(check), k)
    assert o.degree == k * int(check.get("d"))
    assert lyapunov_sum(o).L == Fraction(check.get("L"))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "cid",
    ["g2/lyap/five-square-single-zero", "g3/lyap/wollmilchsau", "g3/lyap/nine-square-max",
     "g4/lyap/ten-square-411"],
)
def test_stretching_keeps_L(cid, k):
    _assert_stretch_keeps_L(cid, k)


@pytest.mark.slow
def test_stretching_keeps_L_of_ten_square_3111():
    _assert_stretch_keeps_L("g4/lyap/ten-square-3111", 2)   # 46,656 elements at d=20


def l_shape(n: int) -> Origami:
    """The L-shape of n squares in H(2): r = (1 ... n-1), u = (1 n)."""
    return Origami(Permutation([*range(2, n), 1, n]), Permutation([n, *range(2, n), 1]))


def _assert_prime_l_shape(n: int):
    # Hubert-Lelievre, "Prime arithmetic Teichmueller discs in H(2)": at a
    # prime n the L-shape's orbit has (3/16)(n-1)(n^2-1) elements, and
    # every Teichmueller curve of H(2) has L = 4/3
    summary = lyapunov_sum(l_shape(n))
    assert (summary.orbit_size, summary.L) == ((n - 1) * (n * n - 1) * 3 // 16, Fraction(4, 3))


@pytest.mark.parametrize("n", [13, 31])
def test_prime_l_shape_orbit(n):
    _assert_prime_l_shape(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [61, 101])
def test_prime_l_shape_orbit_at_large_degree(n):
    _assert_prime_l_shape(n)   # 41,850 and 191,250 elements


# -- canonical key ---------------------------------------------------------------------------

def _canonical_key_all_bases(rz, uz):
    # oracle: no base restriction, straight lexicographic minimum
    d = len(rz)
    best = None
    for base in range(d):
        label = [-1] * d
        order = [0] * d
        label[base] = 0
        order[0] = base
        filled = 1
        i = 0
        while i < filled:
            x = order[i]
            i += 1
            for y in (rz[x], uz[x]):
                if label[y] < 0:
                    label[y] = filled
                    order[filled] = y
                    filled += 1
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


def test_canonical_key_base_restriction_matches_oracle():
    rng = random.Random(31)
    count = 0
    while count < 800:
        d = rng.randint(1, 9)
        r, u = random_permutation(d, rng), random_permutation(d, rng)
        if not is_transitive(r, u):
            continue
        count += 1
        rz, uz = r.zero_based(), u.zero_based()
        assert canonical_key(rz, uz) == _canonical_key_all_bases(rz, uz)


# -- rational formatting ---------------------------------------------------------------------

def test_format_rational():
    assert format_rational(Fraction(4, 3)) == "4/3"
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert parse_rational("244729/101893") == Fraction(244729, 101893)


# -- cache -------------------------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    cache = OrbitCache(tmp_path)
    first = lyapunov_sum(origami(FIG1), cache=cache)
    least = min(canon(o) for o in orbit(origami(FIG1)))
    query = canon(origami(FIG1))
    assert least != query
    # one line for the orbit's least key, one for FIG1's own key, each
    # with its line hash and the orbit's numbers
    lines = (tmp_path / "orbits.cache").read_text().splitlines()
    assert [line.split()[0] for line in lines] == [
        OrbitCache.key_hash(least), OrbitCache.key_hash(query)
    ]
    for line in lines:
        payload, check = line.rsplit(" ", 1)
        assert check == OrbitCache._line_hash(payload)
        assert payload.split()[1:] == ["18", "5", "20/1"]
    reloaded = OrbitCache(tmp_path)
    assert reloaded.dropped == 0
    assert reloaded.lookup_any(least) == reloaded.lookup_any(query) == (18, 5, Fraction(20))
    assert lyapunov_sum(origami(FIG1), cache=reloaded) == first


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OrbitCache.ENV_VAR, str(tmp_path))
    cache = OrbitCache()
    assert cache.path.parent == tmp_path


def test_cache_requires_directory(monkeypatch):
    monkeypatch.delenv(OrbitCache.ENV_VAR, raising=False)
    with pytest.raises(InputError):
        OrbitCache()


def test_a_cache_that_cannot_be_written_keeps_no_entry(tmp_path):
    # the directory turns into a regular file after the cache loaded
    cache = OrbitCache(tmp_path / "gone")
    (tmp_path / "gone").write_text("")
    with pytest.raises(InputError, match="cannot write the orbit cache"):
        lyapunov_sum(origami(FIG1), cache=cache)
    assert all(cache.lookup_any(canon(o)) is None for o in orbit(origami(FIG1)))


def test_cache_detects_corruption(tmp_path):
    lyapunov_sum(origami(FIG1), cache=OrbitCache(tmp_path))
    path = tmp_path / "orbits.cache"
    least_line, query_line = path.read_text().splitlines()
    corrupted = query_line.replace(" 18 ", " 19 ", 1)
    assert corrupted != query_line
    path.write_text(f"{least_line}\n{corrupted}\nnot-a-line\n")
    # bad line hash and bad shape: both dropped, the query recomputed
    fresh = OrbitCache(tmp_path)
    assert fresh.dropped == 2
    assert fresh.lookup_any(canon(origami(FIG1))) is None
    summary = lyapunov_sum(origami(FIG1), cache=fresh)
    assert summary.L == Fraction(4, 3)
    # ... and its line written again
    assert path.read_text().splitlines()[-1] == query_line
    again = OrbitCache(tmp_path)
    assert again.dropped == 2
    assert again.lookup_any(canon(origami(FIG1))) == (18, 5, Fraction(20))


def test_cache_drops_lines_it_cannot_read(tmp_path):
    lyapunov_sum(origami(FIG1), cache=OrbitCache(tmp_path))
    path = tmp_path / "orbits.cache"
    least_line = path.read_text().splitlines()[0]
    # a byte that is not UTF-8, and a zero denominator under a good hash
    payload = f"{'0' * 64} 18 5 1/0"
    path.write_bytes(
        f"{least_line}\n".encode() + b"\xff not utf-8\n"
        + f"{payload} {OrbitCache._line_hash(payload)}\n".encode()
    )
    cache = OrbitCache(tmp_path)
    assert cache.dropped == 2
    least = min(canon(o) for o in orbit(origami(FIG1)))
    assert cache.lookup_any(least) == (18, 5, Fraction(20))


# FIG1's cache as an older version wrote it: the orbit line in
# orbits.cache, FIG1's own key in a second, unhashed aliases.cache
OLD_ORBIT_LINE = (
    "1427443c2c376bdc8f2f732a7557372a73e5e911c429edf51e4339efe8d173c9 18 5 20/1 b1cf6f8459f2"
)
OLD_ALIAS_LINE = (
    "a68b1826b12f3a0a8be32bfc1706dded05b3a59d9618b84d94d36f259c852abd "
    "1427443c2c376bdc8f2f732a7557372a73e5e911c429edf51e4339efe8d173c9"
)


def test_cache_with_an_old_alias_file_still_loads(tmp_path):
    (tmp_path / "orbits.cache").write_text(OLD_ORBIT_LINE + "\n")
    (tmp_path / "aliases.cache").write_text(OLD_ALIAS_LINE + "\n")
    cache = OrbitCache(tmp_path)
    assert cache.dropped == 0
    o = origami(FIG1)
    least = min(canon(x) for x in orbit(o))
    # the orbit line hits: max_size=1 fails on any search
    hit = lyapunov_sum(Origami.from_key(least), max_size=1, cache=cache)
    assert (hit.orbit_size, hit.L) == (18, Fraction(4, 3))
    # the alias is not read: FIG1's own key costs one search, then hits
    assert cache.lookup_any(canon(o)) is None
    assert lyapunov_sum(o, cache=cache) == hit
    assert lyapunov_sum(o, max_size=1, cache=OrbitCache(tmp_path)) == hit
    assert (tmp_path / "aliases.cache").read_text() == OLD_ALIAS_LINE + "\n"


_WRITER = """
import os, sys, time
from fractions import Fraction
from flatlyap.orbits import OrbitCache
cache = OrbitCache(sys.argv[1])
tag = int(sys.argv[2])
while not os.path.exists(sys.argv[3]):
    time.sleep(0.001)
for i in range(1500):
    cache.store(bytes([tag, i % 256, i // 256]), i + 1, tag, Fraction(i, 7))
"""


def test_concurrent_writers_share_one_cache_file(tmp_path):
    # two processes append to one orbits.cache at once, each line under an
    # exclusive lock: no line is torn, and a reload knows every entry
    src = str(Path(orbits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    go = tmp_path / "go"
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), str(tag), str(go)], env=env)
        for tag in (1, 2)
    ]
    go.touch()
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    cache = OrbitCache(tmp_path)
    assert cache.dropped == 0
    assert len(cache.path.read_text().splitlines()) == 3000
    for tag in (1, 2):
        for i in range(1500):
            assert cache.lookup_any(bytes([tag, i % 256, i // 256])) == (i + 1, tag, Fraction(i, 7))


def test_cache_appends_wait_for_a_held_lock(tmp_path):
    # the lock, not the kernel's append semantics, keeps writers apart: an
    # append waits while another open file description holds it
    cache = OrbitCache(tmp_path)
    cache.store(b"a", 1, 1, Fraction(1))
    with open(cache.path, "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        writer = threading.Thread(target=cache.store, args=(b"b", 2, 1, Fraction(2)))
        writer.start()
        writer.join(0.2)
        assert writer.is_alive()
        assert len(cache.path.read_text().splitlines()) == 1
    writer.join(10)
    assert not writer.is_alive()
    assert OrbitCache(tmp_path).lookup_any(b"b") == (2, 1, Fraction(2))


def test_traced_names_stay_on_the_call_path(monkeypatch, tmp_path):
    # bench/hooks.py traces orbit_scan and OrbitScan.cusp_widths by name,
    # and bench/run.py --trace 1 fails when the cusp_widths span is
    # missing: a refactor must keep lyapunov_sum calling both
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(orbits, "orbit_scan")
    counting(orbits.OrbitScan, "cusp_widths")
    cache = OrbitCache(tmp_path)
    first = lyapunov_sum(origami(FIG1), cache=cache)
    assert sorted(calls) == ["cusp_widths", "orbit_scan"]
    calls.clear()
    assert lyapunov_sum(origami(FIG1), cache=cache) == first
    assert calls == []


def test_cache_alias_hits_for_non_minimal_representative(tmp_path):
    cache = OrbitCache(tmp_path)
    o = origami(FIG1)
    lyapunov_sum(act_T(o), cache=cache)
    reloaded = OrbitCache(tmp_path)
    key = canon(act_T(o))
    assert reloaded.lookup_any(key) is not None
