import itertools
from fractions import Fraction

import pytest

from flatlyap import components, enumeration, kernel
from flatlyap.enumeration import (
    commutator_cycle_type,
    enumerate_origamis,
    nonvarying_report,
    orbit_partition,
    partition_representative,
    partitions,
)
from flatlyap.errors import InputError, InternalCheckError, ResourceCapError
from flatlyap.kernel import key_set
from flatlyap.origami import Origami, Stratum
from flatlyap.orbits import canonical_key, lyapunov_sum, orbit
from flatlyap.permutation import Permutation, cycle_type, is_transitive

from conftest import FIG1, TEN_44_EVEN, canonical, commutator, on_both, on_each, origami


def key_of(o: Origami) -> bytes:
    return canonical_key(o.right.zero_based(), o.up.zero_based())


# -- partitions ------------------------------------------------------------------

def test_partition_counts():
    # p(0..10) = 1 1 2 3 5 7 11 15 22 30 42
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert sum(1 for _ in partitions(n)) == count


def test_partitions_are_sorted_and_complete():
    for n in range(1, 9):
        seen = set()
        for parts in partitions(n):
            assert sum(parts) == n
            assert list(parts) == sorted(parts, reverse=True)
            seen.add(parts)
        brute = {
            tuple(sorted(c, reverse=True))
            for k in range(1, n + 1)
            for c in itertools.combinations_with_replacement(range(1, n + 1), k)
            if sum(c) == n
        }
        assert seen == brute


def test_partition_representative():
    rep = Permutation(tuple(x + 1 for x in partition_representative((4, 2, 1))))
    assert cycle_type(rep) == (4, 2, 1)


def test_commutator_cycle_type():
    assert commutator_cycle_type(Stratum((2,)), 5) == (3, 1, 1)
    assert commutator_cycle_type(Stratum((2,)), 2) is None
    assert commutator_cycle_type(Stratum((3, 1)), 6) == (4, 2)


# -- exhaustive generation ----------------------------------------------------------

def brute_force_classes(d: int, s: Stratum) -> set[bytes]:
    """Oracle: scan every pair in S_d x S_d directly."""
    target = commutator_cycle_type(s, d)
    found = set()
    if target is None:
        return found
    for r_images in itertools.permutations(range(1, d + 1)):
        r = Permutation(r_images)
        for u_images in itertools.permutations(range(1, d + 1)):
            u = Permutation(u_images)
            if not is_transitive(r, u):
                continue
            o = Origami(r, u)
            if cycle_type(commutator(o)) != target:
                continue
            found.add(canonical_key(r.zero_based(), u.zero_based()))
    return found


@pytest.mark.parametrize(
    "d,orders",
    [
        (3, (2,)),
        (4, (2,)),
        (5, (2,)),
        (4, (1, 1)),
        (5, (1, 1)),
        (5, (4,)),
        (5, (2, 2)),
    ],
)
def test_generator_matches_brute_force(d, orders):
    s = Stratum(orders)
    expected = brute_force_classes(d, s)
    # the compiled scan, where it builds, and the pure-Python one
    for generated in on_each(lambda: set(enumerate_origamis(d, s))):
        assert generated == expected


def test_torus_covers_keep_the_identity_right(backend):
    # H(0) is the one stratum whose commutator is trivial, so the scan
    # must still try the identity as ``right`` for it
    classes = enumerate_origamis(4, Stratum(()))
    assert len(classes) == 7
    assert key_of(Origami(Permutation((1, 2, 3, 4)), Permutation((2, 3, 4, 1)))) in classes


def test_scan_past_the_cap_is_refused(backend, monkeypatch):
    # 13! > 12!: refused before the scan starts, where it would run for hours
    def scan(*args):
        pytest.fail("the scan started")

    monkeypatch.setattr(enumeration, "scan_degree", scan)
    with pytest.raises(ResourceCapError):
        enumerate_origamis(13, Stratum((2,)))


def test_enumerate_empty_below_support():
    assert list(enumerate_origamis(2, Stratum((2,)))) == []


def test_enumeration_is_a_sized_sorted_key_set(backend, monkeypatch):
    # copied out of C memory 100 keys at a time, so that chunks meet
    monkeypatch.setattr(kernel, "_ITER_CHUNK", 100)
    for d, orders, count in ((5, (2,), 27), (6, (2, 2), 126), (7, (3, 1), 1024)):
        classes = enumerate_origamis(d, Stratum(orders))
        keys = list(classes)
        assert len(classes) == len(keys) == count
        assert keys == sorted(set(keys))
        # iterating again yields the same keys: the set is not used up
        assert list(classes) == keys


def test_enumerate_contains_fig1():
    classes = enumerate_origamis(5, Stratum((2,)))
    target = canonical(origami(FIG1))
    assert key_of(target) in classes
    assert Origami.from_key(key_of(target)) == target


def test_enumerate_rejects_bad_degree():
    with pytest.raises(InputError):
        enumerate_origamis(0, Stratum((2,)))


# -- orbit partition -------------------------------------------------------------------

def test_partition_is_a_set_partition():
    all_classes = enumerate_origamis(5, Stratum((2,)))
    parts = orbit_partition(all_classes)
    union = [m for oc in parts for m in oc.members]
    assert len(union) == len(all_classes)
    assert set(all_classes) == set(union)


def test_partition_matches_per_element_closure():
    # oracle: close each element independently and compare the partition
    for d in (4, 5, 6):
        classes = enumerate_origamis(d, Stratum((2,)))
        parts = orbit_partition(classes)
        computed = {
            frozenset(oc.members): oc.summary.orbit_size for oc in parts
        }
        oracle = set()
        for k in classes:
            members = frozenset(
                bytes(m.right.zero_based()) + bytes(m.up.zero_based())
                for m in orbit(Origami.from_key(k))
            )
            oracle.add(members)
        assert set(computed) == oracle
        for members, size in computed.items():
            assert size == len(members)


@pytest.mark.parametrize("orders", [(2,), (3, 1), (2, 2), (1, 1, 1, 1), (4,), (2, 1, 1)], ids=str)
def test_partition_matches_python(orders):
    # the compiled partition against its pure-Python oracle, on the same
    # key set, at every degree from the stratum's support up to 7, and at
    # the support of (1,1,1,1), which is 8
    s = Stratum(orders)
    support = sum(m + 1 for m in orders)
    for d in range(support, max(support, 7) + 1):
        classes = enumerate_origamis(d, s)

        def summaries():
            return [
                (key_of(oc.representative), oc.summary.orbit_size, oc.summary.cusp_count,
                 oc.summary.total_hw, oc.summary.L)
                for oc in orbit_partition(classes)
            ]

        compiled, python = on_both(summaries)
        assert compiled == python
        assert sum(size for _, size, *_ in compiled) == len(classes)


def test_partition_summaries_match_direct_computation():
    classes = enumerate_origamis(5, Stratum((2,)))
    for oc in orbit_partition(classes):
        assert oc.summary == lyapunov_sum(oc.representative)


# each input goes in as a list of keys, and loaded into a KeySet first
INPUTS = (list, key_set)


def test_partition_rejects_mixed_input():
    mixed = [*enumerate_origamis(4, Stratum((2,))), *enumerate_origamis(5, Stratum((2,)))]
    for make in INPUTS:
        with pytest.raises(InputError):
            orbit_partition(make(mixed))


def test_partition_rejects_mixed_strata():
    # same degree, two strata: the check runs on each orbit's least class
    mixed = [*enumerate_origamis(5, Stratum((2,))), *enumerate_origamis(5, Stratum((1, 1)))]
    for make in INPUTS:
        with pytest.raises(InputError, match="single degree and stratum"):
            orbit_partition(make(mixed))
        with pytest.raises(InputError, match="single degree and stratum"):
            orbit_partition(make(mixed[::-1]))


def test_partition_rejects_set_not_closed_under_the_action():
    # with the compiled kernel and in pure Python, from both inputs
    on_each(lambda: [_rejects_set_not_closed(make) for make in INPUTS])


def _rejects_set_not_closed(make):
    # one orbit of 9: the scan from the least class outgrows the 8 left
    single = enumerate_origamis(4, Stratum((2,)))
    assert len(orbit_partition(single)) == 1
    with pytest.raises(InternalCheckError, match="not closed"):
        orbit_partition(make(list(single)[1:]))
    # orbits of 18 and 9: whichever class is missing, its orbit's scan
    # reaches a key outside the input
    classes = list(enumerate_origamis(5, Stratum((2,))))
    assert len(orbit_partition(make(classes))) == 2
    for i in range(len(classes)):
        with pytest.raises(InternalCheckError, match="not closed"):
            orbit_partition(make(classes[:i] + classes[i + 1 :]))
    # ten orbits: drop a class of the last one, after nine closed orbits
    classes = enumerate_origamis(6, Stratum((2, 2)))
    parts = orbit_partition(classes)
    assert len(parts) == 10
    dropped = parts[-1].members[0]
    assert Origami.from_key(dropped) == parts[-1].representative
    with pytest.raises(InternalCheckError, match="not closed"):
        orbit_partition(make([k for k in classes if k != dropped]))


def test_partition_can_run_twice_on_one_key_set(backend):
    classes = enumerate_origamis(6, Stratum((2, 2)))
    assert orbit_partition(classes) == orbit_partition(classes)


def test_partition_rejects_bad_keys(backend):
    classes = list(enumerate_origamis(6, Stratum((2, 2))))
    # a relabelling of a class is the same class under a key that is not
    # canonical; nothing else in the input would fail
    k = classes[3]
    swap = Permutation((2, 1, 3, 4, 5, 6))
    relabelled = Origami.from_key(k)
    relabelled = Origami(
        swap * relabelled.right * swap, swap * relabelled.up * swap
    )
    other = bytes(relabelled.right.zero_based()) + bytes(relabelled.up.zero_based())
    assert other != k and key_of(relabelled) == k
    for make in INPUTS:
        for keys in ([other], classes + [other]):
            with pytest.raises(InputError, match="canonical keys"):
                orbit_partition(make(keys))
        # keys of two lengths
        with pytest.raises(InputError, match="single degree"):
            orbit_partition(make(classes + list(enumerate_origamis(7, Stratum((2, 2))))[:1]))
        # halves that are not permutations, sorting first and last
        for bad in (bytes(12), bytes([11] * 12)):
            with pytest.raises(InputError):
                orbit_partition(make(classes + [bad]))
        with pytest.raises(InputError, match="duplicate"):
            orbit_partition(make(classes + [classes[-1]]))


def test_from_key_inverts_canonical_key(backend):
    classes = enumerate_origamis(6, Stratum((2, 2)))
    assert len(classes) > 1
    for k in classes:
        assert key_of(Origami.from_key(k)) == k
    for bad in (bytes([0, 1, 0]), bytes([0, 0, 1, 1]), bytes([0, 2, 1, 0])):
        with pytest.raises(InputError):
            Origami.from_key(bad)


# -- reports ---------------------------------------------------------------------------

def test_minimal_stratum_report():
    report = nonvarying_report(Stratum((2,)), 6)
    values = report.values_by_component()
    assert values == {"hyperelliptic": {Fraction(4, 3)}}
    assert all(e.s == Fraction(10) for e in report.entries)


def test_report_witnesses_reevaluate():
    report = nonvarying_report(Stratum((2,)), 6)
    for e in report.entries:
        assert lyapunov_sum(e.witness).L == e.L


def test_report_serialization():
    report = nonvarying_report(Stratum((2,)), 5)
    csv_text = report.to_csv()
    header, *rows = [l for l in csv_text.splitlines() if l]
    assert header == "stratum,component,degree,orbit_size,L,c,s,witness"
    assert rows and rows[0].startswith("(2),hyperelliptic")
    payload = report.to_json()
    assert payload[0]["L"] == "4/3"


def test_report_csv_rows_are_the_json_rows():
    # the exact text `flatlyap enumerate --stratum 2 --dmax 5` writes
    assert nonvarying_report(Stratum((2,)), 5).to_csv() == (
        "stratum,component,degree,orbit_size,L,c,s,witness\r\n"
        "(2),hyperelliptic,3,3,4/3,10/9,10/1,r=(2 3); u=(1 2); d=3\r\n"
    )


def test_report_rejects_torus():
    with pytest.raises(InputError):
        nonvarying_report(Stratum(()), 5)


# -- names the benchmark traces -----------------------------------------------------------

def test_traced_names_stay_on_the_call_path(monkeypatch):
    # bench/hooks.py traces these four module attributes by name, and
    # bench/run.py --trace 1 fails when one of their spans is missing: a
    # refactor must keep nonvarying_report and component_label calling them
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.setdefault(name, []).append((args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    counting(enumeration, "enumerate_origamis")
    counting(enumeration, "orbit_partition")
    counting(components, "hyperelliptic_involution")
    counting(components, "spin_parity")

    report = nonvarying_report(Stratum((2, 2)), 6)
    assert report.entries
    # (2,2) needs six squares: one degree, one scan, one partition of its keys
    ((enum_args, keys),) = calls["enumerate_origamis"]
    assert enum_args[0] == 6
    ((part_args, parts),) = calls["orbit_partition"]
    assert part_args[0] is keys and len(parts) == 10

    calls.clear()
    assert components.component_label(origami(TEN_44_EVEN)).kind == "even"
    assert calls["hyperelliptic_involution"] and calls["spin_parity"]
