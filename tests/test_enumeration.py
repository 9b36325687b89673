import itertools
from fractions import Fraction

import pytest

from flatlyap.enumeration import (
    commutator_cycle_type,
    enumerate_origamis,
    nonvarying_report,
    orbit_partition,
    partition_representative,
    partitions,
)
from flatlyap.errors import InputError, InternalCheckError
from flatlyap.origami import Origami, Stratum
from flatlyap.orbits import OrbitCache, canonical_key, lyapunov_sum, orbit
from flatlyap.permutation import Permutation, cycle_type, is_transitive

from conftest import FIG1, on_each, origami


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
            if cycle_type(o.commutator()) != target:
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
    # the compiled scan, where it builds, and the numpy scan
    for generated in on_each(lambda: {
        canonical_key(o.right.zero_based(), o.up.zero_based())
        for o in enumerate_origamis(d, s)
    }):
        assert generated == expected


def test_torus_covers_keep_the_identity_right(backend):
    # H(0) is the one stratum whose commutator is trivial, so the scan
    # must still try the identity as ``right`` for it
    classes = enumerate_origamis(4, Stratum(()))
    assert len(classes) == 7
    assert Origami(Permutation((1, 2, 3, 4)), Permutation((2, 3, 4, 1))).canonical() in classes


def test_enumerate_empty_below_support():
    assert enumerate_origamis(2, Stratum((2,))) == []


def test_enumerate_contains_fig1():
    classes = enumerate_origamis(5, Stratum((2,)))
    target = origami(FIG1).canonical()
    assert target in classes


def test_enumerate_rejects_bad_degree():
    with pytest.raises(InputError):
        enumerate_origamis(0, Stratum((2,)))


# -- orbit partition -------------------------------------------------------------------

def test_partition_is_a_set_partition():
    all_classes = enumerate_origamis(5, Stratum((2,)))
    parts = orbit_partition(all_classes)
    union = [m for oc in parts for m in oc.members]
    assert len(union) == len(all_classes)
    assert {
        canonical_key(o.right.zero_based(), o.up.zero_based()) for o in all_classes
    } == {bytes(p[0]) + bytes(p[1]) for p in union}


def test_partition_matches_per_element_closure():
    # oracle: close each element independently and compare the partition
    for d in (4, 5, 6):
        classes = enumerate_origamis(d, Stratum((2,)))
        parts = orbit_partition(classes)
        computed = {
            frozenset(oc.members): oc.summary.orbit_size for oc in parts
        }
        oracle = set()
        for o in classes:
            members = frozenset(
                (m.right.zero_based(), m.up.zero_based()) for m in orbit(o)
            )
            oracle.add(members)
        assert set(computed) == oracle
        for members, size in computed.items():
            assert size == len(members)


def test_partition_summaries_match_direct_computation():
    classes = enumerate_origamis(5, Stratum((2,)))
    for oc in orbit_partition(classes):
        assert oc.summary == lyapunov_sum(oc.representative)


def test_partition_rejects_mixed_input():
    mixed = enumerate_origamis(4, Stratum((2,))) + enumerate_origamis(5, Stratum((2,)))
    with pytest.raises(InputError):
        orbit_partition(mixed)


def test_partition_rejects_mixed_strata():
    # same degree, two strata: the check runs on each orbit's least class
    mixed = enumerate_origamis(5, Stratum((2,))) + enumerate_origamis(5, Stratum((1, 1)))
    with pytest.raises(InputError, match="single degree and stratum"):
        orbit_partition(mixed)
    with pytest.raises(InputError, match="single degree and stratum"):
        orbit_partition(mixed[::-1])


def test_partition_rejects_set_not_closed_under_the_action():
    # one orbit of 9: the scan from the least class outgrows the 8 left
    single = enumerate_origamis(4, Stratum((2,)))
    assert len(orbit_partition(single)) == 1
    with pytest.raises(InternalCheckError, match="not closed"):
        orbit_partition(single[1:])
    # orbits of 18 and 9: whichever class is missing, its orbit's scan
    # reaches a key outside the input
    classes = enumerate_origamis(5, Stratum((2,)))
    assert len(orbit_partition(classes)) == 2
    for i in range(len(classes)):
        with pytest.raises(InternalCheckError, match="not closed"):
            orbit_partition(classes[:i] + classes[i + 1 :])
    # ten orbits: drop a class of the last one, after nine closed orbits
    classes = enumerate_origamis(6, Stratum((2, 2)))
    parts = orbit_partition(classes)
    assert len(parts) == 10
    dropped = parts[-1].representative
    with pytest.raises(InternalCheckError, match="not closed"):
        orbit_partition([o for o in classes if o != dropped])


def test_partition_uses_cache(tmp_path):
    classes = enumerate_origamis(5, Stratum((2,)))
    cache = OrbitCache(tmp_path)
    first = orbit_partition(classes, cache=cache)
    reloaded = OrbitCache(tmp_path)
    second = orbit_partition(classes, cache=reloaded)
    assert [oc.summary for oc in first] == [oc.summary for oc in second]
    lines = (tmp_path / "orbits.cache").read_text().splitlines()
    assert len(lines) == len(first)


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


def test_report_rejects_torus():
    with pytest.raises(InputError):
        nonvarying_report(Stratum(()), 5)
