"""The library names the benchmark in ``bench/`` wraps and reads.

``bench/hooks.py`` replaces every name in ``HOOKS`` with a traced
wrapper, and the probe in ``bench/workloads.py`` reads a few more; a
refactor that deletes one of them passes the rest of this suite but
aborts ``bench/run.py --trace 1``.  These tests resolve the names the
way the benchmark does, without running it.
"""
import sys
from pathlib import Path

from flatlyap import orbits
from flatlyap.origami import Origami

from conftest import FIG1, origami

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _import_hooks():
    sys.path.insert(0, str(BENCH))
    try:
        import hooks
    finally:
        sys.path.remove(str(BENCH))
    return hooks


hooks = _import_hooks()


def test_every_hooked_name_resolves():
    for owner, attr, _, _ in hooks.HOOKS:
        bindings = hooks._bindings(owner, attr)
        assert bindings, f"nothing binds {attr}"
        for target, key in bindings:
            assert key in vars(target), f"{target!r} has no {key}"
    # installing the hooks looks each one up as vars(namespace)[name]
    assert len(hooks._targets(hooks.HOOKS)) >= len(hooks.HOOKS)


def test_names_the_probe_reads_exist():
    assert callable(orbits.canonical_key)
    assert callable(orbits.format_rational)
    scan = orbits.orbit_scan(origami(FIG1))
    d = scan.degree
    assert d == 5 and scan.size == len(scan.keys) == 18
    assert all(len(key) == 2 * d for key in scan.keys)
    assert sum(width for width, _ in scan.cusp_widths()) == scan.size
    assert scan.total_hw == 20
    assert isinstance(Origami.from_text(FIG1), Origami)
