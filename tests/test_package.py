"""The top-level namespace: its public names, and what an import loads."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatlyap

#: the public names of ``flatlyap``, by the submodule that defines them
PUBLIC = {
    "components": [
        "ComponentLabel", "Involution", "component_label", "hyperelliptic_involution",
        "in_hyperelliptic_component", "spin_parity",
    ],
    "enumeration": ["StratumReport", "enumerate_origamis", "nonvarying_report", "orbit_partition"],
    "errors": [
        "DisconnectedError", "FlatLyapError", "InputError", "InternalCheckError",
        "ResourceCapError",
    ],
    "moduli": [
        "DivisorClass", "MarkedStratum", "QuadSignature", "brill_noether_number",
        "catalog_divisor", "double_cover_stratum", "extremality_check",
        "hyperelliptic_component_L", "hyperelliptic_locus_L", "logan_divisor", "omega_ratio",
        "slope_bound", "slope_from_disjoint_divisor", "spin_slope", "stratum_table",
    ],
    "origami": ["Origami", "Stratum", "kappa"],
    "orbits": [
        "CylinderDecomposition", "OrbitCache", "OrbitSummary", "act_S", "act_T", "cusps",
        "horizontal_cylinders", "lyapunov_sum", "orbit",
    ],
    "permutation": ["Permutation", "compose", "cycle_type", "is_transitive", "parse_cycles"],
}


def test_all_is_the_47_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 47
    assert sorted(flatlyap.__all__) == sorted(names)


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_the_object_of_its_home_module(home):
    module = importlib.import_module(f"flatlyap.{home}")
    for name in PUBLIC[home]:
        assert getattr(flatlyap, name) is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(flatlyap.__all__) <= set(dir(flatlyap))


def test_a_name_follows_its_home_module(monkeypatch):
    from flatlyap import orbits

    original = orbits.lyapunov_sum
    monkeypatch.setattr(orbits, "lyapunov_sum", len)
    assert flatlyap.lyapunov_sum is len
    monkeypatch.undo()
    assert flatlyap.lyapunov_sum is original


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        flatlyap.nope


def _clean_run(code: str) -> str:
    """Standard output of ``code`` in a new interpreter that imports
    flatlyap from this tree."""
    src = str(Path(flatlyap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'flatlyap'))"


def test_import_flatlyap_loads_no_submodule():
    assert _clean_run(f"import flatlyap; {LOADED}") == "['flatlyap']\n"


def test_reading_the_golden_file_loads_only_its_parser():
    out = _clean_run(f"import flatlyap.golden; flatlyap.golden.load_golden(); {LOADED}")
    assert out == "['flatlyap', 'flatlyap.errors', 'flatlyap.golden']\n"


def test_star_import_and_submodule_attributes():
    out = _clean_run(
        "from flatlyap import *\n"
        "import flatlyap\n"
        "print(lyapunov_sum is flatlyap.orbits.lyapunov_sum, Origami.__module__)\n"
        "print(sorted(k for k in globals() if not k.startswith('_')) == "
        "sorted(flatlyap.__all__ + ['flatlyap']))"
    )
    assert out == "True flatlyap.origami\nTrue\n"
    # a submodule is an attribute after a bare ``import flatlyap``
    out = _clean_run("import flatlyap; print(flatlyap.orbits.__name__, flatlyap.kernel.__name__)")
    assert out == "flatlyap.orbits flatlyap.kernel\n"
