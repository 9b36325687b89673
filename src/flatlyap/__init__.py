"""Exact arithmetic for square-tiled surfaces.

Strata, connected components, SL(2,Z) orbits, cylinder decompositions,
sums of Lyapunov exponents, Siegel-Veech constants and slopes; plus a
symbolic divisor calculus on moduli spaces that derives the non-varying
slope values.

``import flatlyap`` imports none of the submodules.  A public name is
looked up on its home module at each access (PEP 562), which imports
that module the first time; so is a home module, or the kernel, read as
an attribute: ``flatlyap.orbits``.
"""

import importlib

__version__ = "0.1.0"

#: the public names, by the submodule that defines them
_HOMES = {
    "components": (
        "ComponentLabel",
        "Involution",
        "component_label",
        "hyperelliptic_involution",
        "in_hyperelliptic_component",
        "spin_parity",
    ),
    "enumeration": ("StratumReport", "enumerate_origamis", "nonvarying_report", "orbit_partition"),
    "errors": (
        "DisconnectedError",
        "FlatLyapError",
        "InputError",
        "InternalCheckError",
        "ResourceCapError",
    ),
    "moduli": (
        "DivisorClass",
        "MarkedStratum",
        "QuadSignature",
        "brill_noether_number",
        "catalog_divisor",
        "double_cover_stratum",
        "extremality_check",
        "hyperelliptic_component_L",
        "hyperelliptic_locus_L",
        "logan_divisor",
        "omega_ratio",
        "slope_bound",
        "slope_from_disjoint_divisor",
        "spin_slope",
        "stratum_table",
    ),
    "origami": ("Origami", "Stratum", "kappa"),
    "orbits": (
        "CylinderDecomposition",
        "OrbitCache",
        "OrbitSummary",
        "act_S",
        "act_T",
        "cusps",
        "horizontal_cylinders",
        "lyapunov_sum",
        "orbit",
    ),
    "permutation": ("Permutation", "compose", "cycle_type", "is_transitive", "parse_cycles"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
#: submodules served as attributes: the homes, and the kernel they share
_SUBMODULES = frozenset(_HOMES) | {"kernel"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
