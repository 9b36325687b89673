"""Exact arithmetic for square-tiled surfaces.

Strata, connected components, SL(2,Z) orbits, cylinder decompositions,
sums of Lyapunov exponents, Siegel-Veech constants and slopes; plus a
symbolic divisor calculus on moduli spaces that derives the non-varying
slope values.
"""

from .components import (
    ComponentLabel,
    Involution,
    component_label,
    hyperelliptic_involution,
    in_hyperelliptic_component,
    spin_parity,
)
from .enumeration import StratumReport, enumerate_origamis, nonvarying_report, orbit_partition
from .errors import DisconnectedError, FlatLyapError, InputError, InternalCheckError, ResourceCapError
from .moduli import (
    DivisorClass,
    MarkedStratum,
    QuadSignature,
    brill_noether_number,
    catalog_divisor,
    double_cover_stratum,
    extremality_check,
    hyperelliptic_component_L,
    hyperelliptic_locus_L,
    logan_divisor,
    omega_ratio,
    slope_bound,
    slope_from_disjoint_divisor,
    spin_slope,
    stratum_table,
)
from .origami import Origami, Stratum, kappa
from .orbits import (
    CylinderDecomposition,
    OrbitCache,
    OrbitSummary,
    act_S,
    act_T,
    cusps,
    horizontal_cylinders,
    lyapunov_sum,
    orbit,
)
from .permutation import Permutation, compose, cycle_type, is_transitive, parse_cycles

__version__ = "0.1.0"
