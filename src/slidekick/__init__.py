"""Numerical toolkit for regularized planar Filippov systems near a visible fold.

The package builds Sotomayor-Teixeira regularizations Z_eps of a piecewise
smooth planar system Z = (X+, X-), follows the attracting Fenichel manifold
of the resulting slow-fast system through the switching strip, solves the
distinguished solution of the inner Riccati-type equation that controls the
passage around the fold, and assembles the section-to-section return maps
used to study sliding periodic orbits and their bifurcations.
"""

from slidekick.fields import (
    FilippovSystem,
    FoldPoint,
    PlanarField,
    RegionClass,
    classify_point,
    filippov_flow,
    find_fold,
    sliding_field,
)
from slidekick.integrator import PoincareResult, Section, Trajectory, integrate
from slidekick.regularization import (
    RegularizationProfile,
    RegularizedSystem,
    phi_linear,
    phi_polynomial,
    regularized_field,
)

__version__ = "0.1.0"

__all__ = [
    "FilippovSystem",
    "FoldPoint",
    "PlanarField",
    "PoincareResult",
    "RegionClass",
    "RegularizationProfile",
    "RegularizedSystem",
    "Section",
    "Trajectory",
    "classify_point",
    "filippov_flow",
    "find_fold",
    "integrate",
    "phi_linear",
    "phi_polynomial",
    "regularized_field",
    "sliding_field",
]
