"""Guaranteed upper bounds for low magnetic Neumann eigenvalues on cones.

For a cone over a plane section w (circular or polygonal) and a constant
magnetic field B, the n-th Rayleigh quotient is at most (4n - 1) e(B, w),
where e(B, w) is computed from the exact second moments of w through a
closed-form gauge optimization.  The package also evaluates the model
operators that govern where eigenfunctions concentrate (de Gennes constant,
half-space energies, cylinder and essential-spectrum estimates, corner
concentration thresholds, edge openings of truncated cones) and carries an
analogue of the construction for the attractive Robin Laplacian.
"""

from .errors import (AccuracyError, AccuracyWarning, ConeBoundsError,
                     DomainError, GeometryError, SolverError, UsageError)
from .gauge import (BoundResult, MagneticField, TransverseGauge, e_constant,
                    full_gauge, min_transverse_norm_sq,
                    optimal_transverse_gauge, rayleigh_upper_bounds,
                    reference_asymptotics)
from .geometry import (Disc, Moments, Polygon, Section, centroid,
                       cone_faces, disc_moments, moments, polygon_moments,
                       scale_section, section_from_json,
                       spherical_vertex_opening)
from .halfline import (exact_reduced_spectrum, fd_halfline_spectrum,
                       lambda_from_gauge)
from .models import (ConcentrationThreshold, ConcentrationVerdict,
                     DeGennesResult, EnergyEstimate, TruncatedEdgeReport,
                     concentration_threshold, cylinder_energy, degennes_mu,
                     essential_spectrum_limit, halfspace_sigma, theta0,
                     theta0_detail, truncated_domain_edges)
from .robin import (BoundaryProfile, robin_best_axis_bound,
                    robin_cone_upper_bound, robin_scaling_exponent,
                    robin_wedge_energy)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "AccuracyWarning", "ConeBoundsError", "DomainError",
    "GeometryError", "SolverError", "UsageError",
    "BoundResult", "MagneticField", "TransverseGauge", "e_constant",
    "full_gauge", "min_transverse_norm_sq", "optimal_transverse_gauge",
    "rayleigh_upper_bounds", "reference_asymptotics",
    "Disc", "Moments", "Polygon", "Section", "centroid", "cone_faces",
    "disc_moments", "moments", "polygon_moments", "scale_section",
    "section_from_json", "spherical_vertex_opening",
    "exact_reduced_spectrum", "fd_halfline_spectrum", "lambda_from_gauge",
    "ConcentrationThreshold", "ConcentrationVerdict", "DeGennesResult",
    "EnergyEstimate", "TruncatedEdgeReport",
    "concentration_threshold", "cylinder_energy", "degennes_mu",
    "essential_spectrum_limit", "halfspace_sigma", "theta0", "theta0_detail",
    "truncated_domain_edges",
    "BoundaryProfile", "robin_best_axis_bound",
    "robin_cone_upper_bound", "robin_scaling_exponent", "robin_wedge_energy",
    "__version__",
]
