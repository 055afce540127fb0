"""Resummation toolkit for linear q-difference-differential equations.

Pipeline: parse an equation, check the Newton-polygon conditions, compute
the (generally divergent) formal solution, transform it to convergent
Borel data, continue that data along a geometric spiral, and resum it
through the theta kernel into a true solution whose asymptotic expansion
is verified against the formal series.
"""

from .dsl import parse_series
from .equation import Equation, Term, from_json, parse_equation, to_json, validate
from .errors import QsumError
from .formal import FormalSolution, gevrey_fit, solve_formal, verify_formal
from .newton import (CharPoly, DirectionSet, NewtonPolygon,
                     characteristic_polynomial, check_shape,
                     direction_clearance, newton_polygon, singular_directions)
from .pipeline import Options, RunReport, run_report
from .qborel import (BorelFunction, SpiralGrid, borel_transform,
                     borel_transformed_equation, continue_spiral,
                     fit_spiral_bound)
from .qlaplace import (KernelSamples, SpiralGeometry, asymptotic_check, q_laplace,
                       q_laplace_series, residual_check, theta, zone_membership)
from .scaled import QScaled
from .series import TruncatedSeries
from .square import substitute_square

__version__ = "0.1.0"

__all__ = [
    "Equation", "Term", "parse_equation", "to_json", "from_json", "validate",
    "TruncatedSeries", "QScaled", "QsumError", "parse_series",
    "newton_polygon", "check_shape", "characteristic_polynomial",
    "singular_directions", "direction_clearance",
    "NewtonPolygon", "CharPoly", "DirectionSet",
    "solve_formal", "verify_formal", "gevrey_fit", "FormalSolution",
    "borel_transform", "borel_transformed_equation", "continue_spiral",
    "fit_spiral_bound", "BorelFunction", "SpiralGrid",
    "theta", "zone_membership", "q_laplace", "q_laplace_series",
    "residual_check", "asymptotic_check", "SpiralGeometry",
    "KernelSamples",
    "substitute_square",
    "run_report", "Options", "RunReport",
    "__version__",
]
