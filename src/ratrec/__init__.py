"""Exact solver and verifier for the fourth-order rational recurrence

    x_{n+1} = x_{n-3} x_n / (x_{n-2} (a_n + b_n x_{n-3} x_n))

with closed-form evaluation via its reduction to the first-order linear
recurrence V_{n+1} = a_n V_n + b_n, where V_n = 1/(x_{n-3} x_n).
"""

from ratrec.core import (
    Rational,
    parse_rational,
    format_rational,
    CoefficientStream,
    InitialConditions,
    Trajectory,
    decompose_index,
)
from ratrec.engine import (
    SingularityError,
    step,
    iterate,
)
from ratrec.reduced import v_step, v_values
from ratrec.closed_form import x_closed, x_closed_constant

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "CoefficientStream",
    "InitialConditions",
    "Trajectory",
    "decompose_index",
    "SingularityError",
    "step",
    "iterate",
    "v_step",
    "v_values",
    "x_closed",
    "x_closed_constant",
]

__version__ = "0.1.0"
