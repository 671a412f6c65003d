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
    SingularReport,
    Trajectory,
    decompose_index,
)
from ratrec.engine import (
    SingularityError,
    step,
    iterate,
    v_sequence,
)
from ratrec.reduced import v_step, v_values, v_closed, v_closed_constant
from ratrec.closed_form import (
    x_closed,
    x_closed_constant,
    x_closed_a_neg1,
    prefactor,
)

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "CoefficientStream",
    "InitialConditions",
    "Trajectory",
    "decompose_index",
    "SingularReport",
    "SingularityError",
    "step",
    "iterate",
    "v_sequence",
    "v_step",
    "v_values",
    "v_closed",
    "v_closed_constant",
    "x_closed",
    "x_closed_constant",
    "x_closed_a_neg1",
    "prefactor",
]

__version__ = "0.1.0"
