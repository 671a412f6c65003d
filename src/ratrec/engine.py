"""Direct exact iteration of the fourth-order recurrence.

One step computes

    x_{n+1} = x_{n-3} x_n / (x_{n-2} (a_n + b_n x_{n-3} x_n))
            = 1 / (x_{n-2} (a_n/p + b_n)),   p = x_{n-3} x_n,

in the second form: p has small height, so the step makes one big-by-big
product instead of three.  The denominator can vanish in two distinct
ways, checked in this order and kept apart: ``zero-x-factor`` (x_{n-2} = 0,
the forbidden-set flavour) and ``zero-bracket`` (a dynamical collision:
a_n/p + b_n = 0, or a_n = 0 when p = 0; otherwise p = 0 gives x_{n+1} = 0).
Singularity is sticky: when step n fails the trajectory ends at x_n, so
its last index is the failed step and ``Trajectory.singular`` the cause.
``Trajectory.products`` keeps the p of every step taken.  The reduced
values V_n = 1/(x_{n-3} x_n) are folded by ``reduced``, not read off a
trajectory: the iteration stays the closed form's oracle.
"""

from __future__ import annotations

from ratrec.core import CoefficientStream, InitialConditions, Rational, Trajectory

ZERO_X_FACTOR = "zero-x-factor"
ZERO_BRACKET = "zero-bracket"


class SingularityError(ZeroDivisionError):
    """A vanishing denominator; its one argument is the cause."""


def step(x_nm2: Rational, p: Rational, a_n: Rational, b_n: Rational) -> Rational:
    """x_{n+1} from x_{n-2} and p = x_{n-3} x_n, on an exact field scalar;
    raises SingularityError with the cause if the denominator vanishes."""
    if x_nm2 == 0:
        raise SingularityError(ZERO_X_FACTOR)
    bracket = a_n / p + b_n if p != 0 else a_n
    if bracket == 0:
        raise SingularityError(ZERO_BRACKET)
    return 1 / (x_nm2 * bracket) if p != 0 else p


def iterate(ic: InitialConditions, coeffs: CoefficientStream, horizon: int) -> Trajectory:
    """Trajectory x_{-3}..x_{horizon}, truncated at the first singularity.

    ``horizon`` must be >= 0 (the seeds already cover -3..0) and within
    the stream horizon for explicit-list streams.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    values: list[Rational] = list(ic)
    products: list[Rational] = []
    for n in range(horizon):
        a_n, b_n = coeffs.at(n)
        # window: x_{n-3}, x_{n-2}, x_n sit at list offsets n, n+1, n+3
        p = values[n] * values[n + 3]
        try:
            nxt = step(values[n + 1], p, a_n, b_n)
        except SingularityError as exc:
            return Trajectory(tuple(values), tuple(products), exc.args[0])
        values.append(nxt)
        products.append(p)
    return Trajectory(tuple(values), tuple(products))

