"""The exact symmetry verdict, and its reported float residuals.

The u-form of the recurrence is

    u_{n+4} = u_n u_{n+3} / (u_{n+1} (A_n + B_n u_n u_{n+3})),

and its linear characteristics xi(n, u) = g(n) u are the g that meet the
determining equations g(n) + g(n+3) = 0: (-1)^n, gamma^n and conj(gamma)^n
for gamma = exp(i pi/3).  Each has a period that divides 6, so a
characteristic is its label and its table g(0)..g(5): ``BUILTINS`` maps the
three labels to their tables, and ``CONTROL`` is the table of g = 1.
``is_characteristic``, the verdict of the ``symmetry`` and ``verify``
modes, checks a table against those equations exactly; the
linearized-symmetry-condition residual at free float sample points is only
reported.  The tests derive the equations from that residual exactly.

The gamma table holds (cos, sin) at multiples of pi/3, so
gamma^{n+3} = -gamma^n holds exactly.
"""

from __future__ import annotations

import math
import random

_HALF_ROOT3 = math.sqrt(3.0) / 2.0

# gamma^k for k = 0..5, gamma = exp(i pi/3)
_GAMMA_TABLE = (
    complex(1.0, 0.0),
    complex(0.5, _HALF_ROOT3),
    complex(-0.5, _HALF_ROOT3),
    complex(-1.0, 0.0),
    complex(-0.5, -_HALF_ROOT3),
    complex(0.5, -_HALF_ROOT3),
)

# each characteristic's table g(0)..g(5), by label
BUILTINS = {
    "alternating": (complex(1.0, 0.0), complex(-1.0, 0.0)) * 3,
    "gamma": _GAMMA_TABLE,
    "gamma-conjugate": tuple(z.conjugate() for z in _GAMMA_TABLE),
}
# the failing control g = 1
CONTROL = (complex(1.0, 0.0),) * 6


def is_characteristic(g: tuple[complex, ...]) -> bool:
    """Whether the table g(0)..g(5) meets g(n) + g(n+3) = 0, exactly."""
    return all(a + b == 0 for a, b in zip(g, g[3:]))


def symmetry_residual(g: tuple[complex, ...], n: int,
                      u_n: float, u_n1: float, u_n3: float,
                      a_n: float, b_n: float) -> complex:
    """Residual of the linearized symmetry condition at a free sample point.

    The condition is an identity in (u_n, u_{n+1}, u_{n+3}); samples need
    not lie on a trajectory.  Zero (to rounding) for the three built-in
    characteristics; bounded away from zero for g == 1.  Samples from
    ``random_samples`` have u_{n+1} >= 0.5 and a + b u_n u_{n+3} >= 0.625,
    so no denominator comes near zero.
    """
    bracket = a_n + b_n * u_n * u_n3
    value = u_n * u_n3 / (u_n1 * bracket)
    return (
        g[(n + 4) % 6] * value
        - a_n * u_n * (g[(n + 3) % 6] * u_n3) / (u_n1 * bracket ** 2)
        + u_n * u_n3 * (g[(n + 1) % 6] * u_n1) / (u_n1 ** 2 * bracket)
        - a_n * u_n3 * (g[n % 6] * u_n) / (u_n1 * bracket ** 2)
    )


def random_samples(rng: random.Random, count: int) -> list[tuple]:
    """``count`` free sample points (n, u_n, u_n1, u_n3, a, b): n in 0..23,
    the rest uniform in [0.5, 2], drawn in that order."""
    return [
        (rng.randrange(0, 24),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for _ in range(count)
    ]


def residual_sweep(g: tuple[complex, ...], samples: list[tuple]) -> float:
    """Max |symmetry_residual| over (n, u_n, u_n1, u_n3, a, b) samples."""
    worst = 0.0
    for n, u_n, u_n1, u_n3, a, b in samples:
        worst = max(worst, abs(symmetry_residual(g, n, u_n, u_n1, u_n3, a, b)))
    return worst
