"""Floating-point verification of the symmetry machinery.

The u-form of the recurrence is

    u_{n+4} = u_n u_{n+3} / (u_{n+1} (A_n + B_n u_n u_{n+3})),

and its linear characteristics are xi(n, u) = g(n) u with g among
(-1)^n, gamma^n, conj(gamma)^n for gamma = exp(i pi/3).  This module
evaluates the linearized-symmetry-condition residual for any such g,
the final constraint g(n) + g(n+3) = 0, the canonical coordinate
S_n = gamma^{-n} ln|u_n|, the invariant V-tilde, the H(n,k) = gamma^n
conj(gamma)^k kernel with its integer weight trichotomy, and log-space
reconstruction of |u_{6n+j}| from |V_k| values.

Powers of gamma come from a 6-entry (cos, sin) table at multiples of
pi/3, never from repeated complex multiplication, so the periodicity
identities hold to the rounding of the table entries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from ratrec.core import Trajectory
from ratrec.engine import step, v_sequence

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

DENOM_FLOOR = 1e-9


class ConditioningError(ArithmeticError):
    """A denominator came too close to zero for a trustworthy residual."""


def gamma_power(n: int) -> complex:
    """gamma^n via the 6-periodic lookup table (works for negative n)."""
    return _GAMMA_TABLE[n % 6]


@dataclass(frozen=True)
class Characteristic:
    """A linear symmetry characteristic xi(n, u) = g(n) u."""

    g: Callable[[int], complex]
    label: str

    def xi(self, n: int, u: complex) -> complex:
        return self.g(n) * u


def alternating() -> Characteristic:
    return Characteristic(g=lambda n: complex((-1) ** (n % 2), 0.0), label="alternating")


def gamma_char() -> Characteristic:
    return Characteristic(g=gamma_power, label="gamma")


def gamma_conjugate() -> Characteristic:
    return Characteristic(g=lambda n: gamma_power(n).conjugate(), label="gamma-conjugate")


def custom(g: Callable[[int], complex], label: str = "custom") -> Characteristic:
    return Characteristic(g=g, label=label)


def builtin_characteristics() -> List[Characteristic]:
    return [alternating(), gamma_char(), gamma_conjugate()]


def symmetry_residual(char: Characteristic, n: int,
                      u_n: float, u_n1: float, u_n3: float,
                      a_n: float, b_n: float) -> complex:
    """Residual of the linearized symmetry condition at a free sample point.

    The condition is an identity in (u_n, u_{n+1}, u_{n+3}); samples need
    not lie on a trajectory.  Zero (to rounding) for the three built-in
    characteristics; bounded away from zero for g == 1.
    """
    bracket = a_n + b_n * u_n * u_n3
    if abs(u_n1) < DENOM_FLOOR or abs(bracket) < DENOM_FLOOR:
        raise ConditioningError("sample too close to a vanishing denominator")
    value = step(u_n, u_n1, u_n3, a_n, b_n)
    return (
        char.xi(n + 4, value)
        - a_n * u_n * char.xi(n + 3, u_n3) / (u_n1 * bracket ** 2)
        + u_n * u_n3 * char.xi(n + 1, u_n1) / (u_n1 ** 2 * bracket)
        - a_n * u_n3 * char.xi(n, u_n) / (u_n1 * bracket ** 2)
    )


def constraint_residual(char: Characteristic, n: int) -> complex:
    """g(n) + g(n+3); zero for every admissible characteristic."""
    return char.g(n) + char.g(n + 3)


def canonical_coordinate(n: int, u_n: float) -> complex:
    """S_n = gamma^{-n} ln|u_n|."""
    if u_n == 0:
        raise ZeroDivisionError("canonical coordinate needs u_n != 0")
    return gamma_power(-n) * math.log(abs(u_n))


def invariant_check(traj: Trajectory, n: int):
    """V-tilde_n = gamma^n S_n + gamma^{n+3} S_{n+3} and the defect
    |exp(-V-tilde_n) - |V_n|| against the exact engine value.

    Returns (tilde_v, defect).  tilde_v should be real to rounding.
    """
    u_n = float(traj.u(n))
    u_n3 = float(traj.u(n + 3))
    tilde_v = (gamma_power(n) * canonical_coordinate(n, u_n)
               + gamma_power(n + 3) * canonical_coordinate(n + 3, u_n3))
    v_exact = v_sequence(traj)[n]
    defect = abs(math.exp(-tilde_v.real) - abs(float(v_exact)))
    return tilde_v, defect


def weight(d: int) -> int:
    """Integer value of (1/3)[(-1)^d + 2 cos(d pi/3)]: the trichotomy
    +1 (d = 0 mod 6), -1 (d = 3 mod 6), 0 otherwise."""
    r = d % 6
    if r == 0:
        return 1
    if r == 3:
        return -1
    return 0


def weight_float(d: int) -> float:
    """The same weight evaluated by the defining float formula."""
    return ((-1.0) ** (d % 2) + 2.0 * gamma_power(d).real) / 3.0


def hh(n: int, k: int) -> complex:
    """The kernel gamma^n conj(gamma)^k."""
    return gamma_power(n) * gamma_power(k).conjugate()


def h_factor(j: int, traj: Trajectory) -> float:
    """exp(H_j): |u_j| for j = 0..2, |V_{j-3}| |u_j| for j = 3..5."""
    if not (0 <= j <= 5):
        raise ValueError(f"residue j must be in 0..5, got {j}")
    u_j = abs(float(traj.u(j)))
    if u_j == 0:
        raise ZeroDivisionError("h_factor needs nonzero u_j")
    if j <= 2:
        return u_j
    v = v_sequence(traj)[j - 3]
    return abs(float(v)) * u_j


def log_reconstruct(j: int, n: int, traj: Trajectory) -> float:
    """Reconstruct |u_{6n+j}| = |x_{6n+j-3}| from the weighted log sum

        exp{ H_j + sum_{k=0}^{6n+j-1} weight(j-k) ln|V_k| }.

    (weight(j-k) collapses the sum to the telescoping pairs
    ln|V_{6s+j}| - ln|V_{6s+j+3}|.)
    """
    if not (0 <= j <= 5):
        raise ValueError(f"residue j must be in 0..5, got {j}")
    if n < 0:
        raise ValueError(f"block number n must be >= 0, got {n}")
    top = 6 * n + j
    vs = v_sequence(traj)
    if top - 1 >= len(vs):
        raise IndexError("trajectory too short for requested reconstruction")
    acc = 0.0
    for k in range(top):
        wgt = weight(j - k)
        if wgt:
            acc += wgt * math.log(abs(float(vs[k])))
    return h_factor(j, traj) * math.exp(acc)


def random_samples(rng: random.Random, count: int) -> List[tuple]:
    """``count`` free sample points (n, u_n, u_n1, u_n3, a, b): n in 0..23,
    the rest uniform in [0.5, 2], drawn in that order."""
    return [
        (rng.randrange(0, 24),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for _ in range(count)
    ]


def residual_sweep(char: Characteristic, samples: Sequence[tuple]) -> float:
    """Max |symmetry_residual| over (n, u_n, u_n1, u_n3, a, b) samples."""
    worst = 0.0
    for n, u_n, u_n1, u_n3, a, b in samples:
        worst = max(worst, abs(symmetry_residual(char, n, u_n, u_n1, u_n3, a, b)))
    return worst
