"""Independent output oracle: the recurrence iterated modulo 61-bit primes.

    x_{n+1} = x_{n-3} x_n / (x_{n-2} (a_n + b_n x_{n-3} x_n))

Exact values reported by the program are reduced modulo a prime p and
compared with this iteration over GF(p).  A denominator that vanishes
mod p (in the iteration, in an input, or in a reported value) makes p
unlucky, and the check retries with the next prime.  A true mismatch at
a prime where both sides are defined is a certain error.

This module uses only the standard library and shares no code with the
package it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# 2^61 - 1 and the next four primes below it.
PRIMES = (
    2305843009213693951,
    2305843009213693921,
    2305843009213693907,
    2305843009213693723,
    2305843009213693693,
)

Pairs = Tuple[Tuple[Fraction, Fraction], ...]


class Unlucky(ArithmeticError):
    """A denominator vanished modulo the current prime."""


class OracleError(ArithmeticError):
    """Every prime was unlucky, so the value could not be checked."""


def residue(num: int, den: int, p: int) -> int:
    """num/den modulo p."""
    den %= p
    if den == 0:
        raise Unlucky
    return num % p * pow(den, -1, p) % p


def _res(value: Fraction, p: int) -> int:
    return residue(value.numerator, value.denominator, p)


def coefficient(kind: str, pairs: Pairs, n: int) -> Tuple[Fraction, Fraction]:
    if kind == "constant":
        return pairs[0]
    if kind == "periodic":
        return pairs[n % len(pairs)]
    return pairs[n]


def trajectory(seeds: Sequence[Fraction], kind: str, pairs: Pairs,
               horizon: int, p: int) -> List[int]:
    """x_{-3}..x_horizon modulo p; entry i is x_{i-3}."""
    xs = [_res(s, p) for s in seeds]
    for n in range(horizon):
        a, b = coefficient(kind, pairs, n)
        prod = xs[n] * xs[n + 3] % p
        den = xs[n + 1] * ((_res(a, p) + _res(b, p) * prod) % p) % p
        if den == 0:
            raise Unlucky
        xs.append(prod * pow(den, -1, p) % p)
    return xs


def is_regular(seeds: Sequence[Fraction], kind: str, pairs: Pairs, horizon: int) -> bool:
    """True when no denominator vanishes over Q through ``horizon``.

    A rational that is nonzero mod some prime is nonzero, so one clean
    prime proves regularity; failing at every prime is treated as singular.
    """
    for p in PRIMES:
        try:
            trajectory(seeds, kind, pairs, horizon, p)
            return True
        except Unlucky:
            continue
    return False


def mismatches(seeds: Sequence[Fraction], kind: str, pairs: Pairs,
               got: Dict[int, Tuple[int, int]]) -> List[int]:
    """Indices m whose reported value x_m = num/den differs from the
    recurrence; ``got`` maps m to (num, den)."""
    horizon = max(got)
    for p in PRIMES:
        try:
            xs = trajectory(seeds, kind, pairs, horizon, p)
            return [m for m, (num, den) in sorted(got.items())
                    if residue(num, den, p) != xs[m + 3]]
        except Unlucky:
            continue
    raise OracleError("every prime was unlucky")
