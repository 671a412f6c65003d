"""The reduced first-order linear recurrence V_{n+1} = a_n V_n + b_n.

``v_values`` is the one affine fold in the package.  Its values equal the
closed form

    V_n = V_0 * prod_{k=0}^{n-1} a_k  +  sum_{l=0}^{n-1} b_l * prod_{k=l+1}^{n-1} a_k

at O(n) rational operations instead of the literal O(n^2) nested
products.  Tests keep the literal form as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from ratrec.core import CoefficientStream, Rational


def v_step(v: Rational, a_n: Rational, b_n: Rational) -> Rational:
    return a_n * v + b_n


def v_values(v0: Rational, coeffs: CoefficientStream, n: int) -> Iterator[Rational]:
    """Yield V_0..V_n, folding ``v_step`` one coefficient at a time."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    v = v0
    yield v
    for k in range(n):
        v = v_step(v, *coeffs.at(k))
        yield v


def v_closed_constant(v0: Rational, a: Rational, b: Rational, n: int) -> Rational:
    """Constant-coefficient specialization.

    a = 1: V_n = v0 + n*b.  Otherwise the geometric sum
    V_n = v0*a^n + b*(1 - a^n)/(1 - a).  Branch selection is exact
    equality, so the a != 1 branch never divides by zero.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a, b, v0 = Fraction(a), Fraction(b), Fraction(v0)
    if a == 1:
        return v0 + n * b
    an = a ** n
    return v0 * an + b * (1 - an) / (1 - a)
