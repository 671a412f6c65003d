"""The reduced first-order linear recurrence V_{n+1} = a_n V_n + b_n.

``v_values`` is the one affine fold in the package.  Its values equal the
closed form

    V_n = V_0 * prod_{k=0}^{n-1} a_k  +  sum_{l=0}^{n-1} b_l * prod_{k=l+1}^{n-1} a_k

at O(n) field operations instead of the literal O(n^2) nested
products, on any field scalar.  It is the only V kernel: constant
coefficients fold the same way.  Tests keep the literal form, and for
constant coefficients the geometric sum, as exact oracles.
"""

from __future__ import annotations

from collections.abc import Iterator

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

