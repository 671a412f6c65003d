"""Closed-form evaluation of x_m without iterating the recurrence.

Decompose m = 6n + j - 3.  With V_t the reduced values V_{t+1} = a_t V_t + b_t
from V_0 = 1/w, w = x_{-3} x_0 (``reduced.v_values``), the solution is

    x_m = x_{j-3} * prod_{s=0}^{n-1} V_{6s+j} / V_{6s+j+3}

where the prefactor x_{j-3} is the seed for j <= 3, and 1/(x_{j-6} V_{j-3})
for j = 4, 5.  The paper states the factors as the numerator/denominator
polynomial

    T(t) = prod_{k=0}^{t-1} a_k  +  w * sum_{l=0}^{t-1} b_l prod_{k=l+1}^{t-1} a_k,

which is w * V_t; w cancels in every ratio, so the product folds V directly.
The running index inside the block product is s; the published bounds read
6n+j, which cannot be right (the factors would not depend on s) and the
telescoped ratio V_{6s+j}/V_{6s+j+3} forces the s-reading, confirmed
against the iteration oracle.

``_block_product`` evaluates that product for one index over a given fold.
It reads V_m in one factor and otherwise only earlier V, so once
V_0..V_{m-1} are the iteration's, x_closed(m) = 1/(x_{m-3} V_m); ``verify``
checks V on the iteration's window products, and its spot checks and
witnesses are the block product over its own fold.

Domain: V_t = 1/(x_{t-3} x_t) makes the bracket of step t equal to
V_{t+1}/V_t, so x_m exists exactly when the seeds and V_1..V_m are all
nonzero.  ``_v_checked`` alone tests that rule, raising ``ClosedFormError``
for a zero seed or a vanished V_t.  ``x_closed`` folds through it once per
value and ``verify`` once per instance, each reading every V from that fold.

Cost: the fold advances V one coefficient at a time, O(m) field operations.
The n block ratios V_{6s+j}/V_{6s+j+3} are then formed, each cancelling the
coefficient denominators its two factors share while they are small.  For
exact rationals their numerators and their denominators are multiplied as
integers, each in a balanced product tree, and one gcd cancels the two
products' common factor, about a thousand bits at m = 1500: cross gcds at
every merge of a tree of rationals would cost more and find almost nothing.
Any other field scalar multiplies the ratios themselves in that tree.  Every
stream, constant ones included, takes this one path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ratrec.core import (
    CoefficientStream,
    InitialConditions,
    Rational,
    decompose_index,
)
from ratrec.rational import _rational
from ratrec.reduced import v_values


class ClosedFormError(ArithmeticError):
    """x_m outside the closed form's domain: a zero seed, or a vanished V_t."""


def _v_checked(ic: InitialConditions, coeffs: CoefficientStream,
               n: int) -> list[Rational]:
    """V_0..V_n from V_0 = 1/(x_{-3} x_0); ClosedFormError for a zero seed,
    then at the first V_t = 0: x_t, and every later value, does not exist."""
    if not ic.all_nonzero():
        raise ClosedFormError("closed form requires all four initial values nonzero")
    vs = []
    for t, v in enumerate(v_values(1 / (ic.x_m3 * ic.x_0), coeffs, n)):
        if v == 0:
            raise ClosedFormError(f"V({t}) vanished: x_{t} does not exist")
        vs.append(v)
    return vs


def branch(coeffs: CoefficientStream) -> str:
    """The paper's case for a stream, the label of a ``closed`` record:
    constant a = 1, a = -1 or a != +-1, else general.  No kernel reads it."""
    if coeffs.kind != "constant":
        return "general"
    a, _ = coeffs.pairs[0]
    if a == 1:
        return "a1"
    return "aneg1" if a == -1 else "aneq1"


def _balanced_product(factors: list):
    """The product of a non-empty list of field scalars or ints, taken as the
    product of its two halves, so that the operands of every multiplication
    are about the same size and Karatsuba multiplication does the work."""
    if len(factors) == 1:
        return factors[0]
    half = len(factors) // 2
    return _balanced_product(factors[:half]) * _balanced_product(factors[half:])


def _block_product(ic: InitialConditions, vs: list[Rational], n: int, j: int) -> Rational:
    """x_m, m = 6n + j - 3, from a checked fold holding at least V_0..V_m:
    the prefactor times the n block ratios V_{6s+j}/V_{6s+j+3}, multiplied
    in balanced product trees.  At n = 0 the product is the prefactor alone."""
    # the prefactor x_{j-3}: a seed, or for j = 4, 5 V's definition inverted
    # at t = j - 3.  Written j < 4, not j <= 3: at j = 3 both branches give
    # x_0, so tools/mutate.py's j < 3 would survive, while j <= 4 and j < 5
    # each index past the seeds
    head = ic[j] if j < 4 else 1 / (ic[j - 3] * vs[j - 3])
    if n == 0:
        return head
    factors = [head] + [vs[t] / vs[t + 3] for t in range(j, 6 * n, 6)]
    if not all(isinstance(f, (Fraction, int)) for f in factors):
        return _balanced_product(factors)
    # exact rationals, each in lowest terms with a positive denominator
    num = _balanced_product([f.numerator for f in factors])
    den = _balanced_product([f.denominator for f in factors])
    g = gcd(num, den)
    return _rational(num // g, den // g)


def x_closed(ic: InitialConditions, coeffs: CoefficientStream, m: int) -> Rational:
    """x_m from the six-residue-class closed form, exactly: the block product
    over one checked V fold to max(m, 0), in O(m) field operations for the
    fold.  An index below -3 is refused before the seeds and the fold."""
    n, j = decompose_index(m)
    return _block_product(ic, _v_checked(ic, coeffs, max(m, 0)), n, j)


def x_closed_constant(ic: InitialConditions, a: Rational, b: Rational, m: int) -> Rational:
    """Constant-coefficient x_m: ``x_closed`` on the constant stream."""
    return x_closed(ic, CoefficientStream.constant(a, b), m)
