"""Closed-form evaluation of x_m without iterating the recurrence.

Decompose m = 6n + j - 3.  With V_t the reduced values V_{t+1} = a_t V_t + b_t
from V_0 = 1/w, w = x_{-3} x_0 (``reduced.v_values``), the solution is

    x_m = prefactor(j) * prod_{s=0}^{n-1} V_{6s+j} / V_{6s+j+3}

where prefactor(j) = x_{j-3}: the seed for j <= 3, and x_{j-3} =
1/(x_{j-6} V_{j-3}) for j = 4, 5.  The paper states the factors as the
numerator/denominator polynomial

    T(t) = prod_{k=0}^{t-1} a_k  +  w * sum_{l=0}^{t-1} b_l prod_{k=l+1}^{t-1} a_k,

which is w * V_t; w cancels in every ratio, so the product folds V directly.
The running index inside the block product is s; the published bounds read
6n+j, which cannot be right (the factors would not depend on s) and the
telescoped ratio V_{6s+j}/V_{6s+j+3} forces the s-reading, confirmed
against the iteration oracle.

Domain: V_t = 1/(x_{t-3} x_t) makes the bracket of step t equal to
V_{t+1}/V_t, so with nonzero seeds x_m exists exactly when V_1..V_m are
all nonzero.  ``_v_checked`` is the one place that rule is tested; every
general entry point folds through it.

V values are advanced one coefficient at a time, so x_m costs O(m)
field operations.
"""

from __future__ import annotations

from typing import Iterator, List

from ratrec.core import (
    CoefficientStream,
    InitialConditions,
    Rational,
    decompose_index,
)
from ratrec.reduced import v_values

BRANCH_GENERAL = "general"
BRANCH_A1 = "a1"
BRANCH_ANEQ1 = "aneq1"
BRANCH_ANEG1 = "aneg1"


class ClosedFormError(ArithmeticError):
    """Base for closed-form domain failures."""


class ZeroInitialError(ClosedFormError):
    """The closed form needs all four seeds nonzero (V_0 = 1/(x_{-3}x_0))."""


class SingularClosedFormError(ClosedFormError):
    """The index lies at or past the first singular step: some V_t vanished."""


def _require_nonzero_seeds(ic: InitialConditions) -> Rational:
    if not ic.all_nonzero():
        raise ZeroInitialError("closed form requires all four initial values nonzero")
    return ic.x_m3 * ic.x_0


def _v_checked(ic: InitialConditions, coeffs: CoefficientStream,
               n: int) -> Iterator[Rational]:
    """Yield V_0..V_n from V_0 = 1/(x_{-3} x_0), raising at the first V_t = 0:
    x_t, and every later value, does not exist."""
    w = _require_nonzero_seeds(ic)
    for t, v in enumerate(v_values(1 / w, coeffs, n)):
        if v == 0:
            raise SingularClosedFormError(f"V({t}) vanished: x_{t} does not exist")
        yield v


def prefactor(j: int, ic: InitialConditions, coeffs: CoefficientStream) -> Rational:
    """Block prefactor x_{j-3}: the seed for j <= 3, else x_1 (j = 4) or
    x_2 (j = 5) as 1/(x_{j-6} V_{j-3}) from the checked V fold, which
    raises unless V_1..V_{j-3} are all nonzero."""
    if not (0 <= j <= 5):
        raise ValueError(f"residue j must be in 0..5, got {j}")
    seeds = ic.as_tuple()
    if j <= 3:
        return seeds[j]
    *_, v = _v_checked(ic, coeffs, j - 3)
    return 1 / (seeds[j - 3] * v)


def branch(coeffs: CoefficientStream) -> str:
    """The paper's case for a stream: constant a = 1, a = -1 or a != +-1,
    else general.  Only a = -1 has its own kernel (``x_closed_a_neg1``)."""
    if coeffs.kind != "constant":
        return BRANCH_GENERAL
    a, _ = coeffs.at(0)
    if a == 1:
        return BRANCH_A1
    return BRANCH_ANEG1 if a == -1 else BRANCH_ANEQ1


def x_closed(ic: InitialConditions, coeffs: CoefficientStream, m: int) -> Rational:
    """x_m from the six-residue-class closed form, exactly.

    A constant a = -1 stream takes the power form ``x_closed_a_neg1``.
    Otherwise this is the class-j slice of the ``x_closed_all`` recursion,
    streamed: only the running products of the numerator and denominator
    factors are kept.
    """
    if branch(coeffs) == BRANCH_ANEG1:
        return x_closed_a_neg1(ic, coeffs.at(0)[1], m)
    block = decompose_index(m)
    n, j = block.n, block.j
    num = den = 1
    # with t - j = 6s + r: V_t is a numerator factor when r = 0, a
    # denominator factor when r = 3, for s = 0..n-1; the fold runs to V_m
    for t, v in enumerate(_v_checked(ic, coeffs, max(m, 0))):
        s, r = divmod(t - j, 6)
        if 0 <= s < n:
            if r == 0:
                num *= v
            elif r == 3:
                den *= v
    return prefactor(j, ic, coeffs) * num / den


def x_closed_all(ic: InitialConditions, coeffs: CoefficientStream,
                 horizon: int) -> List[Rational]:
    """All closed-form values x_{-3}..x_{horizon} in O(horizon) operations.

    Uses the residue-class recursion R(t) = R(t-6) * V(t-6) / V(t-3) on
    u-indices t, seeded by the six prefactors; equal value-for-value to
    calling ``x_closed`` per index.
    """
    if horizon < -3:
        raise ValueError(f"horizon must be >= -3, got {horizon}")
    vs = list(_v_checked(ic, coeffs, max(horizon, 0)))
    out: List[Rational] = []
    for t in range(horizon + 4):
        out.append(prefactor(t, ic, coeffs) if t < 6
                   else out[t - 6] * vs[t - 6] / vs[t - 3])
    return out


def x_closed_constant(ic: InitialConditions, a: Rational, b: Rational, m: int) -> Rational:
    """Constant-coefficient x_m: ``x_closed`` on the constant stream."""
    return x_closed(ic, CoefficientStream.constant(a, b), m)


def x_closed_a_neg1(ic: InitialConditions, b: Rational, m: int) -> Rational:
    """The a = -1 special case: x_{6n+j-3} = prefactor(j) (-1 + b x_{-3}x_0)^{+-n},
    exponent +n for odd j, -n for even j; O(log n) operations.  The base is
    x_{-3}x_0 V_1, so when it vanishes x_1 does not exist: the seeds are
    returned and every later index raises."""
    w = _require_nonzero_seeds(ic)
    base = -1 + b * w
    if base == 0 and m > 0:
        raise SingularClosedFormError("a = -1 base (-1 + b x_{-3}x_0) vanished")
    block = decompose_index(m)
    n, j = block.n, block.j
    pref = prefactor(j, ic, CoefficientStream("constant", ((-1, b),)))
    return pref * base ** (n if j % 2 == 1 else -n)
