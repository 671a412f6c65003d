"""``Rational``: the package's exact scalar, a ``fractions.Fraction``.

It adds no state (``__slots__ = ()``) and overrides four operators, the
ones the kernels spend their time in: ``x * y``, ``x / y``, ``n / y`` for an
int n, and ``x + y``.  Each runs the steps ``Fraction`` runs (Knuth, TAOCP
vol. 2, 4.5.1: the cross gcds of a product, the denominator gcd and then
the second gcd of a sum, each skipped when it is 1) straight on the two
slots of normalised operands, and sets the slots of its result without a
constructor call: ``Fraction``'s generic operator dispatch, property reads
and constructor type checks are not taken.

×, ÷ and n/x share one kernel, ``_product``, the product of two coprime
pairs: ``x * y`` passes y's pair as it is, ``x / y`` passes y's pair
swapped, and ``n / y`` passes ``(n, 1)`` and y's pair swapped.

The fast path takes an operand whose type is exactly ``Rational`` or
``Fraction``, or an int for ``n / y``; any other operand, and a zero
divisor, go to ``Fraction``'s own operator unchanged, so a division by zero
raises ``Fraction``'s error.  Every other arithmetic operation
is ``Fraction``'s and returns a ``Fraction``.  ``==``, ``hash`` and ``str``
are ``Fraction``'s; ``repr`` reads ``Rational(p, q)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class Rational(Fraction):
    __slots__ = ()

    def __mul__(a, b):
        if type(b) not in _EXACT:
            return Fraction.__mul__(a, b)
        return _product(a._numerator, a._denominator, b._numerator, b._denominator)

    def __truediv__(a, b):
        # a zero divisor raises Fraction's own error
        if type(b) not in _EXACT or not b._numerator:
            return Fraction.__truediv__(a, b)
        return _product(a._numerator, a._denominator, b._denominator, b._numerator)

    def __rtruediv__(b, a):
        # a / b for an int a, as in 1 / y
        if type(a) is not int or not b._numerator:
            return Fraction.__rtruediv__(b, a)
        return _product(a, 1, b._denominator, b._numerator)

    def __add__(a, b):
        if type(b) not in _EXACT:
            return Fraction.__add__(a, b)
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            return _rational(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _rational(t, s * db)
        return _rational(t // g2, s * (db // g2))


_EXACT = (Rational, Fraction)


def _product(na: int, da: int, nb: int, db: int) -> Rational:
    """(na/da)(nb/db) for coprime pairs with da > 0 and db != 0 of either sign."""
    g1 = gcd(na, db)
    if g1 != 1:
        na //= g1
        db //= g1
    # da first: gcd returns at once when its first argument is 1, and da is
    # 1 for n / y, where nb may have thousands of digits
    g2 = gcd(da, nb)
    if g2 != 1:
        nb //= g2
        da //= g2
    n, d = na * nb, db * da
    # d < 0, written for a nonzero d so that tools/mutate.py's < <-> <= and
    # +1 mutants each move the bound
    if d <= -1:
        n, d = -n, -d
    return _rational(n, d)


def _rational(n: int, d: int) -> Rational:
    """The Rational n/d for coprime n and d > 0, without normalising."""
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r
