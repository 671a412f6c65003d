"""Value types, coefficient streams, and the 6-block index algebra.

Exact values are ``Rational`` (``ratrec.rational``), a ``fractions.Fraction``
whose product, quotient and sum skip ``Fraction``'s generic dispatch.  They
are made only at the boundary: ``parse_rational``, ``InitialConditions.of``,
the ``CoefficientStream`` classmethods (and so the bare-scalar entry point
``x_closed_constant``) and the verify sampler.  Kernels never coerce: they
run on any field scalar with + - * / and == 0, which the raw constructors
pass through.
Rational literals are "p/q" or integer strings; decimals are rejected on
purpose, since a decimal string is ambiguous as an exact value.

Index conventions live here and nowhere else.  Public APIs speak
x-indexing (seeds at m = -3..0); the closed-form machinery works in
u-indexing with u_k = x_{k-3}.  An x-index m >= -3 decomposes uniquely
as m = 6n + j - 3 with block number n >= 0 and residue j in 0..5.
"""

from __future__ import annotations

import re
from collections import namedtuple

from ratrec.rational import Rational

# ASCII digits only: str's \d, and int(), also read other scripts' digits
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)
STREAM_KINDS = ("constant", "periodic", "list")  # verify's sampler draws in this order


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or an integer string into an exact rational.

    Raises TypeError on a non-string (a JSON number, say) and ValueError on
    any other string (decimals, blanks, stray signs in the denominator).
    """
    if not isinstance(text, str):
        raise TypeError(f"rational literal must be a string, got {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal (expected 'p' or 'p/q'): {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Rational(int(num), int(den))
    return Rational(int(s))


def format_rational(x: Rational) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(x)


class CoefficientStream(namedtuple("CoefficientStream", "kind pairs")):
    """Total deterministic map n -> (a_n, b_n) for n >= 0.

    Three kinds: constant (a, b), periodic over a tuple of pairs, or an
    explicit finite list of pairs with a hard horizon.  ``kind`` is one of
    ``STREAM_KINDS``; ``pairs`` is a tuple of (a, b).
    """

    __slots__ = ()

    def __new__(cls, kind: str, pairs: tuple[tuple[Rational, Rational], ...]):
        if kind not in STREAM_KINDS:
            raise ValueError(f"unknown stream kind: {kind!r}")
        if not pairs:
            raise ValueError("stream needs at least one (a, b) pair")
        if kind == "constant" and len(pairs) != 1:
            raise ValueError("constant stream takes exactly one pair")
        return tuple.__new__(cls, (kind, pairs))

    @classmethod
    def constant(cls, a, b) -> CoefficientStream:
        return cls("constant", ((Rational(a), Rational(b)),))

    @classmethod
    def periodic(cls, pairs) -> CoefficientStream:
        return cls("periodic", tuple((Rational(a), Rational(b)) for a, b in pairs))

    @classmethod
    def explicit(cls, pairs) -> CoefficientStream:
        return cls("list", tuple((Rational(a), Rational(b)) for a, b in pairs))

    def at(self, n: int) -> tuple[Rational, Rational]:
        if n < 0:
            raise IndexError(f"stream index must be >= 0, got {n}")
        if self.kind == "list" and n >= len(self.pairs):
            raise IndexError(
                f"stream index {n} beyond declared horizon {len(self.pairs) - 1}"
            )
        # a constant stream is a periodic one with one pair
        return self.pairs[n % len(self.pairs)]


class InitialConditions(namedtuple("InitialConditions", "x_m3 x_m2 x_m1 x_0")):
    """The four seeds x_{-3}, x_{-2}, x_{-1}, x_0."""

    __slots__ = ()

    @classmethod
    def of(cls, x_m3, x_m2, x_m1, x_0) -> InitialConditions:
        return cls(Rational(x_m3), Rational(x_m2), Rational(x_m1), Rational(x_0))

    def as_tuple(self) -> tuple[Rational, Rational, Rational, Rational]:
        return tuple(self)

    def all_nonzero(self) -> bool:
        return all(v != 0 for v in self.as_tuple())


def decompose_index(m: int) -> tuple[int, int]:
    """Unique (n, j) with m = 6n + j - 3, j in 0..5, n >= 0."""
    if m < -3:
        raise IndexError(f"x-index must be >= -3, got {m}")
    return divmod(m + 3, 6)


class Trajectory(namedtuple("Trajectory", "values products singular", defaults=(None,))):
    """Exact values x_{-3}, x_{-2}, ... with optional singular truncation.

    ``values[i]`` is x_{i-3}; ``products[n]`` is step n's window product
    x_{n-3} x_n.  ``singular`` is None, or the cause of step
    ``last_index``, the step that failed (``engine.ZERO_X_FACTOR`` or
    ``engine.ZERO_BRACKET``): the values stop right before it and nothing
    follows.
    """

    __slots__ = ()

    @property
    def last_index(self) -> int:
        return len(self.values) - 4

    @property
    def is_regular(self) -> bool:
        return self.singular is None

    def x(self, m: int) -> Rational:
        """Value at x-index m; IndexError outside the computed range."""
        if m < -3 or m > self.last_index:
            raise IndexError(f"x-index {m} outside computed range [-3, {self.last_index}]")
        return self.values[m + 3]
