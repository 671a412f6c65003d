"""Value types, coefficient streams, and the 6-block index algebra.

Exact values are ``fractions.Fraction`` (aliased ``Rational``), made only
at the boundary: ``parse_rational``, ``InitialConditions.of``, the
``CoefficientStream`` classmethods, the verify sampler and the bare-scalar
entry points.  Kernels never coerce: they run on any field scalar with
+ - * /, ** and == 0, which the raw dataclass constructors pass through.
Rational literals are "p/q" or integer strings; decimals are rejected on
purpose, since a decimal string is ambiguous as an exact value.

Index conventions live here and nowhere else.  Public APIs speak
x-indexing (seeds at m = -3..0); the closed-form machinery works in
u-indexing with u_k = x_{k-3}.  An x-index m >= -3 decomposes uniquely
as m = 6n + j - 3 with block number n >= 0 and residue j in 0..5.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(x: Rational) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class HorizonError(IndexError):
    """Query beyond the declared horizon of an explicit-list stream."""


@dataclass(frozen=True)
class CoefficientStream:
    """Total deterministic map n -> (a_n, b_n) for n >= 0.

    Three kinds: constant (a, b), periodic over a tuple of pairs, or an
    explicit finite list of pairs with a hard horizon.
    """

    kind: str  # "constant" | "periodic" | "list"
    pairs: Tuple[Tuple[Rational, Rational], ...]

    def __post_init__(self):
        if self.kind not in ("constant", "periodic", "list"):
            raise ValueError(f"unknown stream kind: {self.kind!r}")
        if not self.pairs:
            raise ValueError("stream needs at least one (a, b) pair")
        if self.kind == "constant" and len(self.pairs) != 1:
            raise ValueError("constant stream takes exactly one pair")

    @classmethod
    def constant(cls, a, b) -> "CoefficientStream":
        return cls("constant", ((Fraction(a), Fraction(b)),))

    @classmethod
    def periodic(cls, pairs: Sequence[Tuple[Rational, Rational]]) -> "CoefficientStream":
        return cls("periodic", tuple((Fraction(a), Fraction(b)) for a, b in pairs))

    @classmethod
    def explicit(cls, pairs: Sequence[Tuple[Rational, Rational]]) -> "CoefficientStream":
        return cls("list", tuple((Fraction(a), Fraction(b)) for a, b in pairs))

    @property
    def horizon(self) -> Optional[int]:
        """Largest admissible n, or None when unbounded."""
        if self.kind == "list":
            return len(self.pairs) - 1
        return None

    def at(self, n: int) -> Tuple[Rational, Rational]:
        if n < 0:
            raise IndexError(f"stream index must be >= 0, got {n}")
        if self.kind == "list" and n >= len(self.pairs):
            raise HorizonError(
                f"stream index {n} beyond declared horizon {len(self.pairs) - 1}"
            )
        # a constant stream is a periodic one with one pair
        return self.pairs[n % len(self.pairs)]


@dataclass(frozen=True)
class InitialConditions:
    """The four seeds x_{-3}, x_{-2}, x_{-1}, x_0."""

    x_m3: Rational
    x_m2: Rational
    x_m1: Rational
    x_0: Rational

    @classmethod
    def of(cls, x_m3, x_m2, x_m1, x_0) -> "InitialConditions":
        return cls(Fraction(x_m3), Fraction(x_m2), Fraction(x_m1), Fraction(x_0))

    def as_tuple(self) -> Tuple[Rational, Rational, Rational, Rational]:
        return (self.x_m3, self.x_m2, self.x_m1, self.x_0)

    def all_nonzero(self) -> bool:
        return all(v != 0 for v in self.as_tuple())


def decompose_index(m: int) -> Tuple[int, int]:
    """Unique (n, j) with m = 6n + j - 3, j in 0..5, n >= 0."""
    if m < -3:
        raise IndexError(f"x-index must be >= -3, got {m}")
    return divmod(m + 3, 6)


@dataclass(frozen=True)
class SingularReport:
    """First step n at which computing x_{n+1} failed, and why."""

    step: int
    cause: str  # engine.ZERO_X_FACTOR | engine.ZERO_BRACKET


@dataclass(frozen=True)
class Trajectory:
    """Exact values x_{-3}, x_{-2}, ... with optional singular truncation.

    ``values[i]`` is x_{i-3}.  When ``singular`` is set, the values stop
    right before the step that failed and nothing follows.
    """

    values: Tuple[Rational, ...]
    singular: Optional[SingularReport] = field(default=None)

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

    def u(self, k: int) -> Rational:
        """Value at u-index k (u_k = x_{k-3})."""
        return self.x(k - 3)
