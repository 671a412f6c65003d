"""``Rational``'s own ×, ÷, n/x and + against ``Fraction``'s.

Operands are every p/q with |p| <= 6 and 1 <= q <= 6 (zero, +-1 and
negative values among them, and every gcd a step can take up to 6), and
values of 20k bits and more from ``iterate`` at H = 300 on an instance of
the verify sampler.  Results must match ``Fraction`` in numerator and
denominator, both ints, with the type ``Rational``; any other operand must
give what ``Fraction``'s own operator gives.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction

import pytest

from ratrec.core import CoefficientStream, InitialConditions, parse_rational
from ratrec.engine import iterate
from ratrec.rational import Rational
from ratrec.verify import random_rational, random_seeds, random_stream
from tests.conftest import GF

BIG_BITS = 20_000
OPERATORS = (operator.mul, operator.truediv, operator.add)
SMALL = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 7)})
INTS = range(-6, 7)


def big_values():
    """The last values of the first H = 300 sampler trajectory whose values
    have 20k-bit numerators, with a negative and a reciprocal among them,
    all plain Fractions made by Fraction's own operators."""
    for seed in range(100):
        rng = random.Random(seed)
        traj = iterate(random_seeds(rng), random_stream(rng, 300), 300)
        tail = traj.values[-4:]
        if traj.is_regular and min(abs(x.numerator).bit_length() for x in tail) >= BIG_BITS:
            tail = [Fraction(x) for x in tail]
            return tail + [-tail[-1], 1 / tail[-2]]
    raise AssertionError("no sampler instance reached 20k bits")


BIG = big_values()
OPERANDS = SMALL + BIG


def assert_exact(got, want):
    """``got`` is the Rational of ``want``'s numerator and denominator."""
    assert type(got) is Rational
    assert type(got.numerator) is int and type(got.denominator) is int
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def assert_same(got, want):
    assert type(got) is type(want) and got == want


class TestExactOperands:
    def test_big_operands_are_big(self):
        assert min(abs(x.numerator).bit_length() for x in BIG) >= BIG_BITS
        assert any(x < 0 for x in BIG)
        assert all(type(x) is Fraction for x in OPERANDS)

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
    def test_matches_fraction(self, op):
        for x in OPERANDS:
            for y in OPERANDS:
                if op is operator.truediv and y == 0:
                    continue
                want = op(Fraction(x), Fraction(y))
                # the right operand may be a Rational or a plain Fraction
                assert_exact(op(Rational(x), Rational(y)), want)
                assert_exact(op(Rational(x), y), want)

    def test_int_over_rational_matches_fraction(self):
        for n in [*INTS, *(x.numerator for x in BIG)]:
            for y in OPERANDS:
                if y != 0:
                    assert_exact(n / Rational(y), n / Fraction(y))

    def test_zero_divisor(self):
        # Fraction's own error, message included, for every dividend, 0 too
        for x in [*OPERANDS, *INTS]:
            want = zero_division_message(lambda: Fraction(x) / Fraction(0))
            for zero in (Rational(0), Fraction(0)):
                assert zero_division_message(lambda: Rational(x) / zero) == want
        for n in INTS:
            want = zero_division_message(lambda: n / Fraction(0))
            assert zero_division_message(lambda: n / Rational(0)) == want


def zero_division_message(divide) -> str:
    with pytest.raises(ZeroDivisionError) as info:
        divide()
    assert type(info.value) is ZeroDivisionError
    return str(info.value)


class Other(Fraction):
    """A Fraction subclass that is not Rational."""


MIXED = [0, 3, -2, True, False, 2.5, -0.75, 1.5 - 2j, Other(-5, 6), GF(3), GF(5) / GF(7)]


class TestMixedOperands:
    """Any other operand takes Fraction's own operator, on either side, and
    so does a plain Fraction on the left."""

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
    def test_like_fraction(self, op):
        for x in SMALL + BIG[:1]:
            for m in MIXED:
                if op is operator.truediv and m == 0:
                    continue
                assert_same(op(Rational(x), m), op(x, m))
                if x == 0 and op is operator.truediv:
                    continue
                # int / Rational is the one reflected fast path
                if type(m) is int and op is operator.truediv:
                    assert_exact(op(m, Rational(x)), op(m, x))
                else:
                    assert_same(op(m, Rational(x)), op(m, x))

    @pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
    def test_fraction_on_the_left(self, op):
        for x in SMALL + BIG[:1]:
            for y in SMALL + BIG[:1]:
                if not (op is operator.truediv and y == 0):
                    assert_same(op(x, Rational(y)), op(x, y))

    def test_zero_divisor_like_fraction(self):
        for zero in (0, False, 0.0, Other(0)):
            with pytest.raises(ZeroDivisionError):
                Rational(2, 3) / zero


class TestFractionBehaviour:
    """Everything but the four operators is Fraction's."""

    def test_equality_hash_and_str(self):
        for x in OPERANDS:
            r = Rational(x)
            assert r == x and x == r and hash(r) == hash(x)
            # a big value's digits exceed the int -> str limit
            assert x in BIG or str(r) == str(x)
            if x.denominator == 1:
                assert r == x.numerator and hash(r) == hash(x.numerator)
            assert r != x + 1

    def test_repr_names_the_class(self):
        assert repr(Rational(-5, 8)) == "Rational(-5, 8)"
        assert str(Rational(-5, 8)) == "-5/8" and str(Rational(4, 2)) == "2"

    def test_pickle_and_copy(self):
        for x in (Fraction(0), Fraction(-5, 8), BIG[0]):
            r = Rational(x)
            for clone in (copy.copy(r), copy.deepcopy(r)):
                assert_exact(clone, x)
            # before 3.11 a Fraction pickles as its str, which the int -> str
            # limit refuses for a big value
            if x not in BIG:
                assert_exact(pickle.loads(pickle.dumps(r)), x)

    def test_other_operators_give_fractions(self):
        r, s = Rational(5, 8), Rational(-7, 6)
        for got, want in ((r - s, Fraction(43, 24)), (-r, Fraction(-5, 8)),
                          (r ** 2, Fraction(25, 64)), (abs(s), Fraction(7, 6))):
            assert_same(got, want)

    def test_no_instance_dict(self):
        assert not hasattr(Rational(1, 2), "__dict__")


def test_the_boundary_makes_rationals():
    rng = random.Random(0)
    pairs = [(1, Fraction(1, 2)), (Fraction(-3), 0)]
    made = [parse_rational("3"), parse_rational("-3/7"),
            *InitialConditions.of(1, Fraction(1, 2), -2, 3),
            *CoefficientStream.constant(2, Fraction(1, 3)).pairs[0],
            *(x for ctor in (CoefficientStream.periodic, CoefficientStream.explicit)
              for pair in ctor(pairs).pairs for x in pair),
            random_rational(rng, nonzero=True), random_rational(rng, nonzero=False)]
    assert all(type(x) is Rational for x in made)
