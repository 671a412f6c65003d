from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ratrec.core import CoefficientStream
from ratrec.reduced import v_step, v_values
from ratrec.verify import random_stream
from tests.conftest import literal_v_closed, v_closed_constant

small_rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9)


class TestVStep:
    def test_examples(self):
        assert v_step(Fraction(1), Fraction(1), Fraction(1)) == 2
        assert v_step(Fraction(7), Fraction(1), Fraction(0)) == 7
        # fold 1 -> 2 -> 5 under (a,b) = (1,1) then (2,1)
        assert v_step(v_step(Fraction(1), Fraction(1), Fraction(1)),
                      Fraction(2), Fraction(1)) == 5


class TestVValues:
    """V_0..V_n from ``v_values`` against the closed form's oracles."""

    def test_varying_stream(self):
        # a_n = n+1, b_n = 1: V_1 = 2, V_2 = 5
        stream = CoefficientStream.explicit([(k + 1, 1) for k in range(10)])
        assert list(v_values(Fraction(1), stream, 2)) == [1, 2, 5]

    def test_n_zero_is_seed(self):
        stream = CoefficientStream.constant(3, -2)
        assert list(v_values(Fraction(7, 5), stream, 0)) == [Fraction(7, 5)]

    def test_a_one_collapses(self):
        assert (list(v_values(Fraction(1), CoefficientStream.constant(1, 1), 10))
                == list(range(1, 12)))

    def test_negative_n(self):
        with pytest.raises(ValueError):
            list(v_values(Fraction(1), CoefficientStream.constant(1, 1), -1))

    def test_matches_literal_nested_products(self, rng):
        # the literal spec form is the oracle up to n = 50
        for _ in range(8):
            stream = random_stream(rng, 50)
            v0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert (list(v_values(v0, stream, 50))
                    == [literal_v_closed(v0, stream, n) for n in range(51)])

    def test_homogeneity(self, rng):
        # b == 0 makes V_n linear in the seed
        for _ in range(5):
            pairs = [(Fraction(rng.choice([1, 2, 3, -2]), rng.randint(1, 3)), Fraction(0))
                     for _ in range(8)]
            stream = CoefficientStream.periodic(pairs)
            prod = Fraction(1)
            for k in range(30):
                prod *= stream.at(k)[0]
            for v0 in (Fraction(1), Fraction(-5, 3)):
                assert list(v_values(v0, stream, 30))[-1] == v0 * prod


def folded(v0, a, b, n):
    """V_n from ``v_values`` on the constant stream (a, b)."""
    return list(v_values(Fraction(v0), CoefficientStream.constant(a, b), n))[-1]


class TestConstantFold:
    """Constant streams fold through the general kernel; the geometric sum
    (conftest's ``v_closed_constant``) is the oracle."""

    def test_a_one(self):
        assert folded(1, 1, 1, 10) == v_closed_constant(1, 1, 1, 10) == 11

    def test_a_two(self):
        # fold 1 -> 3 -> 7 -> 15
        assert folded(1, 2, 1, 3) == v_closed_constant(1, 2, 1, 3) == 15

    def test_a_minus_one(self):
        # fold 1 -> 2 -> 1
        assert folded(1, -1, 3, 2) == v_closed_constant(1, -1, 3, 2) == 1

    @given(small_rationals, small_rationals, small_rationals,
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=200)
    def test_agrees_with_general(self, v0, a, b, n):
        assert v_closed_constant(v0, a, b, n) == folded(v0, a, b, n)
