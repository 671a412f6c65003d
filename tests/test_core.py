from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ratrec.core import (
    CoefficientStream,
    HorizonError,
    InitialConditions,
    decompose_index,
    format_rational,
    parse_rational,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999)


class TestParseRational:
    @pytest.mark.parametrize("text,expected", [
        ("3", Fraction(3)),
        ("-3/7", Fraction(-3, 7)),
        ("+2/4", Fraction(1, 2)),
        ("0", Fraction(0)),
        ("007/3", Fraction(7, 3)),
    ])
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "", "3/-7", "1/0", "a/b", "1e3", "1 / 2"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_canonical_form(self):
        # (2k*p, 2k*q) and (p, q) construct the same value
        assert Fraction(6, 10) == Fraction(3, 5)
        assert parse_rational("-6/10") == Fraction(-3, 5)
        assert format_rational(Fraction(-6, 10)) == "-3/5"
        assert format_rational(Fraction(0, 5)) == "0"


class TestBlockIndex:
    @pytest.mark.parametrize("m,n,j", [(-3, 0, 0), (0, 0, 3), (7, 1, 4), (2, 0, 5), (3, 1, 0)])
    def test_examples(self, m, n, j):
        assert decompose_index(m) == (n, j)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            decompose_index(-4)

    @given(st.integers(min_value=-3, max_value=10_000))
    def test_round_trip(self, m):
        n, j = decompose_index(m)
        assert 6 * n + j - 3 == m
        assert 0 <= j <= 5 and n >= 0


class TestCoefficientStream:
    def test_constant(self):
        s = CoefficientStream.constant(1, 2)
        assert s.at(99) == (Fraction(1), Fraction(2))
        assert s.horizon is None

    def test_periodic(self):
        s = CoefficientStream.periodic([(1, 0), (2, 1)])
        assert s.at(3) == (Fraction(2), Fraction(1))
        assert s.at(4) == (Fraction(1), Fraction(0))

    def test_explicit_horizon(self):
        s = CoefficientStream.explicit([(1, 0)] * 4)
        assert s.horizon == 3
        assert s.at(3) == (Fraction(1), Fraction(0))
        with pytest.raises(HorizonError):
            s.at(7)

    def test_negative_index(self):
        with pytest.raises(IndexError):
            CoefficientStream.constant(1, 1).at(-1)

    def test_deterministic(self):
        s = CoefficientStream.periodic([(1, 2), (3, 4), (5, 6)])
        assert all(s.at(n) == s.at(n) for n in range(20))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CoefficientStream("weird", ((Fraction(1), Fraction(1)),))


class TestFieldAxioms:
    # exact arithmetic sanity on randomized triples

    @given(rationals, rationals, rationals)
    def test_associativity_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(rationals)
    def test_inverses(self, x):
        assert x + (-x) == 0
        if x != 0:
            assert x * (1 / x) == 1


class TestInitialConditions:
    def test_tuple_and_nonzero(self):
        ic = InitialConditions.of(1, 0, 2, 3)
        assert ic.as_tuple() == (1, 0, 2, 3)
        assert not ic.all_nonzero()
        assert InitialConditions.of(1, 1, 1, 1).all_nonzero()
