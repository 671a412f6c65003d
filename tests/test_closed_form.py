from fractions import Fraction

import pytest

from ratrec import reduced
from ratrec.closed_form import (
    SingularClosedFormError,
    ZeroInitialError,
    prefactor,
    x_closed,
    x_closed_a_neg1,
    x_closed_all,
    x_closed_constant,
)
from ratrec.core import CoefficientStream, InitialConditions, decompose_index
from ratrec.engine import iterate
from ratrec.reduced import v_closed
from tests.conftest import rand_seeds, rand_stream

ONES = InitialConditions.of(1, 1, 1, 1)
UNIT_STREAM = CoefficientStream.constant(1, 1)


def literal_t(stream, w, t):
    """T(t) by literal nested products (the block numerator/denominator)."""
    total = Fraction(1)
    for k in range(t):
        total *= stream.at(k)[0]
    for l in range(t):
        term = stream.at(l)[1]
        for k in range(l + 1, t):
            term *= stream.at(k)[0]
        total += w * term
    return total


def literal_x_closed(ic, stream, m):
    """x_m by the literal block-product form with the s-corrected bounds."""
    w = ic.x_m3 * ic.x_0
    n, j = decompose_index(m)
    value = prefactor(j, ic, stream)
    for s in range(n):
        value *= literal_t(stream, w, 6 * s + j)
        value /= literal_t(stream, w, 6 * s + j + 3)
    return value


class TestPrefactor:
    def test_seed_passthrough(self):
        ic = InitialConditions.of(5, 7, 11, 13)
        assert prefactor(2, ic, UNIT_STREAM) == 11

    def test_x1_x2(self):
        assert prefactor(4, ONES, UNIT_STREAM) == Fraction(1, 2)
        assert prefactor(5, ONES, UNIT_STREAM) == Fraction(1, 3)

    def test_matches_iterate(self, rng):
        for _ in range(20):
            ic, stream = rand_seeds(rng), rand_stream(rng, 10)
            traj = iterate(ic, stream, 2)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            assert prefactor(4, ic, stream) == traj.x(1)
            assert prefactor(5, ic, stream) == traj.x(2)

    def test_seeds_need_no_domain(self):
        # j <= 3 names a seed, which exists even when another seed is zero
        ic = InitialConditions.of(0, 2, 0, 3)
        for j in range(4):
            assert prefactor(j, ic, UNIT_STREAM) == ic.as_tuple()[j]
        with pytest.raises(ZeroInitialError):
            prefactor(4, ic, UNIT_STREAM)

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            prefactor(6, ONES, UNIT_STREAM)


class TestXClosed:
    def test_worked_case(self):
        assert x_closed(ONES, UNIT_STREAM, 3) == Fraction(1, 4)
        assert x_closed(ONES, UNIT_STREAM, 1) == Fraction(1, 2)

    def test_seed_indices(self):
        ic = InitialConditions.of(2, 3, 5, 7)
        for m, want in ((-3, 2), (-2, 3), (-1, 5), (0, 7)):
            assert x_closed(ic, UNIT_STREAM, m) == want

    def test_zero_seed_refused(self):
        with pytest.raises(ZeroInitialError):
            x_closed(InitialConditions.of(1, 0, 1, 1), UNIT_STREAM, 3)

    def test_matches_literal_form(self, rng):
        for _ in range(6):
            ic, stream = rand_seeds(rng), rand_stream(rng, 40)
            traj = iterate(ic, stream, 33)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            for m in (-3, 0, 3, 10, 21, 33):
                assert x_closed(ic, stream, m) == literal_x_closed(ic, stream, m)

    def test_oracle_equivalence(self, rng):
        checked = 0
        for _ in range(40):
            ic, stream = rand_seeds(rng), rand_stream(rng, 60)
            traj = iterate(ic, stream, 57)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            for m in range(-3, 58):
                assert x_closed(ic, stream, m) == traj.x(m)
            checked += 1
        assert checked >= 10

    def test_telescoping_blocks(self, rng):
        # each block factor T(6s+j)/T(6s+j+3) equals V_{6s+j}/V_{6s+j+3}
        # with V from the reduced solver
        for _ in range(6):
            ic, stream = rand_seeds(rng), rand_stream(rng, 40)
            if ic.x_m3 * ic.x_0 == 0:
                continue
            w = ic.x_m3 * ic.x_0
            v0 = 1 / w
            for j in range(6):
                for s in range(4):
                    hi = v_closed(v0, stream, 6 * s + j + 3)
                    if hi == 0:
                        continue
                    lo = v_closed(v0, stream, 6 * s + j)
                    assert (literal_t(stream, w, 6 * s + j)
                            / literal_t(stream, w, 6 * s + j + 3)) == lo / hi


class TestXClosedAll:
    def test_matches_pointwise(self, rng):
        for _ in range(8):
            ic, stream = rand_seeds(rng), rand_stream(rng, 40)
            traj = iterate(ic, stream, 37)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            batch = x_closed_all(ic, stream, 37)
            for m in range(-3, 38):
                assert batch[m + 3] == x_closed(ic, stream, m)

    def test_short_horizons(self):
        assert x_closed_all(ONES, UNIT_STREAM, -3) == [Fraction(1)]
        assert x_closed_all(ONES, UNIT_STREAM, 3)[-1] == Fraction(1, 4)


CONSTANT_GRID = [(Fraction(a), Fraction(b))
                 for a in (1, -1, 2, -2, Fraction(1, 2))
                 for b in (0, 1, -1, 3)]


class TestXClosedConstant:
    def test_worked_cases(self):
        assert x_closed_constant(ONES, Fraction(1), Fraction(1), 3) == Fraction(1, 4)
        assert x_closed_constant(ONES, Fraction(1), Fraction(0), 9) == 1
        # b = 0 divides by a each step: x_1 = 1/2, x_2 = 1/4, x_3 = 1/8
        assert x_closed_constant(ONES, Fraction(2), Fraction(0), 3) == Fraction(1, 8)

    @pytest.mark.parametrize("a,b", CONSTANT_GRID)
    def test_agrees_with_general(self, rng, a, b):
        stream = CoefficientStream.constant(a, b)
        hits = 0
        for _ in range(12):
            ic = rand_seeds(rng)
            traj = iterate(ic, stream, 27)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            for m in (-3, 0, 1, 5, 13, 27):
                got = x_closed_constant(ic, a, b, m)
                assert got == x_closed(ic, stream, m)
                assert got == traj.x(m)
            hits += 1
        assert hits >= 3


class TestANeg1:
    def test_derived_witness(self):
        # ic all ones, b = 3: base = 2, x_3 = 1/2 (even j), x_4 = 2 (odd j)
        assert x_closed_a_neg1(ONES, Fraction(3), 3) == Fraction(1, 2)
        assert x_closed_a_neg1(ONES, Fraction(3), 4) == 2

    def test_base_one_fixed_profile(self):
        # b = 2 gives base 1; every block repeats the seeds/prefactors
        traj = iterate(ONES, CoefficientStream.constant(-1, 2), 30)
        for m in range(-3, 31):
            assert x_closed_a_neg1(ONES, Fraction(2), m) == traj.x(m)

    def test_base_zero_rejected(self):
        with pytest.raises(SingularClosedFormError):
            x_closed_a_neg1(ONES, Fraction(1), 3)

    def test_base_zero_keeps_only_the_seeds(self):
        # b = 1 gives base 0, the bracket of x_1: the seeds stand through
        # every entry point, and no later value exists
        stream = CoefficientStream.constant(-1, 1)
        for m in range(-3, 1):
            assert x_closed_constant(ONES, Fraction(-1), Fraction(1), m) == 1
            assert x_closed(ONES, stream, m) == 1
        assert not iterate(ONES, stream, 1).is_regular
        for m in range(1, 13):
            with pytest.raises(SingularClosedFormError, match=r"^V\(1\) vanished"):
                x_closed(ONES, stream, m)
            with pytest.raises(SingularClosedFormError, match=r"^V\(1\) vanished"):
                x_closed_a_neg1(ONES, Fraction(1), m)

    def test_parity_rule_against_oracle(self, rng):
        # the odd/even-j exponent rule is verified, not trusted
        checked = 0
        for _ in range(40):
            ic = rand_seeds(rng)
            b = Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
            if -1 + b * ic.x_m3 * ic.x_0 == 0:
                continue
            stream = CoefficientStream.constant(-1, b)
            traj = iterate(ic, stream, 27)
            if not traj.is_regular or any(v == 0 for v in traj.values):
                continue
            for m in range(-3, 28):
                assert x_closed_a_neg1(ic, b, m) == traj.x(m)
            checked += 1
        assert checked >= 10

    def test_dispatch_from_constant(self):
        assert (x_closed_constant(ONES, Fraction(-1), Fraction(3), 4)
                == x_closed_a_neg1(ONES, Fraction(3), 4))


class TestOneFold:
    """Each call folds V once, and the a = -1 power form stops at V_2."""

    STREAM = CoefficientStream.periodic([(1, 1), (2, 1), (Fraction(1, 2), 3)])

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        true_step = reduced.v_step

        def counted(v, a, b):
            calls.append((a, b))
            return true_step(v, a, b)

        monkeypatch.setattr(reduced, "v_step", counted)
        return calls

    @pytest.mark.parametrize("m", [-3, 0, 1, 2, 3, 25, 26])
    def test_x_closed(self, steps, m):
        x_closed(ONES, self.STREAM, m)
        assert len(steps) == max(m, 0)

    @pytest.mark.parametrize("horizon", [-3, 0, 1, 2, 30])
    def test_x_closed_all(self, steps, horizon):
        x_closed_all(ONES, self.STREAM, horizon)
        assert len(steps) == max(horizon, 0)

    def test_a_neg1_power_form(self, steps):
        # m = 600001 = 6n + 4 - 3 with n = 100000: x_1 * (V_1/V_0)^-n, V_1/V_0 = 2
        assert x_closed_a_neg1(ONES, Fraction(3), 600001) == Fraction(1, 2 ** 100001)
        assert len(steps) <= 2


def small_rational(rng, nonzero=False):
    num = rng.choice([k for k in range(-2, 3) if k or not nonzero])
    return Fraction(num, rng.choice([1, 2]))


def small_pair(rng):
    return small_rational(rng), small_rational(rng)


class TestDomain:
    """x_m exists exactly when V_1..V_m are nonzero, i.e. exactly when the
    iteration is regular through step m."""

    def test_refuses_exactly_where_iteration_stops(self, rng):
        horizon = 20
        singular = 0
        for _ in range(150):
            ic = InitialConditions.of(*(small_rational(rng, nonzero=True)
                                        for _ in range(4)))
            kind = rng.choice(["constant", "periodic", "list"])
            if kind == "constant":
                stream = CoefficientStream.constant(*small_pair(rng))
            elif kind == "periodic":
                stream = CoefficientStream.periodic(
                    [small_pair(rng) for _ in range(rng.randint(1, 6))])
            else:
                stream = CoefficientStream.explicit(
                    [small_pair(rng) for _ in range(horizon)])
            traj = iterate(ic, stream, horizon)
            singular += not traj.is_regular
            for m in range(-3, horizon + 1):
                if iterate(ic, stream, max(m, 0)).is_regular:
                    assert x_closed(ic, stream, m) == traj.x(m)
                    assert x_closed_all(ic, stream, m) == list(traj.values[:m + 4])
                else:
                    with pytest.raises(SingularClosedFormError):
                        x_closed(ic, stream, m)
                    with pytest.raises(SingularClosedFormError):
                        x_closed_all(ic, stream, m)
        assert singular >= 15

    def test_x2_prefactor_needs_v1(self):
        # V_1 = -1 + 1 = 0 while V_2 = 2*0 + 1 = 1: the bracket of x_1 vanishes,
        # so x_2 does not exist although its own V is nonzero
        stream = CoefficientStream.periodic([(-1, 1), (2, 1)])
        assert not iterate(ONES, stream, 1).is_regular
        with pytest.raises(SingularClosedFormError):
            prefactor(5, ONES, stream)
