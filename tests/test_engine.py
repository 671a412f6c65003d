from fractions import Fraction

import pytest

from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import (
    ZERO_BRACKET,
    ZERO_X_FACTOR,
    SingularityError,
    iterate,
    step,
)
from ratrec.verify import random_seeds, random_stream
from tests.conftest import GF, ONES, small_rational


def literal_step(x_nm3, x_nm2, x_n, a_n, b_n):
    """The paper's right-hand side as written, x_{n-3} x_n over
    x_{n-2} (a_n + b_n x_{n-3} x_n), or the cause when that denominator
    vanishes."""
    if x_nm2 * (a_n + b_n * x_nm3 * x_n) == 0:
        return ZERO_X_FACTOR if x_nm2 == 0 else ZERO_BRACKET
    return x_nm3 * x_n / (x_nm2 * (a_n + b_n * x_nm3 * x_n))


def step_outcome(x_nm3, x_nm2, x_n, a_n, b_n):
    """``step``'s value on the window, or the cause of the SingularityError
    it raised."""
    try:
        return step(x_nm2, x_nm3 * x_n, a_n, b_n)
    except SingularityError as exc:
        return exc.args[0]


def cause_of(*args):
    with pytest.raises(SingularityError) as exc:
        step(*args)
    return exc.value.args[0]


class TestStep:
    def test_unit_seeds(self):
        assert step(Fraction(1), Fraction(1), Fraction(1), Fraction(1)) == Fraction(1, 2)

    def test_b_zero_reduces(self):
        # x_{n-3} x_n / x_{n-2}: 5 * 2 / 3 and 2 * 6 / 4
        assert step(Fraction(3), Fraction(5 * 2), Fraction(1), Fraction(0)) == Fraction(10, 3)
        assert step(Fraction(4), Fraction(2 * 6), Fraction(1), Fraction(0)) == 3

    def test_zero_bracket(self):
        assert cause_of(Fraction(1), Fraction(-1), Fraction(1), Fraction(1)) == ZERO_BRACKET
        # p = -1: a_n/p + b_n = -1 + 1 vanishes, and x_{n-2} = 2 does not
        assert cause_of(*map(Fraction, (2, -1, 1, 1))) == ZERO_BRACKET

    def test_zero_x_factor(self):
        assert cause_of(Fraction(0), Fraction(1), Fraction(1), Fraction(1)) == ZERO_X_FACTOR

    @pytest.mark.parametrize("x_nm3, x_n", [(0, 3), (3, 0), (0, 0)])
    def test_zero_product_gives_zero(self, x_nm3, x_n):
        # p = x_{n-3} x_n = 0: the bracket is a_n != 0, so x_{n+1} = 0
        value = step(Fraction(2), Fraction(x_nm3) * x_n, Fraction(-5, 3), Fraction(7))
        assert value == 0 and type(value) is Fraction

    def test_zero_product_zero_a(self):
        # p = 0 and a_n = 0: the bracket a_n + b_n p vanishes, whatever b_n is
        assert cause_of(*map(Fraction, (2, 0, 0, 7))) == ZERO_BRACKET

    def test_zero_x_factor_checked_first(self):
        # x_{n-2} = 0 wins even when p = 0 and a_n = 0 make the bracket vanish too
        assert cause_of(*map(Fraction, (0, 0, 0, 7))) == ZERO_X_FACTOR

    @pytest.mark.parametrize("scalar", [Fraction, GF], ids=["fraction", "gf"])
    def test_matches_literal_formula(self, rng, scalar):
        # values from {0, +-1/2, +-1, +-2}: each outcome is drawn with p = 0
        # and with p != 0
        seen = set()
        for _ in range(3000):
            args = [scalar(small_rational(rng)) for _ in range(5)]
            want, got = literal_step(*args), step_outcome(*args)
            assert type(got) is type(want) and got == want
            seen.add((want if isinstance(want, str) else "value", args[0] * args[2] == 0))
        assert seen == {(outcome, p_is_zero) for p_is_zero in (True, False)
                        for outcome in (ZERO_X_FACTOR, ZERO_BRACKET, "value")}


class TestIterate:
    def test_worked_case(self):
        stream = CoefficientStream.constant(1, 1)
        traj = iterate(ONES, stream, 3)
        assert traj.x(1) == Fraction(1, 2)
        assert traj.x(2) == Fraction(1, 3)
        assert traj.x(3) == Fraction(1, 4)
        assert traj.is_regular
        # p_n = 1/V_n for V_n = n + 1
        assert traj.products == (1, Fraction(1, 2), Fraction(1, 3))
        # horizon 0 takes no step: the seeds alone
        seeds = iterate(ONES, stream, 0)
        assert seeds.values == (1, 1, 1, 1) and seeds.products == () and seeds.is_regular

    def test_negative_horizon(self):
        # the seeds already cover -3..0: a horizon below 0 is refused, not
        # answered with the seeds
        with pytest.raises(ValueError, match=r"^horizon must be >= 0, got -1$"):
            iterate(ONES, CoefficientStream.constant(1, 1), -1)

    def test_fixed_point(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 0), 6)
        assert all(v == 1 for v in traj.values)

    def test_singular_truncation(self):
        ic = InitialConditions.of(1, 1, 1, -1)
        traj = iterate(ic, CoefficientStream.constant(1, 1), 1)
        assert not traj.is_regular
        # sticky: nothing past the failure, so step 0 is the last index
        assert (traj.last_index, traj.singular) == (0, ZERO_BRACKET)
        assert traj.products == ()  # the failed step's product is not kept

    def test_singular_step_labelled_by_iterate(self):
        # V_0..V_2 = 1, 2, 3 and V_3 = V_2 - 3 = 0: the bracket of step 2
        # vanishes, and the trajectory stops at x_2, so its last index is
        # the step (step itself raises only the cause)
        stream = CoefficientStream.explicit([(1, 1), (1, 1), (1, -3)])
        traj = iterate(ONES, stream, 3)
        assert (traj.last_index, traj.singular) == (2, ZERO_BRACKET)

    def test_depends_only_on_window(self):
        # x_1 only reads x_{-3}, x_{-2}, x_0; perturbing x_{-1} cannot change it
        st = CoefficientStream.periodic([(2, 1), (1, 3)])
        a = iterate(InitialConditions.of(2, 3, 5, 7), st, 1)
        b = iterate(InitialConditions.of(2, 3, -9, 7), st, 1)
        assert a.x(1) == b.x(1)

    def test_trajectory_index_errors(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 1), 2)
        with pytest.raises(IndexError):
            traj.x(3)
        with pytest.raises(IndexError):
            traj.x(-4)

    def test_products_are_the_windows(self, rng):
        # every step's p_n = x_{n-3} x_n is kept, on regular and singular
        # trajectories; every other instance draws from {0, +-1/2, +-1, +-2},
        # so singular trajectories and zero products occur
        regular, zero_products = set(), 0
        for i in range(60):
            if i % 2:
                ic = InitialConditions.of(*(small_rational(rng) for _ in range(4)))
                stream = CoefficientStream.periodic([(small_rational(rng), small_rational(rng))])
            else:
                ic, stream = random_seeds(rng), random_stream(rng, 30)
            traj = iterate(ic, stream, 30)
            assert len(traj.products) == traj.last_index
            assert all(traj.products[t] == traj.x(t - 3) * traj.x(t)
                       for t in range(traj.last_index))
            regular.add(traj.is_regular)
            zero_products += 0 in traj.products
        assert regular == {True, False} and zero_products

    def test_regular_long_run(self):
        # a = b = 1, positive seeds: bracket 1 + x x > 0 forever
        assert iterate(ONES, CoefficientStream.constant(1, 1), 100).singular is None

    def test_zero_product_is_a_value(self):
        # x_{-3} = 0 makes p = 0 at step 0, so x_1 = 0, then x_2 = x_3 = 0 the
        # same way, until x_1 = 0 is the x_{n-2} of step 3
        traj = iterate(InitialConditions.of(0, 1, 1, 1), CoefficientStream.constant(2, 1), 6)
        assert traj.values == (0, 1, 1, 1, 0, 0, 0)
        assert traj.products == (0, 0, 0)
        assert (traj.last_index, traj.singular) == (3, ZERO_X_FACTOR)

    def test_zero_seed(self):
        traj = iterate(InitialConditions.of(1, 0, 1, 1), CoefficientStream.constant(7, 5), 10)
        assert (traj.last_index, traj.singular) == (0, ZERO_X_FACTOR)


EXP_ALT = [1, -1, 1, -1, 1, -1]           # (-1)^k
EXP_COS = [2, 1, -1, -2, -1, 1]           # 2 cos(pi k / 3)


def scaled_seeds(ic, lam, pattern):
    vals = [v * lam ** pattern[k % 6] for k, v in enumerate(ic.as_tuple())]
    return InitialConditions(*vals)


class TestGroupAction:
    # scaling u_k by lambda^{g(k)} for an admissible exponent pattern g maps
    # trajectories to trajectories, exactly

    @pytest.mark.parametrize("pattern", [EXP_ALT, EXP_COS])
    @pytest.mark.parametrize("lam", [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)])
    def test_invariance(self, rng, pattern, lam):
        hits = 0
        for _ in range(12):
            ic, stream = random_seeds(rng), random_stream(rng, 40)
            base = iterate(ic, stream, 40)
            if not base.is_regular:
                continue
            scaled = iterate(scaled_seeds(ic, lam, pattern), stream, 40)
            assert scaled.is_regular
            for m in range(-3, 41):
                assert scaled.x(m) == base.x(m) * lam ** pattern[(m + 3) % 6]
            hits += 1
        assert hits >= 4

    def test_pattern_satisfies_constraint(self):
        # both exponent patterns obey g(k) + g(k+3) = 0
        for pattern in (EXP_ALT, EXP_COS):
            for k in range(12):
                assert pattern[k % 6] + pattern[(k + 3) % 6] == 0
