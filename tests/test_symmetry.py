import math
from fractions import Fraction

import pytest

from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate, step, v_sequence
from ratrec import symmetry
from ratrec.symmetry import (
    Characteristic,
    ConditioningError,
    canonical_coordinate,
    constraint_residual,
    gamma_power,
    h_factor,
    hh,
    invariant_check,
    log_reconstruct,
    symmetry_residual,
    weight,
    weight_float,
)

ONES = InitialConditions.of(1, 1, 1, 1)
UNIT_STREAM = CoefficientStream.constant(1, 1)

IDENT_TOL = 1e-10
TABLE_TOL = 1e-12

BUILTIN = {char.label: char for char in symmetry.builtin_characteristics()}


def sample_sweep(rng, count=500):
    return [
        (rng.randrange(0, 24),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for _ in range(count)
    ]


class TestGammaPower:
    def test_cube_is_minus_one(self):
        assert abs(gamma_power(3) + 1) == 0

    def test_periodicity(self):
        for n in range(-12, 12):
            assert gamma_power(n + 6) == gamma_power(n)

    def test_matches_exponential(self):
        for n in range(-10, 10):
            want = complex(math.cos(n * math.pi / 3), math.sin(n * math.pi / 3))
            assert abs(gamma_power(n) - want) < TABLE_TOL


class TestPhi:
    """The u-form right-hand side is ``engine.step`` on floats and rationals."""

    def test_unit(self):
        assert step(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_b_zero(self):
        assert step(2.0, 4.0, 6.0, 1.0, 0.0) == pytest.approx(3.0)

    def test_exact_domain(self):
        assert step(Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1)) == Fraction(1, 2)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            step(1.0, 2.0, -1.0, 1.0, 1.0)


class TestSymmetryResidual:
    @pytest.mark.parametrize("char", symmetry.builtin_characteristics(),
                             ids=lambda c: c.label)
    def test_builtins_vanish(self, rng, char):
        for s in sample_sweep(rng):
            assert abs(symmetry_residual(char, *s)) <= IDENT_TOL

    def test_spec_sample(self):
        r = symmetry_residual(BUILTIN["gamma"], 2, 1.5, 0.75, 1.25, 1.0, 0.5)
        assert abs(r) <= IDENT_TOL

    def test_negative_control(self, rng):
        control = Characteristic(lambda n: complex(1.0, 0.0), "g1")
        worst = max(abs(symmetry_residual(control, *s)) for s in sample_sweep(rng))
        assert worst >= 1e-3

    def test_conditioning_guard(self):
        with pytest.raises(ConditioningError):
            symmetry_residual(BUILTIN["alternating"], 0, 1.0, 1e-12, 1.0, 1.0, 1.0)


class TestConstraintResidual:
    def test_all_builtins(self):
        for char in symmetry.builtin_characteristics():
            for n in range(48):
                tol = 0 if char.label == "alternating" else TABLE_TOL
                assert abs(constraint_residual(char, n)) <= tol

    def test_control(self):
        control = Characteristic(lambda n: complex(1.0, 0.0), "g1")
        assert constraint_residual(control, 11) == 2


class TestCanonicalCoordinate:
    def test_log_one_is_zero(self):
        assert canonical_coordinate(17, 1.0) == 0

    def test_n_zero(self):
        assert canonical_coordinate(0, math.e) == pytest.approx(1.0)

    def test_n_three_flips_sign(self):
        assert canonical_coordinate(3, math.e) == pytest.approx(-1.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            canonical_coordinate(0, 0.0)


class TestInvariantCheck:
    def test_all_ones(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 0), 10)
        tilde_v, defect = invariant_check(traj, 2)
        assert abs(tilde_v) <= IDENT_TOL and defect <= IDENT_TOL

    def test_worked_value(self):
        traj = iterate(ONES, UNIT_STREAM, 10)
        tilde_v, defect = invariant_check(traj, 1)
        # V_1 = 1/(x_{-2} x_1) = 2
        assert math.exp(-tilde_v.real) == pytest.approx(2.0, abs=IDENT_TOL)
        assert defect <= IDENT_TOL

    def test_positive_trajectory_sweep(self):
        traj = iterate(InitialConditions.of(2, Fraction(1, 2), 3, Fraction(3, 4)),
                       UNIT_STREAM, 53)
        for n in range(0, 50, 7):
            tilde_v, defect = invariant_check(traj, n)
            assert abs(tilde_v.imag) <= IDENT_TOL
            assert defect <= IDENT_TOL


class TestWeight:
    @pytest.mark.parametrize("d,want", [(0, 1), (3, -1), (4, 0), (1, 0), (2, 0), (5, 0)])
    def test_trichotomy(self, d, want):
        assert weight(d) == want

    def test_matches_float_formula(self):
        for d in range(-48, 49):
            assert abs(weight(d) - weight_float(d)) <= TABLE_TOL


class TestHH:
    def test_diagonal_is_one(self):
        for n in range(24):
            assert abs(hh(n, n) - 1) <= TABLE_TOL

    def test_periodicities(self):
        for n in range(24):
            for k in range(24):
                assert abs(hh(n + 6, k) - hh(n, k)) <= TABLE_TOL
                assert abs(hh(n + 3, k) + hh(n, k)) <= TABLE_TOL
                assert abs(hh(n, k + 3) + hh(n, k)) <= TABLE_TOL


class TestHFactor:
    def test_seed_magnitude(self):
        traj = iterate(InitialConditions.of(5, 1, 1, 1), UNIT_STREAM, 6)
        assert h_factor(0, traj) == pytest.approx(5.0)

    def test_all_ones_j3(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 0), 6)
        assert h_factor(3, traj) == pytest.approx(1.0)

    def test_unit_case_j4(self):
        traj = iterate(ONES, UNIT_STREAM, 6)
        # |V_1| |x_1| = 2 * 1/2
        assert h_factor(4, traj) == pytest.approx(1.0)


class TestLogReconstruct:
    def test_base_case(self):
        traj = iterate(InitialConditions.of(Fraction(-7, 2), 1, 1, 1), UNIT_STREAM, 6)
        assert log_reconstruct(0, 0, traj) == pytest.approx(3.5)

    def test_unit_case(self):
        traj = iterate(ONES, UNIT_STREAM, 10)
        assert log_reconstruct(0, 1, traj) == pytest.approx(0.25, rel=1e-9)

    def test_weight_sum_telescopes(self):
        # direct weighted sum equals the telescoping pairs, up to the extra
        # -ln|V_{j-3}| term for j >= 3 that the H factor cancels
        traj = iterate(ONES, UNIT_STREAM, 60)
        vs = [abs(float(v)) for v in v_sequence(traj)]
        for j in range(6):
            for n in (1, 3, 8):
                top = 6 * n + j
                if top - 1 >= len(vs):
                    continue
                direct = sum(weight(j - k) * math.log(vs[k]) for k in range(top))
                paired = sum(math.log(vs[6 * s + j]) - math.log(vs[6 * s + j + 3])
                             for s in range(n))
                if j >= 3:
                    paired -= math.log(vs[j - 3])
                assert direct == pytest.approx(paired, abs=1e-9)

    def test_long_horizon_well_conditioned(self):
        traj = iterate(InitialConditions.of(2, Fraction(1, 2), 3, Fraction(3, 4)),
                       UNIT_STREAM, 120)
        for j in range(6):
            for n in range(0, 20, 3):
                m = 6 * n + j - 3
                if m > 117:
                    continue
                want = abs(float(traj.x(m)))
                got = log_reconstruct(j, n, traj)
                assert got == pytest.approx(want, rel=1e-9)
