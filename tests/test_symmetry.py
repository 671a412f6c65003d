import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from ratrec.closed_form import x_closed
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate, step
from ratrec.reduced import v_step
from ratrec import symmetry
from ratrec.symmetry import BUILTINS, CONTROL, is_characteristic, symmetry_residual
from ratrec.verify import random_rational, random_seeds, random_stream
from tests.conftest import ONES, UNIT_STREAM, gamma_pow, q_mul, v_from, weight, weighted_product

IDENT_TOL = 1e-10
TABLE_TOL = 1e-12


def sample_sweep(rng, count=500):
    return symmetry.random_samples(rng, count)


class TestTables:
    """A characteristic is its table g(0)..g(5)."""

    def test_six_entries(self):
        for g in (*BUILTINS.values(), CONTROL):
            assert len(g) == 6

    def test_cube_is_minus_one(self):
        assert BUILTINS["gamma"][3] == -1

    def test_matches_exponential(self):
        for k, z in enumerate(BUILTINS["gamma"]):
            want = complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
            assert abs(z - want) < TABLE_TOL
            assert BUILTINS["gamma-conjugate"][k] == z.conjugate()
            assert BUILTINS["alternating"][k] == (-1) ** k
            assert CONTROL[k] == 1


class TestPhi:
    """``engine.step`` on floats, given u_{n+1} and the product u_n u_{n+3},
    gives the u-form right-hand side u_n u_{n+3} / (u_{n+1}(a_n + b_n u_n u_{n+3})),
    the value term that ``symmetry_residual`` writes out, to rounding; on
    rationals it is exact."""

    def test_unit(self):
        assert step(1.0, 1.0 * 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_b_zero(self):
        assert step(4.0, 2.0 * 6.0, 1.0, 0.0) == pytest.approx(3.0)

    def test_exact_domain(self):
        assert step(Fraction(1), Fraction(1), Fraction(1), Fraction(1)) == Fraction(1, 2)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            step(2.0, 1.0 * -1.0, 1.0, 1.0)


class TestSymmetryResidual:
    @pytest.mark.parametrize("g", BUILTINS.values(), ids=BUILTINS.keys())
    def test_builtins_vanish(self, rng, g):
        for s in sample_sweep(rng):
            assert abs(symmetry_residual(g, *s)) <= IDENT_TOL

    @pytest.mark.parametrize("g", BUILTINS.values(), ids=BUILTINS.keys())
    def test_period_six(self, rng, g):
        # the table is read at (n + k) % 6, so n and n + 6 give the same floats
        for n, *rest in sample_sweep(rng, 100):
            assert symmetry_residual(g, n + 6, *rest) == symmetry_residual(g, n, *rest)

    def test_spec_sample(self):
        r = symmetry_residual(BUILTINS["gamma"], 2, 1.5, 0.75, 1.25, 1.0, 0.5)
        assert abs(r) <= IDENT_TOL

    def test_negative_control(self, rng):
        worst = max(abs(symmetry_residual(CONTROL, *s)) for s in sample_sweep(rng))
        assert worst >= 1e-3

    def test_value(self, rng):
        # with P = u_n u_{n+3}, B = a + b P and phi = P/(u_{n+1} B), the residual
        # is phi (g(n+1) + g(n+4)) - a P/(u_{n+1} B^2) (g(n) + g(n+3)).  Both
        # sums vanish on the built-in tables, whatever B is, so only a table
        # that fails the equations pins B: the control, where it is
        # 2 b P^2/(u_{n+1} B^2), and a generic table
        generic = (1 + 0j, 2j, -3 + 0j, 0.5 + 1j, 0.25 + 0j, -1.5j)
        for n, u_n, u_n1, u_n3, a, b in symmetry.random_samples(rng, 200):
            p = u_n * u_n3
            bracket = a + b * p
            phi = p / (u_n1 * bracket)
            for g in (CONTROL, generic):
                want = (phi * (g[(n + 1) % 6] + g[(n + 4) % 6])
                        - a * p / (u_n1 * bracket ** 2) * (g[n % 6] + g[(n + 3) % 6]))
                got = symmetry_residual(g, n, u_n, u_n1, u_n3, a, b)
                assert got == pytest.approx(want, rel=1e-12)
            assert symmetry_residual(CONTROL, n, u_n, u_n1, u_n3, a, b) == pytest.approx(
                2 * b * p ** 2 / (u_n1 * bracket ** 2), rel=1e-12)


def test_sampler_draws_are_pinned():
    # 28 points of seed 0, as the symmetry mode draws them: n, then five
    # floats.  The 28th is the first n that would read 24 were its range 0..24
    samples = symmetry.random_samples(random.Random(0), 28)
    assert [n for n, *_ in samples] == [
        12, 9, 4, 19, 15, 17, 0, 19, 6, 2, 17, 19, 7, 15, 2, 8, 13, 11, 7, 13,
        18, 6, 1, 23, 8, 14, 23, 1]
    assert samples[0] == (12, 1.6369316044104538, 1.1308573712462675,
                          0.888375125439445, 1.2669120820529127, 1.1074012061756213)
    assert samples[-1] == (1, 1.6829724350147148, 0.7373129447410769,
                           0.7429311052968264, 1.294211334556572, 0.6758192658065787)


class TestConstraintResidual:
    """The final constraint g(n) + g(n+3) = 0 holds exactly on the built-in tables."""

    def test_all_builtins(self):
        for g in BUILTINS.values():
            for n in range(6):
                assert g[n] + g[(n + 3) % 6] == 0

    def test_control(self):
        for n in range(6):
            assert CONTROL[n] + CONTROL[(n + 3) % 6] == 2


SHIFTS = (0, 1, 3, 4)  # the residual at n reads g at n, n+1, n+3 and n+4


def indicator(n, s):
    """The table of g = 1 at n + s (mod 6) and 0 elsewhere, in Fractions."""
    return tuple(Fraction(int(k == (n + s) % 6)) for k in range(6))


def rref(rows):
    """The nonzero rows of the reduced row echelon form of ``rows`` over Q."""
    rows, out = [list(r) for r in rows], []
    for col in range(len(rows[0])):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [c / pivot[col] for c in pivot]
        rows = [[c - r[col] * p for c, p in zip(r, pivot)] for r in rows]
        out = [[c - r[col] * p for c, p in zip(r, pivot)] for r in out] + [pivot]
    return [tuple(r) for r in out]


def derived_rows(rng, points=8):
    """The determining equations, derived: ``symmetry_residual`` is linear in
    (g(n), g(n+1), g(n+3), g(n+4)), so at a rational point its values on the
    four indicator tables are one row of coefficients; the rows of ``points``
    random points, reduced over Q."""
    rows = []
    for _ in range(points):
        n = rng.randrange(0, 24)
        u_n, u_n1, u_n3, a, b = (Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                 for _ in range(5))
        rows.append([symmetry_residual(indicator(n, s), n, u_n, u_n1, u_n3, a, b)
                     for s in SHIFTS])
    return rref(rows)


def meets(rows, g):
    """Whether the table g meets every row at every n, exactly."""
    return all(sum(c * g[(n + s) % 6] for c, s in zip(row, SHIFTS)) == 0
               for row in rows for n in range(6))


def trim(p):
    """A coefficient list, lowest degree first, without its zero top terms."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_gcd(p, q):
    """The monic gcd of two polynomials over Q, by Euclid's algorithm."""
    p, q = trim(p), trim(q)
    while q:
        r = list(p)
        while len(r) >= len(q):  # r mod q, one top term at a time
            c, shift = r[-1] / q[-1], len(r) - len(q)
            for k, v in enumerate(q):
                r[shift + k] -= c * v
            r.pop()
        p, q = q, trim(r)
    return [v / p[-1] for v in p]


def derived_cube(rng):
    """The monic gcd in Q[lambda] of the derived rows' shift polynomials:
    g(n) = lambda^n meets a row (c_0, c_1, c_3, c_4) exactly when lambda is
    a root of sum_s c_s lambda^s."""
    polys = []
    for row in derived_rows(rng):
        poly = [Fraction(0)] * 5
        for c, s in zip(row, SHIFTS):
            poly[s] = c
        polys.append(poly)
    return reduce(poly_gcd, polys)


def q_pow(z, k):
    """z^k in Q(sqrt(-3)) for k >= 0, by exact repeated multiplication."""
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = q_mul(out, z)
    return out


def generator_factor(g, n, exponents):
    """X = sum_k g(k) u_k d/du_k on the monomial prod_s u_{n+s}^{e_s}, g(k)
    read from the table g in Q(sqrt(-3)) at k mod 6: each u_k d/du_k
    multiplies the monomial by its exponent e_k, so X multiplies it by
    sum_s e_s g(n+s), the factor returned."""
    terms = [(e * g[(n + s) % 6][0], e * g[(n + s) % 6][1])
             for s, e in enumerate(exponents)]
    return sum(p for p, _ in terms), sum(q for _, q in terms)


def q_eval(poly, z):
    """poly(z) for z = p + q sqrt(-3), by Horner's rule in Q(sqrt(-3))."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(poly):
        acc = q_mul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


class TestDeterminingEquations:
    """The determining equations g(n) + g(n+3) = 0, derived exactly from the
    residual the float sweep evaluates, and the exact verdict against them."""

    def test_rows(self, rng):
        assert derived_rows(rng) == [(1, 0, 1, 0), (0, 1, 0, 1)]

    def test_verdict_agrees(self, rng):
        rows = derived_rows(rng)
        for g in BUILTINS.values():
            assert is_characteristic(g) and meets(rows, g)
        assert not is_characteristic(CONTROL) and not meets(rows, CONTROL)
        for _ in range(100):
            half = [random_rational(rng, nonzero=False) for _ in range(3)]
            g = [*half, *(-v for v in half)]
            assert is_characteristic(g) and meets(rows, g)
            g[rng.randrange(6)] += random_rational(rng)
            assert not is_characteristic(g) and not meets(rows, g)

    def test_shift_polynomial(self, rng):
        # the gcd is lambda^3 + 1 = (lambda + 1)(lambda^2 - lambda + 1)
        cube = derived_cube(rng)
        assert cube == [1, 0, 0, 1]
        roots = [(Fraction(-1), Fraction(0)), gamma_pow(1), gamma_pow(-1)]
        assert len(set(roots)) == 3
        for z, factor in zip(roots, ([1, 1], [1, -1, 1], [1, -1, 1])):
            assert q_eval(cube, z) == q_eval(factor, z) == (0, 0)
        # the three roots' powers are the built-in tables, in order
        for g, z in zip(BUILTINS.values(), roots):
            power = (Fraction(1), Fraction(0))
            for k in range(6):
                assert abs(g[k] - complex(power[0], power[1] * math.sqrt(3))) < TABLE_TOL
                power = q_mul(power, z)


class TestOrderLowering:
    """The paper's order lowering, from the derived equations to ``reduced``,
    exactly: each root lambda of the derived cube is the characteristic
    g(k) = lambda^k, whose generator X = sum_k g(k) u_k d/du_k kills
    w_n = u_n u_{n+3}; on a trajectory, V_n = 1/w_n then folds by
    ``reduced.v_step``."""

    @staticmethod
    def root_tables(rng):
        """g(0)..g(5) for each root of the derived cube, found among the
        sixth roots of unity gamma^d."""
        cube = derived_cube(rng)
        roots = [z for z in map(gamma_pow, range(6)) if q_eval(cube, z) == (0, 0)]
        assert len(roots) == len(cube) - 1  # every root of the cube
        return [[q_pow(z, k) for k in range(6)] for z in roots]

    def test_generator_kills_w(self, rng):
        tables = self.root_tables(rng)
        for g in tables:
            assert q_mul(g[5], g[1]) == (1, 0)  # lambda^6 = 1: g has period 6
        # the monomials u_n^e0 u_{n+1}^e1 u_{n+2}^e2 u_{n+3}^e3, e in {-1, 0, 1},
        # that every root's generator kills at every n: w and 1/w alone
        kernel = [e for e in itertools.product((-1, 0, 1), repeat=4) if any(e)
                  and all(generator_factor(g, n, e) == (0, 0) for g in tables for n in range(6))]
        assert kernel == [(-1, 0, 0, -1), (1, 0, 0, 1)]
        # the control g = 1 sends w to 2 w
        assert not any(z.imag for z in CONTROL)
        control = [(Fraction(z.real), Fraction(0)) for z in CONTROL]
        for n in range(6):
            assert generator_factor(control, n, (1, 0, 0, 1)) == (2, 0)

    def test_v_folds_by_v_step(self, rng):
        steps = 0
        for _ in range(40):
            stream = random_stream(rng, 30)
            traj = iterate(random_seeds(rng), stream, 30)
            # V_n = 1/w_n with u_k = x_{k-3}: 1/(x_{n-3} x_n)
            v = [v_from(traj, n) for n in range(traj.last_index + 1)]
            for n in range(len(v) - 1):
                assert v[n + 1] == v_step(v[n], *stream.at(n))
            steps += len(v) - 1
        assert steps >= 40 * 15


class TestInvariantCheck:
    """The invariant exp(-V-tilde_n) = 1/|u_n u_{n+3}| is |V_n|; exactly, V_n
    is unchanged by every admissible scaling of a trajectory."""

    def test_all_ones(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 0), 10)
        assert v_from(traj, 2) == 1

    def test_worked_value(self):
        traj = iterate(ONES, UNIT_STREAM, 10)
        # V_1 = 1/(x_{-2} x_1) = 2
        assert v_from(traj, 1) == 2

    def test_positive_trajectory_sweep(self):
        # u_k -> 2^g(k) u_k with g(k) = 2 cos(k pi/3), so g(k) + g(k+3) = 0
        seeds = (2, Fraction(1, 2), 3, Fraction(3, 4))
        traj = iterate(InitialConditions.of(*seeds), UNIT_STREAM, 53)
        scaled = iterate(InitialConditions.of(
            *(v * Fraction(2) ** g for v, g in zip(seeds, (2, 1, -1, -2)))), UNIT_STREAM, 53)
        assert scaled.values != traj.values
        for n in range(54):
            assert v_from(scaled, n) == v_from(traj, n)


def table_sum(d):
    """(-1)^d + gamma^d + conj(gamma)^d, read off the three tables."""
    return sum(g[d % 6] for g in BUILTINS.values())


class TestWeight:
    """(1/3)[(-1)^d + 2 Re gamma^d], the sum of the three tables at d over 3,
    is the integer weight, exactly: the tables' real parts are +-1 and +-1/2,
    and their imaginary parts cancel."""

    @pytest.mark.parametrize("d,want", [(0, 1), (3, -1), (4, 0), (1, 0), (2, 0), (5, 0)])
    def test_trichotomy(self, d, want):
        assert weight(d) == want
        assert 3 * want == table_sum(d)

    def test_matches_float_formula(self):
        for d in range(-48, 49):
            assert 3 * weight(d) == table_sum(d)


def hh(n, k):
    """The kernel gamma^n conj(gamma)^k on the gamma tables."""
    return BUILTINS["gamma"][n % 6] * BUILTINS["gamma-conjugate"][k % 6]


class TestHH:
    def test_diagonal_is_one(self):
        for n in range(24):
            assert abs(hh(n, n) - 1) <= TABLE_TOL

    def test_periodicities(self):
        for n in range(24):
            for k in range(24):
                assert hh(n + 6, k) == hh(n, k)
                assert hh(n + 3, k) == -hh(n, k)
                assert hh(n, k + 3) == -hh(n, k)


class TestHFactor:
    """H_j is the n = 0 case of the weighted product: x_{j-3} itself."""

    def test_seed_magnitude(self):
        traj = iterate(InitialConditions.of(5, 1, 1, 1), UNIT_STREAM, 6)
        assert weighted_product(traj, -3) == 5

    def test_all_ones_j3(self):
        traj = iterate(ONES, CoefficientStream.constant(1, 0), 6)
        assert weighted_product(traj, 0) == 1

    def test_unit_case_j4(self):
        traj = iterate(ONES, UNIT_STREAM, 6)
        # H_4 / V_1 = (1/x_{-2}) / 2 = x_1
        assert weighted_product(traj, 1) == x_closed(ONES, UNIT_STREAM, 1) == Fraction(1, 2)


class TestLogReconstruct:
    """x_m = H_j prod_{k<6n+j} V_k^weight(j-k), m = 6n+j-3, exactly and
    with its sign."""

    def test_base_case(self):
        traj = iterate(InitialConditions.of(Fraction(-7, 2), 1, 1, 1), UNIT_STREAM, 6)
        assert weighted_product(traj, -3) == Fraction(-7, 2)

    def test_unit_case(self):
        traj = iterate(ONES, UNIT_STREAM, 10)
        assert weighted_product(traj, 3) == Fraction(1, 4)

    def test_weight_sum_telescopes(self):
        # the weighted product is the closed form's block product: the pairs
        # V_{6s+j}/V_{6s+j+3}, and 1/V_{j-3} for j >= 3, which H_j cancels
        traj = iterate(ONES, UNIT_STREAM, 60)
        for j in range(6):
            for n in (1, 3, 8):
                direct = math.prod(v_from(traj, k) ** weight(j - k) for k in range(6 * n + j))
                paired = math.prod(v_from(traj, 6 * s + j) / v_from(traj, 6 * s + j + 3)
                                   for s in range(n))
                if j >= 3:
                    paired /= v_from(traj, j - 3)
                assert direct == paired

    def test_long_horizon_well_conditioned(self):
        ic = InitialConditions.of(2, Fraction(1, 2), 3, Fraction(3, 4))
        traj = iterate(ic, UNIT_STREAM, 120)
        for m in range(-3, 118):
            assert weighted_product(traj, m) == traj.x(m) == x_closed(ic, UNIT_STREAM, m)
