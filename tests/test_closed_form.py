from fractions import Fraction
from math import gcd

import pytest

from ratrec import reduced
from ratrec.closed_form import (
    ClosedFormError,
    _balanced_product,
    _v_checked,
    branch,
    x_closed,
    x_closed_constant,
)
from ratrec.core import CoefficientStream, InitialConditions, decompose_index
from ratrec.engine import iterate
from ratrec.rational import Rational
from ratrec.reduced import v_values
from ratrec.verify import check_instance, random_seeds, random_stream
from tests.conftest import (
    GF, ONES, UNIT_STREAM, batch_values, corrupt_fold, fold_v, small_pair, small_rational, to_gf,
    v_from, vanished)

# the two messages of ClosedFormError, one per rule of the domain
ZERO_SEED = r"^closed form requires all four initial values nonzero$"


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
    value = x_closed(ic, stream, j - 3)
    for s in range(n):
        value *= literal_t(stream, w, 6 * s + j)
        value /= literal_t(stream, w, 6 * s + j + 3)
    return value


class TestXClosed:
    def test_worked_case(self):
        assert x_closed(ONES, UNIT_STREAM, 3) == Fraction(1, 4)
        assert x_closed(ONES, UNIT_STREAM, 1) == Fraction(1, 2)

    def test_seed_indices(self):
        ic = InitialConditions.of(2, 3, 5, 7)
        for m, want in ((-3, 2), (-2, 3), (-1, 5), (0, 7)):
            assert x_closed(ic, UNIT_STREAM, m) == want

    def test_zero_seed_refused(self):
        with pytest.raises(ClosedFormError, match=ZERO_SEED):
            x_closed(InitialConditions.of(1, 0, 1, 1), UNIT_STREAM, 3)
        # at every index, a seed's own included
        for m in range(-3, 3):
            with pytest.raises(ClosedFormError, match=ZERO_SEED):
                x_closed(InitialConditions.of(0, 2, 0, 3), UNIT_STREAM, m)
        # the seeds are checked before the fold: V_0 = 1 exists and V_1
        # vanishes on this stream, yet the zero seed is the error named
        with pytest.raises(ClosedFormError, match=ZERO_SEED):
            x_closed(InitialConditions.of(1, 0, 1, 1),
                     CoefficientStream.periodic([(-1, 1), (2, 1)]), 2)

    def test_matches_literal_form(self, rng):
        for _ in range(6):
            ic, stream = random_seeds(rng), random_stream(rng, 40)
            traj = iterate(ic, stream, 33)
            if not traj.is_regular:
                continue
            for m in (-3, 0, 3, 10, 21, 33):
                assert x_closed(ic, stream, m) == literal_x_closed(ic, stream, m)

    def test_oracle_equivalence(self, rng):
        checked = 0
        for _ in range(40):
            ic, stream = random_seeds(rng), random_stream(rng, 60)
            traj = iterate(ic, stream, 57)
            if not traj.is_regular:
                continue
            for m in range(-3, 58):
                assert x_closed(ic, stream, m) == traj.x(m)
            checked += 1
        assert checked >= 10

    def test_telescoping_blocks(self, rng):
        # each block factor T(6s+j)/T(6s+j+3) equals V_{6s+j}/V_{6s+j+3}
        # with V from the reduced solver
        for _ in range(6):
            ic, stream = random_seeds(rng), random_stream(rng, 40)
            w = ic.x_m3 * ic.x_0
            v0 = 1 / w
            for j in range(6):
                for s in range(4):
                    vs = list(v_values(v0, stream, 6 * s + j + 3))
                    lo, hi = vs[6 * s + j], vs[-1]
                    if hi == 0:
                        continue
                    assert (literal_t(stream, w, 6 * s + j)
                            / literal_t(stream, w, 6 * s + j + 3)) == lo / hi


class TestLastV:
    """x_closed(m), m >= 1, reads V_m in its last block ratio, or in the
    prefactor at n = 0, and every other V it reads has a lower index.  So
    with V_0..V_{m-1} those of the iteration, x_closed(m) = 1/(x_{m-3} V_m)
    whatever V_m is: the value ``verify`` names in a witness."""

    def test_only_v_m_off(self, monkeypatch, rng):
        checked = 0
        for _ in range(10):
            ic, stream = random_seeds(rng), random_stream(rng, 24)
            traj = iterate(ic, stream, 24)
            if not traj.is_regular:
                continue
            # every residue j = 0..5 at n = 1, 2, 3, and j = 4, 5 at n = 0
            for m in range(1, 25):
                c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 9))
                v = v_from(traj, m) + c
                if v == 0:
                    continue
                with monkeypatch.context() as patch:
                    corrupt_fold(patch, lambda t, true_v: true_v + c * (t == m))
                    got = x_closed(ic, stream, m)
                assert got == 1 / (traj.x(m - 3) * v)
                assert got != traj.x(m)
            checked += 1
        assert checked >= 5


class TestBlockProductTree:
    """``x_closed`` multiplies the prefactor and its n block ratios in a
    balanced tree; deep indices reach several levels of it, with an odd
    number of factors at some."""

    def test_every_residue_near_300(self, rng):
        while True:
            ic, stream = random_seeds(rng), random_stream(rng, 306)
            # coefficients that vary with n: a constant stream is redrawn
            while stream.kind == "constant":
                stream = random_stream(rng, 306)
            traj = iterate(ic, stream, 305)
            if traj.is_regular:
                break
        ms = range(300, 306)
        assert sorted(decompose_index(m)[1] for m in ms) == list(range(6))
        for m in ms:
            assert x_closed(ic, stream, m) == traj.x(m)

    @pytest.mark.parametrize("seed_type", [Rational, Fraction])
    def test_exact_product_in_lowest_terms(self, rng, seed_type):
        # every j at n = 1, 2 and near m = 300, with seeds x_{-2}, x_0 < 0 and
        # every a_n, b_n <= 0; Fraction seeds with a Rational stream are
        # what perfbench's closed-deep passes
        ms = [*range(3, 15), *range(300, 306)]
        while True:
            seeds, stream = random_seeds(rng), random_stream(rng, 306)
            ic = InitialConditions(*(seed_type(-abs(x) if k % 2 else x)
                                     for k, x in enumerate(seeds)))
            stream = CoefficientStream(stream.kind, tuple(
                (Rational(-abs(a)), Rational(-abs(b))) for a, b in stream.pairs))
            try:
                vs = _v_checked(ic, stream, 305)
                break
            except ClosedFormError:
                continue
        batch = batch_values(ic, vs)
        for m in ms:
            n, j = decompose_index(m)
            got = x_closed(ic, stream, m)
            assert type(got) is Rational
            assert gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
            # the tree of the ratios themselves, headed by x_{j-3}
            ratios = [batch[j]] + [vs[t] / vs[t + 3] for t in range(j, 6 * n, 6)]
            assert got == _balanced_product(ratios) == batch[m + 3]

    def test_gf_matches_batch_to_600(self, rng):
        seeds, stream = random_seeds(rng), random_stream(rng, 601)
        while stream.kind == "constant":
            stream = random_stream(rng, 601)
        ic, stream = to_gf(seeds, stream)
        # fold_v reads Fractions, so over GF the batch rule takes the package's fold
        batch = batch_values(ic, list(v_values(1 / (ic.x_m3 * ic.x_0), stream, 600)))
        for m in range(-3, 601):
            got = x_closed(ic, stream, m)
            assert type(got) is GF and got == batch[m + 3]

    @pytest.mark.parametrize("scalar", [Fraction, GF])
    def test_block_zero_is_the_prefactor(self, scalar):
        # w = 14, V_1 = 2/14 + 1 = 8/7, V_2 = 3 * 8/7 - 1 = 17/7: n = 0 for
        # m = -3..2, so x_m is the seed, then x_1 = 1/(x_{-2} V_1), x_2 = 1/(x_{-1} V_2)
        ic = InitialConditions(*map(scalar, (2, 3, 5, 7)))
        stream = CoefficientStream("periodic", ((scalar(2), scalar(1)), (scalar(3), scalar(-1))))
        want = (2, 3, 5, 7, Fraction(7, 24), Fraction(7, 85))
        for m, value in zip(range(-3, 3), want):
            got = x_closed(ic, stream, m)
            assert type(got) is scalar and got == scalar(value)


def oracle_values(ic, stream, horizon):
    """x_{-3}..x_horizon by the batch rule over V_0..V_horizon of
    ``fold_v``: nothing of the closed form or of the package's fold."""
    v0 = 1 / (ic.x_m3 * ic.x_0)
    return batch_values(ic, [fold_v(v0, stream, t) for t in range(horizon + 1)])


class TestBatchRule:
    """The tests' batch oracle x_t = 1/(x_{t-3} V_t), checked against the
    iteration, and ``x_closed`` against it at every index."""

    def test_oracle_matches_iterate(self, rng):
        kinds = set()
        for _ in range(24):
            ic, stream = random_seeds(rng), random_stream(rng, 40)
            traj = iterate(ic, stream, 40)
            if not traj.is_regular:
                continue
            assert oracle_values(ic, stream, 40) == list(traj.values)
            kinds.add(stream.kind)
        assert kinds == {"constant", "periodic", "list"}

    def test_matches_pointwise(self, rng):
        for _ in range(8):
            ic, stream = random_seeds(rng), random_stream(rng, 40)
            traj = iterate(ic, stream, 37)
            if not traj.is_regular:
                continue
            batch = oracle_values(ic, stream, 37)
            for m in range(-3, 38):
                assert batch[m + 3] == x_closed(ic, stream, m)


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
            ic = random_seeds(rng)
            traj = iterate(ic, stream, 27)
            if not traj.is_regular:
                continue
            for m in (-3, 0, 1, 5, 13, 27):
                got = x_closed_constant(ic, a, b, m)
                assert got == x_closed(ic, stream, m)
                assert got == traj.x(m)
            hits += 1
        assert hits >= 3


class TestBranch:
    """``branch`` labels the paper's constant-coefficient cases; any other
    stream is general, even one whose every pair is the same."""

    @pytest.mark.parametrize("a,label", [(1, "a1"), (-1, "aneg1"), (2, "aneq1"),
                                         (-2, "aneq1"), (Fraction(1, 2), "aneq1")])
    def test_constant(self, a, label):
        assert branch(CoefficientStream.constant(a, 3)) == label

    def test_general(self):
        for stream in (CoefficientStream.periodic([(1, 1)]),
                       CoefficientStream.periodic([(-1, 1), (-1, 1)]),
                       CoefficientStream.explicit([(1, 0)])):
            assert branch(stream) == "general"


class TestANeg1:
    """``x_closed`` on a constant a = -1 stream, whose V is 2-periodic:
    V_{t+2} = -(-V_t + b) + b = V_t, so each block ratio is (V_1/V_0)^{+-1}
    and the base V_1/V_0 = -1 + b x_{-3} x_0 decides every value."""

    def test_base_one_fixed_profile(self):
        # b = 2 gives base 1; every block repeats the seeds/prefactors
        stream = CoefficientStream.constant(-1, 2)
        traj = iterate(ONES, stream, 30)
        for m in range(-3, 31):
            assert x_closed(ONES, stream, m) == traj.x(m)

    def test_base_zero_keeps_only_the_seeds(self):
        # b = 1 gives base 0, the bracket of x_1: the seeds stand through
        # every entry point, and no later value exists
        stream = CoefficientStream.constant(-1, 1)
        for m in range(-3, 1):
            assert x_closed_constant(ONES, Fraction(-1), Fraction(1), m) == 1
            assert x_closed(ONES, stream, m) == 1
        assert not iterate(ONES, stream, 1).is_regular
        for m in range(1, 13):
            with pytest.raises(ClosedFormError, match=vanished(1)):
                x_closed(ONES, stream, m)

    def test_deep_index(self):
        # m = 6001 = 6n + 4 - 3 with n = 1000: x_1 * (V_1/V_0)^-n, V_1/V_0 = 2
        stream = CoefficientStream.constant(-1, 3)
        assert x_closed(ONES, stream, 6001) == Fraction(1, 2 ** 1001)


class TestOneFold:
    """``x_closed`` folds V once, to max(m, 0), and ``check_instance`` once,
    to its horizon, whatever the stream: a constant a = -1 one takes the
    same path as the others."""

    STREAMS = (CoefficientStream.periodic([(1, 1), (2, 1), (Fraction(1, 2), 3)]),
               CoefficientStream.constant(-1, 3))

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
        for stream in self.STREAMS:
            steps.clear()
            x_closed(ONES, stream, m)
            assert len(steps) == max(m, 0)

    @pytest.mark.parametrize("horizon", [0, 1, 5, 7, 12, 26])
    def test_check_instance(self, steps, horizon):
        # one fold to the horizon per instance: the spot checks at 0,
        # min(7, horizon) and horizon read it instead of folding again
        for stream in self.STREAMS:
            assert iterate(ONES, stream, horizon).is_regular
            steps.clear()
            assert check_instance(ONES, stream, horizon) is None
            assert len(steps) == horizon


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
                else:
                    # the bracket of step n vanishes with V_{n+1}
                    first = vanished(traj.last_index + 1)
                    with pytest.raises(ClosedFormError, match=first):
                        x_closed(ic, stream, m)
        assert singular >= 15

    def test_x2_prefactor_needs_v1(self):
        # V_1 = -1 + 1 = 0 while V_2 = 2*0 + 1 = 1: the bracket of x_1 vanishes,
        # so x_2 does not exist although its own V is nonzero
        stream = CoefficientStream.periodic([(-1, 1), (2, 1)])
        assert not iterate(ONES, stream, 1).is_regular
        with pytest.raises(ClosedFormError, match=vanished(1)):
            x_closed(ONES, stream, 2)

    def test_error_order(self):
        # the index is checked first, then the seeds, and only then does the
        # fold read the stream
        zero = InitialConditions.of(0, 1, 1, 1)
        short = CoefficientStream.explicit([(1, 1)] * 3)
        for stream in (UNIT_STREAM, short):
            with pytest.raises(IndexError, match=r"^x-index must be >= -3, got -4$"):
                x_closed(zero, stream, -4)
            with pytest.raises(ClosedFormError, match=ZERO_SEED):
                x_closed(zero, stream, 10)
        with pytest.raises(ClosedFormError, match=ZERO_SEED):
            x_closed(zero, UNIT_STREAM, 5)
        with pytest.raises(IndexError, match=r"^stream index 3 beyond declared horizon 2$"):
            x_closed(ONES, short, 4)
        assert x_closed(ONES, short, 3) == iterate(ONES, short, 3).x(3)
