import random
from fractions import Fraction
from math import prod

import pytest

from ratrec import closed_form
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate


# ---------------------------------------------------------------------------
# literal specification oracles (nested products, no shortcuts)

def literal_v_closed(v0, stream, n):
    """V_n by the literal nested-product closed form."""
    total = Fraction(v0)
    for k in range(n):
        total *= stream.at(k)[0]
    for l in range(n):
        term = stream.at(l)[1]
        for k in range(l + 1, n):
            term *= stream.at(k)[0]
        total += term
    return total


def fold_v(v0, stream, n):
    """V_n by folding the one-step map (independent of any closed form)."""
    v = Fraction(v0)
    for k in range(n):
        a, b = stream.at(k)
        v = a * v + b
    return v


def v_from(traj, k):
    """V_k = 1/(x_{k-3} x_k), read off a trajectory."""
    return 1 / (traj.x(k - 3) * traj.x(k))


def batch_values(ic, vs):
    """x_{-3}..x_H from the seeds and V_0..V_H by the batch rule
    x_t = 1/(x_{t-3} V_t), V's definition inverted, on any field scalar.
    Takes V as given, so a test chooses the fold: ``fold_v`` for an
    independent oracle, the package's own to reach a fault injected in it."""
    out = list(ic.as_tuple())
    for t in range(1, len(vs)):
        # out[t] is x_{t-3}
        out.append(1 / (out[t] * vs[t]))
    return out


def v_closed_constant(v0, a, b, n):
    """V_n for constant (a, b): v0 + n b at a = 1, else the geometric sum
    v0 a^n + b (1 - a^n) / (1 - a)."""
    v0, a, b = Fraction(v0), Fraction(a), Fraction(b)
    if a == 1:
        return v0 + n * b
    return v0 * a ** n + b * (1 - a ** n) / (1 - a)


def weight(d):
    """The paper's weight (1/3)[(-1)^d + 2 cos(d pi/3)] as an integer table:
    +1 at d = 0 and -1 at d = 3 (mod 6), else 0."""
    return {0: 1, 3: -1}.get(d % 6, 0)


def weighted_product(traj, m):
    """x_m, m = 6n + j - 3, as the paper's H_j prod_{k<6n+j} V_k^weight(j-k),
    with H_j = u_j for j <= 2 and 1/u_{j-3} for j >= 3 (u_k = x_{k-3})."""
    n, j = divmod(m + 3, 6)
    h = traj.x(j - 3) if j <= 2 else 1 / traj.x(j - 6)
    return h * prod(v_from(traj, k) ** weight(j - k)
                    for k in range(6 * n + j) if weight(j - k))


def q_mul(x, y):
    """(p + q r)(p' + q' r) in Q(r), r = sqrt(-3), on pairs (p, q)."""
    return x[0] * y[0] - 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gamma_pow(d):
    """gamma^d for gamma = exp(i pi/3) = (1 + sqrt(-3))/2, as the pair of
    Fractions (p, q) of p + q sqrt(-3), by exact repeated multiplication
    (gamma^-1 is conj(gamma))."""
    g = (Fraction(1, 2), Fraction(1 if d >= 0 else -1, 2))
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(d)):
        out = q_mul(out, g)
    return out


class GF:
    """An element of GF(2^61 - 1): a field scalar that is not a Fraction.

    Mixes with ints and Fractions on either side of an operator, as the
    kernels' literals (``1 / w``, ``-1 + b w``) require.
    """

    P = 2 ** 61 - 1

    def __init__(self, value):
        if isinstance(value, GF):
            value = value.v
        elif isinstance(value, Fraction):
            value = value.numerator * pow(value.denominator, -1, GF.P)
        self.v = value % GF.P

    def __add__(self, other): return GF(self.v + GF(other).v)
    def __sub__(self, other): return GF(self.v - GF(other).v)
    def __rsub__(self, other): return GF(other) - self
    def __mul__(self, other): return GF(self.v * GF(other).v)
    # pow(0, -1, P) raises ValueError, so a division by zero cannot pass silently
    def __truediv__(self, other): return GF(self.v * pow(GF(other).v, -1, GF.P))
    def __rtruediv__(self, other): return GF(other) / self
    def __pow__(self, n): return GF(pow(self.v, n, GF.P))
    def __eq__(self, other): return self.v == GF(other).v
    def __repr__(self): return f"GF({self.v})"
    __radd__, __rmul__ = __add__, __mul__


def to_gf(ic, stream):
    """The same instance over GF(p), built with the raw constructors."""
    return (InitialConditions(*map(GF, ic.as_tuple())),
            CoefficientStream(stream.kind, tuple((GF(a), GF(b)) for a, b in stream.pairs)))


# ---------------------------------------------------------------------------
# shared instances, small samplers and messages

ONES = InitialConditions.of(1, 1, 1, 1)
UNIT_STREAM = CoefficientStream.constant(1, 1)


def small_rational(rng, nonzero=False):
    num = rng.choice([k for k in range(-2, 3) if k or not nonzero])
    return Fraction(num, rng.choice([1, 2]))


def small_pair(rng):
    return small_rational(rng), small_rational(rng)


def vanished(t):
    return rf"^V\({t}\) vanished: x_{t} does not exist$"


@pytest.fixture
def rng():
    return random.Random(20260826)


def corrupt_fold(monkeypatch, fault):
    """Make the closed form read fault(t, V_t) in place of each V_t of its
    one checked fold; the fold itself runs on the true values."""
    true_fold = closed_form.v_values
    monkeypatch.setattr(closed_form, "v_values", lambda v0, coeffs, n: (
        fault(t, v) for t, v in enumerate(true_fold(v0, coeffs, n))))


FAULT_INDEX = 5  # the first V that ``corrupt_closed_form`` doubles


@pytest.fixture
def corrupt_closed_form(monkeypatch):
    """Negative control: the closed form's V_t is doubled from V_5 on, so
    every instance that verify runs at a horizon of 5 or more must give a
    witness at index 5, where the batch value 1/(x_2 * 2 V_5) is half of
    x_5.  Returns a check of a CLI verify record's witness fields."""
    corrupt_fold(monkeypatch, lambda t, v: 2 * v if t >= FAULT_INDEX else v)

    def check(record):
        ic = InitialConditions.of(*record["witness_seeds"].split(","))
        kind, pairs = record["witness_stream"].split(":")
        stream = CoefficientStream(kind, tuple(
            tuple(map(Fraction, pair.split(","))) for pair in pairs.split(";")))
        x = iterate(ic, stream, FAULT_INDEX).x(FAULT_INDEX)
        assert int(record["witness_index"]) == FAULT_INDEX
        assert Fraction(record["witness_expected"]) == x
        assert Fraction(record["witness_got"]) == x / 2

    return check
