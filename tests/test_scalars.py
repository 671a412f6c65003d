"""The number type is chosen at the boundary only.

The kernels run unchanged on any field scalar; ``GF`` (conftest) is one
that ``Fraction()`` cannot read.  One set of instances, constant a = -1
streams among them, checks that every kernel reduces mod p.  The
bare-scalar entry point ``x_closed_constant`` builds its stream with
``CoefficientStream.constant``, which reads plain ints as ``Rational``, so
they still give exact answers.
"""

from fractions import Fraction

import pytest

from ratrec import closed_form
from ratrec.closed_form import ClosedFormError, x_closed, x_closed_constant
from ratrec.core import CoefficientStream, InitialConditions, Rational
from ratrec.engine import iterate
from ratrec.reduced import v_values
from ratrec.verify import random_seeds, random_stream
from tests.conftest import GF, batch_values, to_gf, v_from
from tests.test_closed_form import small_pair, small_rational, vanished

ONES = InitialConditions.of(1, 1, 1, 1)
HORIZON = 24


def outcome(fn, *args):
    """A call's value, or the class and message of the ClosedFormError it
    raised: the message names the rule that fired and the index."""
    try:
        return fn(*args)
    except ClosedFormError as exc:
        return type(exc), str(exc)


def assert_reduces(exact, modular):
    """``modular`` is the GF(p) image of ``exact``, element by element, or
    the same error outcome."""
    if isinstance(exact, tuple) and exact and isinstance(exact[0], type):
        assert modular == exact
        return
    exact, modular = (list(x) if isinstance(x, (list, tuple)) else [x]
                      for x in (exact, modular))
    assert len(modular) == len(exact)
    assert all(type(g) is GF for g in modular)
    assert modular == [GF(q) for q in exact]


def checked_batch(ic, stream):
    """x_{-3}..x_HORIZON by the batch rule over the closed form's checked
    fold, or its ClosedFormError."""
    return batch_values(ic, closed_form._v_checked(ic, stream, HORIZON))


def instances(rng, count):
    """Random seeds and streams; every other instance draws from {0, +-1/2,
    +-1, +-2}, so zero seeds and singular steps occur, and every fourth has
    a constant a = -1 stream, whose V values repeat with period 2."""
    for i in range(count):
        if i % 2:
            ic = InitialConditions.of(*(small_rational(rng) for _ in range(4)))
            stream = CoefficientStream.periodic(
                [small_pair(rng) for _ in range(rng.randint(1, 6))])
        else:
            ic, stream = random_seeds(rng), random_stream(rng, HORIZON)
        if i % 4 == 3:
            stream = CoefficientStream.constant(-1, small_rational(rng))
        yield ic, stream


class TestKernelsOverGF:
    def test_every_kernel_reduces_mod_p(self, rng):
        for ic, stream in instances(rng, 40):
            gic, gstream = to_gf(ic, stream)
            traj, gtraj = iterate(ic, stream, HORIZON), iterate(gic, gstream, HORIZON)
            assert (gtraj.last_index, gtraj.singular) == (traj.last_index, traj.singular)
            assert_reduces(traj.values, gtraj.values)
            assert_reduces(traj.products, gtraj.products)
            if ic.all_nonzero():
                assert_reduces(list(v_values(1 / (ic.x_m3 * ic.x_0), stream, HORIZON)),
                               list(v_values(1 / (gic.x_m3 * gic.x_0), gstream, HORIZON)))
            if traj.is_regular and 0 not in traj.values:
                assert_reduces([v_from(traj, k) for k in range(HORIZON + 1)],
                               [v_from(gtraj, k) for k in range(HORIZON + 1)])
            assert_reduces(outcome(checked_batch, ic, stream),
                           outcome(checked_batch, gic, gstream))
            for m in range(-3, HORIZON + 1):
                assert_reduces(outcome(x_closed, ic, stream, m),
                               outcome(x_closed, gic, gstream, m))

    def test_singular_witness_stops_at_the_same_step(self):
        ic, stream = to_gf(ONES, CoefficientStream.periodic([(-1, 1), (2, 1)]))
        gtraj, traj = iterate(ic, stream, 8), iterate(ONES, stream, 8)
        assert (gtraj.last_index, gtraj.singular) == (traj.last_index, traj.singular)
        assert x_closed(ic, stream, 0) == GF(1)
        for m in range(1, 9):
            with pytest.raises(ClosedFormError, match=vanished(1)):
                x_closed(ic, stream, m)


class TestBareScalarsStayExact:
    def test_int_arguments_give_exact_fractions(self):
        cases = [
            (x_closed_constant(ONES, 1, 1, 3),
             iterate(ONES, CoefficientStream.constant(1, 1), 3).x(3)),
            (x_closed_constant(ONES, -1, 3, 4),
             iterate(ONES, CoefficientStream.constant(-1, 3), 4).x(4)),
        ]
        assert [value for value, _ in cases] == [Fraction(1, 4), 2]
        for value, iterated in cases:
            assert type(value) is Rational and value == iterated
