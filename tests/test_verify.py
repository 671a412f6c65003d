"""Library contract of ``ratrec.verify``: skips, witnesses and report counts."""

from fractions import Fraction

import pytest

from ratrec import reduced, verify
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate
from ratrec.verify import _Skip, check_instance, run_verification

ONES = InitialConditions.of(1, 1, 1, 1)
UNIT_STREAM = CoefficientStream.constant(1, 1)


class TestSkips:
    def test_zero_seed(self):
        ic = InitialConditions.of(0, 1, 1, 1)
        # the iteration itself is regular this far, so only the seed gate skips
        assert iterate(ic, UNIT_STREAM, 3).is_regular
        with pytest.raises(_Skip):
            check_instance(ic, UNIT_STREAM, 3)

    def test_singular_at_step_0(self):
        stream = CoefficientStream.periodic([(-1, 1), (2, 1)])
        with pytest.raises(_Skip):
            check_instance(ONES, stream, 5)


class TestWitness:
    def test_fold_fault_names_an_iterated_value(self, monkeypatch):
        # V_{k+1} = a_k V_k + b_k off by 1/7 at step k = 4 only, picked out by
        # the one coefficient pair that occurs there
        k, horizon = 4, 10
        pairs = [(Fraction(1), Fraction(1))] * (horizon + 1)
        pairs[k] = (Fraction(2), Fraction(1, 3))
        stream = CoefficientStream.explicit(pairs)
        true_step = reduced.v_step
        monkeypatch.setattr(reduced, "v_step", lambda v, a, b: true_step(v, a, b)
                            + (Fraction(1, 7) if (a, b) == pairs[k] else 0))
        traj = iterate(ONES, stream, horizon)
        assert traj.is_regular
        w = check_instance(ONES, stream, horizon)
        assert w is not None and w.index == k + 1
        assert w.expected == traj.x(w.index)
        assert w.got != w.expected

    @pytest.mark.parametrize("entry_point", ["x_closed_all", "x_closed"])
    def test_fault_at_the_horizon(self, monkeypatch, entry_point):
        # one closed-form entry point off by 1 at x_horizon only: the last
        # index of the identity loop, and the last spot check
        horizon = 10
        true_fn = getattr(verify, entry_point)
        if entry_point == "x_closed_all":
            def corrupt(ic, stream, h):
                return [x + (m == horizon) for m, x in enumerate(true_fn(ic, stream, h), -3)]
        else:
            def corrupt(ic, stream, m):
                return true_fn(ic, stream, m) + (m == horizon)
        monkeypatch.setattr(verify, entry_point, corrupt)
        traj = iterate(ONES, UNIT_STREAM, horizon)
        w = check_instance(ONES, UNIT_STREAM, horizon)
        assert w is not None and w.index == horizon
        assert w.expected == traj.x(horizon)
        assert w.got == traj.x(horizon) + 1


def test_one_trial():
    report = run_verification(trials=1, horizon=7, seed=3)
    assert report.trials_run + report.trials_skipped == 1


@pytest.mark.parametrize("horizon", [0, 7, 40])
def test_report_counts(horizon):
    trials = 20
    report = run_verification(trials=trials, horizon=horizon, seed=3)
    assert report.trials_run + report.trials_skipped == trials
    # every run trial checks x_{-3}..x_horizon
    assert report.indices_checked == report.trials_run * (horizon + 4)
    assert report.all_exact_match and report.witness is None
