"""Library contract of ``ratrec.verify``: skips, witnesses and report counts."""

import random
from fractions import Fraction

import pytest

from ratrec import reduced, symmetry, verify
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

    def test_random_seeds_are_nonzero(self):
        # numerators come from +-1..+-9, so run_verification never meets the
        # seed gate: every skip it counts is a singular iteration
        rng = random.Random(0)
        for _ in range(1000):
            assert 0 not in verify.random_seeds(rng).as_tuple()

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

    @pytest.mark.parametrize("entry_point, index", [
        pytest.param("x_closed_all", 10, id="x_closed_all"),
        pytest.param("x_closed", 10, id="x_closed"),
        pytest.param("x_closed_all", 7, id="x_closed_all-7"),
        pytest.param("x_closed", 7, id="x_closed-7"),
    ])
    def test_fault_at_the_horizon(self, monkeypatch, entry_point, index):
        # one closed-form entry point off by 1 at x_index only: at the horizon,
        # the last index of the identity loop and the last spot check; at 7,
        # the middle spot check
        horizon = 10
        true_fn = getattr(verify, entry_point)
        if entry_point == "x_closed_all":
            def corrupt(ic, stream, h):
                return [x + (m == index) for m, x in enumerate(true_fn(ic, stream, h), -3)]
        else:
            def corrupt(ic, stream, m):
                return true_fn(ic, stream, m) + (m == index)
        monkeypatch.setattr(verify, entry_point, corrupt)
        traj = iterate(ONES, UNIT_STREAM, horizon)
        w = check_instance(ONES, UNIT_STREAM, horizon)
        assert w is not None and w.index == index
        assert w.expected == traj.x(index)
        assert w.got == traj.x(index) + 1


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


def test_residual_sweep_size(monkeypatch):
    # the sweep draws 100 points, once per run, so its maximum is comparable
    # between runs of any trial count
    counts = []
    true_samples = symmetry.random_samples

    def counted(rng, count):
        counts.append(count)
        return true_samples(rng, count)

    monkeypatch.setattr(symmetry, "random_samples", counted)
    run_verification(trials=3, horizon=2, seed=0)
    assert counts == [100]


def test_sampler_draws_are_pinned():
    # seeds, then a stream (kind initial, then its pairs), as run_verification
    # draws them from seed 0.  An explicit stream has max(horizon, 1) pairs,
    # b may be 0, and the sixteenth draw is the first whose period would
    # change were its range 1..7
    rng = random.Random(0)
    draws = []
    for horizon in (0, 0, 0, 1, 3) + (0,) * 11:
        ic, stream = verify.random_seeds(rng), verify.random_stream(rng, horizon)
        draws.append(" ".join(map(str, ic.as_tuple())) + f" {stream.kind[0]} "
                     + " ".join(f"{a},{b}" for a, b in stream.pairs))
    assert draws == [
        "4/7 -8/5 1 4/5 p -1/3,-1 -5/2,-1/9 -1,-3",
        "1/4 9/2 3/7 1/2 l 7/8,7/5",
        "-8/9 -9/2 4 7/6 c 1,-3/4",
        "-2/3 9/8 -7/2 2/9 p 1/9,0",
        "3/2 9/4 9/5 3 l 2/3,9/4 1/3,-1 -8/5,3",
        "-7/3 -5 -7/9 4/9 p -1/2,9/7 -1/8,1 -7/6,-3/4 1/2,-2 -1/2,-1/3",
        "-2/3 5 -2 -2 l 9/2,-9/2",
        "-3/2 2 3/2 -8 c -2,3/2",
        "-8 9/7 -6/5 -7/4 c 1/6,4/3",
        "-8/9 6 -6/7 -3/5 p 7/3,-3 -4/3,1/9 -1/2,5/3 -9/8,4/9 1/6,3/5 -5/9,-9/8",
        "-7/6 -8/9 -1/3 -1/4 p 1/6,3 1/7,2 -9/4,1/3 -1/2,5/7 5,3/7",
        "-8/3 3 -1/3 2/3 p -9,1 1/8,-8/7 -1/3,-7/3 -9/7,2/3 -9/4,-9",
        "4 -3/2 -3/5 -1/3 c 1,-7",
        "-1/8 -6/5 -5/9 3/2 c -1,-8",
        "-3/5 3/2 3 7/8 l 5/6,8/3",
        "-3/7 1 -5/3 -1/6 p -7/6,-8 -1/3,-1 3/7,8/3",
    ]
