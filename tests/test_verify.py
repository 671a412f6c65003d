"""Library contract of ``ratrec.verify``: skips, witnesses and report counts."""

import random
from fractions import Fraction

import pytest

from ratrec import closed_form, reduced, symmetry, verify
from ratrec.closed_form import ClosedFormError, x_closed
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate
from ratrec.verify import Witness, _Skip, check_instance, run_verification
from tests.conftest import (
    ONES, UNIT_STREAM, batch_values, corrupt_fold, small_pair, small_rational, v_from)


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
        # the witness value is the closed form's, read from the same faulty fold
        assert w.got == x_closed(ONES, stream, w.index)

    @pytest.mark.parametrize("entry_point, index", [
        pytest.param("v_fold", 10, id="v_fold"),
        pytest.param("block_product", 10, id="x_closed"),
        pytest.param("v_fold", 7, id="v_fold-7"),
        pytest.param("block_product", 7, id="x_closed-7"),
    ])
    def test_fault_at_the_horizon(self, monkeypatch, entry_point, index):
        # the closed form's V_index, or x_closed's x_index as verify forms it
        # (the block product over its fold), off by 1 at that index only: at
        # the horizon, the last index of the identity loop and the last spot
        # check; at 7, the middle spot check
        horizon = 10
        traj = iterate(ONES, UNIT_STREAM, horizon)
        if entry_point == "v_fold":
            corrupt_fold(monkeypatch, lambda t, v: v + (t == index))
            # the batch value 1/(x_{index-3} V_index) of the faulty V
            want = 1 / (traj.x(index - 3) * (v_from(traj, index) + 1))
        else:
            true_fn = verify._block_product
            monkeypatch.setattr(verify, "_block_product", lambda ic, vs, n, j:
                                true_fn(ic, vs, n, j) + (6 * n + j - 3 == index))
            want = traj.x(index) + 1
        w = check_instance(ONES, UNIT_STREAM, horizon)
        assert w is not None and w.index == index
        assert w.expected == traj.x(index)
        assert w.got == want
        if entry_point == "v_fold":
            assert w.got == x_closed(ONES, UNIT_STREAM, index)

    @pytest.mark.parametrize("fault_at", [None, 1, 4, 9])
    def test_block_products_formed(self, monkeypatch, fault_at):
        # the three spot checks on an instance that agrees; on a fold fault
        # at t < horizon, the witness alone: no value is formed at an index
        # that passed the V check
        calls = []
        true_fn = verify._block_product

        def counted(ic, vs, n, j):
            calls.append(6 * n + j - 3)
            return true_fn(ic, vs, n, j)

        monkeypatch.setattr(verify, "_block_product", counted)
        if fault_at is not None:
            corrupt_fold(monkeypatch, lambda t, v: v + (t == fault_at))
        w = check_instance(ONES, UNIT_STREAM, 10)
        if fault_at is None:
            assert w is None and calls == [0, 7, 10]
        else:
            assert w is not None and w.index == fault_at and calls == [fault_at]

    @pytest.mark.parametrize("instance", [
        pytest.param((ONES, UNIT_STREAM), id="unit"),
        pytest.param((InitialConditions.of(2, -1, Fraction(1, 3), 5),
                      CoefficientStream.periodic([(2, 1), (Fraction(1, 2), -3), (-1, 4)])),
                     id="periodic"),
    ])
    @pytest.mark.parametrize("horizon", range(1, 14))
    def test_fault_at_v_horizon(self, monkeypatch, instance, horizon):
        # V_horizon alone off: no step formed p_horizon, so the spot check
        # x_closed(horizon) == x_horizon decides it, at every residue of the
        # horizon, below 7 (where min(7, horizon) is the horizon) and at 7
        ic, stream = instance
        assert iterate(ic, stream, horizon).is_regular
        monkeypatch.setattr(closed_form, "v_values", fold_off_at(horizon - 1, Fraction(1, 7)))
        w, want = check_instance(ic, stream, horizon), batch_check(ic, stream, horizon)
        assert w is not None and want is not None
        assert w.seeds == want.seeds and w.stream == want.stream
        assert w.index == want.index == horizon
        assert w.expected == want.expected
        assert w.got == want.got == x_closed(ic, stream, horizon)


def batch_check(ic, stream, horizon):
    """The check ``check_instance`` made when it built the batch values: the
    batch rule over the closed form's checked fold against the iteration at
    every index, then ``x_closed`` against the batch values at three
    indices.  The fold is ``closed_form``'s, so a fault injected in it, and
    the ClosedFormError it raises, reach this check too."""
    traj = iterate(ic, stream, horizon)
    if not traj.is_regular or not ic.all_nonzero():
        raise _Skip
    closed = batch_values(ic, closed_form._v_checked(ic, stream, horizon))
    for m in range(-3, horizon + 1):
        if closed[m + 3] != traj.x(m):
            return Witness(ic, stream, m, traj.x(m), closed[m + 3])
    for m in (0, min(7, horizon), horizon):
        got = x_closed(ic, stream, m)
        if got != closed[m + 3]:
            return Witness(ic, stream, m, closed[m + 3], got)
    return None


def outcome(check, ic, stream, horizon):
    """None, a Witness, or the class and message of the exception the check
    raised: a domain error's message names the rule that fired and the index."""
    try:
        return check(ic, stream, horizon)
    except (_Skip, ClosedFormError) as exc:
        return type(exc), str(exc)


def fold_off_at(k, c):
    """The V fold with ``reduced.v_step`` off by c at step k only: V_{k+1}
    is off by c, and every later V follows from it."""
    def v_values(v0, coeffs, n):
        v = v0
        yield v
        for t in range(n):
            v = reduced.v_step(v, *coeffs.at(t)) + (c if t == k else 0)
            yield v
    return v_values


def test_same_outcomes_as_the_batch_check(monkeypatch):
    # the sampler's own instances, and every other one from {0, +-1/2, +-1,
    # +-2}, so that zero seeds and singular iterations are skipped
    rng = random.Random(18)
    seen = set()
    for i in range(240):
        horizon = rng.randint(0, 40)
        if i % 2:
            ic = InitialConditions.of(*(small_rational(rng) for _ in range(4)))
            stream = CoefficientStream.periodic(
                [small_pair(rng) for _ in range(rng.randint(1, 6))])
        else:
            ic, stream = verify.random_seeds(rng), verify.random_stream(rng, horizon)
        k, c = rng.randrange(max(horizon, 1)), verify.random_rational(rng)
        for fault in (False, True):
            with monkeypatch.context() as patch:
                if fault:
                    patch.setattr(closed_form, "v_values", fold_off_at(k, c))
                want = outcome(batch_check, ic, stream, horizon)
                assert outcome(check_instance, ic, stream, horizon) == want
            seen.add((fault, want[0] if isinstance(want, tuple) else type(want)))
    assert seen >= {(False, _Skip), (False, type(None)), (True, _Skip), (True, Witness)}
    # V_t = t + 1 on the unit instance: a fault of -5 at step 3 makes V_4
    # vanish, and both checks raise where the fold meets it
    monkeypatch.setattr(closed_form, "v_values", fold_off_at(3, -5))
    assert (outcome(check_instance, ONES, UNIT_STREAM, 10)
            == outcome(batch_check, ONES, UNIT_STREAM, 10)
            == (ClosedFormError, "V(4) vanished: x_4 does not exist"))


def test_vanished_last_v_comes_before_a_witness(monkeypatch):
    # V_t = t + 1 on the unit instance: a fault of -11 at step 3 puts V_4
    # off, a witness at 4, and makes V_10 vanish.  The check folds to the
    # horizon first, as the batch check does, so the domain error wins
    monkeypatch.setattr(closed_form, "v_values", fold_off_at(3, -11))
    assert (outcome(check_instance, ONES, UNIT_STREAM, 10)
            == outcome(batch_check, ONES, UNIT_STREAM, 10)
            == (ClosedFormError, "V(10) vanished: x_10 does not exist"))


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
