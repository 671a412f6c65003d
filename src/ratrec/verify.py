"""Randomized oracle-equivalence verification.

Draws random rational seeds and coefficient streams (numerators from
[-9, 9], denominators from [1, 9]; only a coefficient b may be 0), iterates
the recurrence exactly, and checks the folded V_t against the iteration's
own window products p_t = x_{t-3} x_t (the V-reduction identity) and the
per-index block product over that one fold at three indices; every witness
value is that block product's.  Instances that hit a singularity are skipped
and counted, not failed.  The float symmetry-residual sweep is only reported.
"""

from __future__ import annotations

import random
from collections import namedtuple

from ratrec.closed_form import _block_product, _v_checked
from ratrec.core import (
    STREAM_KINDS, CoefficientStream, InitialConditions, Rational, decompose_index)
from ratrec.engine import iterate
from ratrec import symmetry

RESIDUAL_SAMPLES = 100  # points in the symmetry-residual sweep
# the numerators a draw chooses from, in order: rng.choice reads only the
# length and the order of its sequence
_NUMERATORS = tuple(range(-9, 10))
_NONZERO_NUMERATORS = tuple(k for k in _NUMERATORS if k != 0)


def random_rational(rng: random.Random, nonzero: bool = True) -> Rational:
    num = rng.choice(_NONZERO_NUMERATORS if nonzero else _NUMERATORS)
    den = rng.randint(1, 9)
    return Rational(num, den)


def random_stream(rng: random.Random, horizon: int) -> CoefficientStream:
    kind = rng.choice(STREAM_KINDS)
    if kind == "constant":
        count = 1
    elif kind == "periodic":
        count = rng.randint(1, 6)
    else:
        # an explicit stream cannot be empty, even at horizon 0
        count = max(horizon, 1)
    return CoefficientStream(kind, tuple(
        (random_rational(rng, nonzero=True), random_rational(rng, nonzero=False))
        for _ in range(count)))


def random_seeds(rng: random.Random) -> InitialConditions:
    return InitialConditions(*(random_rational(rng, nonzero=True) for _ in range(4)))


class Witness(namedtuple("Witness", "seeds stream index expected got")):
    """Minimal failing instance for a verification mismatch."""

    __slots__ = ()


class VerificationReport(namedtuple(
        "VerificationReport", "trials_run trials_skipped max_symmetry_residual witness")):
    """One run's counts, its symmetry residual and its first Witness, or None."""

    __slots__ = ()

    @property
    def all_exact_match(self) -> bool:
        return self.witness is None


def check_instance(ic: InitialConditions, stream: CoefficientStream,
                   horizon: int) -> Witness | None:
    """Check the V reduction at every index, and the block product at three.

    Each V_t, t = 1..horizon-1, of the closed form's checked fold (V_0 is its
    start) must equal 1/p_t for the window product p_t = x_{t-3} x_t that the
    iteration formed at step t.  The block product over that same fold,
    x_closed's value, is checked at indices 0, min(7, horizon) and horizon
    (the last also decides V_horizon) and gives every witness its value.
    Returns None on agreement, a Witness on the first mismatch; raises _Skip
    unless the iteration is regular and the seeds are nonzero, which puts
    the whole instance inside the closed form's domain.  The seed gate is for
    direct callers: ``random_seeds`` never draws a zero seed.
    """
    traj = iterate(ic, stream, horizon)
    if not traj.is_regular or not ic.all_nonzero():
        raise _Skip
    vs = _v_checked(ic, stream, horizon)
    # x_closed(m) = 1/(x_{m-3} V_m) once V_0..V_{m-1} are the iteration's 1/p:
    # it is x_m exactly when V_m p_m = 1, so the spot check decides V_horizon
    for t in range(1, horizon):
        if vs[t] * traj.products[t] != 1:
            return Witness(ic, stream, t, traj.x(t), _block_product(ic, vs, *decompose_index(t)))
    for m in (0, min(7, horizon), horizon):
        got = _block_product(ic, vs, *decompose_index(m))
        if got != traj.x(m):
            return Witness(ic, stream, m, traj.x(m), got)
    return None


class _Skip(Exception):
    pass


def run_verification(trials: int, horizon: int, seed: int) -> VerificationReport:
    """Run the randomized oracle-equivalence suite plus a residual sweep.

    Raises ValueError for fewer than one trial: an empty run checks nothing."""
    if trials < 1:
        raise ValueError(f"verification needs trials >= 1, got {trials}")
    rng = random.Random(seed)
    run = skipped = 0
    first = None
    for _ in range(trials):
        ic = random_seeds(rng)
        stream = random_stream(rng, horizon)
        try:
            witness = check_instance(ic, stream, horizon)
        except _Skip:
            skipped += 1
            continue
        run += 1
        if first is None:
            first = witness
    samples = symmetry.random_samples(rng, RESIDUAL_SAMPLES)
    residual = max(symmetry.residual_sweep(g, samples) for g in symmetry.BUILTINS.values())
    return VerificationReport(run, skipped, residual, first)
