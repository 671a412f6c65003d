"""Randomized oracle-equivalence verification.

Draws random rational seeds and coefficient streams (numerators from
[-9, 9], denominators from [1, 9]; only a coefficient b may be 0), iterates
the recurrence exactly, and compares the batch closed form with it at every
index (which decides the V-reduction identity) and the per-index block
product at three indices, plus a symmetry-residual sweep.
Instances that hit a singularity are skipped and counted, not failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ratrec.closed_form import x_closed, x_closed_all
from ratrec.core import CoefficientStream, InitialConditions, Rational
from ratrec.engine import iterate
from ratrec import symmetry

RESIDUAL_SAMPLES = 100  # points in the symmetry-residual sweep


def random_rational(rng: random.Random, nonzero: bool = True) -> Rational:
    num = rng.choice([k for k in range(-9, 10) if k != 0 or not nonzero])
    den = rng.randint(1, 9)
    return Fraction(num, den)


def random_stream(rng: random.Random, horizon: int) -> CoefficientStream:
    kind = rng.choice(["constant", "periodic", "list"])
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
    return InitialConditions.of(*(random_rational(rng, nonzero=True) for _ in range(4)))


@dataclass
class Witness:
    """Minimal failing instance for a verification mismatch."""

    seeds: InitialConditions
    stream: CoefficientStream
    index: int
    expected: Rational
    got: Rational


@dataclass
class VerificationReport:
    trials_run: int = 0
    trials_skipped: int = 0
    max_symmetry_residual: float = 0.0
    witness: Optional[Witness] = None
    indices_checked: int = 0

    @property
    def all_exact_match(self) -> bool:
        return self.witness is None


def check_instance(ic: InitialConditions, stream: CoefficientStream,
                   horizon: int) -> Optional[Witness]:
    """Compare the batch closed form with the iteration at every index.

    ``x_closed_all`` sets x_k = 1/(x_{k-3} V_k) from the fold of
    V_{k+1} = a_k V_k + b_k, so it matches the iteration exactly when every
    folded V_k is 1/(x_{k-3} x_k): the loop checks the V reduction at every
    index.  Only ``x_closed`` forms the paper's strided block product, and
    it is checked at indices 0, min(7, horizon) and horizon.
    Returns None on agreement, a Witness on the first mismatch; raises _Skip
    unless the iteration is regular and the seeds are nonzero, which puts
    the whole instance inside the closed form's domain.  The seed gate is for
    direct callers: ``random_seeds`` never draws a zero seed.
    """
    traj = iterate(ic, stream, horizon)
    if not traj.is_regular or not ic.all_nonzero():
        raise _Skip
    closed = x_closed_all(ic, stream, horizon)
    for m in range(-3, horizon + 1):
        if closed[m + 3] != traj.x(m):
            return Witness(ic, stream, m, traj.x(m), closed[m + 3])
    # the strided block product: spot-check the per-index entry point
    # against the batch values
    for m in (0, min(7, horizon), horizon):
        got = x_closed(ic, stream, m)
        if got != closed[m + 3]:
            return Witness(ic, stream, m, closed[m + 3], got)
    return None


class _Skip(Exception):
    pass


def run_verification(trials: int, horizon: int, seed: int) -> VerificationReport:
    """Run the randomized oracle-equivalence suite plus a residual sweep.

    Raises ValueError for fewer than one trial: an empty run checks nothing."""
    if trials < 1:
        raise ValueError(f"verification needs trials >= 1, got {trials}")
    rng = random.Random(seed)
    report = VerificationReport()
    for _ in range(trials):
        ic = random_seeds(rng)
        stream = random_stream(rng, horizon)
        try:
            witness = check_instance(ic, stream, horizon)
        except _Skip:
            report.trials_skipped += 1
            continue
        report.trials_run += 1
        report.indices_checked += horizon + 4
        if report.witness is None:
            report.witness = witness
    samples = symmetry.random_samples(rng, RESIDUAL_SAMPLES)
    report.max_symmetry_residual = max(
        symmetry.residual_sweep(g, samples) for g in symmetry.BUILTINS.values())
    return report
