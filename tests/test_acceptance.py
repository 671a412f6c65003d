"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All oracles are independent: direct exact iteration of the
recurrence, one-step folds of the reduced map, and float identities.
"""

import csv
import json
import math
import random
from fractions import Fraction

import pytest

from ratrec.cli import main
from ratrec.closed_form import (
    ClosedFormError,
    x_closed,
    x_closed_a_neg1,
    x_closed_all,
    x_closed_constant,
)
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate, v_sequence
from ratrec.reduced import v_closed, v_step
from ratrec import symmetry
from tests.conftest import rand_seeds, rand_stream

HORIZON = 297
ONES = InitialConditions.of(1, 1, 1, 1)


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def regular(traj):
    return traj.is_regular and all(v != 0 for v in traj.values)


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1)
    run = skipped = 0
    while run < 200:
        ic, stream = rand_seeds(rng), rand_stream(rng, HORIZON)
        traj = iterate(ic, stream, HORIZON)
        if not regular(traj):
            skipped += 1
            continue
        try:
            closed = x_closed_all(ic, stream, HORIZON)
        except ClosedFormError:
            skipped += 1
            continue
        assert all(closed[m + 3] == traj.x(m) for m in range(-3, HORIZON + 1))
        run += 1
    report(1, True, f"200 instances exact to m={HORIZON} ({skipped} singular skipped)")


def test_criterion_2_worked_case_regression():
    stream = CoefficientStream.constant(1, 1)
    traj = iterate(ONES, stream, 3)
    ok = (traj.x(1), traj.x(2), traj.x(3)) == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    for m, want in ((1, Fraction(1, 2)), (2, Fraction(1, 3)), (3, Fraction(1, 4))):
        ok = ok and x_closed_constant(ONES, Fraction(1), Fraction(1), m) == want
        ok = ok and x_closed(ONES, stream, m) == want
    # x_3 sits in residue class j=0, block n=1: the s-reading of the
    # published product bounds is what makes 1/4 come out
    report(2, ok, "x_1=1/2, x_2=1/3, x_3=1/4 by iteration and both closed forms")


def test_criterion_3_reduction_identity():
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        ic, stream = rand_seeds(rng), rand_stream(rng, 200)
        traj = iterate(ic, stream, 200)
        if not regular(traj):
            continue
        vs = v_sequence(traj)
        for k in range(len(vs) - 1):
            a_k, b_k = stream.at(k)
            assert vs[k + 1] == v_step(vs[k], a_k, b_k)
        # closed form equals the fold, seeded from V_0 of this trajectory
        v = vs[0]
        for n in range(201):
            assert v_closed(vs[0], stream, n) == v
            if n < 200:
                a_n, b_n = stream.at(n)
                v = v_step(v, a_n, b_n)
        checked += 1
    report(3, True, f"V-recurrence and closed form exact on {checked} trajectories, n <= 200")


def test_criterion_4_constant_branches():
    rng = random.Random(4)
    pairs = [(Fraction(a), Fraction(b))
             for a in (1, -1, 2, -2, Fraction(1, 2)) for b in (0, 1, -1, 3)]
    for a, b in pairs:
        stream = CoefficientStream.constant(a, b)
        done = attempts = 0
        while done < 50 and attempts < 2000:
            attempts += 1
            ic = rand_seeds(rng)
            traj = iterate(ic, stream, 45)
            if not regular(traj):
                continue
            try:
                general = x_closed_all(ic, stream, 45)
            except ClosedFormError:
                continue
            for m in range(-3, 46):
                assert x_closed_constant(ic, a, b, m) == general[m + 3] == traj.x(m)
            done += 1
        assert done == 50, f"(a={a}, b={b}): only {done} regular instances"
    # a = -1 parity witness from the derivation check
    assert x_closed_a_neg1(ONES, Fraction(3), 3) == Fraction(1, 2)
    assert x_closed_a_neg1(ONES, Fraction(3), 4) == 2
    done = 0
    while done < 50:
        ic = rand_seeds(rng)
        b = Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
        if -1 + b * ic.x_m3 * ic.x_0 == 0:
            continue
        traj = iterate(ic, CoefficientStream.constant(-1, b), 45)
        if not regular(traj):
            continue
        for m in range(-3, 46):
            assert x_closed_a_neg1(ic, b, m) == traj.x(m)
        done += 1
    report(4, True, "20 (a,b) grid cells x 50 instances + 50 a=-1 parity instances, exact")


def test_criterion_5_symmetry_residuals():
    rng = random.Random(5)
    samples = [
        (rng.randrange(0, 24),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
         rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        for _ in range(500)
    ]
    worsts = {}
    for char in symmetry.builtin_characteristics():
        worsts[char.label] = symmetry.residual_sweep(char, samples)
        assert worsts[char.label] <= 1e-10
    control = symmetry.Characteristic(lambda n: complex(1.0, 0.0), "g1")
    control_worst = symmetry.residual_sweep(control, samples)
    assert control_worst >= 1e-3
    report(5, True,
           f"max residuals {worsts} <= 1e-10; control {control_worst:.3g} >= 1e-3")


def test_criterion_6_group_action_invariance():
    rng = random.Random(6)
    patterns = ([1, -1, 1, -1, 1, -1], [2, 1, -1, -2, -1, 1])
    lambdas = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)]
    done = 0
    while done < 50:
        ic, stream = rand_seeds(rng), rand_stream(rng, HORIZON)
        base = iterate(ic, stream, HORIZON)
        if not regular(base):
            continue
        pattern = patterns[done % 2]
        lam = rng.choice(lambdas)
        seeds = InitialConditions(
            *(v * lam ** pattern[k % 6] for k, v in enumerate(ic.as_tuple())))
        scaled = iterate(seeds, stream, HORIZON)
        assert scaled.is_regular
        for m in range(-3, HORIZON + 1):
            assert scaled.x(m) == base.x(m) * lam ** pattern[(m + 3) % 6]
        done += 1
    report(6, True, f"50 trials, both exponent patterns, exact to m={HORIZON}")


def test_criterion_7_weight_and_hh_identities():
    for d in range(-48, 49):
        assert abs(symmetry.weight(d) - symmetry.weight_float(d)) <= 1e-12
    for n in range(24):
        for k in range(24):
            assert abs(symmetry.hh(n + 6, k) - symmetry.hh(n, k)) <= 1e-12
            assert abs(symmetry.hh(n + 3, k) + symmetry.hh(n, k)) <= 1e-12
            assert abs(symmetry.hh(n, k + 3) + symmetry.hh(n, k)) <= 1e-12
    report(7, True, "weight trichotomy |d| <= 48; H periodicity/negation n,k <= 23")


def test_criterion_8_log_reconstruction():
    rng = random.Random(8)
    done = attempts = 0
    while done < 20 and attempts < 4000:
        attempts += 1
        ic, stream = rand_seeds(rng), rand_stream(rng, 124)
        traj = iterate(ic, stream, 120)  # V_k needed through k = 6n+j-1
        if not regular(traj):
            continue
        if not all(1e-6 <= abs(float(v)) <= 1e6 for v in traj.values):
            continue
        for j in range(6):
            for n in (0, 5, 11, 19):
                m = 6 * n + j - 3
                if m > 117:
                    continue
                got = symmetry.log_reconstruct(j, n, traj)
                want = abs(float(traj.x(m)))
                assert math.isclose(got, want, rel_tol=1e-9)
        done += 1
    report(8, done == 20,
           f"{done}/20 well-conditioned instances reconstructed to rel 1e-9 "
           f"({attempts} candidates drawn)")


def test_criterion_9_cli_contract(tmp_path):
    cfg = {
        "initial": {"x_m3": "1", "x_m2": "1", "x_m1": "1", "x_0": "1"},
        "coefficients": {"kind": "constant", "a": "1", "b": "1"},
        "horizon": 60,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    base = ["--config", str(path), "--mode", "verify",
            "--trials", "40", "--horizon", "60", "--seed", "0"]

    out_ok = tmp_path / "verify.jsonl"
    assert main(base + ["--output", "jsonl", "--out", str(out_ok)]) == 0

    out_bad = tmp_path / "corrupt.jsonl"
    assert main(base + ["--corrupt", "--output", "jsonl", "--out", str(out_bad)]) == 1
    recs = [json.loads(line) for line in out_bad.read_text().splitlines()]
    assert any("witness_index" in r for r in recs)

    jql = tmp_path / "it.jsonl"
    csvp = tmp_path / "it.csv"
    it = ["--config", str(path), "--mode", "iterate"]
    assert main(it + ["--output", "jsonl", "--out", str(jql)]) == 0
    assert main(it + ["--output", "csv", "--out", str(csvp)]) == 0
    jrecs = [json.loads(line) for line in jql.read_text().splitlines()]
    with open(csvp, newline="") as fh:
        crecs = list(csv.DictReader(fh))
    assert len(jrecs) == len(crecs)
    for j, c in zip(jrecs, crecs):
        assert list(j) == list(c)
        assert {k: str(v) for k, v in j.items()} == c
    report(9, True, "verify exits 0, corrupt hook exits 1 with witness, CSV == JSONL")
