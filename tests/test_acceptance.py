"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All oracles are independent and exact: direct iteration of the
recurrence, V read off its trajectories, one-step folds of the reduced map,
the paper's weighted-product form of x_m, and powers of gamma = exp(i pi/3)
multiplied out in Q(sqrt(-3)).  Criteria 1 and 4 run the batch rule
x_t = 1/(x_{t-3} V_t) over the package's own checked fold, whose every V
they thereby check against the iteration at every index, and call the
closed form itself at the horizon and once at each residue (criterion 4's
a = -1 instances at every index).  Only the symmetry residuals
(criterion 5) are floats.
"""

import csv
import json
import random
from fractions import Fraction

from ratrec import closed_form
from ratrec.cli import main
from ratrec.closed_form import x_closed, x_closed_constant
from ratrec.core import CoefficientStream, InitialConditions
from ratrec.engine import iterate
from ratrec.reduced import v_step, v_values
from ratrec import symmetry
from ratrec.verify import random_seeds, random_stream
from tests.conftest import ONES, batch_values, gamma_pow, q_mul, v_from, weight, weighted_product

HORIZON = 297


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    # x_closed at every index of 200 instances would take minutes, so the
    # batch rule over the closed form's checked fold checks every index, and
    # x_closed is checked at H, and once at each of the six residues
    rng = random.Random(1)
    run = skipped = 0
    while run < 200:
        ic, stream = random_seeds(rng), random_stream(rng, HORIZON)
        traj = iterate(ic, stream, HORIZON)
        if not traj.is_regular:
            skipped += 1
            continue
        # a regular iteration puts every index in the closed form's domain
        closed = batch_values(ic, closed_form._v_checked(ic, stream, HORIZON))
        assert closed == list(traj.values)
        ms = range(HORIZON - 5, HORIZON + 1) if run == 0 else (HORIZON,)
        assert all(x_closed(ic, stream, m) == traj.x(m) for m in ms)
        run += 1
    report(1, True, f"200 instances exact to m={HORIZON}, x_closed at m={HORIZON} "
                    f"and at every residue once ({skipped} singular skipped)")


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
        ic, stream = random_seeds(rng), random_stream(rng, 200)
        traj = iterate(ic, stream, 200)
        if not traj.is_regular:
            continue
        vs = [v_from(traj, k) for k in range(201)]
        for k in range(len(vs) - 1):
            a_k, b_k = stream.at(k)
            assert vs[k + 1] == v_step(vs[k], a_k, b_k)
        # closed form equals the fold, seeded from V_0 of this trajectory
        fold = [vs[0]]
        for n in range(200):
            fold.append(v_step(fold[-1], *stream.at(n)))
        assert list(v_values(vs[0], stream, 200)) == fold
        checked += 1
    report(3, True, f"V-recurrence and closed form exact on {checked} trajectories, n <= 200")


def test_criterion_4_constant_branches():
    # as in criterion 1, the batch rule over the closed form's checked fold
    # checks every index of each grid instance, and x_closed_constant is
    # checked at m=45, and once per cell at each of the six residues
    rng = random.Random(4)
    pairs = [(Fraction(a), Fraction(b))
             for a in (1, -1, 2, -2, Fraction(1, 2)) for b in (0, 1, -1, 3)]
    for a, b in pairs:
        stream = CoefficientStream.constant(a, b)
        done = attempts = 0
        while done < 50 and attempts < 2000:
            attempts += 1
            ic = random_seeds(rng)
            traj = iterate(ic, stream, 45)
            if not traj.is_regular:
                continue
            assert batch_values(ic, closed_form._v_checked(ic, stream, 45)) == list(traj.values)
            ms = range(40, 46) if done == 0 else (45,)
            assert all(x_closed_constant(ic, a, b, m) == traj.x(m) for m in ms)
            done += 1
        assert done == 50, f"(a={a}, b={b}): only {done} regular instances"
    # a = -1 parity witness from the derivation check
    assert x_closed(ONES, CoefficientStream.constant(-1, 3), 3) == Fraction(1, 2)
    assert x_closed(ONES, CoefficientStream.constant(-1, 3), 4) == 2
    done = 0
    while done < 50:
        ic = random_seeds(rng)
        b = Fraction(rng.choice([k for k in range(-9, 10) if k]), rng.randint(1, 9))
        stream = CoefficientStream.constant(-1, b)
        traj = iterate(ic, stream, 45)
        if not traj.is_regular:
            continue
        for m in range(-3, 46):
            assert x_closed(ic, stream, m) == traj.x(m)
        done += 1
    report(4, True, "20 (a,b) grid cells x 50 instances exact to m=45 by the batch rule, "
                    "x_closed_constant at m=45 and at every residue once; "
                    "50 a=-1 parity instances by x_closed at every m <= 45")


def test_criterion_5_symmetry_residuals():
    samples = symmetry.random_samples(random.Random(5), 500)
    worsts = {}
    for label, g in symmetry.BUILTINS.items():
        worsts[label] = symmetry.residual_sweep(g, samples)
        assert worsts[label] <= 1e-10
    control_worst = symmetry.residual_sweep(symmetry.CONTROL, samples)
    assert control_worst >= 1e-3
    report(5, True,
           f"max residuals {worsts} <= 1e-10; control {control_worst:.3g} >= 1e-3")


def test_criterion_6_group_action_invariance():
    rng = random.Random(6)
    patterns = ([1, -1, 1, -1, 1, -1], [2, 1, -1, -2, -1, 1])
    lambdas = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)]
    done = 0
    while done < 50:
        ic, stream = random_seeds(rng), random_stream(rng, HORIZON)
        base = iterate(ic, stream, HORIZON)
        if not base.is_regular:
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
    gamma = {d: gamma_pow(d) for d in range(-48, 49)}
    for d in range(-48, 49):
        # Re gamma^d = cos(d pi/3)
        assert 3 * weight(d) == (-1) ** (d % 2) + 2 * gamma[d][0]
    assert gamma[6] == (1, 0) and gamma[3] == (-1, 0)
    for n in range(24):
        for k in range(24):
            hh = q_mul(gamma[n], gamma[-k])
            minus_hh = (-hh[0], -hh[1])
            assert q_mul(gamma[n + 6], gamma[-k]) == hh
            assert q_mul(gamma[n + 3], gamma[-k]) == minus_hh
            assert q_mul(gamma[n], gamma[-k - 3]) == minus_hh
    report(7, True, "weight trichotomy |d| <= 48; gamma^6 = 1, gamma^3 = -1; "
                    "H periodicity/negation n,k <= 23; exact in Q(sqrt(-3))")


def test_criterion_8_log_reconstruction():
    rng = random.Random(8)
    done = 0
    while done < 40:
        ic, stream = random_seeds(rng), random_stream(rng, 124)
        traj = iterate(ic, stream, 119)  # V_k needed through k = 6n+j-1 = m+2
        if not traj.is_regular:
            continue
        for m in range(-3, 118):
            assert weighted_product(traj, m) == traj.x(m)
        done += 1
    report(8, True, "x_m = H_j prod V_k^w(j-k) exactly at every m <= 117 "
                    "on 40 instances")


def test_criterion_9_cli_contract(tmp_path, request):
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

    check_witness = request.getfixturevalue("corrupt_closed_form")
    out_bad = tmp_path / "corrupt.jsonl"
    assert main(base + ["--output", "jsonl", "--out", str(out_bad)]) == 1
    [rec] = [json.loads(line) for line in out_bad.read_text().splitlines()]
    check_witness(rec)

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
    report(9, True, "verify exits 0, a corrupted V fold exits 1 with its witness, "
                   "CSV == JSONL")
