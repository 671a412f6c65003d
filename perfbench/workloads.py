"""The three workloads: seeded inputs, requests, and output checks.

Inputs come from this module's own generator, never from the package's
samplers, so a change to the package cannot silently change them.  A
workload is an endless series of rounds; round r is drawn from
``random.Random(f"{workload}:{seed}:{r}")`` and always has the same shape
(the same modes, stream kinds and sizes), so every run of any length sees
the same mix, and only the random draws differ from seed to seed.

Every request's output is checked against ``oracle``.  A check failure is
a wrong answer and makes the run incorrect; an exception escaping the
package is a failed request, recorded with its error class.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import oracle
import ratrec.cli
from ratrec import closed_form, verify
from ratrec.core import CoefficientStream, InitialConditions

# Every drawn rational is +-5/8 or +-7/6: a height of 5.3 or 5.4 bits, never
# +-1, and no cancellation in a product of drawn coefficients (numerators
# are made of 5 and 7, denominators of 2 and 3).  Heights therefore grow at
# the same rate whatever the seed, and no draw lands on a special branch by
# accident.
_MAGNITUDES = (Fraction(5, 8), Fraction(7, 6))

# constant-stream branches are drawn on purpose: a = 1, a = -1, general a
STREAM_KINDS = ("a1", "aneg1", "constant", "periodic", "list")
PERIOD = 3


def _rational(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * rng.choice(_MAGNITUDES)


def log_grid(lo: int, hi: int, count: int) -> List[int]:
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _height(num: int, den: int) -> int:
    return max(num.bit_length(), den.bit_length())


@dataclass(frozen=True)
class Instance:
    """Seeds x_{-3..0} and a coefficient stream, in the oracle's terms."""

    seeds: Tuple[Fraction, ...]
    kind: str  # constant | periodic | list
    pairs: Tuple[Tuple[Fraction, Fraction], ...]

    def describe(self) -> dict:
        return {"seeds": [_text(s) for s in self.seeds], "kind": self.kind,
                "pairs": [[_text(a), _text(b)] for a, b in self.pairs]}

    def config(self) -> dict:
        names = ("x_m3", "x_m2", "x_m1", "x_0")
        coeffs = {"kind": self.kind}
        if self.kind == "constant":
            coeffs["a"], coeffs["b"] = (_text(v) for v in self.pairs[0])
        else:
            coeffs["pairs"] = [[_text(a), _text(b)] for a, b in self.pairs]
        return {"initial": {k: _text(v) for k, v in zip(names, self.seeds)},
                "coefficients": coeffs}


def draw_instance(rng: random.Random, stream_kind: str, horizon: int) -> Instance:
    """A regular instance (no vanishing denominator through ``horizon``)."""
    while True:
        seeds = tuple(_rational(rng) for _ in range(4))
        if stream_kind in ("a1", "aneg1"):
            a = Fraction(1 if stream_kind == "a1" else -1)
            kind, pairs = "constant", ((a, _rational(rng)),)
        elif stream_kind == "constant":
            kind, pairs = "constant", ((_rational(rng), _rational(rng)),)
        else:
            count = PERIOD if stream_kind == "periodic" else horizon + 1
            kind = stream_kind
            pairs = tuple((_rational(rng), _rational(rng)) for _ in range(count))
        inst = Instance(seeds, kind, pairs)
        if oracle.is_regular(inst.seeds, inst.kind, inst.pairs, horizon):
            return inst


@dataclass
class Outcome:
    seconds: float
    error: Optional[str] = None   # class of an exception that escaped
    detail: str = ""
    values: int = 0               # exact values produced and checked
    out_bits: int = 0             # sum of their heights
    wrong: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    drawn: str = ""               # instances the package's sampler drew


@dataclass
class Request:
    """One closed-loop request: ``call`` is timed, ``check`` is not."""

    label: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], Outcome]

    def execute(self) -> Outcome:
        start = perf_counter()
        try:
            result = self.call()
        except Exception as exc:  # a crash is a failed request, never a pass
            seconds = perf_counter() - start
            return Outcome(seconds, error=type(exc).__name__, detail=str(exc)[:200])
        seconds = perf_counter() - start
        try:
            outcome = self.check(result)
        except (KeyError, TypeError, ValueError) as exc:
            outcome = Outcome(0.0, wrong=[f"malformed output: {exc!r}"])
        outcome.seconds = seconds
        outcome.wrong = [f"{self.label}: {w}" for w in outcome.wrong]
        return outcome


class _Cli(NamedTuple):
    """Result of an in-process ``ratrec.cli.main(argv)`` call."""

    code: Optional[int]
    stdout: str
    stderr: str


def _cli_call(argv: List[str]) -> Callable[[], _Cli]:
    def call() -> _Cli:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = ratrec.cli.main(argv)
        return _Cli(code, out.getvalue(), err.getvalue())
    return call


def _records(text: str, fmt: str) -> List[dict]:
    if fmt == "jsonl":
        return [json.loads(line) for line in text.splitlines() if line]
    return list(csv.DictReader(io.StringIO(text)))


def _exact(text: str) -> Tuple[int, int]:
    num, _, den = str(text).partition("/")
    return int(num), int(den or 1)


def _check_values(inst: Instance, got: Dict[int, Tuple[int, int]], out: Outcome) -> None:
    try:
        bad = oracle.mismatches(inst.seeds, inst.kind, inst.pairs, got)
    except oracle.OracleError as exc:
        out.wrong.append(f"uncheckable: {exc}")
        return
    out.wrong += [f"x_{m} differs from the recurrence" for m in bad[:3]]
    out.values += len(got)
    out.out_bits += sum(_height(n, d) for n, d in got.values())


# ---------------------------------------------------------------------------
# verify-random: the paper's workflow, CLI --mode verify requests

# (horizon, requests per round): the median and the tail both fall among
# the H=300 requests, whose big-number work drifts least with the speed of
# a shared machine.  Above H=300 the cost of a trial from the package's
# sampler is too skewed (at H=400 its tenth decile costs 9x the first) for
# a steady figure within a run.
VERIFY_PLAN = ((20, 1), (60, 2), (150, 2), (300, 8))
VERIFY_TRIALS = 4


def sampler_draws(seed: int, horizon: int) -> str:
    """The instances ``verify.run_verification`` draws for this request,
    replayed through the package's sampler, as text.  A change to the
    sampler changes the work a verify request does, and this text."""
    rng = random.Random(seed)
    try:
        draws = []
        for _ in range(VERIFY_TRIALS):
            ic = verify.random_seeds(rng)
            stream = verify.random_stream(rng, horizon)
            draws.append([[_text(x) for x in ic.as_tuple()], stream.kind,
                          [[_text(a), _text(b)] for a, b in stream.pairs]])
    except Exception as exc:  # the sampler's interface changed
        return f"replay failed: {type(exc).__name__}"
    return json.dumps(draws)


def _verify_round(rng: random.Random, r: int, tmpdir: str) -> List[Request]:
    config = os.path.join(tmpdir, "verify.json")
    if not os.path.exists(config):
        inst = draw_instance(random.Random(0), "constant", 1)
        with open(config, "w") as fh:
            json.dump(inst.config(), fh)
    requests = []
    for horizon in (h for h, count in VERIFY_PLAN for _ in range(count)):
        seed = rng.getrandbits(32)
        argv = ["--config", config, "--mode", "verify", "--output", "jsonl",
                "--trials", str(VERIFY_TRIALS), "--horizon", str(horizon),
                "--seed", str(seed)]

        def check(res: _Cli, horizon=horizon, seed=seed) -> Outcome:
            out = Outcome(0.0)
            recs = _records(res.stdout, "jsonl")
            if res.code != 0 or len(recs) != 1 or recs[0].get("all_exact_match") is not True:
                out.wrong.append(f"exit {res.code}, report {recs}")
                return out
            run, skipped = recs[0]["trials_run"], recs[0]["trials_skipped"]
            if run + skipped != VERIFY_TRIALS:
                out.wrong.append(f"{run} run + {skipped} skipped != {VERIFY_TRIALS} trials")
            # every index -3..horizon of every trial run is compared exactly
            out.values = run * (horizon + 4)
            out.counts = {"trials_run": run, "trials_skipped": skipped,
                          "indices_checked": out.values}
            out.drawn = sampler_draws(seed, horizon)
            return out

        requests.append(Request(f"verify H={horizon} seed={seed}",
                                {"horizon": horizon, "trials": VERIFY_TRIALS, "seed": seed},
                                _cli_call(argv), check))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# closed-deep: single deep values from library calls, as cli.cmd_closed makes
# them (the CLI cannot print values above 4300 digits).  Functions are looked
# up on the module at call time so that a traced run sees them.

DEEP_INDICES = (600, 1050, 1500)


def _deep_round(rng: random.Random, r: int, tmpdir: str) -> List[Request]:
    requests = []
    for m in DEEP_INDICES:
        for stream_kind in STREAM_KINDS:
            inst = draw_instance(rng, stream_kind, m)
            ic = InitialConditions(*inst.seeds)
            if inst.kind == "constant":
                a, b = inst.pairs[0]
                call = (lambda ic=ic, a=a, b=b, m=m:
                        closed_form.x_closed_constant(ic, a, b, m))
            else:
                ctor = (CoefficientStream.periodic if inst.kind == "periodic"
                        else CoefficientStream.explicit)
                stream = ctor(inst.pairs)
                call = (lambda ic=ic, stream=stream, m=m:
                        closed_form.x_closed(ic, stream, m))

            def check(value: Fraction, inst=inst, m=m) -> Outcome:
                out = Outcome(0.0)
                _check_values(inst, {m: (value.numerator, value.denominator)}, out)
                return out

            requests.append(Request(f"closed {stream_kind} m={m}",
                                    {"m": m, **inst.describe()}, call, check))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# cli-mix: many short CLI requests, each reading its own config file

MIX_SIZES = log_grid(8, 400, 11)
MIX_KINDS = ("constant", "periodic", "list")
SYMMETRY_LABELS = ("alternating", "gamma", "gamma-conjugate", "control-g1")


def _mix_check(mode: str, fmt: str, inst: Instance, size: int):
    def check(res: _Cli) -> Outcome:
        out = Outcome(0.0)
        if res.code != 0:
            out.wrong.append(f"exit {res.code}: {res.stderr.strip()[:200]}")
            return out
        recs = _records(res.stdout, fmt)
        if mode == "symmetry":
            labels = tuple(rec["characteristic"] for rec in recs)
            passed = all(rec["pass"] in (True, "True") for rec in recs)
            if labels != SYMMETRY_LABELS or not passed:
                out.wrong.append(f"symmetry verdicts {recs}")
            return out
        if mode == "closed":
            want_branch = "general"
            if inst.kind == "constant":
                a = inst.pairs[0][0]
                want_branch = "a1" if a == 1 else "aneg1" if a == -1 else "aneq1"
            if (len(recs) != 1 or int(recs[0]["m"]) != size
                    or recs[0]["branch"] != want_branch):
                out.wrong.append(f"closed record {recs}")
                return out
            got = {size: _exact(recs[0]["value"])}
        else:
            rows = [int(rec["m"]) for rec in recs]
            if rows != list(range(-3, size + 1)) or any(rec["status"] != "ok" for rec in recs):
                out.wrong.append(f"iterate rows {rows[:3]}..{rows[-3:]} for horizon {size}")
                return out
            got = {int(rec["m"]): _exact(rec["x"]) for rec in recs}
        _check_values(inst, got, out)
        return out
    return check


def _mix_round(rng: random.Random, r: int, tmpdir: str) -> List[Request]:
    plan = [(mode, kind, size) for size in MIX_SIZES
            for mode, kind in [("iterate", k) for k in MIX_KINDS]
            + [("closed", k) for k in MIX_KINDS] + [("symmetry", "constant")]]
    rng.shuffle(plan)
    requests = []
    for k, (mode, kind, size) in enumerate(plan):
        inst = draw_instance(rng, kind, size)
        raw = inst.config()
        raw["seed"] = rng.getrandbits(32)
        if mode == "iterate":
            raw["horizon"] = size
        elif mode == "closed":
            raw["index"] = size
        else:
            raw["trials"] = size
        path = os.path.join(tmpdir, f"mix-{r}-{k}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        fmt = ("csv", "jsonl")[k % 2]
        argv = ["--config", path, "--mode", mode, "--output", fmt]
        requests.append(Request(f"{mode} {kind} size={size} {fmt}",
                                {"mode": mode, "output": fmt, "config": raw},
                                _cli_call(argv), _mix_check(mode, fmt, inst, size)))
    return requests


_ROUNDS = {"verify-random": _verify_round, "closed-deep": _deep_round,
           "cli-mix": _mix_round}
WORKLOADS = tuple(_ROUNDS)

# (minimum rounds, tail level) per workload.  A failed request ranks as
# +inf, and the tail level lies below the share of answered requests, so the
# tail is finite and can only fall when a crash is fixed.  A run lasts at
# least the minimum number of rounds, so the tail level leaves at least 10
# answered requests above it.  Rounds have an odd number of requests and the tail
# level sits in the middle of one request's rank in the round, so neither
# the median nor the tail lands on the step between two request kinds
# however many rounds a run completes.
#   verify-random: 13 per round, level 10.5/13 (H=300); 5 rounds leave 12 above
#   closed-deep:   15 per round, level 11.4/15 (the slowest m=1050 value,
#                  3x below the m=1500 ones); 3 rounds leave 10 above
#   cli-mix:       77 per round, 12 of them failing (sizes 270 and 400), so
#                  65/77 = 84.4% answered; level 61.6/77 = 80%: 4 rounds
#                  leave 13 answered requests and 48 failed ones above it
SHAPES = {"verify-random": (5, 10.5 / 13), "closed-deep": (3, 11.4 / 15),
          "cli-mix": (4, 61.6 / 77)}


def make_round(workload: str, seed: int, r: int, tmpdir: str) -> List[Request]:
    rng = random.Random(f"{workload}:{seed}:{r}")
    return _ROUNDS[workload](rng, r, tmpdir)


def work_record(requests: List[Request], outcomes: List[Outcome]) -> dict:
    """What a round asked and got; equal between commits unless work changed."""
    digest = hashlib.sha256(json.dumps([r.inputs for r in requests],
                                       sort_keys=True).encode()).hexdigest()
    counts: Counter = Counter()
    for o in outcomes:
        counts.update(o.counts)
    record = {"inputs_sha256": digest, "requests": len(outcomes),
              "values": sum(o.values for o in outcomes),
              "out_bits": sum(o.out_bits for o in outcomes),
              "failures": dict(Counter(o.error for o in outcomes if o.error)),
              **dict(sorted(counts.items()))}
    if any(o.drawn for o in outcomes):
        record["sampler_sha256"] = hashlib.sha256(
            json.dumps([o.drawn for o in outcomes]).encode()).hexdigest()
    return record
