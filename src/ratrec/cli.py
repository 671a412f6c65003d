"""Command-line front end.

Modes:
  iterate   exact trajectory rows (m, x_m) to the horizon
  closed    single closed-form value at --index
  verify    randomized closed-form-vs-iteration equivalence report
  symmetry  max linearized-symmetry residual per characteristic

Configuration comes from a JSON file (--config) with flag overrides.
Exact values are always printed as "p/q" strings; floats appear only in
symmetry reports.  Exit codes: 0 success, 1 verification failure (a
verify mismatch, or a symmetry verdict that fails), 2 config error, 3
mathematical domain error (including a list stream's horizon).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from ratrec import symmetry
from ratrec.closed_form import (
    BRANCH_A1,
    BRANCH_ANEG1,
    BRANCH_ANEQ1,
    BRANCH_GENERAL,
    ClosedFormError,
    x_closed,
    x_closed_constant,
)
from ratrec.core import (
    CoefficientStream,
    HorizonError,
    InitialConditions,
    format_rational,
    parse_rational,
)
from ratrec.engine import iterate
from ratrec.verify import run_verification


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    initial: InitialConditions
    coefficients: CoefficientStream
    horizon: int = 10
    index: Optional[int] = None
    trials: int = 100
    seed: int = 0
    tolerance: float = 1e-10


_TOP_KEYS = {"initial", "coefficients", "horizon", "index", "trials", "seed", "tolerance"}
_INITIAL_KEYS = {"x_m3", "x_m2", "x_m1", "x_0"}
_COEFF_KEYS = {"kind", "a", "b", "pairs"}


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("initial", "coefficients"):
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")

    init = raw["initial"]
    if not isinstance(init, dict) or set(init) != _INITIAL_KEYS:
        raise ConfigError(f"initial must have exactly keys {sorted(_INITIAL_KEYS)}")
    try:
        ic = InitialConditions(*(parse_rational(init[k])
                                 for k in ("x_m3", "x_m2", "x_m1", "x_0")))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad initial value: {exc}")

    co = raw["coefficients"]
    if not isinstance(co, dict) or set(co) - _COEFF_KEYS:
        raise ConfigError(f"coefficients keys must be among {sorted(_COEFF_KEYS)}")
    kind = co.get("kind")
    try:
        if kind == "constant":
            stream = CoefficientStream.constant(
                parse_rational(co["a"]), parse_rational(co["b"]))
        elif kind in ("periodic", "list"):
            pairs = [(parse_rational(a), parse_rational(b)) for a, b in co["pairs"]]
            ctor = (CoefficientStream.periodic if kind == "periodic"
                    else CoefficientStream.explicit)
            stream = ctor(pairs)
        else:
            raise ConfigError(f"coefficients.kind must be constant|periodic|list, got {kind!r}")
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad coefficients: {exc}")

    cfg = RunConfig(initial=ic, coefficients=stream)
    for key, cast in (("horizon", int), ("index", int), ("trials", int),
                      ("seed", int), ("tolerance", float)):
        if key in raw:
            try:
                setattr(cfg, key, cast(raw[key]))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad {key}: {exc}")
    return cfg


# ---------------------------------------------------------------------------
# record emission: CSV and JSONL carry identical fields

def emit(records: List[Dict], fmt: str, out) -> None:
    if not records:
        return
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
        return
    fields = list(records[0])
    writer = csv.DictWriter(out, fieldnames=fields, quoting=csv.QUOTE_NONNUMERIC)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)


def cmd_iterate(cfg: RunConfig, fmt: str, out) -> int:
    if cfg.horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {cfg.horizon}")
    try:
        traj = iterate(cfg.initial, cfg.coefficients, cfg.horizon)
    except HorizonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    records = [{"m": m, "x": format_rational(traj.x(m)), "status": "ok",
                "step": "", "cause": ""}
               for m in range(-3, traj.last_index + 1)]
    if not traj.is_regular:
        records.append({"m": "", "x": "", "status": "singular",
                        "step": traj.singular.step, "cause": traj.singular.cause})
    emit(records, fmt, out)
    return 0


def _constant_branch(a) -> str:
    if a == 1:
        return BRANCH_A1
    if a == -1:
        return BRANCH_ANEG1
    return BRANCH_ANEQ1


def cmd_closed(cfg: RunConfig, fmt: str, out) -> int:
    if cfg.index is None:
        raise ConfigError("closed mode requires an index (--index or config)")
    m = cfg.index
    try:
        if cfg.coefficients.kind == "constant":
            a, b = cfg.coefficients.at(0)
            value = x_closed_constant(cfg.initial, a, b, m)
            branch = _constant_branch(a)
        else:
            value = x_closed(cfg.initial, cfg.coefficients, m)
            branch = BRANCH_GENERAL
    except (ClosedFormError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    emit([{"m": m, "value": format_rational(value), "branch": branch}], fmt, out)
    return 0


def cmd_verify(cfg: RunConfig, fmt: str, out, corrupt: bool = False) -> int:
    if cfg.horizon < 0:
        raise ConfigError(f"horizon must be >= 0, got {cfg.horizon}")
    report = run_verification(trials=cfg.trials, horizon=cfg.horizon,
                              seed=cfg.seed, corrupt=corrupt)
    record = {
        "trials_run": report.trials_run,
        "trials_skipped": report.trials_skipped,
        "max_symmetry_residual": report.max_symmetry_residual,
        "all_exact_match": report.all_exact_match,
    }
    if report.witness is not None:
        w = report.witness
        record.update({
            "witness_seeds": ",".join(format_rational(v) for v in w.seeds.as_tuple()),
            "witness_stream": w.stream.kind + ":" + ";".join(
                f"{format_rational(a)},{format_rational(b)}" for a, b in w.stream.pairs),
            "witness_index": w.index,
            "witness_expected": format_rational(w.expected),
            "witness_got": format_rational(w.got),
        })
    emit([record], fmt, out)
    ok = report.all_exact_match and report.max_symmetry_residual <= cfg.tolerance
    return 0 if ok else 1


def cmd_symmetry(cfg: RunConfig, fmt: str, out) -> int:
    if cfg.trials < 1:
        raise ConfigError(f"symmetry needs trials >= 1, got {cfg.trials}")
    samples = symmetry.random_samples(random.Random(cfg.seed), cfg.trials)
    chars = symmetry.builtin_characteristics()
    control = symmetry.custom(lambda n: complex(1.0, 0.0), label="control-g1")
    records = []
    for char in chars:
        worst = symmetry.residual_sweep(char, samples)
        records.append({"characteristic": char.label, "max_residual": worst,
                        "pass": worst <= cfg.tolerance})
    worst = symmetry.residual_sweep(control, samples)
    records.append({"characteristic": control.label, "max_residual": worst,
                    "pass": worst > cfg.tolerance})
    emit(records, fmt, out)
    return 0 if all(rec["pass"] for rec in records) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ratrec",
        description="Exact iteration, closed-form solution, and verification "
                    "of the fourth-order rational recurrence "
                    "x_{n+1} = x_{n-3}x_n / (x_{n-2}(a_n + b_n x_{n-3}x_n)).")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--mode", required=True,
                   choices=["iterate", "closed", "verify", "symmetry"])
    p.add_argument("--index", type=int, help="target index m (closed mode)")
    p.add_argument("--horizon", type=int, help="last index to compute/verify")
    p.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--trials", type=int, help="trial/sample count")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--tolerance", type=float, help="residual tolerance")
    p.add_argument("--corrupt", action="store_true",
                   help="testing hook: deliberately corrupt the closed form "
                        "so verify must fail")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key in ("index", "horizon", "trials", "seed", "tolerance"):
            value = getattr(args, key)
            if value is not None:
                setattr(cfg, key, value)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    sink = open(args.out, "w", newline="") if args.out else None
    out = sink if sink else sys.stdout
    try:
        if args.mode == "iterate":
            return cmd_iterate(cfg, args.output, out)
        if args.mode == "closed":
            return cmd_closed(cfg, args.output, out)
        if args.mode == "verify":
            return cmd_verify(cfg, args.output, out, corrupt=args.corrupt)
        return cmd_symmetry(cfg, args.output, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink:
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
