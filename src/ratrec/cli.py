"""Command-line front end.

Modes:
  iterate   exact trajectory rows (m, x_m) to the horizon
  closed    single closed-form value at --index
  verify    randomized closed-form-vs-iteration equivalence report
  symmetry  max linearized-symmetry residual per characteristic

Configuration comes from a JSON file (--config); a flag replaces the config
key of the same name.  Each value given is checked for its type, and the
setting kept for its range, once and in every mode.
Exact values are always printed as "p/q" strings; floats appear only in
symmetry reports.  Each command returns its records and exit code; main
alone emits them and maps errors to exit codes:
  0  success
  1  verification failure: a verify mismatch, or a symmetry verdict that fails
  2  config error: an unreadable config (not UTF-8, bad JSON, nested too
     deeply, an integer over 4300 digits), an output that cannot be
     written (--out or stdout), a key that is unknown, missing or
     not read by the coefficient kind, a rational that is not a "p/q"
     string, a coefficient pair that is not a JSON array, a scalar of the
     wrong JSON type (e.g. "horizon": 2.9, true or 1e400), a tolerance
     that is not finite and >= 0, a negative horizon, fewer than one
     trial, or closed without an index
  3  mathematical domain error: a zero seed in the closed form, an index
     at or past the first singular step of the iteration (the first x it
     cannot compute), an index below -3, or an index past a list
     stream's horizon
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ratrec import symmetry
from ratrec.closed_form import ClosedFormError, branch, x_closed
from ratrec.core import (
    CoefficientStream,
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


# each scalar setting, from the config or its flag: (type, least value or
# None, flag help).  The seeds cover x_{-3}..x_0, so horizon >= 0; an empty
# run checks nothing, so trials >= 1; a NaN, infinite or negative tolerance
# fixes every verdict whatever the residuals.
_SETTINGS = {
    "index": (int, None, "target index m (closed mode)"),
    "horizon": (int, 0, "last index to compute/verify"),
    "trials": (int, 1, "trial/sample count"),
    "seed": (int, None, "RNG seed"),
    "tolerance": (float, 0, "residual tolerance"),
}
_TOP_KEYS = {"initial", "coefficients", *_SETTINGS}
_INITIAL_KEYS = {"x_m3", "x_m2", "x_m1", "x_0"}
_COEFF_KEYS = {"constant": {"kind", "a", "b"}, "periodic": {"kind", "pairs"},
               "list": {"kind", "pairs"}}


def load_config(path: str, **flags) -> RunConfig:
    """Read the JSON config at path; each keyword replaces the setting of its name."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(raw, **flags)


def parse_config(raw: dict, **flags) -> RunConfig:
    """Check a JSON config object; each keyword replaces the setting of its name."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = (set(raw) - _TOP_KEYS) | (set(flags) - set(_SETTINGS))
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
    kind = co.get("kind") if isinstance(co, dict) else None
    if kind not in ("constant", "periodic", "list"):
        raise ConfigError(f"coefficients.kind must be constant|periodic|list, got {kind!r}")
    if set(co) != _COEFF_KEYS[kind]:
        raise ConfigError(f"bad coefficients: {kind} takes exactly {sorted(_COEFF_KEYS[kind])}")
    try:
        pairs = [[co["a"], co["b"]]] if kind == "constant" else co["pairs"]
        # a two-character string would unpack into two rationals
        if not all(isinstance(pair, list) for pair in pairs):
            raise ValueError(f"each pair must be a JSON array [a, b], got {pairs!r}")
        stream = CoefficientStream(kind, tuple(
            (parse_rational(a), parse_rational(b)) for a, b in pairs))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad coefficients: {exc}")

    cfg = RunConfig(initial=ic, coefficients=stream)
    for key, (cast, least, _) in _SETTINGS.items():
        # the config value, then the keyword: each is type-checked, the last one kept
        for value in [source[key] for source in (raw, flags) if key in source]:
            # bool is an int subclass, and int() would truncate 2.9 or read "5"
            if isinstance(value, bool) or not isinstance(value, (int, cast)):
                expected = "integer" if cast is int else "number"
                raise ConfigError(f"bad {key}: expected a JSON {expected}, got {value!r}")
            try:
                setattr(cfg, key, cast(value))
            except OverflowError as exc:
                raise ConfigError(f"bad {key}: {exc}")
        value = getattr(cfg, key)
        if least is not None and not least <= value < math.inf:
            raise ConfigError(f"bad {key}: expected a finite number >= {least}, got {value}")
    return cfg


# ---------------------------------------------------------------------------
# commands build records and an exit code; main alone emits them, so CSV
# and JSONL carry identical fields

Result = Tuple[List[Dict], int]


def emit(records: List[Dict], fmt: str, path: Optional[str]) -> None:
    """Write the records to the file at path, or to stdout.  An output that
    cannot be opened, written or flushed is a config error."""
    try:
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
            if fmt == "jsonl":
                out.writelines(json.dumps(rec) + "\n" for rec in records)
            elif records:
                writer = csv.DictWriter(out, fieldnames=list(records[0]),
                                        quoting=csv.QUOTE_NONNUMERIC)
                writer.writeheader()
                writer.writerows(records)
            out.flush()
    except OSError as exc:
        if not path:
            # stdout keeps the unwritten bytes, and the interpreter's exit flush
            # would fail on them again: send them to the null device instead
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ConfigError(f"cannot write output {path or '<stdout>'}: {exc}")


def cmd_iterate(cfg: RunConfig) -> Result:
    traj = iterate(cfg.initial, cfg.coefficients, cfg.horizon)
    records = [{"m": m, "x": format_rational(traj.x(m)), "status": "ok",
                "step": "", "cause": ""}
               for m in range(-3, traj.last_index + 1)]
    if not traj.is_regular:
        records.append({"m": "", "x": "", "status": "singular",
                        "step": traj.singular.step, "cause": traj.singular.cause})
    return records, 0


def cmd_closed(cfg: RunConfig) -> Result:
    if cfg.index is None:
        raise ConfigError("closed mode requires an index (--index or config)")
    value = x_closed(cfg.initial, cfg.coefficients, cfg.index)
    return [{"m": cfg.index, "value": format_rational(value),
             "branch": branch(cfg.coefficients)}], 0


def cmd_verify(cfg: RunConfig, corrupt: bool = False) -> Result:
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
    ok = report.all_exact_match and report.max_symmetry_residual <= cfg.tolerance
    return [record], 0 if ok else 1


def cmd_symmetry(cfg: RunConfig) -> Result:
    samples = symmetry.random_samples(random.Random(cfg.seed), cfg.trials)
    control = symmetry.Characteristic(lambda n: complex(1.0, 0.0), "control-g1")
    records = []
    for char in symmetry.builtin_characteristics() + [control]:
        worst = symmetry.residual_sweep(char, samples)
        # a built-in must meet the tolerance; the control must violate it
        ok = worst > cfg.tolerance if char is control else worst <= cfg.tolerance
        records.append({"characteristic": char.label, "max_residual": worst, "pass": ok})
    return records, 0 if all(rec["pass"] for rec in records) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ratrec",
        description="Exact iteration, closed-form solution, and verification "
                    "of the fourth-order rational recurrence "
                    "x_{n+1} = x_{n-3}x_n / (x_{n-2}(a_n + b_n x_{n-3}x_n)).")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--mode", required=True,
                   choices=["iterate", "closed", "verify", "symmetry"])
    for key, (cast, _, text) in _SETTINGS.items():
        p.add_argument("--" + key, type=cast, help=text)
    p.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--corrupt", action="store_true",
                   help="testing hook: deliberately corrupt the closed form "
                        "so verify must fail")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # built per call, so a cmd_* replaced on the module (by a tracer) is the one that runs
    commands = {"iterate": cmd_iterate, "closed": cmd_closed, "symmetry": cmd_symmetry,
                "verify": lambda cfg: cmd_verify(cfg, corrupt=args.corrupt)}
    try:
        cfg = load_config(args.config, **{key: value for key, value in vars(args).items()
                                          if key in _SETTINGS and value is not None})
        records, code = commands[args.mode](cfg)
        # written only once the command has succeeded: an error leaves --out as it was
        emit(records, args.output, args.out)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ClosedFormError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
