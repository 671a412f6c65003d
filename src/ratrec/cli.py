"""Command-line front end.

Modes:
  iterate   exact trajectory rows (m, x_m) to the horizon
  closed    single closed-form value at --index
  verify    randomized closed-form-vs-iteration equivalence report
  symmetry  exact verdict and max float residual per characteristic

Configuration comes from a JSON file (--config); a flag replaces the config
key of the same name.  Each value given is checked for its type, and the
setting kept for its range, once and in every mode.
Exact values are always printed as "p/q" strings; floats appear only in
symmetry reports.  Each command returns its records and exit code, and
main maps errors to exit codes.  main alone writes both standard streams:
the records, argparse's help and usage text and the error line go to two
buffers, written once each at the end.  A standard error that cannot be
written keeps the status.
  0  success
  1  verification failure: a verify mismatch, or a symmetry verdict that fails
  2  usage or config error: an unknown flag, an unreadable config (not
     UTF-8, bad JSON, nested too deeply, an integer over 4300 digits), an
     output that cannot be written (--out, or stdout, --help's included),
     a key that is unknown, missing or not read by the coefficient kind,
     a rational that is not a "p/q" string, a coefficient pair that is not
     a JSON array, a setting that is not a JSON integer (e.g. "horizon": 2.9,
     true or 1e400), a negative horizon, fewer than one trial, or closed
     without an index
  3  mathematical domain error: a zero seed in the closed form, an index
     at or past the first singular step of the iteration (the first x it
     cannot compute), an index below -3, an index past a list stream's
     horizon, or an input too large to compute in the memory there is
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import random
import sys

from ratrec import symmetry
from ratrec.closed_form import ClosedFormError, branch, x_closed
from ratrec.core import (
    STREAM_KINDS,
    CoefficientStream,
    InitialConditions,
    format_rational,
    parse_rational,
)
from ratrec.engine import iterate
from ratrec.verify import run_verification


class ConfigError(ValueError):
    pass


# each integer setting, from the config or its flag: (default, least value
# or None, flag help).  The seeds cover x_{-3}..x_0, so horizon >= 0; an
# empty run checks nothing, so trials >= 1.
_SETTINGS = {
    "index": (None, None, "target index m (closed mode)"),
    "horizon": (10, 0, "last index to compute/verify"),
    "trials": (100, 1, "trial/sample count"),
    "seed": (0, None, "RNG seed"),
}
_MODES = ("iterate", "closed", "verify", "symmetry")  # each runs cmd_<mode>
_TOP_KEYS = {"initial", "coefficients", *_SETTINGS}
_INITIAL_KEYS = InitialConditions._fields  # x_{-3}..x_0, in constructor order
# the keys each stream kind takes: constant a single pair, the others a list
_COEFF_KEYS = {kind: {"kind", *(("a", "b") if kind == "constant" else ("pairs",))}
               for kind in STREAM_KINDS}


def load_config(path: str, **flags) -> argparse.Namespace:
    """Read the JSON config at path; each keyword replaces the setting of its name."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(raw, **flags)


def parse_config(raw: dict, **flags) -> argparse.Namespace:
    """Check a JSON config object; each keyword replaces the setting of its name.
    The run is a namespace of the seeds (``initial``), the stream
    (``coefficients``) and each setting."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = (set(raw) - _TOP_KEYS) | (set(flags) - set(_SETTINGS))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("initial", "coefficients"):
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")

    init = raw["initial"]
    if not isinstance(init, dict) or set(init) != set(_INITIAL_KEYS):
        raise ConfigError(f"initial must have exactly keys {sorted(_INITIAL_KEYS)}")
    try:
        ic = InitialConditions(*(parse_rational(init[k]) for k in _INITIAL_KEYS))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad initial value: {exc}")

    co = raw["coefficients"]
    kind = co.get("kind") if isinstance(co, dict) else None
    # a JSON array or object is unhashable, so it cannot be looked up
    if not isinstance(kind, str) or kind not in _COEFF_KEYS:
        raise ConfigError(f"coefficients.kind must be {'|'.join(STREAM_KINDS)}, got {kind!r}")
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

    cfg = argparse.Namespace(initial=ic, coefficients=stream)
    for key, (default, least, _) in _SETTINGS.items():
        # the default, then the config value, then the keyword: each one given
        # is type-checked, the last one kept
        value = default
        for value in [source[key] for source in (raw, flags) if key in source]:
            # bool is an int subclass, and int() would truncate 2.9 or read "5"
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"bad {key}: expected a JSON integer, got {value!r}")
        if least is not None and value < least:
            raise ConfigError(f"bad {key}: expected an integer >= {least}, got {value}")
        setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# commands build records and an exit code; main alone emits them, so CSV
# and JSONL carry identical fields

Result = tuple[list[dict], int]


def emit(records: list[dict], fmt: str, path: str | None) -> None:
    """Write the records to the file at path, or to stdout, which ``main``
    buffers.  A file that cannot be opened or written is a config error."""
    try:
        with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as out:
            if fmt == "jsonl":
                out.writelines(json.dumps(rec) + "\n" for rec in records)
            elif records:
                writer = csv.DictWriter(out, fieldnames=list(records[0]),
                                        quoting=csv.QUOTE_NONNUMERIC)
                writer.writeheader()
                writer.writerows(records)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}")


def cmd_iterate(cfg: argparse.Namespace) -> Result:
    traj = iterate(cfg.initial, cfg.coefficients, cfg.horizon)
    records = [{"m": m, "x": format_rational(traj.x(m)), "status": "ok",
                "step": "", "cause": ""}
               for m in range(-3, traj.last_index + 1)]
    if not traj.is_regular:
        records.append({"m": "", "x": "", "status": "singular",
                        "step": traj.last_index, "cause": traj.singular})
    return records, 0


def cmd_closed(cfg: argparse.Namespace) -> Result:
    if cfg.index is None:
        raise ConfigError("closed mode requires an index (--index or config)")
    value = x_closed(cfg.initial, cfg.coefficients, cfg.index)
    return [{"m": cfg.index, "value": format_rational(value),
             "branch": branch(cfg.coefficients)}], 0


def cmd_verify(cfg: argparse.Namespace) -> Result:
    report = run_verification(trials=cfg.trials, horizon=cfg.horizon, seed=cfg.seed)
    record = {
        "trials_run": report.trials_run,
        "trials_skipped": report.trials_skipped,
        "max_symmetry_residual": report.max_symmetry_residual,
        "all_exact_match": report.all_exact_match,
    }
    if report.witness is not None:
        w = report.witness
        record.update({
            "witness_seeds": ",".join(format_rational(v) for v in w.seeds),
            "witness_stream": w.stream.kind + ":" + ";".join(
                f"{format_rational(a)},{format_rational(b)}" for a, b in w.stream.pairs),
            "witness_index": w.index,
            "witness_expected": format_rational(w.expected),
            "witness_got": format_rational(w.got),
        })
    exact = all(symmetry.is_characteristic(g) for g in symmetry.BUILTINS.values())
    return [record], 0 if report.all_exact_match and exact else 1


def cmd_symmetry(cfg: argparse.Namespace) -> Result:
    samples = symmetry.random_samples(random.Random(cfg.seed), cfg.trials)
    records = []
    for label, g in [*symmetry.BUILTINS.items(), ("control-g1", symmetry.CONTROL)]:
        worst = symmetry.residual_sweep(g, samples)
        # a built-in must meet the determining equations; the control must not
        ok = symmetry.is_characteristic(g) != (g is symmetry.CONTROL)
        records.append({"characteristic": label, "max_residual": worst, "pass": ok})
    return records, 0 if all(rec["pass"] for rec in records) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ratrec",
        description="Exact iteration, closed-form solution, and verification "
                    "of the fourth-order rational recurrence "
                    "x_{n+1} = x_{n-3}x_n / (x_{n-2}(a_n + b_n x_{n-3}x_n)).")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--mode", required=True, choices=_MODES)
    for key, (default, _, text) in _SETTINGS.items():
        # named, not passed as default=: main reads every flag that is not None
        # as an override of the config
        p.add_argument("--" + key, type=int,
                       help=text if default is None else f"{text} (default {default})")
    p.add_argument("--output", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    return p


def _write(name: str, text: str) -> None:
    """Write text, if any, to the standard output or error stream and flush
    it: the one place the CLI writes one.  A stream closed at startup is
    None.  One whose write fails is pointed at the null device before the
    OSError goes on: it keeps the unwritten bytes, and the interpreter's exit
    flush would fail on them again."""
    if not text:
        return
    stream = sys.stdout if name == "output" else sys.stderr
    if stream is None:
        raise OSError(f"standard {name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


# a constant: when memory has run out, there may be none to build a message
_OUT_OF_MEMORY = "error: out of memory: the input is too large to compute\n"


def main(argv=None) -> int:
    # what the run writes to stdout and stderr, argparse's help and usage text included
    out, err, error = io.StringIO(), io.StringIO(), ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(argv)
            cfg = load_config(args.config, **{key: value for key, value in vars(args).items()
                                              if key in _SETTINGS and value is not None})
            # looked up per call, so a cmd_* replaced on the module (by a
            # tracer) is the one that runs
            records, code = globals()["cmd_" + args.mode](cfg)
            # written only once the command has succeeded: an error leaves --out as it was
            emit(records, args.output, args.out)
        except SystemExit as exc:  # argparse, after --help or a usage error
            code = exc.code
        except ConfigError as exc:
            code, error = 2, f"config error: {exc}\n"
        except (ClosedFormError, IndexError) as exc:
            code, error = 3, f"error: {exc}\n"
        except MemoryError:
            code, error = 3, _OUT_OF_MEMORY
    # stdout that fails is a config error, and stderr that fails keeps the status
    try:
        _write("output", out.getvalue())
    except OSError as exc:
        code, error = 2, f"config error: cannot write output <stdout>: {exc}\n"
    with contextlib.suppress(OSError):
        _write("error", err.getvalue() + error)
    return code


if __name__ == "__main__":
    sys.exit(main())
