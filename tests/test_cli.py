import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import ratrec
from ratrec import cli, symmetry
from ratrec.cli import load_config, main, parse_config, ConfigError
from ratrec.core import parse_rational
from ratrec.engine import iterate
from ratrec.verify import run_verification

UNIT_CONFIG = {
    "initial": {"x_m3": "1", "x_m2": "1", "x_m1": "1", "x_0": "1"},
    "coefficients": {"kind": "constant", "a": "1", "b": "1"},
    "horizon": 3,
}
# stderr when records or help text are due on a standard output closed at startup
STDOUT_CLOSED = "config error: cannot write output <stdout>: standard output is closed\n"
# jsonl stdout of UNIT_CONFIG, by mode: (argv, bytes)
PINNED_STDOUT = {
    "symmetry": (
        ["--mode", "symmetry", "--seed", "0"],
        b'{"characteristic": "alternating", "max_residual": 3.3306690738754696e-16,'
        b' "pass": true}\n'
        b'{"characteristic": "gamma", "max_residual": 2.2887833992611187e-16,'
        b' "pass": true}\n'
        b'{"characteristic": "gamma-conjugate", "max_residual": 2.2887833992611187e-16,'
        b' "pass": true}\n'
        b'{"characteristic": "control-g1", "max_residual": 2.1907170707963397,'
        b' "pass": true}\n'),
    "verify": (
        ["--mode", "verify", "--seed", "0", "--horizon", "30"],
        b'{"trials_run": 100, "trials_skipped": 0,'
        b' "max_symmetry_residual": 3.3306690738754696e-16, "all_exact_match": true}\n'),
}


@pytest.fixture
def config_path(tmp_path):
    def write(cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)
    return write


def run(config_path_str, *args, tmp_path=None, fmt="jsonl"):
    out = tmp_path / "out.txt"
    code = main(["--config", config_path_str, "--output", fmt,
                 "--out", str(out), *args])
    return code, out.read_text() if out.exists() else ""


def jsonl_records(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestConfigParsing:
    def test_valid(self, config_path):
        cfg = load_config(config_path(UNIT_CONFIG))
        assert cfg.horizon == 3
        assert cfg.initial.x_0 == 1

    def test_unknown_top_key(self):
        # the symmetry verdict is exact (symmetry.is_characteristic): no
        # threshold to set
        for key in ("bogus", "tolerance"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                parse_config({**UNIT_CONFIG, key: 1e-10})

    def test_unknown_nested_key(self):
        bad = dict(UNIT_CONFIG)
        bad["coefficients"] = {"kind": "constant", "a": "1", "b": "1", "extra": 0}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_initial_key(self):
        bad = dict(UNIT_CONFIG)
        bad["initial"] = {"x_m3": "1", "x_m2": "1", "x_m1": "1"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("kind", [["constant"], {"constant": 1}, None, "constants"])
    def test_bad_kind(self, kind):
        # an unhashable kind is refused like any other, not looked up
        bad = {**UNIT_CONFIG, "coefficients": {**UNIT_CONFIG["coefficients"], "kind": kind}}
        with pytest.raises(ConfigError, match=r"^coefficients.kind must be constant\|periodic"
                                              rf"\|list, got {re.escape(repr(kind))}$"):
            parse_config(bad)

    def test_decimal_rejected(self):
        bad = dict(UNIT_CONFIG)
        bad["initial"] = {"x_m3": "1.5", "x_m2": "1", "x_m1": "1", "x_0": "1"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_periodic_pairs(self):
        cfg = parse_config({
            "initial": UNIT_CONFIG["initial"],
            "coefficients": {"kind": "periodic", "pairs": [["1", "0"], ["2", "1/3"]]},
        })
        assert cfg.coefficients.at(3)[1] == pytest.approx(1 / 3)

    def test_config_error_exit_code(self, config_path, tmp_path):
        for key in ("bogus", "tolerance"):
            code = main(["--config", config_path({**UNIT_CONFIG, key: 1}),
                         "--mode", "iterate", "--out", str(tmp_path / "o")])
            assert code == 2

    # one line on stderr, not a traceback, for a config that is not a JSON
    # object, lacks a required key, writes a digit that is not ASCII
    # (int() reads ARABIC-INDIC DIGIT THREE as 3) or pads a literal
    @pytest.mark.parametrize("config, message", [
        ([], "config must be a JSON object"),
        ([["x"]], "config must be a JSON object"),
        ("s", "config must be a JSON object"),
        (3, "config must be a JSON object"),
        ({"coefficients": UNIT_CONFIG["coefficients"]},
         "config missing required key 'initial'"),
        ({"initial": UNIT_CONFIG["initial"]}, "config missing required key 'coefficients'"),
        ({**UNIT_CONFIG, "coefficients": {"kind": "periodic", "pairs": [["\u0663", "1"]]}},
         "bad coefficients: not a rational literal (expected 'p' or 'p/q'): '\u0663'"),
        ({**UNIT_CONFIG, "initial": {**UNIT_CONFIG["initial"], "x_0": " 3"}},
         "bad initial value: not a rational literal (expected 'p' or 'p/q'): ' 3'"),
    ], ids=["empty-array", "nested-array", "string", "number", "no-initial",
            "no-coefficients", "non-ascii-digit", "padded-seed"])
    def test_config_error_stderr(self, config_path, capsys, config, message):
        assert main(["--config", config_path(config), "--mode", "iterate"]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_missing_file_exit_code(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--mode", "iterate", "--out", str(out)]) == 2

    @pytest.mark.parametrize("content", [
        b"\xff" + json.dumps(UNIT_CONFIG).encode(),
        json.dumps(UNIT_CONFIG)[:-1].encode() + b', "seed": ' + b"9" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not-utf8", "5000-digit-integer", "nested-too-deeply"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["--config", str(path), "--mode", "iterate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot read config")

    @pytest.mark.parametrize("placement", ["initial", "constant", "pairs"])
    def test_non_string_rational_exit_code(self, config_path, tmp_path, capsys, placement):
        cfg = json.loads(json.dumps(UNIT_CONFIG))
        if placement == "initial":
            cfg["initial"]["x_m3"] = 1
        elif placement == "constant":
            cfg["coefficients"]["a"] = 1
        else:
            cfg["coefficients"] = {"kind": "periodic", "pairs": [[1, 2]]}
        code, text = run(config_path(cfg), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("config error:")

    def test_overflowing_scalar_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        cfg = {k: v for k, v in UNIT_CONFIG.items() if k != "horizon"}
        # 1e400 loads as inf, which no int can hold
        path.write_text(json.dumps(cfg)[:-1] + ', "horizon": 1e400}')
        code, text = run(str(path), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 2 and text == ""
        assert "bad horizon" in capsys.readouterr().err

    def test_unopenable_out_exit_code(self, config_path, tmp_path, capsys):
        code = main(["--config", config_path(UNIT_CONFIG), "--mode", "iterate",
                     "--out", str(tmp_path / "missing" / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("key, value", [
        ("horizon", 2.9), ("horizon", 1e300), ("horizon", "3"), ("index", True),
        ("index", 1.0), ("trials", "5"), ("trials", False), ("seed", 0.5),
        ("seed", None),
        pytest.param("coefficients", {"kind": "periodic", "pairs": ["12", "34"]},
                     id="coefficients-value15"),
        pytest.param("coefficients", {"kind": "periodic", "a": "5", "b": "7",
                                      "pairs": [["1", "1"]]}, id="coefficients-value16"),
        pytest.param("coefficients", {"kind": "constant", "a": "1", "b": "1",
                                      "pairs": [["1", "1"]]}, id="coefficients-value17"),
    ])
    def test_scalar_of_wrong_json_type_exit_code(self, config_path, tmp_path, capsys,
                                                 key, value):
        # integer fields take JSON integers only, each coefficient pair a
        # JSON array, and coefficients exactly the keys their kind reads
        # (constant: a, b; periodic and list: pairs); symmetry reads neither
        # horizon nor index, so a
        # run that wrongly accepted one of these values would still end quickly
        code, text = run(config_path({**UNIT_CONFIG, key: value}), "--mode", "symmetry",
                         tmp_path=tmp_path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"config error: bad {key}:")

    def test_defaults_and_least_values(self):
        cfg = parse_config({key: UNIT_CONFIG[key] for key in ("initial", "coefficients")})
        assert (cfg.horizon, cfg.index, cfg.trials, cfg.seed) == (10, None, 100, 0)
        cfg = parse_config(UNIT_CONFIG, horizon=0, trials=1)
        assert (cfg.horizon, cfg.trials) == (0, 1)

    def test_keywords_replace_settings(self, config_path):
        assert load_config(config_path({**UNIT_CONFIG, "horizon": -1}), horizon=5).horizon == 5
        # a replaced config value must still have the right type
        with pytest.raises(ConfigError, match="bad horizon"):
            parse_config({**UNIT_CONFIG, "horizon": 2.5}, horizon=5)
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(UNIT_CONFIG, bogus=1)


class TestEachSettingCheckedInEveryMode:
    """A setting is checked once, whether a mode reads it or not, and a
    config key and its flag give the same answer.  The seeds cover
    x_{-3}..x_0, so the horizon is at least 0; an empty run checks nothing,
    so trials below 1 are a config error, not a pass."""

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("mode, key, value", [
        ("closed", "horizon", -1), ("symmetry", "horizon", -1),
        ("iterate", "trials", 0), ("closed", "trials", 0),
        ("iterate", "horizon", -1), ("verify", "horizon", -2),
        ("verify", "trials", 0), ("verify", "trials", -3),
        ("symmetry", "trials", 0), ("symmetry", "trials", -3),
    ])
    def test_out_of_range_exit_code(self, config_path, capsys, source, mode, key, value):
        cfg = {**UNIT_CONFIG, "index": 3}
        argv = ["--mode", mode]
        if source == "config":
            cfg[key] = value
        else:
            argv += [f"--{key}", str(value)]
        code = main(["--config", config_path(cfg), *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"config error: bad {key}:")


class TestOutFileSurvivesErrors:
    """--out is opened only after the command succeeds."""

    PREVIOUS = "m,x\n-3,1\n"

    def _existing_out(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text(self.PREVIOUS)
        return out

    def test_config_error(self, config_path, tmp_path):
        out = self._existing_out(tmp_path)
        assert main(["--config", config_path({**UNIT_CONFIG, "bogus": 1}),
                     "--mode", "iterate", "--out", str(out)]) == 2
        assert out.read_text() == self.PREVIOUS

    def test_domain_error(self, config_path, tmp_path):
        out = self._existing_out(tmp_path)
        assert main(["--config", config_path(TestClosedMode.SINGULAR_AT_0),
                     "--mode", "closed", "--index", "8", "--out", str(out)]) == 3
        assert out.read_text() == self.PREVIOUS

    def test_config_as_its_own_out(self, config_path):
        # the config is read before --out is truncated
        path = config_path(UNIT_CONFIG)
        assert main(["--config", path, "--mode", "iterate", "--output", "jsonl",
                     "--out", path]) == 0
        with open(path) as fh:
            assert jsonl_records(fh.read())[-1] == {
                "m": 3, "x": "1/4", "status": "ok", "step": "", "cause": ""}

    def test_domain_error_before_unopenable_out(self, config_path, tmp_path):
        assert main(["--config", config_path(TestClosedMode.SINGULAR_AT_0),
                     "--mode", "closed", "--index", "8",
                     "--out", str(tmp_path / "missing" / "o.csv")]) == 3


class TestIterateMode:
    def test_rows(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 0
        recs = jsonl_records(text)
        assert recs[0] == {"m": -3, "x": "1", "status": "ok", "step": "", "cause": ""}
        assert recs[-1]["m"] == 3 and recs[-1]["x"] == "1/4"

    def test_past_list_horizon_is_domain_error(self, config_path, tmp_path):
        cfg = {**UNIT_CONFIG, "horizon": 5}
        cfg["coefficients"] = {"kind": "list", "pairs": [["1", "1"], ["2", "1/3"]]}
        code, text = run(config_path(cfg), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 3 and text == ""

    def test_horizon_zero(self, config_path, tmp_path):
        code, text = run(config_path({**UNIT_CONFIG, "horizon": 0}),
                         "--mode", "iterate", tmp_path=tmp_path)
        assert code == 0
        assert len(jsonl_records(text)) == 4  # seeds only

    def test_singular_row(self, config_path, tmp_path):
        cfg = dict(UNIT_CONFIG)
        cfg["initial"] = {"x_m3": "1", "x_m2": "0", "x_m1": "1", "x_0": "1"}
        code, text = run(config_path(cfg), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 0
        last = jsonl_records(text)[-1]
        assert last["status"] == "singular"
        assert last["step"] == 0 and last["cause"] == "zero-x-factor"

    def test_singular_row_past_step_0(self, config_path, tmp_path):
        # V_0..V_2 = 1, 2, 3 and V_3 = V_2 - 3 = 0: the bracket of step 2
        # vanishes, after x_1 and x_2 exist
        cfg = {**UNIT_CONFIG, "coefficients": {
            "kind": "list", "pairs": [["1", "1"], ["1", "1"], ["1", "-3"]]}}
        code, text = run(config_path(cfg), "--mode", "iterate", tmp_path=tmp_path)
        assert code == 0
        recs = jsonl_records(text)
        assert [(r["m"], r["status"]) for r in recs[:-1]] == [(m, "ok") for m in range(-3, 3)]
        assert recs[-1] == {"m": "", "x": "", "status": "singular", "step": 2,
                            "cause": "zero-bracket"}
        code, text = run(config_path(cfg), "--mode", "iterate", tmp_path=tmp_path, fmt="csv")
        assert code == 0
        assert (list(csv.DictReader(io.StringIO(text)))
                == [{k: str(v) for k, v in r.items()} for r in recs])


class TestClosedMode:
    def test_a1_branch(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "closed", "--index", "3",
                         tmp_path=tmp_path)
        assert code == 0
        assert jsonl_records(text) == [{"m": 3, "value": "1/4", "branch": "a1"}]

    def test_aneg1_branch(self, config_path, tmp_path):
        cfg = dict(UNIT_CONFIG)
        cfg["coefficients"] = {"kind": "constant", "a": "-1", "b": "3"}
        code, text = run(config_path(cfg), "--mode", "closed", "--index", "4",
                         tmp_path=tmp_path)
        assert code == 0
        assert jsonl_records(text) == [{"m": 4, "value": "2", "branch": "aneg1"}]

    def test_general_branch_seed(self, config_path, tmp_path):
        cfg = dict(UNIT_CONFIG)
        cfg["coefficients"] = {"kind": "periodic", "pairs": [["1", "1"], ["2", "0"]]}
        cfg["initial"] = {"x_m3": "1", "x_m2": "5/7", "x_m1": "1", "x_0": "1"}
        code, text = run(config_path(cfg), "--mode", "closed", "--index", "-2",
                         tmp_path=tmp_path)
        assert code == 0
        assert jsonl_records(text) == [{"m": -2, "value": "5/7", "branch": "general"}]

    def test_domain_error_exit_3(self, config_path, tmp_path):
        cfg = dict(UNIT_CONFIG)
        cfg["initial"] = {"x_m3": "0", "x_m2": "1", "x_m1": "1", "x_0": "1"}
        code, _ = run(config_path(cfg), "--mode", "closed", "--index", "3",
                      tmp_path=tmp_path)
        assert code == 3

    # the bracket of step 0 vanishes: iterate is singular at step 0, so only
    # the seeds exist
    SINGULAR_AT_0 = {
        "initial": {"x_m3": "1", "x_m2": "1", "x_m1": "1", "x_0": "1"},
        "coefficients": {"kind": "periodic", "pairs": [["-1", "1"], ["2", "1"]]},
    }

    def test_answers_only_before_the_singular_step(self, config_path, capsys):
        path = config_path(self.SINGULAR_AT_0)
        code = main(["--config", path, "--mode", "closed", "--index", "0",
                     "--output", "jsonl"])
        assert code == 0
        assert jsonl_records(capsys.readouterr().out) == [
            {"m": 0, "value": "1", "branch": "general"}]
        for index in (2, 8):
            code = main(["--config", path, "--mode", "closed", "--index", str(index)])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error:")

    def test_aneg1_zero_base_answers_only_the_seeds(self, config_path, capsys):
        # a = -1, b x_{-3}x_0 = 1: V_1 = 0, the bracket of x_1, so the one
        # checked fold refuses index 1 and every seed still prints
        cfg = {**UNIT_CONFIG, "coefficients": {"kind": "constant", "a": "-1", "b": "1"}}
        path = config_path(cfg)
        for index in range(-3, 1):
            code = main(["--config", path, "--mode", "closed", "--index", str(index),
                         "--output", "jsonl"])
            assert code == 0
            assert jsonl_records(capsys.readouterr().out) == [
                {"m": index, "value": "1", "branch": "aneg1"}]
        code = main(["--config", path, "--mode", "closed", "--index", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: V(1) vanished")


class TestVerifyMode:
    def test_default_passes(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "25", "--horizon", "60", "--seed", "0",
                         tmp_path=tmp_path)
        assert code == 0
        rec = jsonl_records(text)[0]
        assert rec["all_exact_match"] is True
        assert rec["trials_run"] + rec["trials_skipped"] == 25

    def test_corrupt_hook_fails_with_witness(self, config_path, tmp_path,
                                             corrupt_closed_form):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "25", "--horizon", "60", "--seed", "0",
                         tmp_path=tmp_path)
        assert code == 1
        [rec] = jsonl_records(text)
        assert rec["all_exact_match"] is False
        corrupt_closed_form(rec)

    def test_horizon_zero(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "12", "--horizon", "0", tmp_path=tmp_path)
        assert code == 0
        rec = jsonl_records(text)[0]
        assert rec["trials_run"] + rec["trials_skipped"] == 12

    @pytest.mark.parametrize("rejected, status", [(None, 0), ("gamma", 1)],
                             ids=["accepted", "rejected"])
    def test_symmetry_verdict_decides_the_exit(self, config_path, tmp_path,
                                               monkeypatch, rejected, status):
        # every instance matches, so the exact symmetry verdict alone decides:
        # one built-in it rejects fails the run
        table, exact = symmetry.BUILTINS.get(rejected), symmetry.is_characteristic
        monkeypatch.setattr(symmetry, "is_characteristic",
                            lambda g: g is not table and exact(g))
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "5", "--horizon", "10", tmp_path=tmp_path)
        assert code == status
        [rec] = jsonl_records(text)
        assert rec["all_exact_match"] is True and rec["max_symmetry_residual"] <= 1e-10
        assert not any(key.startswith("witness") for key in rec)

    def test_corrupt_csv_is_one_record(self, config_path, tmp_path, corrupt_closed_form):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "25", "--horizon", "60", "--seed", "0",
                         tmp_path=tmp_path, fmt="csv")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert rows[0]["all_exact_match"] == "False"
        corrupt_closed_form(rows[0])

    @pytest.mark.parametrize("trials", [0, -3])
    def test_library_rejects_empty_run(self, trials):
        with pytest.raises(ValueError):
            run_verification(trials=trials, horizon=5, seed=0)


class TestSymmetryMode:
    def test_default_rows(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "symmetry",
                         "--trials", "200", "--seed", "1", tmp_path=tmp_path)
        assert code == 0
        recs = jsonl_records(text)
        assert len(recs) == 4
        by_label = {r["characteristic"]: r for r in recs}
        for label in ("alternating", "gamma", "gamma-conjugate"):
            assert by_label[label]["max_residual"] <= 1e-10
            assert by_label[label]["pass"] is True
        assert by_label["control-g1"]["max_residual"] >= 1e-3
        assert by_label["control-g1"]["pass"] is True  # the control must be rejected

    def test_verdict_override(self, config_path, tmp_path, monkeypatch):
        # a verdict that accepts every table flips the control's pass column,
        # and a failing verdict fails the run
        monkeypatch.setattr(symmetry, "is_characteristic", lambda g: True)
        code, text = run(config_path(UNIT_CONFIG), "--mode", "symmetry",
                         "--trials", "50", tmp_path=tmp_path)
        assert code == 1
        by_label = {r["characteristic"]: r for r in jsonl_records(text)}
        assert by_label["control-g1"]["pass"] is False
        assert all(by_label[label]["pass"] is True
                   for label in ("alternating", "gamma", "gamma-conjugate"))

    @pytest.mark.parametrize("residual", [0.0, 1.0])
    def test_residual_is_only_reported(self, config_path, tmp_path, monkeypatch,
                                       residual):
        # whatever the float sweep reads, the records report it and every
        # verdict and exit code stays the exact one, in both modes
        monkeypatch.setattr(symmetry, "residual_sweep", lambda g, samples: residual)
        code, text = run(config_path(UNIT_CONFIG), "--mode", "symmetry",
                         "--trials", "2", tmp_path=tmp_path)
        assert code == 0
        recs = jsonl_records(text)
        assert {r["characteristic"]: r["pass"] for r in recs} == {
            "alternating": True, "gamma": True, "gamma-conjugate": True,
            "control-g1": True}
        assert all(r["max_residual"] == residual for r in recs)
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "5", "--horizon", "10", tmp_path=tmp_path)
        [rec] = jsonl_records(text)
        assert code == 0 and rec["max_symmetry_residual"] == residual
        assert rec["all_exact_match"] is True


class TestModuleEntryPoint:
    """``python -m ratrec.cli`` in a real process, read through its exit status."""

    @staticmethod
    def _run(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
             unbuffered=False, preexec=None):
        src = os.path.dirname(os.path.dirname(ratrec.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # stdout block-buffered, as in a plain shell, whatever runs the tests
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        # preexec runs in the child before Python starts
        return subprocess.run([sys.executable, "-m", "ratrec.cli", *argv],
                              stdout=stdout, stderr=stderr, preexec_fn=preexec,
                              env={**env, "PYTHONPATH": path}, timeout=120)

    def test_import_leaves_out_dataclasses_inspect_and_typing(self):
        # each process pays for what importing the CLI loads; -S keeps the
        # site hooks' own imports out of the count
        src = os.path.dirname(os.path.dirname(ratrec.__file__))
        code = ("import sys, ratrec.cli; "
                "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")

    def test_help(self):
        proc = self._run("--help")
        out = proc.stdout.decode()
        assert proc.returncode == 0 and out.startswith("usage: ratrec")
        # the flags are generated from the integer settings, and only from them
        assert all(f"--{key} " in out for key in ("index", "horizon", "trials", "seed"))
        assert "--tolerance" not in out
        # each setting's help names its default from cli._SETTINGS; index has none
        words = " ".join(out.split())
        for key, default in (("horizon", 10), ("trials", 100), ("seed", 0)):
            assert re.search(rf"--{key} {key.upper()} [^-]*\(default {default}\)", words)
        index_help = re.search(r"--index INDEX ([^-]*)--horizon", words)
        assert index_help and "default" not in index_help.group(1)

    def test_output_matches_main(self, config_path, capsys):
        path = config_path(UNIT_CONFIG)
        proc = self._run("--config", path, "--mode", "iterate")
        assert main(["--config", path, "--mode", "iterate"]) == 0
        assert proc.returncode == 0
        assert proc.stdout.decode() == capsys.readouterr().out

    # the default stdout records stay byte for byte: the float residuals too,
    # so any change in how a residual is evaluated shows here
    @pytest.mark.parametrize("argv, stdout", PINNED_STDOUT.values(), ids=PINNED_STDOUT)
    def test_pinned_stdout(self, config_path, argv, stdout):
        proc = self._run("--config", config_path(UNIT_CONFIG), "--output", "jsonl", *argv)
        assert proc.returncode == 0 and proc.stdout == stdout

    @pytest.mark.parametrize("argv, status", [
        (["--mode", "iterate", "--horizon", "x"], 2),
        (["--mode", "closed", "--index", "-4"], 3),
        # the negative control is a test seam, not a flag of the program
        (["--mode", "verify", "--corrupt"], 2),
        # the symmetry verdict is exact: no threshold, so no flag for one
        (["--mode", "symmetry", "--tolerance", "1e-10"], 2),
    ])
    def test_exit_status(self, config_path, argv, status):
        proc = self._run("--config", config_path(UNIT_CONFIG), *argv)
        assert proc.returncode == status and proc.stdout == b""

    def _assert_write_error(self, proc):
        # one line on stderr: no traceback, no complaint from the exit-time flush
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 2 and len(lines) == 1
        assert lines[0].startswith("config error: cannot write output")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_unwritable_out_file(self, config_path):
        self._assert_write_error(self._run("--config", config_path(UNIT_CONFIG),
                                           "--mode", "iterate", "--out", "/dev/full"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_unwritable_stdout(self, config_path):
        with open("/dev/full", "wb") as full:
            proc = self._run("--config", config_path(UNIT_CONFIG), "--mode", "iterate",
                             stdout=full)
        self._assert_write_error(proc)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv, unwritable, status, unbuffered", [
        pytest.param(["--help"], "stdout", 2, False, id="help"),
        pytest.param(["--help"], "stdout", 2, True, id="help-unbuffered"),
        pytest.param(["--mode", "closed"], "stderr", 2, False, id="config-error"),
        pytest.param(["--mode", "closed"], "stderr", 2, True, id="config-error-unbuffered"),
        pytest.param(["--mode", "bogus"], "stderr", 2, False, id="usage-error"),
        pytest.param(["--mode", "bogus"], "stderr", 2, True, id="usage-error-unbuffered"),
        pytest.param(["--mode", "closed", "--index", "-4"], "stderr", 3, False,
                     id="domain-error"),
        pytest.param(["--mode", "closed", "--index", "-4"], "stderr", 3, True,
                     id="domain-error-unbuffered"),
    ])
    def test_unwritable_standard_stream(self, config_path, argv, unwritable, status,
                                        unbuffered):
        with open("/dev/full", "wb") as full:
            proc = self._run("--config", config_path(UNIT_CONFIG), *argv,
                             unbuffered=unbuffered, **{unwritable: full})
        assert proc.returncode == status
        if unwritable == "stdout":
            # the stderr that can be read: one line, no traceback, no exit-flush
            # complaint.  The help text, like the records, is written by main
            # alone, buffered or not
            self._assert_write_error(proc)
        else:
            assert proc.stdout == b""

    # stderr byte for byte, for the two closed-form domain errors
    @pytest.mark.parametrize("config, index, stderr", [
        (TestClosedMode.SINGULAR_AT_0, "1", b"error: V(1) vanished: x_1 does not exist\n"),
        ({**UNIT_CONFIG, "initial": {**UNIT_CONFIG["initial"], "x_m2": "0"}}, "2",
         b"error: closed form requires all four initial values nonzero\n"),
    ], ids=["vanished-v", "zero-seed"])
    def test_domain_error_stderr(self, config_path, config, index, stderr):
        proc = self._run("--config", config_path(config), "--mode", "closed", "--index", index)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", stderr)

    @pytest.mark.parametrize("closed_fd, argv, status, stderr", [
        (1, ["--mode", "iterate"], 2, STDOUT_CLOSED.encode()),
        (2, ["--mode", "closed", "--index", "-4"], 3, b""),
    ], ids=["stdout", "stderr"])
    def test_closed_descriptor(self, config_path, closed_fd, argv, status, stderr):
        # a descriptor closed before Python starts leaves its standard stream None
        proc = self._run("--config", config_path(UNIT_CONFIG), *argv,
                         preexec=lambda: os.close(closed_fd))
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, b"", stderr)

    # the benchmark's baseline instance: x_m has about m^2 bits, so the V fold
    # to m = 10^8 outgrows any memory
    BASELINE = {
        "initial": {"x_m3": "5/8", "x_m2": "-7/6", "x_m1": "7/6", "x_0": "-5/8"},
        "coefficients": {"kind": "periodic",
                         "pairs": [["5/8", "7/6"], ["-7/6", "5/8"], ["7/6", "-5/8"]]},
    }

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS enforced on Linux only")
    def test_out_of_memory(self, config_path):
        import resource

        def limit_address_space():  # of the child alone, to 200 MB
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, hard))

        proc = self._run("--config", config_path(self.BASELINE), "--mode", "closed",
                         "--index", "100000000", preexec=limit_address_space)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, b"", b"error: out of memory: the input is too large to compute\n")

    def test_closed_pipe_on_stdout(self, config_path):
        # the reader is gone before the first write, as when `| head` has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run("--config", config_path(UNIT_CONFIG), "--mode", "iterate",
                             "--horizon", "150", stdout=write_end)
        finally:
            os.close(write_end)
        self._assert_write_error(proc)


class TestOneParser:
    """``main`` parses every call with one parser, built at its first call:
    a call answers as it does run alone, whatever calls came before it."""

    # each call: (argv, its pinned stdout, or None to run it alone in a child)
    @pytest.mark.parametrize("calls", [
        [(["--mode", "iterate", "--horizon", "5"], None), (["--mode", "iterate"], None)],
        [(["--mode", "bogus"], None), PINNED_STDOUT["symmetry"]],
        [(["--help"], None), PINNED_STDOUT["verify"]],
    ], ids=["flag-then-without", "usage-error-then-valid", "help-then-valid"])
    def test_calls_in_one_process(self, config_path, capsys, monkeypatch, calls):
        # help and usage text wrap at the same width here and in the child
        monkeypatch.setenv("COLUMNS", "80")
        path = config_path(UNIT_CONFIG)
        for argv, pinned in calls:
            argv = ["--config", path, "--output", "jsonl", *argv]
            code = main(argv)
            out, err = capsys.readouterr()
            if pinned is None:
                alone = TestModuleEntryPoint._run(*argv)
                want = alone.returncode, alone.stdout, alone.stderr
            else:
                want = 0, pinned, b""
            assert (code, out.encode(), err.encode()) == want

    def test_parser_built_once(self, config_path, capsys, monkeypatch):
        argv = ["--config", config_path(UNIT_CONFIG), "--mode", "iterate"]
        assert main(argv) == 0  # the parser may be built here, and only here
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(5):
            assert main(argv) == 0
        assert len(built) == 0


class TestDispatch:
    """``main`` runs the ``cmd_<mode>`` it finds on the module at each call,
    so a wrapper put there, as the benchmark's tracer puts one, sees every
    call of its mode and changes no output."""

    MODES = ["iterate", "closed", "verify", "symmetry"]

    def test_each_mode_calls_its_wrapped_command_once(self, config_path, capsys,
                                                      monkeypatch):
        argvs = {mode: ["--config", config_path(UNIT_CONFIG), "--mode", mode,
                        "--index", "3"] for mode in self.MODES}
        want = {}
        for mode, argv in argvs.items():
            want[mode] = main(argv), capsys.readouterr()
        calls = dict.fromkeys(self.MODES, 0)

        def counting(mode, command):
            def wrapper(cfg):
                calls[mode] += 1
                return command(cfg)
            return wrapper

        for mode in self.MODES:
            monkeypatch.setattr(cli, "cmd_" + mode, counting(mode, getattr(cli, "cmd_" + mode)))
        for done, (mode, argv) in enumerate(argvs.items(), 1):
            assert (main(argv), capsys.readouterr()) == want[mode]
            assert calls == {m: int(i < done) for i, m in enumerate(self.MODES)}


class TestClosedStandardStream:
    """A standard stream closed at startup is None in ``sys``: stdout then
    cannot be written, and stderr's messages are dropped."""

    @pytest.mark.parametrize("argv", [
        ["--mode", "iterate"],
        ["--mode", "iterate", "--output", "jsonl"],
        ["--mode", "closed", "--index", "3"],
        ["--mode", "verify", "--trials", "2"],
        ["--mode", "symmetry", "--trials", "5", "--output", "jsonl"],
    ], ids=["iterate", "iterate-jsonl", "closed", "verify", "symmetry-jsonl"])
    def test_records_without_stdout(self, config_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--config", config_path(UNIT_CONFIG), *argv]) == 2
        assert capsys.readouterr() == ("", STDOUT_CLOSED)

    def test_help_without_stdout(self, capsys, monkeypatch):
        # argparse's help text is output like the records, with their message
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--help"]) == 2
        assert capsys.readouterr() == ("", STDOUT_CLOSED)

    def test_out_file_without_stdout(self, config_path, tmp_path, capsys, monkeypatch):
        path, out = config_path(UNIT_CONFIG), tmp_path / "out.txt"
        assert main(["--config", path, "--mode", "iterate", "--output", "jsonl"]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--config", path, "--mode", "iterate", "--output", "jsonl",
                     "--out", str(out)]) == 0
        assert out.read_text() == want
        assert capsys.readouterr() == ("", "")

    # nothing is written to stdout, so its error is the one reported
    @pytest.mark.parametrize("argv, status, err", [
        (["--mode", "closed"], 2,
         "config error: closed mode requires an index (--index or config)\n"),
        (["--mode", "closed", "--index", "-4"], 3, "error: x-index must be >= -3, got -4\n"),
    ], ids=["config-error", "domain-error"])
    def test_errors_without_stdout(self, config_path, capsys, monkeypatch, argv, status, err):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--config", config_path(UNIT_CONFIG), *argv]) == status
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("config, argv, status", [
        (UNIT_CONFIG, ["--mode", "closed"], 2),
        (UNIT_CONFIG, ["--mode", "bogus"], 2),
        (UNIT_CONFIG, ["--mode", "closed", "--index", "-4"], 3),
        (TestClosedMode.SINGULAR_AT_0, ["--mode", "closed", "--index", "1"], 3),
        ({**UNIT_CONFIG, "initial": {**UNIT_CONFIG["initial"], "x_m2": "0"}},
         ["--mode", "closed", "--index", "2"], 3),
    ], ids=["config-error", "usage-error", "domain-error", "vanished-v", "zero-seed"])
    def test_errors_without_stderr(self, config_path, capsys, monkeypatch, config, argv,
                                   status):
        # the status is kept, and the message never goes to stdout
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["--config", config_path(config), *argv]) == status
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("mode", ["iterate", "closed", "verify", "symmetry"])
    def test_records_without_stderr(self, config_path, capsys, monkeypatch, mode):
        argv = ["--config", config_path(UNIT_CONFIG), "--mode", mode, "--index", "3",
                "--trials", "5", "--output", "jsonl"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == 0
        assert capsys.readouterr() == (want, "")


class TestOutputFormats:
    def test_csv_jsonl_field_identical(self, config_path, tmp_path):
        path = config_path(UNIT_CONFIG)
        _, jtext = run(path, "--mode", "iterate", tmp_path=tmp_path, fmt="jsonl")
        jrecs = jsonl_records(jtext)
        out = tmp_path / "out.csv"
        assert main(["--config", path, "--mode", "iterate",
                     "--output", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            crecs = list(csv.DictReader(fh))
        assert len(crecs) == len(jrecs)
        for c, j in zip(crecs, jrecs):
            assert list(c) == list(j)
            assert {k: str(v) for k, v in j.items()} == c

    def test_determinism(self, config_path, tmp_path):
        path = config_path(UNIT_CONFIG)
        args = ("--mode", "verify", "--trials", "10", "--horizon", "40", "--seed", "5")
        _, first = run(path, *args, tmp_path=tmp_path)
        _, second = run(path, *args, tmp_path=tmp_path)
        assert first == second


# small inputs only: values stay far below CPython's 4300-digit int->str limit
_RATIONAL_TEXT = st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 4))
# config faults that must exit 2, each drawn in about one case in eight so
# that most cases still run a command: a rational given as a JSON integer,
# an integer field given as inf or as a huge float (json writes inf as
# Infinity; the flags below override horizon, trials and seed, and a huge
# positive index is left out, since it is a valid index too deep to
# compute: test_out_of_memory runs one), and an --out file in a missing
# directory
_RARELY = st.sampled_from([False] * 7 + [True])
_JSON_INT = st.integers(-4, 4)
_HUGE_SCALAR = st.one_of(
    st.tuples(st.sampled_from(["horizon", "trials", "seed"]),
              st.sampled_from([math.inf, -math.inf, 1e300, -1e300])),
    st.tuples(st.just("index"), st.sampled_from([math.inf, -math.inf, -1e300])))


@st.composite
def _configs(draw):
    rational = (st.one_of(_RATIONAL_TEXT, _JSON_INT) if draw(_RARELY)
                else _RATIONAL_TEXT)
    pair = st.tuples(rational, rational)
    config = draw(st.fixed_dictionaries({
        "initial": st.fixed_dictionaries(
            {k: rational for k in ("x_m3", "x_m2", "x_m1", "x_0")}),
        "coefficients": st.one_of(
            pair.map(lambda ab: {"kind": "constant", "a": ab[0], "b": ab[1]}),
            st.lists(pair, min_size=1, max_size=3).map(
                lambda pairs: {"kind": "periodic", "pairs": pairs}),
            st.lists(pair, min_size=1, max_size=8).map(
                lambda pairs: {"kind": "list", "pairs": pairs})),
    }))
    if draw(_RARELY):
        key, value = draw(_HUGE_SCALAR)
        config[key] = value
    return config


class TestEveryInputGetsAnExitCode:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(config=TestClosedMode.SINGULAR_AT_0, mode="closed", fmt="csv", horizon=3,
             index=8, trials=1, seed=0, missing_dir=False)
    @given(config=_configs(),
           mode=st.sampled_from(["iterate", "closed", "verify", "symmetry"]),
           fmt=st.sampled_from(["csv", "jsonl"]),
           horizon=st.integers(-5, 60),
           index=st.one_of(st.none(), st.integers(-6, 60)),
           trials=st.integers(-2, 30),
           seed=st.integers(0, 3),
           missing_dir=_RARELY)
    def test_main_exits_with_documented_code(self, config, mode, fmt, horizon,
                                             index, trials, seed, missing_dir):
        out = os.path.join("missing", "out") if missing_dir else "out"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = ["--config", path, "--mode", mode, "--output", fmt,
                    "--out", os.path.join(tmp, out), "--horizon", str(horizon),
                    "--trials", str(trials), "--seed", str(seed)]
            if index is not None:
                argv += ["--index", str(index)]
            code = main(argv)
            assert code in (0, 1, 2, 3)
            if mode == "closed" and code == 0:
                # an answer only where the iteration reaches the index
                # the config as main read it: JSON arrays, not the drawn tuples
                cfg = parse_config(json.loads(json.dumps(config)))
                traj = iterate(cfg.initial, cfg.coefficients, max(index, 0))
                assert traj.is_regular
                with open(os.path.join(tmp, out), newline="") as fh:
                    text = fh.read()
                record = (jsonl_records(text)[0] if fmt == "jsonl"
                          else next(csv.DictReader(io.StringIO(text))))
                assert parse_rational(record["value"]) == traj.x(index)
