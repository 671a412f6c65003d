import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import ratrec
from ratrec.cli import load_config, main, parse_config, ConfigError
from ratrec.core import parse_rational
from ratrec.engine import iterate
from ratrec.verify import run_verification

UNIT_CONFIG = {
    "initial": {"x_m3": "1", "x_m2": "1", "x_m1": "1", "x_0": "1"},
    "coefficients": {"kind": "constant", "a": "1", "b": "1"},
    "horizon": 3,
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
        with pytest.raises(ConfigError):
            parse_config({**UNIT_CONFIG, "bogus": 1})

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
        code = main(["--config", config_path({**UNIT_CONFIG, "bogus": 1}),
                     "--mode", "iterate", "--out", str(tmp_path / "o")])
        assert code == 2

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
        ("seed", None), ("tolerance", "1e-3"), ("tolerance", True), ("tolerance", [1]),
        ("tolerance", math.nan), ("tolerance", math.inf), ("tolerance", -1e-3),
        ("coefficients", {"kind": "periodic", "pairs": ["12", "34"]}),
        ("coefficients", {"kind": "periodic", "a": "5", "b": "7", "pairs": [["1", "1"]]}),
        ("coefficients", {"kind": "constant", "a": "1", "b": "1", "pairs": [["1", "1"]]}),
    ])
    def test_scalar_of_wrong_json_type_exit_code(self, config_path, tmp_path, capsys,
                                                 key, value):
        # integer fields take JSON integers only, tolerance a finite JSON
        # number >= 0 (json writes NaN and Infinity), each coefficient pair a
        # JSON array, and coefficients exactly the keys their kind reads
        # (constant: a, b; periodic and list: pairs); symmetry reads neither
        # horizon nor index, so a
        # run that wrongly accepted one of these values would still end quickly
        code, text = run(config_path({**UNIT_CONFIG, key: value}), "--mode", "symmetry",
                         tmp_path=tmp_path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"config error: bad {key}:")

    @pytest.mark.parametrize("mode", ["verify", "symmetry"])
    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.001"])
    def test_bad_tolerance_flag_exit_code(self, config_path, tmp_path, capsys,
                                          mode, tolerance):
        code, text = run(config_path(UNIT_CONFIG), "--mode", mode, "--trials", "2",
                         "--tolerance", tolerance, tmp_path=tmp_path)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("config error: bad tolerance:")

    def test_tolerance_is_checked_after_the_flag(self, config_path, tmp_path):
        # the flag replaces a bad config value before the one check runs
        code, _ = run(config_path({**UNIT_CONFIG, "tolerance": math.nan}), "--mode",
                      "symmetry", "--trials", "2", "--tolerance", "1e-10", tmp_path=tmp_path)
        assert code == 0

    def test_integer_tolerance_is_a_number(self):
        assert parse_config({**UNIT_CONFIG, "tolerance": 1}).tolerance == 1.0

    def test_keywords_replace_settings(self, config_path):
        assert load_config(config_path({**UNIT_CONFIG, "horizon": -1}), horizon=5).horizon == 5
        # a replaced config value must still have the right type
        with pytest.raises(ConfigError, match="bad horizon"):
            parse_config({**UNIT_CONFIG, "horizon": 2.5}, horizon=5)
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(UNIT_CONFIG, bogus=1)

    def test_tolerance_too_large_for_a_float_exit_code(self, config_path, capsys):
        # json reads a 400-digit integer exactly, and float() of it overflows
        code = main(["--config", config_path({**UNIT_CONFIG, "tolerance": 10 ** 400}),
                     "--mode", "symmetry", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error: bad tolerance:")


class TestEachSettingCheckedInEveryMode:
    """A setting is checked once, whether a mode reads it or not, and a
    config key and its flag give the same answer."""

    @pytest.mark.parametrize("source", ["config", "flag"])
    @pytest.mark.parametrize("mode, key, value", [
        ("closed", "horizon", -1), ("symmetry", "horizon", -1),
        ("iterate", "trials", 0), ("closed", "trials", 0),
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

    def test_negative_horizon_is_config_error(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "iterate",
                         "--horizon", "-1", tmp_path=tmp_path)
        assert code == 2 and text == ""

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

    def test_corrupt_hook_fails_with_witness(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "25", "--horizon", "60", "--seed", "0",
                         "--corrupt", tmp_path=tmp_path)
        assert code == 1
        recs = jsonl_records(text)
        assert recs[0]["all_exact_match"] is False
        assert any("witness_index" in r for r in recs)

    def test_horizon_zero(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "12", "--horizon", "0", tmp_path=tmp_path)
        assert code == 0
        rec = jsonl_records(text)[0]
        assert rec["trials_run"] + rec["trials_skipped"] == 12

    def test_negative_horizon_is_config_error(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "3", "--horizon", "-2", tmp_path=tmp_path)
        assert code == 2 and text == ""

    def test_corrupt_csv_is_one_record(self, config_path, tmp_path):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", "25", "--horizon", "60", "--seed", "0",
                         "--corrupt", tmp_path=tmp_path, fmt="csv")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert rows[0]["all_exact_match"] == "False" and rows[0]["witness_index"]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_library_rejects_empty_run(self, trials):
        with pytest.raises(ValueError):
            run_verification(trials=trials, horizon=5, seed=0)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_zero_trials(self, config_path, tmp_path, trials):
        # an empty run checks nothing, so it is a config error, not a pass
        code, text = run(config_path(UNIT_CONFIG), "--mode", "verify",
                         "--trials", trials, tmp_path=tmp_path)
        assert code == 2 and text == ""


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
        assert by_label["control-g1"]["pass"] is True  # control must violate tolerance

    def test_tolerance_override(self, config_path, tmp_path):
        # absurdly loose tolerance flips the control's pass column, and a
        # failing verdict fails the run
        code, text = run(config_path(UNIT_CONFIG), "--mode", "symmetry",
                         "--trials", "50", "--tolerance", "1e6", tmp_path=tmp_path)
        assert code == 1
        by_label = {r["characteristic"]: r for r in jsonl_records(text)}
        assert by_label["control-g1"]["pass"] is False


    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_samples_is_config_error(self, config_path, tmp_path, trials):
        code, text = run(config_path(UNIT_CONFIG), "--mode", "symmetry",
                         "--trials", trials, tmp_path=tmp_path)
        assert code == 2 and text == ""


class TestModuleEntryPoint:
    """``python -m ratrec.cli`` in a real process, read through its exit status."""

    def _run(self, *argv, stdout=subprocess.PIPE):
        src = os.path.dirname(os.path.dirname(ratrec.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # stdout block-buffered, as in a plain shell, whatever runs the tests
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-m", "ratrec.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": path}, timeout=120)

    def test_output_matches_main(self, config_path, capsys):
        path = config_path(UNIT_CONFIG)
        proc = self._run("--config", path, "--mode", "iterate")
        assert main(["--config", path, "--mode", "iterate"]) == 0
        assert proc.returncode == 0
        assert proc.stdout.decode() == capsys.readouterr().out

    @pytest.mark.parametrize("argv, status", [
        (["--mode", "iterate", "--horizon", "x"], 2),
        (["--mode", "closed", "--index", "-4"], 3),
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
# compute), and an --out file in a missing directory
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
