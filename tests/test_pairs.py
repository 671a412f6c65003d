"""The summary of tools/pairs.py on synthetic run records.

The tool runs the benchmark in two checkouts, which takes minutes, so it
stays out of the suite; its parsing of one run's output and its summary of
the pairs are checked here."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs_tool)

SPEC = [{"name": "req_p50_s", "better": "lower", "bound": 0.24},
        {"name": "values_per_s", "better": "higher", "bound": 0.24}]
PARENT = [50, 52, 54, 56, 58, 60, 62, 64, 66, 68]
FASTER = [40, 41, 42, 43, 44, 45, 46, 47, 48, 49]


def runs(parent, change, metric="req_p50_s", **change_fields):
    """One sound record per side per pair, the two sides' values given in
    pair order; ``change_fields`` overrides fields of the change's run in
    the last pair."""
    records = []
    for i, both in enumerate(zip(parent, change)):
        for side, value in zip(("parent", "change"), both):
            record = {"pair": i, "side": side, "metrics": {metric: value},
                      "correct": True, "work": "unchecked", "round0": {"values": i},
                      "failed": 12, "attempted": 77}
            if side == "change" and i == len(parent) - 1:
                record.update(change_fields)
            records.append(record)
    return records


def summary(records, spec=SPEC[:1]):
    return pairs_tool.summarize(records, spec)


class TestSummarize:
    def test_quartiles_wins_and_gain(self):
        change = FASTER[:-1] + [70]
        s = summary(runs(PARENT, change))
        m = s["metrics"]["req_p50_s"]
        assert (s["pairs"], s["sound_pairs"]) == (10, 10)
        assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (53.5, 59, 64.5)
        assert m["change"]["median"] == 44.5
        assert m["wins"] == {"change": 9, "parent": 1, "ties": 0}
        assert abs(m["change_pct"] - 100 * (44.5 - 59) / 59) < 1e-12
        assert m["bound_pct"] == 24 and m["within_bound"] and not m["unresolved"]
        assert m["gain_shown"]

    def test_eight_wins_of_ten_show_no_gain(self):
        change = FASTER[:-2] + [70, 70]
        m = summary(runs(PARENT, change))["metrics"]["req_p50_s"]
        assert m["wins"]["change"] == 8 and not m["gain_shown"]

    def test_gap_within_the_parents_spread_shows_no_gain(self):
        parent = [48, 52] * 5
        change = [47, 51] * 5
        m = summary(runs(parent, change))["metrics"]["req_p50_s"]
        assert m["wins"]["change"] == 10 and not m["gain_shown"] and not m["unresolved"]

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [30, 70] * 5
        m = summary(runs(parent, parent))["metrics"]["req_p50_s"]
        assert m["within_bound"] and m["unresolved"]

    def test_runs_apart_settle_a_wide_spread(self):
        parent = [30, 70] * 5
        m = summary(runs(parent, [29] * 10))["metrics"]["req_p50_s"]
        assert not m["unresolved"] and m["wins"]["change"] == 10

    def test_higher_is_better_ties_and_bound(self):
        parent = [100] * 10
        change = [100, 100] + [70] * 8
        m = summary(runs(parent, change, "values_per_s"), SPEC[1:])["metrics"]["values_per_s"]
        assert m["wins"] == {"change": 0, "parent": 8, "ties": 2}
        assert m["change_pct"] == -30 and not m["within_bound"] and not m["gain_shown"]

    def test_fewer_than_ten_pairs_show_no_gain(self):
        records = runs(PARENT, FASTER)[:-1]
        s = summary(records)
        m = s["metrics"]["req_p50_s"]
        assert s["pairs"] == 9 and m["wins"]["change"] == 9 and not m["gain_shown"]

    def test_an_unsound_pair_shows_no_gain(self):
        cases = {"incorrect": {"correct": False},
                 "work changed": {"work": "CHANGED"},
                 "round-0 work differs": {"round0": {"values": -1}},
                 "no round-0 work": {"round0": None},
                 "larger failed share": {"failed": 13},
                 "same failed count in fewer requests": {"attempted": 76}}
        for why, fields in cases.items():
            s = summary(runs(PARENT, FASTER, **fields))
            assert s["sound_pairs"] == 9, why
            assert not s["metrics"]["req_p50_s"]["gain_shown"], why

    def test_failures_in_step_with_more_requests_stay_sound(self):
        s = summary(runs(PARENT, FASTER, failed=24, attempted=154, work="unchanged"))
        assert s["sound_pairs"] == 10 and s["metrics"]["req_p50_s"]["gain_shown"]


def output(work_note, correct=True):
    last = {"correct": correct, "attempted": 13, "failed": 0,
            "metrics": {"req_p50_s": {"value": 0.05, "unit": "s"}}}
    return "\n".join(["environment: {}", 'work (round 0): {"requests": 13, "values": 7}',
                      f"work check: {work_note}", "req_p50_s = 0.05 s", json.dumps(last)])


class TestParseRun:
    def test_verdicts(self):
        cases = [("unchanged from reference", "unchanged"),
                 ("no reference for this seed", "unchecked"),
                 ("CHANGED from reference in out_bits: timings are not comparable", "CHANGED")]
        for note, work in cases:
            run = pairs_tool.parse_run(output(note))
            assert run["work"] == work and run["work_check"] == note
        run = pairs_tool.parse_run(output("unchanged from reference", correct=False))
        assert run["correct"] is False and run["metrics"] == {"req_p50_s": 0.05}
        assert (run["attempted"], run["failed"]) == (13, 0)
        assert run["round0"] == {"requests": 13, "values": 7}
