"""Alternating parent/change benchmark pairs, standard library only.

Runs the benchmark in two checkouts of the repository, the parent commit's
and the change's, as ten pairs per workload: each pair runs
``perfbench/run.py --trace 0`` once on each side at the same seed, for the
``run_seconds`` of the parent's BENCHMARK.json, and the side that runs first
alternates from pair to pair.  The benchmark itself is run as it stands in
each checkout; this script only reads its output.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --pr N --first-seed 20 \\
        --workload verify-random

writes BENCH_N.json in the current directory (or the --out path): each
side's commit and a digest of its src/, every run's metrics, ``correct``
flag, failed and attempted requests, work check (a seed with no recorded
reference is listed as unchecked, not as unchanged) and round-0 work, and
per workload and end-to-end metric each side's median and quartiles, the
change's wins, losses and ties over the pairs (by the metric's direction in
BENCHMARK.json), its median change against the metric's bound, whether the
parent's interquartile spread alone exceeds the bound while the two sides'
runs overlap (``unresolved``), and whether the pairs show a gain.  They show
one when all ten pairs are sound and the change wins at least nine of them,
with medians that differ by more than the parent's interquartile spread.  A
pair is sound when the change's run is correct, its work is not changed from
the reference, its round-0 work equals the parent's at that seed, and it
fails no larger share of requests than the parent's.  Quartiles are
``statistics.quantiles(n=4)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

PAIRS = 10
SIDES = ("parent", "change")
WORK_PREFIX = "work check: "
ROUND0_PREFIX = "work (round 0): "
UNCHANGED = "unchanged from reference"
NO_REFERENCE = "no reference for this seed"


def commit(checkout: Path) -> Optional[str]:
    """``git describe --always --dirty`` of the checkout, or None outside git."""
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def src_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of the checkout's src/*.py files."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def line_after(lines: List[str], prefix: str) -> Optional[str]:
    return next((line[len(prefix):] for line in lines if line.startswith(prefix)), None)


def parse_run(stdout: str) -> dict:
    """The verdict, metrics and work of one run.py output."""
    lines = stdout.splitlines()
    last = json.loads(lines[-1])
    note = line_after(lines, WORK_PREFIX)
    if note == UNCHANGED:
        work = "unchanged"
    elif note == NO_REFERENCE:
        work = "unchecked"
    else:
        work = "CHANGED"
    round0 = line_after(lines, ROUND0_PREFIX)
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "work": work, "work_check": note,
            "round0": None if round0 is None else json.loads(round0),
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout} (exit {done.returncode}): "
                           f"{done.stderr.strip()[-500:]}")
    return parse_run(done.stdout)


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def sound(parent: dict, change: dict) -> bool:
    """Whether the change's run may count toward a gain over the parent's
    run at the same seed."""
    return (change["correct"] and change["work"] != "CHANGED"
            and change["round0"] is not None and change["round0"] == parent["round0"]
            and change["failed"] * parent["attempted"] <= parent["failed"] * change["attempted"])


def summarize(runs: List[dict], spec: List[dict]) -> dict:
    """The pairs' soundness and, per end-to-end metric of ``spec``, each
    side's quartiles over the runs, the change's wins over the pairs, its
    median change against the bound, and whether the pairs show a gain.
    ``runs`` holds one record per side per pair, as ``run_once`` returns it
    with the keys pair and side added; a pair missing a side is left out."""
    by_pair: Dict[int, Dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [both for _, both in sorted(by_pair.items()) if set(both) == set(SIDES)]
    sound_pairs = sum(sound(p["parent"], p["change"]) for p in pairs)
    counted = len(pairs) >= PAIRS and sound_pairs == len(pairs)
    metrics = {}
    for metric in spec:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        side = {s: quartiles(values[s]) for s in SIDES}
        # every change run better than every parent run settles a wide spread
        separated = (min(sign * v for v in values["change"])
                     > max(sign * v for v in values["parent"]))
        wins = {"change": 0, "parent": 0, "ties": 0}
        for p in pairs:
            gain = sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name])
            wins["change" if gain > 0 else "parent" if gain < 0 else "ties"] += 1
        parent, change = side["parent"]["median"], side["change"]["median"]
        improvement = sign * (change - parent)
        spread = side["parent"]["q3"] - side["parent"]["q1"]
        bound = metric["bound"] * abs(parent)
        metrics[name] = {
            **side, "wins": wins,
            "change_pct": 100.0 * (change - parent) / parent,
            "bound_pct": 100.0 * metric["bound"],
            "within_bound": -improvement <= bound,
            "unresolved": spread > bound and not separated,
            "gain_shown": (counted and 10 * wins["change"] >= 9 * len(pairs)
                           and improvement > spread),
        }
    return {"pairs": len(pairs), "sound_pairs": sound_pairs, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--out", type=Path,
                    help="the report's path (default BENCH_<pr>.json); an A/A batch, "
                         "the parent against a second checkout of itself, needs its own")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of run.py; repeat for several")
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pair i runs at seed first-seed + i")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = args.out or Path(f"BENCH_{args.pr}.json")
    report = {"pr": args.pr,
              **{s: {"commit": commit(c), "src_sha256": src_digest(c)}
                 for s, c in checkouts.items()},
              "settings": {"pairs": PAIRS, "seconds": seconds,
                           "seeds": [args.first_seed + i for i in range(PAIRS)],
                           "python": sys.version.split()[0],
                           "nproc": len(os.sched_getaffinity(0))},
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, s in enumerate(order):
                run = run_once(checkouts[s], workload, seed, seconds)
                runs.append({"pair": i, "side": s, "seed": seed, "first": position == 0, **run})
                print(f"{workload} pair {i} seed {seed} {s}: correct {run['correct']}, "
                      f"work {run['work']}, req_p50_s {run['metrics']['req_p50_s']:.6g}",
                      flush=True)
        report["workloads"][workload] = {
            "correct": sum(run["correct"] for run in runs), "runs_made": len(runs),
            "work": dict(Counter(run["work"] for run in runs)),
            "summary": summarize(runs, benchmark["end_to_end"]), "runs": runs}
        # written after each workload, so an interrupted batch keeps the rest
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
