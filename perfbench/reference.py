"""Regenerate perfbench/reference.json, run from the repository root:

    python3 perfbench/reference.py

It records the round-0 work record of every workload for seeds 0-15.
run.py compares each run's round 0 with it and flags changed work (see
README.md, "Changed work").  Regenerating it is a change to the
benchmark, never part of a change that claims a gain.
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402

SEEDS = range(16)


def main() -> int:
    os.makedirs(".perfbench", exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="reference-", dir=".perfbench")
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                requests = workloads.make_round(name, seed, 0, tmpdir)
                done = [req.execute() for req in requests]
                reference[f"{name}:{seed}"] = workloads.work_record(requests, done)
                print(name, seed, file=sys.stderr)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
