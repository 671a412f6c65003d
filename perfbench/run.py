"""ratrec benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload {verify-random,closed-deep,cli-mix} \
        --seed N --seconds S --trace {0,1}

The process imports the package from ./src and runs the workload in
itself.  Untraced, it runs whole rounds as a closed loop (one client, one
thread, each request sent when the previous one has completed) until at
least S seconds and the workload's minimum number of rounds have passed.
About every two seconds, between two requests, it times a set-up probe:
a fresh interpreter from spawn to ``import ratrec.cli`` done.  Spreading
the probes over the run keeps their median from depending on the speed
of the shared machine at one moment.  Traced, it runs round 0 three
times: untraced, traced, untraced.  Call counts therefore repeat exactly
for a seed, and the traced pass's request time minus the mean of the two
untraced passes is the tracing overhead.

Every output is checked against the benchmark's own oracle.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  A full record of the run (environment,
work done, failures, spans) is written to .perfbench/ in the current
directory.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

SRC = os.path.join(os.getcwd(), "src")
if not os.path.isfile(os.path.join(SRC, "ratrec", "cli.py")):
    sys.exit("perfbench: run from the repository root: src/ratrec/cli.py not found")
sys.path.insert(0, SRC)
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
PROBE_EVERY_S = 2.0
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ratrec.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def contract_names(trace: int):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def compare_work(workload: str, seed: int, work: dict) -> str:
    """Compare round 0's work with the reference recorded for this seed."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh).get(f"{workload}:{seed}")
    if ref is None:
        return "no reference for this seed"
    changed = sorted(k for k in set(ref) | set(work) if ref.get(k) != work.get(k))
    if not changed:
        return "unchanged from reference"
    return ("CHANGED from reference in " + ", ".join(changed)
            + ": timings are not comparable with the reference commit")


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def probe() -> float:
    """Seconds from spawning an interpreter to ``import ratrec.cli`` done."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, SRC],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return ready - start


class Tally:
    """Running totals of a run, so that memory does not grow with the
    number of requests made."""

    def __init__(self):
        self.ranked = []    # request seconds; math.inf for a failed request
        self.values = 0
        self.request_s = 0.0
        self.failures = Counter()
        self.examples = []  # a few failures with their messages
        self.wrong = []
        self.setup = []     # set-up probe seconds

    def add(self, outcomes) -> None:
        for o in outcomes:
            self.ranked.append(o.seconds if o.error is None else math.inf)
            self.values += o.values
            self.request_s += o.seconds
            if o.error is not None:
                self.failures[o.error] += 1
                if len(self.examples) < 3:
                    self.examples.append(f"{o.error}: {o.detail}")
            self.wrong += o.wrong[:20 - len(self.wrong)]


def closed_loop(args, tmpdir: str, tally: Tally):
    min_rounds, _ = workloads.SHAPES[args.workload]
    work = None
    start = next_probe = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - start < args.seconds:
        requests = workloads.make_round(args.workload, args.seed, r, tmpdir)
        done = []
        for req in requests:
            if perf_counter() >= next_probe:
                tally.setup.append(probe())
                next_probe = perf_counter() + PROBE_EVERY_S
            done.append(req.execute())
        if r == 0:
            work = workloads.work_record(requests, done)
        tally.add(done)
        r += 1
    return work, r


def end_to_end(workload: str, tally: Tally):
    # a failed request never answers: it ranks above every answer in both
    # latency metrics, and the tail level lies below the answered share
    ranked = sorted(tally.ranked)
    level = workloads.SHAPES[workload][1]
    i = math.ceil(level * len(ranked)) - 1
    metrics = {
        "setup_s": statistics.median(tally.setup),
        "req_p50_s": statistics.median(ranked),
        "req_tail_s": ranked[i],
        "values_per_s": tally.values / tally.request_s,
        # the set-up probes are children; only this process's own peak counts
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"req_tail_percentile": 100.0 * level,
              "req_tail_samples": len(ranked),
              "req_tail_answered_above": sum(map(math.isfinite, ranked[i + 1:])),
              "request_s": tally.request_s, "setup_samples": tally.setup}
    return metrics, detail


def traced(args, tmpdir: str, tally: Tally):
    requests = workloads.make_round(args.workload, args.seed, 0, tmpdir)
    plain = [req.execute() for req in requests]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = []
        for i, req in enumerate(requests):
            tracer.request = i
            outcomes.append(req.execute())
    finally:
        tracer.remove()
    after = [req.execute() for req in requests]
    for done in (plain, outcomes, after):
        tally.add(done)
    untraced_s = (sum(o.seconds for o in plain) + sum(o.seconds for o in after)) / 2
    overhead = sum(o.seconds for o in outcomes) - untraced_s
    return workloads.work_record(requests, outcomes), tracer, overhead


def run(args, tmpdir: str) -> dict:
    result = {"env": environment(args)}
    tally = Tally()
    if args.trace:
        work, tracer, overhead = traced(args, tmpdir, tally)
        result["metrics"] = tracer.metrics(overhead)
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
        result["rounds"] = 1
    else:
        work, result["rounds"] = closed_loop(args, tmpdir, tally)
        result["metrics"], result["detail"] = end_to_end(args.workload, tally)
    result.update(
        work=work,
        attempted=len(tally.ranked), failed=sum(tally.failures.values()),
        failures=dict(tally.failures), failure_examples=tally.examples,
        wrong=tally.wrong, correct=not tally.wrong)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        names = contract_names(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = os.path.join(OUT_DIR, f"tmp-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        result = run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    metrics = result["metrics"]
    units = dict(names)
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        return fail(f"metrics missing from the run: {missing}")
    infinite = [n for n, _ in names if not math.isfinite(metrics[n])]
    if infinite:
        return fail(f"too many requests failed to report {infinite}: "
                    f"{result['failed']} of {result['attempted']}")

    work_note = compare_work(args.workload, args.seed, result["work"])
    print(f"environment: {json.dumps(result['env'], sort_keys=True)}")
    print(f"rounds: {result['rounds']}, requests: {result['attempted']}, "
          f"failed: {result['failed']} {json.dumps(result['failures'])}, "
          f"failed_ratio: {result['failed'] / result['attempted']:.6g} "
          f"(base {result['attempted']} attempted)")
    for example in result["failure_examples"]:
        print(f"  failure {example}")
    print(f"work (round 0): {json.dumps(result['work'], sort_keys=True)}")
    print(f"work check: {work_note}")
    if result.get("missing"):
        print(f"not traced (not found in the package): {result['missing']}")
    for w in result["wrong"]:
        print(f"WRONG: {w}")
    if not args.trace:
        d = result["detail"]
        print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in d['setup_samples'])}")
        print(f"req_tail_s is p{d['req_tail_percentile']:.1f} of {d['req_tail_samples']} "
              f"requests, failed ones ranked last "
              f"({d['req_tail_answered_above']} answered above)")
    for name, _ in names:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")

    record = dict(result, work_check=work_note)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
