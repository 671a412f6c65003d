"""Mutation audit of the package's modules, standard library only.

Each mutant changes one site of a module: an arithmetic operator or a
comparison operator swapped for a neighbour, or an integer constant
increased by 1.  ``AUDITS`` is the one table of the audits: for each module
of src/ratrec with a mutation site, the pytest selection that must kill its
mutants, and the survivors accepted as equivalent, each with the argument
that it is one.

    python3 tools/mutate.py                      # every module in AUDITS
    python3 tools/mutate.py symmetry.py cli.py   # the named modules

Every mutant runs its module's selection in a temporary copy of src/,
tests/ and pyproject.toml, never in the working tree: pyproject's
``pythonpath`` puts the rootdir's src first on ``sys.path``, so a copy of
src/ alone would still import the real package.  A mutant survives when the
selection passes.  It is named file:line:column-end: mutation, 1-based, where
end is the site's last column (line:column when it ends on a later line),
followed by [k] for the k-th operator of a chained comparison, from 0: for
example ``symmetry.py:68:27-31: + -> -``.  The mutants run one after another,
each for about as long as the selection; README.md gives each module's time.

Each unlisted survivor and each stale entry (a listed mutant that is killed)
is printed, then each module's totals and elapsed seconds.  Exit status: 0
when every mutant is killed or listed, 1 on an unlisted survivor or a stale
entry, 2 when an unmutated module already fails its selection.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ratrec"
TIMEOUT_S = 600  # one run of the selection; a mutant that loops forever is killed

Audit = namedtuple("Audit", "selection equivalents", defaults=((),))

# each module's selection and accepted survivors.  An entry is never listed
# to make an audit pass, only with the argument that the mutant computes
# what the module does
AUDITS = {
    "engine.py": Audit(("tests/test_engine.py", "tests/test_symmetry.py::TestPhi")),
    "reduced.py": Audit(("tests/test_reduced.py",)),
    "cli.py": Audit(("tests/test_cli.py",)),
    "rational.py": Audit(("tests/test_rational.py",)),
    "verify.py": Audit(("tests/test_verify.py", "tests/test_cli.py::TestVerifyMode",
                        "tests/test_acceptance.py")),
    "core.py": Audit(("tests/test_core.py", "tests/test_records.py", "tests/test_engine.py",
                      "tests/test_closed_form.py", "tests/test_reduced.py")),
    # no survivor: the prefactor test is written j < 4, whose mutants index
    # past the seeds, because j <= 3 -> j < 3 would be equivalent
    "closed_form.py": Audit(("tests/test_closed_form.py",)),
    "symmetry.py": Audit(("tests/test_symmetry.py",), (
        # g[(n + 3) % 6] and g[(n - 3) % 6] read one entry: the indices differ by 6
        "symmetry.py:68:27-31: + -> -",
    )),
}

# each operator and the one it is swapped for
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
    ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
    ast.In: "in", ast.NotIn: "not in",
}


def sites(tree: ast.AST):
    """Yield (node, slot) for every mutable site, in ast.walk order: slot is
    None for an integer constant, the attribute "op" of a binary or augmented
    operation, or the index of an operator in a comparison."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, "op"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None


def mutate(node: ast.AST, slot) -> str:
    """Apply the mutation at (node, slot) in place; return its description."""
    if slot is None:
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    old = node.op if slot == "op" else node.ops[slot]
    new = SWAPS[type(old)]()
    if slot == "op":
        node.op = new
    else:
        node.ops[slot] = new
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"


def position(node: ast.AST, slot) -> str:
    """The site's line:column-end, unique in its module: nested operations
    share a start but not an end, and a chained comparison's operators
    share both, so theirs carry the operator's index."""
    end = str(node.end_col_offset)
    if node.end_lineno != node.lineno:
        end = f"{node.end_lineno}:{end}"
    index = f"[{slot}]" if isinstance(slot, int) and len(node.ops) > 1 else ""
    return f"{node.lineno}:{node.col_offset + 1}-{end}{index}"


def mutants(module: str, source: str):
    """Yield (name, mutated source) for each site of the module's source,
    each mutated in a fresh parse."""
    for k in itertools.count():
        tree = ast.parse(source)
        site = next(itertools.islice(sites(tree), k, None), None)
        if site is None:
            return
        what = mutate(*site)
        yield f"{module}:{position(*site)}: {what}", ast.unparse(tree)


def verdict(survivors, equivalents) -> tuple[list, list]:
    """The survivors that no entry lists, and the stale entries: listed
    mutants that were killed.  An audit passes when both are empty."""
    return ([name for name in survivors if name not in equivalents],
            [name for name in equivalents if name not in survivors])


def run_selection(copy: Path, selection) -> str:
    """Run pytest in the copy: "passed", "failed" or "timeout"."""
    # no .pyc: a mutant of the same size written within the same second
    # would otherwise pass the cache's mtime check and never be imported
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *selection],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the selection may have started processes of its own
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return "passed" if code == 0 else "failed"


def audit(copy: Path, module: str) -> int:
    """Audit one module of the copy against its AUDITS entry; the exit status."""
    selection, equivalents = AUDITS[module]
    target = copy / "src" / "ratrec" / module
    source = target.read_text()
    start = time.monotonic()
    try:
        # every mutant is unparsed from the tree, so the unmutated module
        # must pass in that form first
        target.write_text(ast.unparse(ast.parse(source)))
        if run_selection(copy, selection) != "passed":
            print(f"the unmutated {module} fails its selection", file=sys.stderr)
            return 2
        count = timeouts = 0
        survivors = []
        for name, mutated in mutants(module, source):
            count += 1
            target.write_text(mutated)
            outcome = run_selection(copy, selection)
            timeouts += outcome == "timeout"
            if outcome == "passed":
                survivors.append(name)
                if name not in equivalents:
                    print(name, flush=True)
    finally:
        target.write_text(source)
    unlisted, stale = verdict(survivors, equivalents)
    for name in stale:
        print(f"{name}: listed as equivalent, but killed", flush=True)
    print(f"{module}: {count} mutants: {count - len(survivors)} killed ({timeouts} by "
          f"timeout), {len(survivors) - len(unlisted)} listed equivalent, "
          f"{len(unlisted)} survived, {time.monotonic() - start:.0f} s", flush=True)
    return 1 if unlisted or stale else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", nargs="*",
                    help=f"module of src/ratrec to audit, of {', '.join(AUDITS)}; "
                         "every one when none is named")
    args = ap.parse_args(argv)
    unknown = [name for name in args.module if name not in AUDITS]
    if unknown:
        ap.error(f"no audit for {', '.join(unknown)}")

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        return max(audit(copy, module) for module in args.module or AUDITS)


if __name__ == "__main__":
    sys.exit(main())
