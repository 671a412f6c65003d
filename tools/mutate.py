"""Mutation testing of one module of the package, standard library only.

Each mutant changes one site of the module: an arithmetic operator or a
comparison operator swapped for a neighbour, or an integer constant
increased by 1.  Every mutant runs the given pytest selection in a
temporary copy of src/, tests/ and pyproject.toml, never in the working
tree: pyproject's ``pythonpath`` puts the rootdir's src first on
``sys.path``, so a copy of src/ alone would still import the real package.
A mutant survives when the selection passes; each survivor is printed as
file:line:column and the mutation, then the totals.

    python3 tools/mutate.py src/ratrec/cli.py tests/test_cli.py \\
        tests/test_acceptance.py::test_criterion_9_cli_contract

The mutants run one after another, each for about as long as the
selection, so CI audits only the modules whose selections are short:
engine.py (``tests/test_engine.py tests/test_symmetry.py::TestPhi``, about
30 s in all), reduced.py (``tests/test_reduced.py``, about 10 s),
cli.py (``tests/test_cli.py``, about 100 s), rational.py
(``tests/test_rational.py``, about 1 min), verify.py
(``tests/test_verify.py tests/test_cli.py::TestVerifyMode
tests/test_acceptance.py``, about 1 min) and core.py (``tests/test_core.py
tests/test_records.py tests/test_engine.py tests/test_closed_form.py
tests/test_reduced.py``, about 1 min).  The other modules are audited
by hand; README.md lists their selections.  Exit
status: 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated module already fails.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # one run of the selection; a mutant that loops forever is killed

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module", help="module to mutate, relative to the repository root")
    ap.add_argument("selection", nargs="+", help="pytest selection, e.g. tests/test_cli.py")
    args = ap.parse_args(argv)

    source = (ROOT / args.module).read_text()
    count = sum(1 for _ in sites(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / args.module

        # every mutant is unparsed from the tree, so the unmutated module
        # must pass in that form first
        target.write_text(ast.unparse(ast.parse(source)))
        if run_selection(copy, args.selection) != "passed":
            print(f"the unmutated {args.module} fails the selection", file=sys.stderr)
            return 2

        survivors = timeouts = 0
        for k in range(count):
            tree = ast.parse(source)
            node, slot = next(itertools.islice(sites(tree), k, None))
            what = mutate(node, slot)
            target.write_text(ast.unparse(tree))
            outcome = run_selection(copy, args.selection)
            timeouts += outcome == "timeout"
            if outcome == "passed":
                survivors += 1
                print(f"{args.module}:{node.lineno}:{node.col_offset + 1}: {what}",
                      flush=True)
    print(f"{count} mutants: {count - survivors} killed ({timeouts} by timeout), "
          f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
