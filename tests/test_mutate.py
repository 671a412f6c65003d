"""The mutation sites and mutations of tools/mutate.py, on a small source.

The tool itself runs one pytest selection per mutant, so it stays out of the
suite; its two pure functions are checked here."""

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate_tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate_tool)

SOURCE = '''def f(x, y=True):
    x += 2
    if 0 <= x < 3 and y is not None:
        return x * 0.5 - 1
    return x in "ab"
'''


def each_mutant(source):
    """(line, description, mutated line) for every site, one fresh parse each."""
    count = sum(1 for _ in mutate_tool.sites(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)
        node, slot = list(mutate_tool.sites(tree))[k]
        what = mutate_tool.mutate(node, slot)
        yield node.lineno, what, ast.unparse(tree).splitlines()[node.lineno - 1].strip()


def test_sites_and_mutations():
    # True, 0.5, None and "ab" are no sites: only int constants and operators are
    assert sorted(each_mutant(SOURCE)) == [
        (2, "+ -> -", "x -= 2"),
        (2, "2 -> 3", "x += 3"),
        (3, "0 -> 1", "if 1 <= x < 3 and y is not None:"),
        (3, "3 -> 4", "if 0 <= x < 4 and y is not None:"),
        (3, "< -> <=", "if 0 <= x <= 3 and y is not None:"),
        (3, "<= -> <", "if 0 < x < 3 and y is not None:"),
        (3, "is not -> is", "if 0 <= x < 3 and y is None:"),
        (4, "* -> /", "return x / 0.5 - 1"),
        (4, "- -> +", "return x * 0.5 + 1"),
        (4, "1 -> 2", "return x * 0.5 - 2"),
        (5, "in -> not in", "return x not in 'ab'"),
    ]


def test_every_swap_is_named():
    assert set(mutate_tool.SWAPS) <= set(mutate_tool.SYMBOLS)
    assert all(new in mutate_tool.SYMBOLS for new in mutate_tool.SWAPS.values())
