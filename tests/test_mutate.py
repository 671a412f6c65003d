"""The mutation sites, mutations and names of tools/mutate.py, its AUDITS
table and its verdict.

The tool runs one pytest selection per mutant, so it stays out of the suite;
everything here is pure, with the selection run replaced by a stand-in."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

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


def test_nested_and_chained_sites_are_named_apart():
    # a * b * c nests two products that start together; a < b < c holds two
    # operators of one node; a site may end on a later line
    source = "def f(a, b, c):\n    y = a * b * c\n    z = a < b < c\n    w = (a +\n         b)\n"
    assert sorted(name for name, _ in mutate_tool.mutants("f.py", source)) == [
        "f.py:2:9-13: * -> /",
        "f.py:2:9-17: * -> /",
        "f.py:3:9-17[0]: < -> <=",
        "f.py:3:9-17[1]: < -> <=",
        "f.py:4:10-5:10: + -> -",
    ]


def test_every_swap_is_named():
    assert set(mutate_tool.SWAPS) <= set(mutate_tool.SYMBOLS)
    assert all(new in mutate_tool.SYMBOLS for new in mutate_tool.SWAPS.values())


@pytest.fixture(scope="module")
def package_mutants():
    """{module file name: its mutant names} for every module of the package."""
    return {path.name: [name for name, _ in mutate_tool.mutants(path.name, path.read_text())]
            for path in sorted(mutate_tool.PACKAGE.glob("*.py"))}


def test_every_module_with_a_site_is_audited(package_mutants):
    assert ({module for module, mutants in package_mutants.items() if mutants}
            == set(mutate_tool.AUDITS))
    for mutants in package_mutants.values():
        assert len(set(mutants)) == len(mutants)


def test_every_selection_exists():
    for audit in mutate_tool.AUDITS.values():
        assert audit.selection
        for item in audit.selection:
            assert (mutate_tool.ROOT / item.split("::")[0]).is_file(), item


def test_every_equivalent_names_a_mutant_of_its_module(package_mutants):
    for module, audit in mutate_tool.AUDITS.items():
        for entry in audit.equivalents:
            assert entry in package_mutants[module]


def test_verdict():
    assert mutate_tool.verdict(["m:1:1-2: + -> -"], ()) == (["m:1:1-2: + -> -"], [])
    assert mutate_tool.verdict([], ["m:1:1-2: + -> -"]) == ([], ["m:1:1-2: + -> -"])
    assert mutate_tool.verdict(["m:1:1-2: + -> -"], ["m:1:1-2: + -> -"]) == ([], [])


class TestAuditRun:
    """``main`` on symmetry.py, the selection run replaced by a stand-in that
    passes on the unmutated module and on the listed equivalent only."""

    MODULE = "symmetry.py"
    EQUIVALENT = "symmetry.py:68:27-31: + -> -"
    KILLED = "symmetry.py:64:15-36: + -> -"

    @pytest.fixture(autouse=True)
    def stand_in(self, monkeypatch):
        source = (mutate_tool.PACKAGE / self.MODULE).read_text()
        passing = {ast.unparse(ast.parse(source))}
        passing |= {mutated for name, mutated in mutate_tool.mutants(self.MODULE, source)
                    if name == self.EQUIVALENT}
        self.passing = passing
        monkeypatch.setattr(mutate_tool, "run_selection", lambda copy, selection: (
            "passed" if (copy / "src" / "ratrec" / self.MODULE).read_text() in self.passing
            else "failed"))

    def with_equivalents(self, monkeypatch, *entries):
        audit = mutate_tool.AUDITS[self.MODULE]
        monkeypatch.setitem(mutate_tool.AUDITS, self.MODULE, audit._replace(equivalents=entries))

    def test_listed_equivalent_passes(self, capsys):
        assert mutate_tool.AUDITS[self.MODULE].equivalents == (self.EQUIVALENT,)
        assert mutate_tool.main([self.MODULE]) == 0
        assert re.fullmatch(
            r"symmetry.py: 56 mutants: 55 killed \(0 by timeout\), 1 listed equivalent, "
            r"0 survived, \d+ s\n", capsys.readouterr().out)

    def test_unlisted_survivor_fails(self, monkeypatch, capsys):
        self.with_equivalents(monkeypatch)
        assert mutate_tool.main([self.MODULE]) == 1
        assert capsys.readouterr().out.startswith(self.EQUIVALENT + "\n")

    def test_killed_entry_fails(self, monkeypatch, capsys):
        self.with_equivalents(monkeypatch, self.EQUIVALENT, self.KILLED)
        assert mutate_tool.main([self.MODULE]) == 1
        assert capsys.readouterr().out.startswith(
            self.KILLED + ": listed as equivalent, but killed\n")

    def test_failing_unmutated_module(self, capsys):
        self.passing = set()
        assert mutate_tool.main([self.MODULE]) == 2
        assert "the unmutated symmetry.py fails its selection" in capsys.readouterr().err

    def test_unknown_module(self):
        with pytest.raises(SystemExit) as exit_:
            mutate_tool.main(["nonesuch.py"])
        assert exit_.value.code == 2
