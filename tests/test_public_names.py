"""Every public module-level name of the package is named where it is used.

A public function, class or constant that no module of the package, no
demo and no README line names is surface kept alive by its own tests: it
is one more name to document, and a second way to reach what the runs
already reach another way. The check parses the package's modules and the
demos, so a name counts as named when code loads it, reads it as an
attribute or imports it, outside its own definition; README counts by
word. A read in ``bench/`` or ``tests/`` does not count. A private
module-level name (``_name``) counts only where the package's modules name
it: one that none reads is a leftover of a deletion.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import ulmimo

PACKAGE = Path(ulmimo.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

def definitions(tree: ast.Module, private: bool) -> dict[str, ast.AST]:
    """Module-level functions, classes and constants, by name: the public
    ones, or with ``private`` those that start with an underscore."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names = [e.id for t in targets
                     for e in (t.elts if isinstance(t, ast.Tuple) else [t])
                     if isinstance(e, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names
                     if name.startswith("_") == private)
    return found


def names_read(node: ast.AST) -> Counter:
    """How often node loads, reads as an attribute or imports each name."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def unnamed(modules: dict[str, str], readers: list[str], prose: str,
            private: bool = False) -> list[str]:
    """``module:name`` for each public (or ``private``) module-level name of
    ``modules`` (source by file name) that no module names outside its own
    definition, no reader source names, and no word of ``prose`` is."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    package = sum(map(names_read, trees.values()), Counter())
    outside = sum((names_read(ast.parse(s)) for s in readers), Counter())
    words = set(re.findall(r"\w+", prose))
    return [f"{module}:{name}"
            for module, tree in trees.items()
            for name, node in definitions(tree, private).items()
            if package[name] == names_read(node)[name]
            and not outside[name] and name not in words]


def test_every_public_name_is_named_outside_its_definition():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    demos = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    assert unnamed(modules, demos, (ROOT / "README.md").read_text()) == []


def test_every_private_name_is_read_by_the_package():
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unnamed(modules, [], "", private=True) == []


def test_detects_an_unnamed_name():
    modules = {
        "a.py": ("from .b import used\n"
                 "LIMIT = 3\n"
                 "SPARE = 4\n"
                 "_PRIVATE = 5\n"
                 "_READ, _UNREAD = 6, 7\n"
                 "def _helper():\n"
                 "    return _READ\n"
                 "def helper(x):\n"
                 "    return used(x) + LIMIT\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"),
        "b.py": ("def used(x):\n"
                 "    return x\n"
                 "class Shown:\n"
                 "    pass\n"
                 "class Demoed:\n"
                 "    pass\n"),
    }
    assert unnamed(modules, ["from x.b import Demoed\n"],
                   "Call `helper(x)` and read `Shown`.") == [
        "a.py:SPARE", "a.py:recursive"]
    assert unnamed(modules, [], "", private=True) == [
        "a.py:_PRIVATE", "a.py:_UNREAD", "a.py:_helper"]
