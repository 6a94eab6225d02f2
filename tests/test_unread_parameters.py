"""Every parameter of every function in the package is read by its body,
and no experiment runner has a parameter default.

A parameter no code path reads is a knob that changes nothing; callers
still pass it and readers still wonder what it does. The checks parse the
package's sources, so they cover private helpers, methods, nested
functions and lambdas alike. A read inside a nested function or lambda
counts, since the closure uses the value.

The CLI holds the one copy of every run default (``cli._FLAG_DEFAULTS``,
the alpha grids in ``cli.COMMANDS`` and the trial count). A default in
``experiments.py`` would be a second copy that can drift from it, and a
caller that leaves the argument out would get whichever copy it reaches.
An argparse ``default=`` would be another: the CLI tells a flag left out
from one given by its argparse default of None.
"""

import ast
from pathlib import Path

import pytest

import ulmimo

PACKAGE = Path(ulmimo.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p}) at line {node.lineno}"
                   for p in params if p not in read]
    return unread


def defaulted_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter that has a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        params = positional[len(positional) - len(a.defaults):]
        params += [p for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p.arg}) at line {node.lineno}" for p in params]
    return found


def argparse_defaults(source: str) -> list[str]:
    """``add_argument`` and ``set_defaults`` calls that set a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        call = node.func.attr
        if call == "set_defaults":
            found.append(f"set_defaults at line {node.lineno}")
        elif call == "add_argument" and any(k.arg == "default"
                                            for k in node.keywords):
            found.append(f"{ast.unparse(node.args[0])} at line {node.lineno}")
    return found


def test_sources_found():
    assert {"asymptotic.py", "cli.py", "experiments.py",
            "montecarlo.py"} <= {
        p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *args, c, **kw):\n"
              "    return a + g(lambda x: c)\n")
    assert unread_parameters(source) == [
        "f(b) at line 1", "f(args) at line 1", "f(kw) at line 1",
        "<lambda>(x) at line 2"]


def test_no_runner_parameter_has_a_default():
    assert defaulted_parameters((PACKAGE / "experiments.py").read_text()) == []


def test_detects_a_default():
    source = ("def f(a, b=1, /, c=2, *args, d, e=3):\n"
              "    return g(lambda x, y=0: x)\n")
    assert defaulted_parameters(source) == [
        "f(b) at line 1", "f(c) at line 1", "f(e) at line 1",
        "<lambda>(y) at line 2"]


def test_no_argparse_default():
    assert argparse_defaults((PACKAGE / "cli.py").read_text()) == []


def test_detects_an_argparse_default():
    source = ("p.add_argument('--a', type=int, default=0)\n"
              "p.add_argument('--b', help='no default')\n"
              "p.set_defaults(c=1)\n")
    assert argparse_defaults(source) == ["'--a' at line 1",
                                         "set_defaults at line 3"]
