"""Every parameter of every function in the package is read by its body.

A parameter no code path reads is a knob that changes nothing; callers
still pass it and readers still wonder what it does. The check parses the
package's sources, so it covers private helpers, methods, nested
functions and lambdas alike. A read inside a nested function or lambda
counts, since the closure uses the value.
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


def test_sources_found():
    assert {"asymptotic.py", "cli.py", "montecarlo.py"} <= {
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
