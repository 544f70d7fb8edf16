"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gdcycles"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements; contracts must raise real exceptions
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def _reads_divergence_norm(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "DIVERGENCE_NORM"
    if isinstance(node, ast.Attribute):
        return node.attr == "DIVERGENCE_NORM"
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "DIVERGENCE_NORM" for alias in node.names)
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_divergence_norm_read_only_by_the_guard(path):
    # objective.diverged is the one divergence guard; any other reader of
    # the bound is a second implementation of it
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _reads_divergence_norm(node)]
    if path.name == "objective.py":
        assert lines, "objective.py no longer defines the divergence bound"
    else:
        assert not lines, f"{path.name} reads DIVERGENCE_NORM on lines {lines}"


def _names_repeat_check(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "_RepeatCheck"
    if isinstance(node, ast.Attribute):
        return node.attr == "_RepeatCheck"
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_RepeatCheck" for alias in node.names)
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_repeat_check_only_in_the_orbit_driver(path):
    # dynamics._final_states is the one batched loop that checks orbits for
    # a byte repeat; any other user of the check is a second such loop
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _names_repeat_check(node)]
    if path.name == "dynamics.py":
        assert lines, "dynamics.py no longer defines the repeat check"
    else:
        assert not lines, f"{path.name} names _RepeatCheck on lines {lines}"


def _tail_loop(tree):
    """The ``for k in range(steps)`` loop of ``bifurcation_sweep``."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "bifurcation_sweep":
            for node in ast.walk(fn):
                if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                        and node.target.id == "k" and ast.unparse(node.iter) == "range(steps)":
                    return node
    return None


def test_sweep_tail_loop_evaluates_nothing():
    # the tail records states only; losses and probes are evaluated after
    # the loop in chunks of steps, one array call each instead of one per step
    loop = _tail_loop(ast.parse((SRC / "analysis.py").read_text()))
    assert loop is not None, "bifurcation_sweep has no `for k in range(steps)` loop"
    calls = [ast.unparse(node.func) for stmt in loop.body for node in ast.walk(stmt)
             if isinstance(node, ast.Call)]
    evaluating = [c for c in calls if c == "sigmoid" or c.endswith(".f")]
    assert not evaluating, f"the sweep's tail loop calls {evaluating}"
