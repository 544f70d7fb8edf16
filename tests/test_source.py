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


def _takes_a_transpose(fn) -> list:
    """Lines of ``fn`` that take Aᵀ: ``.T`` of ``<x>._A`` or of a name bound
    to ``<x>._A``."""
    bound = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Attribute) and node.value.attr == "_A"
             for target in node.targets if isinstance(target, ast.Name)}
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "T"
            and (isinstance(node.value, ast.Attribute) and node.value.attr == "_A"
                 or isinstance(node.value, ast.Name) and node.value.id in bound)]


def _output(call: ast.Call):
    """The source of the array a call writes into: its third positional
    argument (as ``step_many`` passes outputs) or its ``out`` keyword."""
    if len(call.args) >= 3:
        return ast.unparse(call.args[2])
    return next((ast.unparse(kw.value) for kw in call.keywords if kw.arg == "out"), None)


def test_step_products_read_the_workspace_operand():
    # StepWork picks Aᵀ's layout by the product's shape: a C-contiguous copy
    # for two rows or more (three to four times faster in OpenBLAS, same
    # bits), the view for one row (where the copy rounds differently).  It
    # also picks the product: np.dot for a 1-D state, np.matmul otherwise.
    # A margin product that builds its own Aᵀ, or calls a product of its
    # own, would bring back the slow operand or the one that moves bits.
    # step_many has one margin product on each of its paths, the logistic
    # one-state branch and the numpy form; both must read the workspace's.
    tree = ast.parse((SRC / "dynamics.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    margins = [node for node in ast.walk(defs["step_many"])
               if isinstance(node, ast.Call) and _output(node) == "work.margins"]
    assert margins, "step_many has no margin product into work.margins"
    for call in margins:
        assert ast.unparse(call.func) == "work.product", ast.unparse(call)
        assert ast.unparse(call.args[1]) == "work.At", ast.unparse(call)
    picks = {ast.unparse(node.targets[0]) for node in ast.walk(defs["StepWork"])
             if isinstance(node, ast.Assign) and len(node.targets) == 1}
    assert {"self.At", "self.product"} <= picks, "StepWork no longer picks the product"
    assert _takes_a_transpose(defs["StepWork"]), "StepWork no longer builds Aᵀ"
    # the Lyapunov estimate's curvatures of recorded states are not a step
    allowed = {"StepWork", "_lyapunov_from_states"}
    elsewhere = {}
    for node in tree.body:
        name, lines = getattr(node, "name", "<module>"), _takes_a_transpose(node)
        if lines and name not in allowed:
            elsewhere.setdefault(name, []).extend(lines)
    assert not elsewhere, f"dynamics.py takes Aᵀ outside StepWork: {elsewhere}"


def test_step_calls_no_python_float_reductions_or_math():
    # the one-state step does on Python floats only what rounds once per
    # operation, as numpy does.  math.exp differs from np.exp on about 5% of
    # margins, and a Python sum from np.dot's on about 40% of 2x2 products,
    # so neither may enter the step, its workspace or the sigmoid's tail
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("dynamics.py", "losses.py")}
    scopes = [("dynamics.py", "StepWork"), ("dynamics.py", "step_many"),
              ("losses.py", "weighted_sigmoid")]
    found = {}
    for module, scope in scopes:
        fn = next((node for node in trees[module].body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == scope),
                  None)
        assert fn is not None, f"{module} no longer defines {scope}"
        calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
        bad = [c for c in calls if c == "sum" or c.startswith("math.")]
        if bad:
            found[scope] = bad
    assert not found, f"the one-state step calls {found}"
    # nor does either module import a math function under a bare name
    for module, tree in trees.items():
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "math"
                    for alias in node.names]
        assert not imported, f"{module} imports {imported} from math"


def _names(node, name) -> bool:
    """Whether ``node`` is the name ``name``, bare or as an attribute."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_cli_maps_value_errors_in_main_alone():
    # main turns any ValueError into exit 1; a wrapper that re-raises it as
    # another type is a second copy of that decision.  cmd_eos adds the
    # recipe path to the message and re-raises a ValueError.
    tree = ast.parse((SRC / "cli.py").read_text())
    catching = sorted(
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler) and node.type
        and any(_names(n, "ValueError") for n in ast.walk(node.type)))
    assert catching == ["cmd_eos", "main"], catching
    assert not [node.lineno for node in ast.walk(tree) if _names(node, "UsageError")]


def test_run_loop_records_states_only():
    # the margins of the recorded states are computed after the loop, from
    # the states, with the same bits; the loop keeps no second copy
    tree = ast.parse((SRC / "dynamics.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "run")
    reads = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Attribute)
             and node.attr == "margins" and ast.unparse(node.value) == "work"]
    assert not reads, f"run reads work.margins on lines {reads}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_gamma_resolved_by_resolve_eta_alone(path):
    # dynamics.resolve_eta is the one place that turns gamma into a step size
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
             and _names(node.right, "lambda_star")]
    if path.name == "dynamics.py":
        assert lines, "dynamics.py no longer resolves gamma / lambda_star"
    else:
        assert not lines, f"{path.name} divides by lambda_star on lines {lines}"
