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
    to ``<x>._A``, alone or in a tuple."""
    bound = _names_bound_to_A(fn)
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


def _method(cls: ast.ClassDef, name: str):
    return next((node for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == name), None)


def test_step_products_read_the_workspace_operand():
    # StepWork picks Aᵀ's layout by the product's shape: a C-contiguous copy
    # for two rows or more (three to four times faster in OpenBLAS, same
    # bits), the view for one row (where the copy rounds differently).  It
    # also picks the product: np.dot for a 1-D state, np.matmul otherwise.
    # A margin product that builds its own Aᵀ, or calls a product of its
    # own, would bring back the slow operand or the one that moves bits.
    # step_many's numpy form and the float step's d >= 2 margins must read
    # the workspace's; the float step's d = 1 margins are one product each,
    # w times an entry of A's column bound once in StepWork.
    tree = ast.parse((SRC / "dynamics.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for fn, prefix in ((defs["step_many"], "work"),
                       (_method(defs["StepWork"], "step_floats"), "self")):
        assert fn is not None, "StepWork no longer has step_floats"
        products = [node for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and _output(node) == f"{prefix}.margins"]
        assert products, f"{fn.name} has no margin product into {prefix}.margins"
        for call in products:
            assert ast.unparse(call.func) == f"{prefix}.product", ast.unparse(call)
            assert ast.unparse(call.args[1]) == f"{prefix}.At", ast.unparse(call)
    float_step = _method(defs["StepWork"], "step_floats")
    columns = _names_bound(float_step, lambda v: ast.unparse(v) == "self._col") | {"self._col"}
    one_products = [node for node in ast.walk(float_step) if isinstance(node, ast.ListComp)
                    and ast.unparse(node.generators[0].iter) in columns
                    and isinstance(node.elt, ast.BinOp) and isinstance(node.elt.op, ast.Mult)
                    and ast.unparse(node.generators[0].target) in
                    {ast.unparse(node.elt.left), ast.unparse(node.elt.right)}]
    assert one_products, "step_floats' d = 1 margins no longer multiply StepWork's column"
    init = _method(defs["StepWork"], "__init__")
    col = [node for node in ast.walk(init) if isinstance(node, ast.Assign)
           and [ast.unparse(t) for t in node.targets] == ["self._col"]]
    assert col and "obj._A[:, 0]" in ast.unparse(col[0].value), "StepWork no longer binds A's column"
    picks = {ast.unparse(node.targets[0]) for node in ast.walk(defs["StepWork"])
             if isinstance(node, ast.Assign) and len(node.targets) == 1}
    assert {"self.At", "self.product"} <= picks, "StepWork no longer picks the product"
    assert _takes_a_transpose(defs["StepWork"]), "StepWork no longer builds Aᵀ"
    elsewhere = {}
    for node in tree.body:
        name, lines = getattr(node, "name", "<module>"), _takes_a_transpose(node)
        if lines and name != "StepWork":
            elsewhere.setdefault(name, []).extend(lines)
    assert not elsewhere, f"dynamics.py takes Aᵀ outside StepWork: {elsewhere}"


def _names_bound(tree, bound_to) -> set:
    """Names that ``tree`` assigns a value for which ``bound_to(value)``
    holds, alone, in a tuple, annotated or by ``:=``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            pairs = [(node.target, node.value)]
        else:
            continue
        for target, value in list(pairs):
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs.extend(zip(target.elts, value.elts))
        bound |= {t.id for t, v in pairs if isinstance(t, ast.Name) and bound_to(v)}
    return bound


def _names_bound_to_A(tree) -> set:
    """Names assigned ``<x>._A`` anywhere in ``tree``."""
    return _names_bound(tree, lambda v: isinstance(v, ast.Attribute) and v.attr == "_A")


def _products_of_A_with_itself(tree) -> list:
    """Lines that multiply A by A: a ``*``, ``@`` or ``**`` whose operands
    both read ``<x>._A`` (or a name bound to it), a power of it, or a
    product call (matmul, dot, einsum, outer, ...) given it twice."""
    bound = _names_bound_to_A(tree)

    def reads_A(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "_A"
                   or isinstance(n, ast.Name) and n.id in bound for n in ast.walk(node))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
            if reads_A(node.left) and reads_A(node.right):
                lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if reads_A(node.left):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and sum(map(reads_A, node.args)) >= 2:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_curvature_sum_formed_in_objective_alone(path):
    # Objective._curvature_sum is the one weighted sum of outer products of
    # A's rows: the Hessian, its stacks, the second moment and the trap
    # balls' bounds read it.  A product of A with itself anywhere else is a
    # second Hessian, with bits of its own.
    lines = _products_of_A_with_itself(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "objective.py":
        assert lines, "objective.py no longer forms the curvature sum"
    else:
        assert not lines, f"{path.name} multiplies A by itself on lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_transpose_taken_in_objective_and_step_work_alone(path):
    # margins come from Objective.margins, one matrix-vector product per
    # state; StepWork keeps the GD map's own Aᵀ operands.  A product with
    # Aᵀ anywhere else is a second margin product, with bits of its own.
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for node in tree.body:
        lines = _takes_a_transpose(node)
        if lines:
            found[getattr(node, "name", "<module>")] = lines
    if path.name == "objective.py":
        assert found, "objective.py no longer takes Aᵀ"
    elif path.name == "dynamics.py":
        assert set(found) == {"StepWork"}, f"dynamics.py takes Aᵀ in {found}"
    else:
        assert not found, f"{path.name} takes Aᵀ in {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_loss_value_summed_in_objective_alone(path):
    # Objective._loss_sum is the one sum of the loss over the groups: value,
    # run's losses and the sweep's read it.  A call of a loss's .f anywhere
    # else (losses.py aside, where the losses are defined and checked) is a
    # second objective value, with bits of its own.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "f"]
    if path.name == "objective.py":
        assert lines, "objective.py no longer sums the loss"
    elif path.name != "losses.py":
        assert not lines, f"{path.name} calls a loss's .f on lines {lines}"


def test_step_calls_no_python_float_reductions_or_math():
    # the one-state step does on Python floats only what rounds once per
    # operation, as numpy does.  math.exp differs from np.exp on about 5% of
    # margins, and a Python sum from np.dot's on about 40% of 2x2 products,
    # so neither may enter the step (StepWork.step_floats), its workspace or
    # step_many
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("dynamics.py", "losses.py")}
    classes = {node.name: node for node in trees["dynamics.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    scopes = {"StepWork": classes.get("StepWork"), "step_many": classes.get("step_many")}
    if scopes["StepWork"] is not None:
        scopes["StepWork.step_floats"] = _method(scopes["StepWork"], "step_floats")
    found = {}
    for scope, fn in scopes.items():
        assert fn is not None, f"dynamics.py no longer defines {scope}"
        calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
        bad = [c for c in calls if c == "sum" or c.startswith("math.")]
        if bad:
            found[scope] = bad
    assert not found, f"the one-state step calls {found}"
    # nor does either module, where the sigmoid lives, import a math
    # function under a bare name
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


def _scale_properties(tree) -> set:
    """The nodes of ``Solution.eta_two_lambda``: the scale 2/lambda itself,
    not a resolved gamma."""
    return {node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Solution"
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "eta_two_lambda"
            for node in ast.walk(fn)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_gamma_resolved_by_resolve_eta_alone(path):
    # dynamics.resolve_eta is the one place that turns gamma into a step
    # size: a division by lambda_star, or by a name bound from it, anywhere
    # else is a second copy, Solution.eta_two_lambda's 2 / lambda_star aside
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _names_bound(tree, lambda v: isinstance(v, ast.Attribute) and v.attr == "lambda_star")
    exempt = _scale_properties(tree)

    def by_lambda_star(divisor) -> bool:
        return _names(divisor, "lambda_star") or isinstance(divisor, ast.Name) and divisor.id in bound

    lines = [node.lineno for node in ast.walk(tree) if node not in exempt and (
             isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
             and by_lambda_star(node.right)
             or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)
             and by_lambda_star(node.value))]
    if path.name == "dynamics.py":
        assert lines, "dynamics.py no longer resolves gamma / lambda_star"
    else:
        assert not lines, f"{path.name} divides by lambda_star on lines {lines}"
    if path.name == "objective.py":
        assert exempt, "objective.py no longer defines Solution.eta_two_lambda"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_check_separable_called_by_minimize_alone(path):
    # whether a finite minimizer exists is decided once, by minimize; a
    # second caller is a second copy of that decision
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _names(node.func, "check_separable")]
    if path.name == "objective.py":
        fn = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "minimize")
        inside = [node for node in ast.walk(fn) if node in calls]
        assert calls and inside == calls, "minimize no longer owns the decision"
    else:
        lines = [node.lineno for node in calls]
        assert not lines, f"{path.name} calls check_separable on lines {lines}"
