import ast
import inspect
from pathlib import Path

import adaridge


def test_every_exported_name_resolves():
    missing = [name for name in adaridge.__all__ if not hasattr(adaridge, name)]
    assert missing == []


def test_every_error_class_is_raised():
    # An error class with no raise site documents a failure the library
    # cannot report.
    src = Path(adaridge.__file__).parent
    family = {"AdaRidgeError"}
    tree = ast.parse((src / "errors.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in family
                for base in node.bases):
            family.add(node.name)
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert family - {"AdaRidgeError"} - raised == set()


def test_every_public_default_is_passed_somewhere():
    # A defaulted parameter that no call in the package passes is an option
    # with one value in use.  Dataclass fields are exempt: configs are
    # filled from outside input.
    src = Path(adaridge.__file__).parent
    positional: dict[str, float] = {}
    keywords: dict[str, set] = {}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    unused = []
    for name in adaridge.__all__:
        obj = getattr(adaridge, name)
        if not inspect.isfunction(obj):
            continue
        for i, param in enumerate(inspect.signature(obj).parameters.values()):
            if param.default is param.empty:
                continue
            by_position = (param.kind is not param.KEYWORD_ONLY
                           and positional.get(name, 0) > i)
            if not (by_position or param.name in keywords.get(name, ())):
                unused.append(f"{name}({param.name}=)")
    assert unused == []


def test_sources_parse_as_python_3_10():
    # The oldest interpreter the package supports; syntax newer than it
    # fails here on any newer interpreter.
    src = Path(adaridge.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _calls_by_function(node, where=None):
    """``(enclosing function name, called name)`` for every call under
    ``node``, ``called`` being the attribute or the bare name called."""

    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield where, (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _calls_by_function(child, inner)


def test_every_exported_function_has_a_caller_in_the_package():
    # An export that no module calls serves only its tests, and belongs
    # with the oracles in tests/oracles.py.
    src = Path(adaridge.__file__).parent
    called = {name for path in src.glob("*.py")
              for _, name in _calls_by_function(ast.parse(path.read_text()))}
    functions = {name for name in adaridge.__all__
                 if inspect.isfunction(getattr(adaridge, name))}
    assert functions - called == set()


def test_only_the_solver_touches_the_fit_memo():
    # model.py defines Dataset._memo; solver.py is its one reader and writer.
    src = Path(adaridge.__file__).parent
    users = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "_memo"
                    or isinstance(node, ast.FunctionDef) and node.name == "_memo"):
                users.add(path.name)
    assert users == {"model.py", "solver.py"}


def test_fit_results_are_built_only_in_finish():
    src = Path(adaridge.__file__).parent
    builders = set()
    for path in src.glob("*.py"):
        for where, name in _calls_by_function(ast.parse(path.read_text())):
            if name in ("ModeFit", "PosteriorState"):
                builders.add((path.name, where, name))
    assert builders == {("solver.py", "_finish", "ModeFit"),
                        ("solver.py", "_finish", "PosteriorState")}



def test_ridge_solves_only_in_the_cycle_and_the_start():
    # The joint solver, the polish's warm start and EM all iterate through
    # solver._cycle; the only other ridge solve is the ridged start.
    src = Path(adaridge.__file__).parent
    solves = set()
    for path in src.glob("*.py"):
        for where, name in _calls_by_function(ast.parse(path.read_text())):
            if name == "_ridge_solve":
                solves.add((path.name, where))
    assert solves == {("solver.py", "_cycle"), ("model.py", "initial_beta")}


def test_least_squares_only_in_fit_ols():
    # The solvers start from a Cholesky solve of the cached X'X
    # (Dataset.initial_beta); fit_ols, the documented least squares, is
    # the one lstsq.
    src = Path(adaridge.__file__).parent
    solves = set()
    for path in src.glob("*.py"):
        for where, name in _calls_by_function(ast.parse(path.read_text())):
            if name == "lstsq":
                solves.add((path.name, where))
    assert solves == {("baselines.py", "fit_ols")}


def test_em_runs_no_loop_of_its_own():
    src = Path(adaridge.__file__).parent
    loops = [node for node in ast.walk(ast.parse((src / "em.py").read_text()))
             if isinstance(node, (ast.For, ast.While))]
    assert loops == []


def test_newton_steps_only_in_the_newton_polish():
    # Every mode the evidence polish returns is a converged Newton point:
    # no other code takes a Newton step or its log determinant.
    src = Path(adaridge.__file__).parent
    steps = set()
    for path in src.glob("*.py"):
        for where, name in _calls_by_function(ast.parse(path.read_text())):
            if name == "_newton_step":
                steps.add((path.name, where))
    assert steps == {("solver.py", "_newton_polish")}
