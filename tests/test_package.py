import ast
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import adaridge
from adaridge import model


def test_every_exported_name_resolves():
    missing = [name for name in adaridge.__all__ if not hasattr(adaridge, name)]
    assert missing == []


def test_the_exports_are_the_modules_exports():
    # each public name is declared once, in its module's __all__, and the
    # package republishes exactly those
    declared = ["__version__", "AdaRidgeError"]
    for info in pkgutil.iter_modules(adaridge.__path__):
        module = importlib.import_module(f"adaridge.{info.name}")
        declared += getattr(module, "__all__", [])
    assert len(set(adaridge.__all__)) == len(adaridge.__all__)
    assert sorted(adaridge.__all__) == sorted(declared)


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
    # fails here on any newer interpreter.  The tests and tools run on it too.
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in (Path(adaridge.__file__).parent, root / "tests",
                                 root / "tools")
             for path in sorted(folder.glob("*.py"))]
    assert {path.parent.name for path in paths} == {"adaridge", "tests", "tools"}
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _nodes_by_function(node, where=None):
    """``(enclosing function name, node)`` for every node under ``node``,
    the name being ``None`` at module level."""

    for child in ast.iter_child_nodes(node):
        yield where, child
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        yield from _nodes_by_function(child, inner)


def _calls_by_function(node):
    """``(enclosing function name, called name)`` for every call under
    ``node``, ``called`` being the attribute or the bare name called."""

    for where, child in _nodes_by_function(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield where, (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))


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
            if name in ("ModeFit", "PosteriorState", "EmFit"):
                builders.add((path.name, where, name))
    assert builders == {("solver.py", "_finish", "ModeFit"),
                        ("solver.py", "_finish", "PosteriorState"),
                        ("solver.py", "fit_em", "EmFit")}



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


def test_only_chol_solve_calls_lapack():
    # _FLAPACK is scipy's LAPACK extension: its one routine the package
    # binds is dposv, as _POSV, and _chol_solve is the one function that
    # reaches it.  Its __file__ serves the BLAS thread pin.
    src = Path(adaridge.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}

    def routine(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "_FLAPACK" and not node.attr.startswith("__"))

    routines = {(name, where, node.attr) for name, tree in trees.items()
                for where, node in _nodes_by_function(tree) if routine(node)}
    assert routines == {("model.py", None, "dposv")}
    bound = {target.id for tree in trees.values() for node in tree.body
             if isinstance(node, ast.Assign) and routine(node.value)
             for target in node.targets}
    assert bound == {"_POSV"}
    callers = {(name, where) for name, tree in trees.items()
               for where, node in _nodes_by_function(tree)
               if where and isinstance(node, ast.Name) and node.id in bound}
    assert callers == {("model.py", "_chol_solve")}


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
    # EM iterates only through solver._cycle
    src = Path(adaridge.__file__).parent
    em = [node for node in ast.parse((src / "solver.py").read_text()).body
          if isinstance(node, ast.FunctionDef) and node.name in ("fit_em", "_em_step")]
    assert len(em) == 2
    loops = [node for fn in em for node in ast.walk(fn)
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


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports the
    package from this source tree."""

    src = str(Path(adaridge.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_fit_fingerprint_repeats_itself():
    # tools/fit_fingerprint.py checks a change for bit-identical fits and
    # MC k-sweep records, so one tree must print the same counts and
    # digests on every run
    tool = Path(__file__).resolve().parents[1] / "tools" / "fit_fingerprint.py"
    outputs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(tool), "--seeds", "1"],
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        outputs.append([line.split() for line in out.stdout.splitlines()])
    assert outputs[0] == outputs[1]
    (fits, _, _, digest), (reps, _, _, _, study) = outputs[0]
    assert fits == "228" and re.fullmatch("[0-9a-f]{64}", digest)
    assert reps == "1" and re.fullmatch("[0-9a-f]{64}", study)


def test_the_golden_pool_check_rejects_an_unknown_workload():
    # a misspelt workload exits 2, naming the known ones, before the
    # workload named ahead of it runs
    tool = Path(__file__).resolve().parents[1] / "tools" / "check_golden_pool.py"
    out = subprocess.run([sys.executable, str(tool), "study-laplace", "fit-wid"],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("unknown workload fit-wid; "
                          "known: study-laplace, study-mc, fit-wide\n")


def test_importing_the_package_imports_no_scipy_linalg():
    # scipy.linalg costs about 0.3 s and 23 MB to import; only its LAPACK
    # extension, loaded from its file, may be there
    loaded = _fresh_python(
        "import sys, adaridge, adaridge.cli\n"
        "print(' '.join(m for m in sys.modules"
        " if m == 'scipy.linalg' or m.startswith('scipy.linalg.')))")
    assert set(loaded.split()) <= {"scipy.linalg._flapack"}


def test_a_run_without_a_pool_loads_no_pool_or_masked_array_modules(tmp_path):
    # numpy.ma (about 15 ms, 1.2 MB; np.median imports it), multiprocessing
    # and concurrent.futures (about 8 ms, 1 MB) serve no fit and no
    # one-worker run; numpy itself may load some of them (1.24 loads numpy.ma)
    loaded = _fresh_python(
        "import sys\n"
        "import numpy as np\n"
        "def watched():\n"
        "    return {m for m in sys.modules if m.split('.')[0] in"
        " ('multiprocessing', 'concurrent') or m.split('.')[:2] == ['numpy', 'ma']}\n"
        "base = watched()\n"
        "import adaridge, adaridge.cli\n"
        "from adaridge import ExperimentConfig, run_experiment, select_eta, standardize\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.standard_normal((40, 4))\n"
        "data, _ = standardize(x, x[:, 0] + rng.standard_normal(40))\n"
        "select_eta(data, (0.0, 1.0))\n"
        "config = ExperimentConfig(3, 30, 3.0, 2, test_size=50, eta_grid=(0.0, 1.0),"
        " estimators=('aris-eb', 'ols'))\n"
        f"run_experiment(config, {str(tmp_path)!r}, jobs=1)\n"
        "print(' '.join(sorted(watched() - base)))")
    assert loaded == ""


def test_posv_is_scipys_own():
    from scipy.linalg import get_lapack_funcs

    (posv,) = get_lapack_funcs(("posv",), dtype=np.float64)
    assert posv is model._POSV


def test_posv_is_scipys_own_when_scipy_linalg_came_first():
    assert _fresh_python(
        "import numpy as np\n"
        "from scipy.linalg import get_lapack_funcs\n"
        "from adaridge import model\n"
        "(posv,) = get_lapack_funcs(('posv',), dtype=np.float64)\n"
        "print(posv is model._POSV)") == "True"


def test_a_directory_without_the_lapack_extension_raises(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        model._lapack_extension(str(tmp_path))


def test_the_workflow_names_only_files_that_exist():
    # The CI workflow runs scripts and tests by path; a moved or deleted
    # one would first fail on a runner.  The workflow is read as text,
    # since the test extras install no YAML parser, and no step is run.
    root = Path(__file__).resolve().parents[1]
    text = (root / ".github" / "workflows" / "tests.yml").read_text()
    paths = set(re.findall(r"(?<![\w./-])((?:tools|benchmarks|tests)/[\w./-]*\w)", text))
    assert {"tools/line_coverage.py", "tools/check_golden_pool.py",
            "benchmarks/run.py"} <= paths
    assert sorted(p for p in paths if not (root / p).is_file()) == []


def _workflow_runs(text: str) -> list[str]:
    """The ``run:`` values of a workflow read as text: one-line plain
    values and dedented ``|`` blocks."""

    runs, lines = [], text.splitlines()
    for i, line in enumerate(lines):
        m = re.match(r"( *(?:- )?)run:(.*)$", line)
        if not m:
            continue
        value = m.group(2).strip()
        # only the two forms read here: a quoted, folded or chomped value
        # would need a YAML parser
        assert value and value[0] not in "'\"[{>" and value not in ("|-", "|+"), line
        if value != "|":
            runs.append(value)
            continue
        block = []
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= len(m.group(1)):
                break
            block.append(body)
        runs.append(textwrap.dedent("\n".join(block)).rstrip("\n") + "\n")
    return runs


def _python_snippets(script: str) -> list[str]:
    """The code of every ``python -c`` / ``python3 -c`` in a bash script."""

    words = shlex.split(script.replace("\\\n", " "), comments=True)
    return [code for cmd, flag, code in zip(words, words[1:], words[2:])
            if cmd in ("python", "python3") and flag == "-c"]


def test_the_workflow_steps_parse():
    # A quoting slip in a step's bash or in an inline Python snippet would
    # first show on a runner; here every run value must pass bash -n and
    # every snippet compile.  No step is run.
    root = Path(__file__).resolve().parents[1]
    runs = _workflow_runs((root / ".github" / "workflows" / "tests.yml").read_text())
    assert "python3 tools/line_coverage.py" in runs
    assert any(run.startswith("for check in ") for run in runs)
    for run in runs:
        out = subprocess.run(["bash", "-n"], input=run, capture_output=True, text=True,
                             timeout=30)
        assert out.returncode == 0, (run, out.stderr)
    snippets = [code for run in runs for code in _python_snippets(run)]
    assert "import adaridge.cli" in snippets
    assert sum("json.loads" in code for code in snippets) == 2
    for code in snippets:
        compile(code, "<workflow snippet>", "exec")


def test_the_workflow_runs_read_as_text_are_yamls_own():
    # the text reader above against a YAML parser, where one is installed
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    text = (root / ".github" / "workflows" / "tests.yml").read_text()
    parsed = [step["run"] for job in yaml.safe_load(text)["jobs"].values()
              for step in job["steps"] if "run" in step]
    assert _workflow_runs(text) == parsed
