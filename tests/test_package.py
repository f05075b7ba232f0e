import ast
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
