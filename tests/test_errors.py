"""The error design: a bad input raises ``GapnetError``, so the command line
reports it in one line; any other exception type would reach the user as
a traceback."""

import ast
import builtins
from pathlib import Path

import gapnet

SOURCES = sorted(Path(gapnet.__file__).parent.glob("*.py"))
RAISED = {"GapnetError", "FileNotFoundError"}


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _raises(tree):
    """(enclosing class name or None, raise node) for every raise in ``tree``."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((cls, child))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def test_the_only_exception_class_is_gapnet_error():
    classes = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    exceptions = set()
    grew = True
    while grew:  # a class is an exception if one of its bases is
        grew = False
        for node in classes:
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if node.name not in exceptions and any(
                    b in exceptions or _is_builtin_exception(b) for b in bases):
                exceptions.add(node.name)
                grew = True
    assert exceptions == {"GapnetError"}


def test_every_raise_names_a_type_the_command_line_reports():
    wrong = []
    for path in SOURCES:
        for cls, node in _raises(ast.parse(path.read_text())):
            if node.exc is None:  # a bare re-raise
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            stub = name == "NotImplementedError" and (path.name, cls) == ("nn.py", "Layer")
            if name not in RAISED and not stub:
                wrong.append(f"{path.name}:{node.lineno} raises {name}")
    assert wrong == []


def test_json_is_parsed_only_by_the_one_reader():
    """``errors.json_object`` parses every JSON gapnet reads and checks that it holds an
    object, so no caller meets a list or a number where it expects keys."""
    calls = []

    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in ("json.loads",
                                                                           "json.load"):
                calls.append((path.name, fn))
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                calls.append((path.name, "from json import"))
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if is_fn else fn)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path, None)
    assert calls == [("errors.py", "json_object")]
