import ast
import os

import pytest

import moebius_dual

SOURCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "moebius_dual")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert moebius_dual.__version__ == project["version"]


def _source_trees():
    for name in sorted(os.listdir(SOURCE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE_DIR, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_checks_use_one_mechanism():
    # python -O strips assert statements, so every self-check goes through
    # errors._require / VerificationFailure instead
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == []


def _method_calls(attr, *, bare=False):
    """Source positions of calls ``x.attr(...)``, or only ``x.attr()`` when bare."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr and not (bare and (node.args or node.keywords))
    ]


def test_library_runs_no_elimination_for_known_inverses():
    # every H^-1 is read off a zeta pair or a closed form; RationalMatrix.inverse
    # stays a public method, but nothing in the library calls it
    assert _method_calls("inverse") == []


def test_library_builds_no_fraction_arrays():
    # the library reads matrices through RationalMatrix products and signs();
    # RationalMatrix.array() stays public for callers, but nothing in src calls
    # it; bare, since np.array(...) always takes an argument
    assert _method_calls("array", bare=True) == []


def test_modules_import_only_names_they_use():
    # __init__ imports to re-export; every other module uses what it imports
    unused = []
    for name, tree in _source_trees():
        if name == "__init__.py":
            continue
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items() if ident not in used]
    assert unused == []
