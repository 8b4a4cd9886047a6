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


def test_library_runs_no_elimination_for_known_inverses():
    # every H^-1 is read off a zeta pair or a closed form; RationalMatrix.inverse
    # stays a public method, but nothing in the library calls it
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
    ]
    assert found == []
