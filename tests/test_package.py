import os

import pytest

import moebius_dual

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert moebius_dual.__version__ == project["version"]
