import ast
import inspect
import os
import re
import subprocess
import sys

import pytest

import moebius_dual

SOURCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "moebius_dual")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert moebius_dual.__version__ == project["version"]


def test_numpy_floor_covers_the_calls_made():
    # np.bitwise_count, which the coarse-graining and Monte Carlo code call, came with
    # numpy 2.0; read with a regex, since tomllib needs Python 3.11
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path) as fh:
        floor = re.search(r'"numpy>=(\d+)\.(\d+)', fh.read())
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)


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


def test_library_raises_only_typed_errors():
    # bad input raises InvalidParameter, which is also a ValueError, naming
    # the bad argument; no raise in src is a bare ValueError or the base class
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and getattr(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "id", None)
        in ("ValueError", "MoebiusDualError")
    ]
    assert found == []


def test_size_rules_are_the_constants_of_poset():
    # one state cap, in poset.py, and no self-check size: no module spells
    # out 256 or 512, no other one 4096, and a caller's order has no validate
    # switch
    found = sorted(
        (name, node.value)
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (256, 512, 4096)
    )
    assert found == [("poset.py", 4096)]
    poset_tree = dict(_source_trees())["poset.py"]
    constants = {
        target.id: node.value.value
        for node in poset_tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
    }
    assert constants["MAX_STATES"] == 4096
    # the one other state count, the mode-product crossover, picks how a
    # product is made and never whether a check runs
    state_constants = sorted(
        f"{name}:{target.id}"
        for name, tree in _source_trees()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_STATES")
    )
    assert state_constants == ["poset.py:MAX_STATES", "poset.py:_MODE_STATES"]
    assert list(inspect.signature(moebius_dual.build_poset).parameters) == ["labels", "leq"]
    # nor does any other function: every order built from a matrix is
    # validated, or is a claw power built as it is
    switches = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg == "validate"
    ]
    assert switches == []
    # poset.py alone reads the cap and compares counts with it: no other module
    # names its variable, the environment or MAX_STATES, and no public
    # function takes a cap of its own
    readers = sorted({
        name
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and node.value == "MOEBIUS_DUAL_MAX_STATES")
        or (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.Name) and node.id == "MAX_STATES")
    })
    assert readers == ["poset.py"]
    takes_cap = [
        f"{name}:{node.name}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and "cap" in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    ]
    assert takes_cap == []


def test_offspring_laws_are_read_through_their_fields():
    # a law's masks and integer weights are built once, at construction: no
    # src code reads the (nu, Fraction) view ``support``, and the helpers that
    # rebuilt them per call are gone
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _source_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "support")
        # a call, a reference, a definition or an import of either helper
        or any(getattr(node, field, None) in ("_atom_weights", "_children_array")
               for field in ("id", "attr", "name"))
    ]
    assert found == []


def _calls_in(tree, function):
    """Names called inside the top-level function ``function`` of a module."""
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id for node in ast.walk(body)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_cli_dispatches_on_the_command_name():
    # a parser reused across main calls must not hold the cmd_* functions it
    # saw when it was built, so no subparser binds one as a default
    found = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(dict(_source_trees())["cli.py"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_defaults" and any(k.arg == "fn" for k in node.keywords)
    ]
    assert found == []


def test_entry_strings_become_integer_pairs_without_fraction():
    tree = dict(_source_trees())["rational.py"]
    for function in ("_from_values", "_parse_entry"):
        assert "Fraction" not in _calls_in(tree, function), function
    assert "_parse_entry" in _calls_in(tree, "_ratio")


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import moebius_dual.cli\n"
        "print(len(built))\n"
        "moebius_dual.cli.main(['--help'])\n"
        "print(len(built))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(SOURCE_DIR, os.pardir),
                                                        os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")
    assert lines[0] == "0" and int(lines[-2]) > 0


# Every identity name the library checks.  Dropping or renaming a check must
# edit this list, so that no check disappears unnoticed.
IDENTITIES = [
    "(P' - I) rho = 0 has a solution",
    "H H^-1 = I",
    "Moran law is exchangeable",
    "P on covering states stochastic",
    "P stochastic",
    "P stochastic => coarse P stochastic",
    "Q stochastic => coarse Q stochastic",
    "Q substochastic",
    "Q substochastic => coarse Q substochastic",
    "Q' compatible with the relation",
    "Q_h stochastic <=> Q h = h",
    "Q_h substochastic <=> Q h <= h",
    "Wright-Fisher law is exchangeable",
    "Z M = I",
    "Z nu* = g",
    "Z' Q' = P Z'",
    "class sizes are multinomial",
    "coarse H = product-binomial form",
    "coarse H Q' = P H",
    "coarse H coarse H^-1 = I",
    "coarse H hypergeometric inverse = I",
    "coarse P = block forward form",
    "coarse Q = backward moment formula",
    "coarse Z M = I",
    "coarse Z' M' = I",
    "coarse partition rows are representative-free",
    "coarse set closed forms = enumeration",
    "coarse set rows are representative-free",
    "condition (i) <=> Q >= 0",
    "condition (i) images = Q",
    "condition (ii) => Q >= 0",
    "condition (ii) => Q monotone",
    "cone member g >= 0",
    "haploid Q and coarse Q stochastic",
    "order = permuted Kronecker power",
    "partition mu = closed form",
    "rho > 0",
    "rho P = rho",
    "skeletons of the partitions = skeletons of n",
    "subset mu = closed form",
    "sum of rho != 0",
    "support of P => support of Q",
]


def test_identity_names_are_pinned():
    # the identity argument of each _require, _require_equal and
    # VerificationFailure call: a string literal, or a module-level string
    # constant; only the two helpers forward their own ``identity`` parameter
    position = {"_require": 1, "_require_equal": 2, "VerificationFailure": 0}
    names, forwarded = set(), []
    for name, tree in _source_trees():
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in position):
                continue
            arg = node.args[position[node.func.id]]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in constants:
                names.add(constants[arg.id])
            else:
                forwarded.append(f"{name}:{ast.unparse(arg)}")
    assert sorted(forwarded) == ["errors.py:identity", "rational.py:identity"]
    assert sorted(names) == IDENTITIES


def _scope(parents, node):
    """The name of the function that encloses ``node``, or None at module level."""
    while not isinstance(node, (ast.FunctionDef, ast.Module)):
        node = parents[node]
    return getattr(node, "name", None)


def test_no_speedup_brings_in_floats():
    # only the Monte Carlo summary statistics (cannings._summary) are floats:
    # no other float() call, no numpy float dtype or numpy.random, and no
    # bincount weights, which numpy sums in float64
    found = []
    for name, tree in _source_trees():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                bad = (name, _scope(parents, node)) != ("cannings.py", "_summary")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bad = node.value.id in ("np", "numpy") and (node.attr.startswith("float")
                                                            or node.attr == "random")
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
                called = getattr(node.func, "attr", getattr(node.func, "id", None))
                bad = called == "bincount" and (len(node.args) > 1
                                                or any(k.arg == "weights" for k in node.keywords))
            else:
                bad = False
            if bad:
                found.append(f"{name}:{node.lineno}:{ast.unparse(node)}")
    assert found == []


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # hypothesis reports a failure through libcst, whose import warns that a
    # mypy_extensions name is deprecated; pyproject's filterwarnings lets that
    # warning pass, so the session goes on to the next test
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    config = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config,
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
